"""The incremental binomial sum S_n(a), the split a = p*t + <a>_p, and the
scan of Lemma 2.3's generalized-binomial product.

S_n(a) = sum_{k<=n} binom(a,k) binom(-1-a,k) / k carries the product of
both generalized binomials' numerators from k-1 to k; since n < p every
division is by a unit, so the kernel sums exactly modulo a power of p in
one pass, and s_sum reads the sum at each endpoint of a tuple from it.

Lemma 2.3 compares a product B(k) with a closed form at every k of a range;
both sides, and each step from k-1 to k, are polynomials in tau (t = tau
mod p^3) whose coefficients depend only on p.  Lem23Scan builds the sides
once per prime and range and checks the steps at a few points of tau; a
sample's row is then read at its tau in O(1) when the steps hold.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, compress, repeat, tee
from operator import add, mod, mul, sub

from . import kernels
from .errors import BadParameter
from .padic import PAdic

__all__ = ["Lem23Scan", "ReducedPoint", "s_sum", "reduce_point"]


# the decomposition a = p*t + residue, residue in {0,...,p-1} and t a PAdic;
# tn is the integer t*den, den the denominator of a
ReducedPoint = namedtuple("ReducedPoint", "residue t tn")


def s_sum(
    a: PAdic, ends: tuple[int, ...], p: int, N: int, inv: list[int]
) -> tuple[PAdic, ...]:
    """(S_n(a) for n in ends), all n <= p-1.

    S_n(a) = sum_{k=1}^{n} binom(a,k) binom(-1-a,k) / k.  inv is an inverse
    table mod p**N covering 1..max(ends).  Each value is known mod
    p**min(N, aprec of a) and read from one kernel pass to max(ends); the
    kernel reads the same table at a shorter modulus, since its entries are
    still congruent to 1/k there.
    """
    top = max(ends)
    if top > p - 1:
        raise BadParameter("s_sum requires n <= p-1")
    if a.prime != p:
        raise BadParameter("prime mismatch")
    if top < 1 or a.zero_flag:
        return (PAdic.zero(p),) * len(ends)
    if a.valuation < 0:
        raise BadParameter("s_sum requires a in Z_p")
    aprec = min(N, a.aprec)
    prefix = kernels.s_sum(a.lift(aprec), top, p, p**aprec, inv)
    return tuple(
        PAdic.zero(p) if k < 1 else PAdic.from_int_exact(prefix[k], p=p, aprec=aprec)
        for k in ends
    )


def reduce_point(a: Fraction, p: int, N: int) -> ReducedPoint:
    """Split a = p*t + <a>_p; requires p coprime to a's denominator.

    With a = num/den, p divides num - residue*den, and t = tn/den for tn
    that quotient: built from the integers, with no Fraction.
    """
    num, den = a.numerator, a.denominator
    if den % p == 0:
        raise BadParameter("p divides the denominator of a")
    residue = num % p * pow(den, -1, p) % p
    tn = (num - residue * den) // p
    if tn == 0:
        return ReducedPoint(residue, PAdic.zero(p), 0)
    return ReducedPoint(residue, PAdic.from_rational(tn, den, p=p, digits=N), tn)


def _closed_form(p: int, half_range: bool, top: int, m: int, inv: list[int]):
    """[X_1, X_2, X_3] with rhs_k / p^j = sum_r tau^r X_r[k-1] mod m, each a
    list over k = 1..top reduced mod m.

    With i = 1/k, O_r(k) = sum_{l<=k} 1/(2l-1)^r and H(k) = sum_{l<=k} 1/l,
    the half range (m = p^3) has
        X_1 = i + 2p i O_1 + 2p^2 i O_1^2,
        X_2 = -p i^2 - 2p^2 i^2 O_1 - 4p^2 i O_2,  X_3 = p^2 i^3,
    and the full range (m = p^2), where rhs_k / p^2 = tau(tau+1)(D - 2pF tau)
    with D = i^2 (1 + 2pH(k) - p i) and F = i^3, has
        X_1 = D,  X_2 = D - 2pF,  X_3 = -2pF.
    """
    # the table's entries as they are, congruent to 1/k mod m
    i = inv[1 : top + 1]
    if half_range:
        io = inv[1 : 2 * top : 2]
        # q = p O_1; X_1 = i (1 + 2q(1 + q)), X_2 = -p i (i (1 + 2q) + 4p O_2)
        q = list(map(mod, map(mul, accumulate(io), repeat(p)), repeat(m)))
        x1 = map(add, map(mul, map(add, q, q), map(add, q, repeat(1))), repeat(1))
        x1 = list(map(mod, map(mul, i, x1), repeat(m)))
        u = map(add, map(add, q, q), repeat(1))
        o2x4p = map(mul, accumulate(map(mul, io, io)), repeat(4 * p))
        x2 = map(mul, map(mul, i, repeat(-p)), map(add, map(mul, i, u), o2x4p))
        x2 = list(map(mod, x2, repeat(m)))
        x3 = list(map(mod, map(mul, map(mul, map(mul, i, i), i), repeat(p * p)), repeat(m)))
        return [x1, x2, x3]
    inner = map(sub, map(mul, accumulate(i), repeat(2 * p)), map(mul, i, repeat(p)))
    x1 = list(map(mod, map(mul, map(mul, i, i), map(add, inner, repeat(1))), repeat(m)))
    x3 = list(map(mod, map(mul, map(mul, map(mul, i, i), i), repeat(-2 * p)), repeat(m)))
    return [x1, list(map(mod, map(add, x1, x3), repeat(m))), x3]


def _poly(coeffs: tuple[int, ...], tau: int, m: int) -> int:
    """sum_{r=1}^{3} tau^r coeffs[r-1] mod m."""
    c1, c2, c3 = coeffs
    return tau * (c1 + tau * (c2 + tau * c3)) % m


class Lem23Scan:
    """Lemma 2.3 mod p^4 on one range of one prime, for every tau at once.

    scan(tau) is (k, B(k), rhs_k) mod p^4 at the first k in 1..top where
    B(k) = binom(T+k-1, top) * binom(-T-k-1, top), T = p*tau (tau = t mod
    p^3 for T = pt), differs from its closed form rhs_k, or (None, B(top),
    rhs_top) when they agree at every k; top = (p-1)/2 (half_range) or p-1.
    inv holds 1/i mod p^4, or mod a higher power of p, for 0 < i < p.

    The factors of B(k) include T, and on the full range also T+p, so B(k)
    and rhs_k are p^j times p-adic integers, j = 1 on the half range and
    j = 2 on the full range; the scan compares the quotients mod m =
    p^(4-j).  B(k+1) (T+k-top)(T+k+1) = B(k) (T+k)(T+k+1+top) and the
    factors on the left are units, so B(k) = rhs_k at every k exactly when
    B(1) = rhs_1 and each step rhs_{k+1} (T+k-top)(T+k+1) = rhs_k (T+k)
    (T+k+1+top) holds, and the first k where this fails is the first
    mismatch.

    rhs_k / p^j = sum_r tau^r X_r[k-1] comes from the lists of _closed_form,
    and B(1) top!^2 / p^j from the factors of B(1), carried as a series in
    T up to T^2 (T^3 = 0 mod p^3): the direct side reads no inverse table.
    Each step is tau times a polynomial in tau of degree at most 4, or 3
    on the full range, where the tau^2 coefficient p^2 of the quadratic
    factors is 0 mod p^2.  Such a polynomial vanishes mod m at every tau
    exactly when it does at one point more than its degree, given points
    whose differences are units (their Vandermonde matrix is then
    invertible mod m): tau = 1..5 are, and are units, for p >= 7
    (checks.MIN_PRIME).  So the build scans the steps there; when none
    fails, no step fails at any tau, the lists are dropped and a call
    costs O(1), as with a true inverse table.  Otherwise a call scans the
    steps at its own tau.
    """

    __slots__ = ("p", "top", "m", "b1", "first", "last", "closed")

    def __init__(self, p: int, half_range: bool, inv: list[int]):
        top = (p - 1) // 2 if half_range else p - 1
        m = p**3 if half_range else p**2
        self.p, self.top, self.m = p, top, m
        self.closed = _closed_form(p, half_range, top, m, inv)
        self.first = tuple(x[0] for x in self.closed)
        self.last = tuple(x[-1] for x in self.closed)
        if not any(map(self._first_step_failure, range(1, 6 if half_range else 5))):
            self.closed = None

        # B(1) top!^2 / p = tau prod_{i=1}^{top-1} (T-i) prod_{i=0}^{top-1} (-T-2-i)
        # on the half range; on the full range B(1) top!^2 / p^2 is
        # -tau(tau+1) times the same products, the second one to i = top-2.
        # Each is a series c0 + c1 T + c2 T^2 mod m.
        c0, c1, c2 = 1, 0, 0
        for x in range(-1, -top, -1):
            c0, c1, c2 = c0 * x % m, (c1 * x + c0) % m, (c2 * x + c1) % m
        for x in range(-2, -top - 2 if half_range else -top - 1, -1):
            c0, c1, c2 = c0 * x % m, (c1 * x - c0) % m, (c2 * x - c1) % m
        # at T = p tau, as coefficients of tau^1..tau^3
        if half_range:
            poly = (c0, p * c1, p * p * c2)
        else:
            # -(tau + tau^2)(c0 + p c1 tau), since p^2 c2 = 0 mod p^2
            poly = (-c0, -c0 - p * c1, -p * c1)
        f = pow(math.factorial(top), -2, m)
        self.b1 = tuple(c * f % m for c in poly)

    def _first_step_failure(self, tau: int) -> int | None:
        """The first k in 2..top where rhs_k (T+k-1-top)(T+k) differs from
        rhs_{k-1} (T+k-1)(T+k+top) mod m at this tau, or None."""
        top, m = self.top, self.m
        T = self.p * tau % m
        x1, x2, x3 = self.closed
        v = map(add, map(mul, map(add, map(mul, x3, repeat(tau)), x2), repeat(tau)), x1)
        prev, rhs = tee(map(mod, map(mul, v, repeat(tau)), repeat(m)))
        next(rhs)
        dens = map(mul, range(T + 1 - top, T), range(T + 2, T + top + 1))
        nums = map(mul, range(T + 1, T + top), range(T + top + 2, T + 2 * top + 1))
        steps = map(sub, map(mul, rhs, dens), map(mul, prev, nums))
        return next(compress(range(2, top + 1), map(mod, steps, repeat(m))), None)

    def __call__(self, tau: int) -> tuple[int | None, int, int]:
        p, top, m = self.p, self.top, self.m
        lhs = _poly(self.b1, tau, m)
        rhs = _poly(self.first, tau, m)
        k = 1 if lhs != rhs else None
        if k is None and self.closed is not None:
            k = self._first_step_failure(tau)
        if k is None:
            lhs = rhs = _poly(self.last, tau, m)
        elif k > 1:
            rhs = _poly(tuple(x[k - 1] for x in self.closed), tau, m)
            # B(k) from B(k-1) = rhs_{k-1}
            T = p * tau % m
            prev = _poly(tuple(x[k - 2] for x in self.closed), tau, m)
            num = prev * (T + k - 1) * (T + k + top)
            lhs = num * pow((T + k - 1 - top) * (T + k), -1, m) % m
        scale = p**4 // m
        return k, lhs * scale, rhs * scale
