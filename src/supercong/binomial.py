"""The incremental binomial sum S_n(a), the split a = p*t + <a>_p, and the
scan of Lemma 2.3's generalized-binomial product.

S_n(a) = sum_{k<=n} binom(a,k) binom(-1-a,k) / k carries the product of
both generalized binomials' numerators from k-1 to k; since n < p every
division is by a unit, so the kernel sums exactly modulo a power of p in
one pass, and s_sum reads the sum at each endpoint of a tuple from it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, compress, islice, repeat
from operator import add, mod, mul, sub

from . import kernels
from .errors import BadParameter
from .padic import PAdic

__all__ = ["ReducedPoint", "lem23_scan", "s_sum", "reduce_point"]


# the decomposition a = p*t + residue, residue in {0,...,p-1} and t a PAdic
ReducedPoint = namedtuple("ReducedPoint", "residue t")


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
    """Split a = p*t + <a>_p; requires p coprime to a's denominator."""
    a = Fraction(a)
    if a.denominator % p == 0:
        raise BadParameter("p divides the denominator of a")
    residue = a.numerator % p * pow(a.denominator, -1, p) % p
    t = (a - residue) / p
    if t == 0:
        return ReducedPoint(residue, PAdic.zero(p))
    return ReducedPoint(residue, PAdic.from_rational(t, p=p, digits=N))


# factors per math.prod call in _prod_mod: enough to amortize the call, few
# enough that each partial product stays a few machine words
_PROD_CHUNK = 32


def _prod_mod(lo: int, hi: int, m: int) -> int:
    """prod(range(lo, hi)) mod m, as math.prod over chunks of consecutive factors."""
    starts = range(lo, hi, _PROD_CHUNK)
    stops = map(min, range(lo + _PROD_CHUNK, hi + _PROD_CHUNK, _PROD_CHUNK), repeat(hi))
    return math.prod(map(mod, map(math.prod, map(range, starts, stops)), repeat(m))) % m


def lem23_scan(
    tau: int, p: int, half_range: bool, inv: list[int]
) -> tuple[int | None, int, int]:
    """Lemma 2.3 mod p^4 at every k in 1..top: (k, B(k), rhs_k) mod p^4.

    B(k) = binom(T+k-1, top) * binom(-T-k-1, top), T = p*tau (tau = t mod
    p^3 for T = pt), is compared with its closed form rhs_k, for top =
    (p-1)/2 (half_range) or p-1; k is the first k where they differ, or
    None, and then B(k) and rhs_k are given at k = top.  inv holds 1/i mod
    p^4, or mod a higher power of p, for 0 < i < p.

    The factors of B(k) include T, and on the full range also T+p, so B(k)
    and rhs_k are p^j times p-adic integers, j = 1 on the half range and
    j = 2 on the full range; the scan compares the quotients mod p^(4-j),
    one-digit ints for p < 1024.  On the full range the factor tau(tau+1)
    stays in both quotients: p may divide it.

    No product is carried.  B(k+1) (T+k-top)(T+k+1) = B(k) (T+k)(T+k+1+top)
    and the factors on the left are units, so B(k) = rhs_k at every k
    exactly when B(1) = rhs_1 and each step rhs_{k+1} (T+k-top)(T+k+1) =
    rhs_k (T+k)(T+k+1+top) holds, and the first k where this fails is the
    first mismatch.  Only B(1) top!^2 is a product; the steps are C-level
    maps.
    """
    top = (p - 1) // 2 if half_range else p - 1
    j = 1 if half_range else 2
    m = p ** (4 - j)
    T = p * tau % m

    # closed[k-1] = rhs_k / p^j mod m, from the prefix sums
    # O_r(k) = sum_{i<=k} 1/(2i-1)^r (half range) or H(k) = sum_{i<=k} 1/i
    if half_range:
        # tau/k * (1 - pz + p^2 (yz + 2 O_1^2 - 4 tau O_2)), y = tau/k, z = y - 2 O_1
        io = list(map(mod, inv[1 : 2 * top : 2], repeat(m)))
        o1 = list(accumulate(io))
        o1x2 = list(map(add, o1, o1))
        y = list(map(mod, map(mul, inv[1 : top + 1], repeat(tau)), repeat(m)))
        z = list(map(sub, y, o1x2))
        w = map(add, map(mul, y, z), map(mul, o1, o1x2))
        w = map(sub, w, map(mul, accumulate(map(mul, io, io)), repeat(4 * tau)))
        inner = map(add, map(mul, map(sub, map(mul, w, repeat(p)), z), repeat(p)), repeat(1))
        closed = list(map(mod, map(mul, y, inner), repeat(m)))
        # B(1) top!^2 / p = tau * prod_{i=1}^{top-1} (T-i) * prod_{i=0}^{top-1} (-T-2-i)
        b1 = tau * _prod_mod(T - top + 1, T, m) * _prod_mod(-T - top - 1, -T - 1, m)
    else:
        # tau(tau+1)/k^2 * (1 + 2pH(k) - (p + 2T)/k), tau(tau+1) folded into the sums
        c = tau * (tau + 1) % m
        ik = list(map(mod, inv[1 : top + 1], repeat(m)))
        inner = accumulate(map(mul, ik, repeat(2 * p * c % m)), initial=c)
        next(inner)
        inner = map(sub, inner, map(mul, ik, repeat((p + 2 * T) * c % m)))
        closed = list(map(mod, map(mul, map(mul, ik, ik), inner), repeat(m)))
        # B(1) top!^2 / p^2 = -tau(tau+1) prod_{i=1}^{p-2} (T-i) prod_{i=0}^{p-3} (-T-2-i)
        b1 = -c * _prod_mod(T - top + 1, T, m) * _prod_mod(-T - top, -T - 1, m)
    b1 = b1 * pow(math.factorial(top), -2, m) % m

    if b1 != closed[0]:
        k, lhs = 1, b1
    else:
        # the step from k-1 to k, labelled k = 2..top
        dens = map(mul, range(T + 1 - top, T), range(T + 2, T + top + 1))
        nums = map(mul, range(T + 1, T + top), range(T + top + 2, T + 2 * top + 1))
        steps = map(sub, map(mul, islice(closed, 1, None), dens), map(mul, closed, nums))
        k = next(compress(range(2, top + 1), map(mod, steps, repeat(m))), None)
        if k is None:
            lhs = closed[-1]
        else:
            # B(k) from B(k-1) = rhs_{k-1}
            num = closed[k - 2] * (T + k - 1) * (T + k + top)
            lhs = num * pow((T + k - 1 - top) * (T + k), -1, m) % m
    rhs = closed[-1 if k is None else k - 1]
    return k, lhs * p**j, rhs * p**j
