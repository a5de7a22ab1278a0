"""Bernoulli numbers mod p**N, Fermat quotients, and the constant X.

B_n is computed only for the indices asked for, from the power sum
sum_{k<p} k^n: it gives p*B_n mod p**(N+1) once a few lower p*B_j are
subtracted, each needed to about two fewer digits than the one before
(Buhler-Crandall-Ernvall-Metsankyla-Shokrollahi 2001; Harvey 2010).  That
is O(N*p) work per index, memoized for the current prime; each exponent's
power sum is taken once, at the modulus of the outermost call, and reduced
for the lower ones.  A power sum makes one pow per prime k and one product
q^n * (k/q)^n per composite k, with q read from a single
smallest-prime-factor table grown to the largest p asked for.
Indices with (p-1) | n are rejected (von Staudt-Clausen: not p-integral),
odd n > 1 give the exact zero.  The O(p^2) Akiyama-Tanigawa triangle
(kernels.bernoulli_scaled) is kept only as the tests' independent
cross-check.

The constant X = B_{p-3}/(p-3) - B_{2p-4}/(4p-8) has two independent
routes: x_constant, from those two Bernoulli numbers (full N digits), and
x_harmonic, from the harmonic sum H(2; p-1) over the caller's inverse
table (O(p), 2 digits), which suffices wherever X carries a p^2 or p^3
prefactor.  x_from_h2 is that route for a caller that already holds
H(2; p-1).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import BadParameter
from .harmonic import mhs
from .padic import PAdic, congruent_mod
from .primes import smallest_prime_factors

__all__ = [
    "bernoulli",
    "fermat_quotient",
    "x_constant",
    "x_from_h2",
    "x_harmonic",
]

_X_APREC_HARMONIC = 2  # H(2;p-1) = -4pX holds mod p^3, so X is pinned mod p^2
_EXACT_WITNESS_LIMIT = 30  # small B_n carry their exact rational as a witness

# smallest prime factors up to the largest p asked for, shared by every prime
_SPF: list[int] = []


@functools.lru_cache(maxsize=None)
def _exact_bernoulli(n: int) -> Fraction:
    """Exact B_n from the defining recurrence sum_{k<=n} binom(n+1,k) B_k = 0."""
    if n == 0:
        return Fraction(1)
    acc = sum(
        (Fraction(math.comb(n + 1, k)) * _exact_bernoulli(k) for k in range(n)),
        Fraction(0),
    )
    return -acc / (n + 1)


@functools.lru_cache(maxsize=64)
def _scaled(n: int, p: int, e: int, top: int = 0) -> int:
    """p*B_n mod p**e (B_1 = -1/2) for 0 <= n <= 2p, from one power sum.

    Memoized for one prime: a full-catalog prime asks about 4 * digits + 4
    entries (28 at 6 digits), and p is in every key, so a sweep reuses none
    of them at the next prime.

    sum_{k<p} k^n = sum_{i=0}^{n} C(n,i)/(i+1) p^i (p*B_{n-i}), so p*B_n is
    the power sum less its terms i >= 1.  Such a term vanishes mod p**e once
    i - v_p(i+1) >= e, and otherwise needs p*B_{n-i} only mod
    p**(e - i + v_p(i+1)), so the lower indices cost little.  Every index
    stays scaled by p, which keeps the terms with (p-1) | (n-i) integral.

    The power sums are taken mod p**top, the modulus of the outermost call
    (top = e there), and reduced: a lower index that the recursion needs mod
    p**(e - i) and a later call needs mod p**top then shares one power sum.
    """
    m = p**e
    top = max(top, e)
    if n == 0:
        return p % m
    if n == 1:
        return -p * pow(2, -1, m) % m
    if n % 2 == 1:
        return 0
    acc = _power_sum(n, p, p**top)
    # i + 1 <= 2p + 1 < p^2, so v_p(i+1) <= 1 and only i <= e can contribute
    for i in range(1, min(n, e) + 1):
        v = 1 if (i + 1) % p == 0 else 0
        shift = i - v
        if shift >= e:
            continue
        unit_inv = pow((i + 1) // p**v, -1, m)
        acc -= math.comb(n, i) * unit_inv * p**shift * _scaled(n - i, p, e - shift, top)
    return acc % m


@functools.lru_cache(maxsize=32)
def _power_sum(n: int, p: int, m: int) -> int:
    """sum_{k<p} k^n mod m (n >= 0), with one pow per prime k.

    Memoized for the few primes last asked for: a full-catalog prime sums
    about ten exponents, and a sweep moves on to the next prime.

    k -> k^n is completely multiplicative, so a composite k takes
    q^n * (k/q)^n for its smallest prime factor q, both already in the list.
    """
    if len(_SPF) < p:
        _SPF[:] = smallest_prime_factors(p - 1)
    spf = _SPF
    pw = [0, 1]
    for k in range(2, p):
        q = spf[k]
        pw.append(pow(k, n, m) if q == k else pw[q] * pw[k // q] % m)
    return sum(pw) % m


def bernoulli(n: int, p: int, N: int) -> PAdic:
    """B_n mod p**N for 0 <= n <= 2p; rejects (p-1) | n for n > 0."""
    if p < 5:
        raise BadParameter("bernoulli requires p >= 5")
    if n < 0 or n > 2 * p:
        raise BadParameter(f"index {n} outside range 0..{2 * p}")
    if n == 0:
        return PAdic.from_rational(1, p=p, digits=N)
    if n % 2 == 1:
        return PAdic.zero(p) if n > 1 else PAdic.from_rational(-1, 2, p=p, digits=N)
    if n % (p - 1) == 0:
        raise BadParameter(f"B_{n} is not p-integral for p={p}")
    # p*B_n mod p^(N+1); dividing by p recovers B_n to N digits
    scaled = PAdic.from_int_exact(_scaled(n, p, N + 1), p=p, aprec=N + 1)
    value = scaled.shift(-1)
    if n <= _EXACT_WITNESS_LIMIT:
        # cheap exact value doubles as a consistency check on the power sums
        # and as a cancellation witness in later arithmetic
        exact = PAdic.from_rational(_exact_bernoulli(n), p=p, digits=N)
        if not congruent_mod(exact, value, N):
            raise AssertionError(f"power sums disagree with exact B_{n}")
        return exact
    return value


def fermat_quotient(a: int, p: int, N: int) -> PAdic:
    """q_p(a) = (a^(p-1) - 1) / p."""
    if a % p == 0:
        raise BadParameter("a must be coprime to p")
    m = p ** (N + 1)
    num = (pow(a, p - 1, m) - 1) % m
    return PAdic.from_int_exact(num, p=p, aprec=N + 1).shift(-1)


def x_constant(p: int, N: int) -> PAdic:
    """X = B_{p-3}/(p-3) - B_{2p-4}/(4p-8) mod p**N, via the power sums."""
    if p <= 5:
        raise BadParameter("X requires p > 5")
    return bernoulli(p - 3, p, N).scale(Fraction(1, p - 3)) - bernoulli(
        2 * p - 4, p, N
    ).scale(Fraction(1, 4 * p - 8))


def x_harmonic(p: int, N: int, inv: list[int]) -> PAdic:
    """X = -H(2; p-1)/(4p) mod p^2, O(p).

    inv is the caller's inverse table mod p**N covering 1..p-1;
    H(2; p-1) = -4pX holds mod p^3, so N >= 3 is required.
    """
    if p <= 5 or N < _X_APREC_HARMONIC + 1:
        raise BadParameter("x_harmonic requires p > 5 and N >= 3")
    return x_from_h2(mhs((2,), (p - 1,), p, N, inv)[0])


def x_from_h2(h2: PAdic) -> PAdic:
    """X = -H(2; p-1)/(4p) mod p^2 from H(2; p-1) known mod p^3 or better."""
    x = h2.scale(Fraction(-1, 4)).shift(-1)
    # valid only mod p^2: truncate the window so callers cannot over-trust it
    aprec = _X_APREC_HARMONIC
    return PAdic.from_int_exact(x.lift(aprec), p=x.prime, aprec=aprec)
