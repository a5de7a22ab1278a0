"""Exact rational ground truth: brute-force MHS, binomial sums, identities.

Everything here is exact rational arithmetic, in Fraction or over integer
numerators with one common denominator, with no modular reduction; these
are the independent oracles the fast modular paths are tested against.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, lcm, prod
from operator import getitem

__all__ = [
    "IdentityReport",
    "mhs_exact",
    "mhs_exact_upto",
    "harmonic_exact",
    "odd_harmonic_exact",
    "weighted_sum_exact",
    "binom_exact",
    "s_sum_exact",
    "sigma_identity",
    "structural_identity",
]


IdentityReport = namedtuple("IdentityReport", "identity n lhs rhs equal")


def _mhs_numerators(sig: tuple[int, ...], n: int):
    """(largest index, numerator) for each term of H(sig; n), by the naive
    nested loop, and their common denominator lcm(1..n)**weight.

    With common = lcm(1..n), the term prod_i sign_i(k_i) / k_i**|a_i| is
    prod_i sign_i(k_i) * (common / k_i)**|a_i| over common**(sum |a_i|), so
    every term is an integer product and no Fraction is built per term.
    """
    if n > 200:
        raise ValueError("brute-force mhs capped at n <= 200")
    common = lcm(*range(1, n + 1))
    factors = [
        [0] + [(-1 if a < 0 and k % 2 else 1) * (common // k) ** abs(a)
               for k in range(1, n + 1)]
        for a in sig
    ]
    terms = (
        ((ks[-1] if ks else 0), prod(map(getitem, factors, ks)))
        for ks in combinations(range(1, n + 1), len(sig))
    )
    return terms, common ** sum(map(abs, sig))


def mhs_exact(sig: tuple[int, ...], n: int) -> Fraction:
    """H(a_1,...,a_m; n) by the naive O(n^m) nested loop."""
    terms, den = _mhs_numerators(sig, n)
    return Fraction(sum(num for _, num in terms), den)


def mhs_exact_upto(sig: tuple[int, ...], n: int) -> list[Fraction]:
    """[H(sig; j) for j = 0..n] from one pass of mhs_exact's nested loop.

    Each term's numerator is added to the bucket of its largest index, and
    the buckets are prefix-summed over the common denominator; no prefix
    recursion over the signature is involved.
    """
    terms, den = _mhs_numerators(sig, n)
    buckets = [0] * (n + 1)
    for top, num in terms:
        buckets[top] += num
    return [Fraction(total, den) for total in accumulate(buckets)]


def harmonic_exact(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def odd_harmonic_exact(r: int, k: int) -> Fraction:
    return sum((Fraction(1, (2 * j - 1) ** r) for j in range(1, k + 1)), Fraction(0))


# the weighted-sum kernel's prefix factors (kind, r) at k, summed from scratch
_PREFIX = {
    "harmonic": lambda r, k: mhs_exact((r,), k),
    "odd": odd_harmonic_exact,
    "h2k": lambda r, k: harmonic_exact(2 * k),
}


def weighted_sum_exact(outer: int, signed: bool, c: int, factors, n: int) -> Fraction:
    """sum_{k<=n} [(-1)^k] c^k / k^outer * prod(prefix^power), term by term.

    factors holds the kernel's (kind, r, power) tuples; each prefix is
    recomputed for every k, independently of the kernel's running sums.
    """
    total = Fraction(0)
    for k in range(1, n + 1):
        term = Fraction((-c) ** k if signed else c**k, k**outer)
        for kind, r, power in factors:
            term *= _PREFIX[kind](r, k) ** power
        total += term
    return total


def binom_exact(a: Fraction, k: int) -> Fraction:
    """binom(a, k) for rational a, by the falling product."""
    out = Fraction(1)
    a = Fraction(a)
    for j in range(k):
        out *= (a - j) / (j + 1)
    return out


def s_sum_exact(a: Fraction, n: int) -> Fraction:
    """S_n(a) = sum_{k<=n} binom(a,k) binom(-1-a,k) / k, exactly."""
    aq = Fraction(a)
    b1 = Fraction(1)
    b2 = Fraction(1)
    total = Fraction(0)
    for k in range(1, n + 1):
        b1 *= (aq - (k - 1)) / k
        b2 *= (-aq - k) / k
        total += b1 * b2 / k
    return total


def sigma_identity(which: str, n: int) -> IdentityReport:
    """The two hypergeometric identities behind the half-range reductions.

    "plain":    sum_k binom(n,k)(-4)^k / (k^2 binom(2k,k))
                  = -2 sum_k (1/k) sum_{j<=k} 1/(2j-1)
    "weighted": same LHS with an extra inner odd-harmonic factor,
                  = -2 sum_k (1/k) sum_{j<=k} 1/(2j-1)^2
    """
    if which not in ("plain", "weighted"):
        raise ValueError(f"unknown sigma identity {which!r}")
    lhs = Fraction(0)
    odd1 = Fraction(0)
    odd2 = Fraction(0)
    rhs = Fraction(0)
    for k in range(1, n + 1):
        odd1 += Fraction(1, 2 * k - 1)
        odd2 += Fraction(1, (2 * k - 1) ** 2)
        base = Fraction(comb(n, k) * (-4) ** k, k * k * comb(2 * k, k))
        if which == "plain":
            lhs += base
            rhs += Fraction(-2, k) * odd1
        else:
            lhs += base * odd1
            rhs += Fraction(-2, k) * odd2
    return IdentityReport(f"sigma-{which}", n, lhs, rhs, lhs == rhs)


def structural_identity(which: str, n: int, a: Fraction | None = None) -> IdentityReport:
    """Exact shuffle/telescoping identities.

    "shuffle11": H(1,1;n) = (H_n^2 - H(2;n)) / 2
    "shuffle22": 2 H(2,2;n) = H(2;n)^2 - H(4;n)
    "telescope": S_n(a) - S_n(a-1) = -2/a + (2/a) binom(a-1,n) binom(-a-1,n)
    """
    if which == "shuffle11":
        lhs = 2 * _sum_pair(1, 1, n)
        h1 = sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))
        h2 = sum((Fraction(1, k * k) for k in range(1, n + 1)), Fraction(0))
        rhs = h1 * h1 - h2
    elif which == "shuffle22":
        lhs = 2 * _sum_pair(2, 2, n)
        h2 = sum((Fraction(1, k * k) for k in range(1, n + 1)), Fraction(0))
        h4 = sum((Fraction(1, k**4) for k in range(1, n + 1)), Fraction(0))
        rhs = h2 * h2 - h4
    elif which == "telescope":
        if a is None or a == 0:
            raise ValueError("telescope needs a nonzero rational a")
        a = Fraction(a)
        lhs = s_sum_exact(a, n) - s_sum_exact(a - 1, n)
        two_over_a = Fraction(2 * a.denominator, a.numerator)
        rhs = -two_over_a + two_over_a * binom_exact(a - 1, n) * binom_exact(-a - 1, n)
    else:
        raise ValueError(f"unknown structural identity {which!r}")
    return IdentityReport(which, n, lhs, rhs, lhs == rhs)


def _sum_pair(r1: int, r2: int, n: int):
    """H(r1, r2; n) by a direct double loop (exact)."""
    total = Fraction(0)
    inner = Fraction(0)
    for k2 in range(2, n + 1):
        inner += Fraction(1, (k2 - 1) ** r1)
        total += inner * Fraction(1, k2**r2)
    return total
