"""Exact references and shared helpers for the tests.

The references are brute-force sums in exact rational arithmetic, with no
modular reduction: multiple harmonic sums by the naive nested loop, and the
weighted-sum kernel's sum term by term.  supercong.oracle keeps only what
`supercong identities` runs.  The helpers embed an exact value as a p-adic
number and build the inverse table that a prime's kernels read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, lcm, prod
from operator import getitem

from supercong import kernels
from supercong.padic import PAdic


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


def central_exact(lo: int, hi: int, c: int = 16) -> Fraction:
    """sum_{k=lo}^{hi} binom(2k,k)^2 / (k c^k) as an exact rational."""
    return sum(
        (Fraction(comb(2 * k, k) ** 2, k * c**k) for k in range(max(lo, 1), hi + 1)),
        Fraction(0),
    )


def embed(q, p: int, digits: int = 8) -> PAdic:
    """The p-integral rational q as a PAdic mod p^digits."""
    q = Fraction(q)
    if q == 0:
        return PAdic.zero(p)
    return PAdic.from_rational(q, p=p, digits=digits)


def inv_table(p: int, N: int) -> list[int]:
    """The inverses of 1..p-1 mod p^N, as a prime's kernels read them."""
    return kernels.inverse_table(p - 1, p, p**N)
