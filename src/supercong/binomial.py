"""The incremental binomial sum S_n(a) and the split a = p*t + <a>_p.

S_n(a) = sum_{k<=n} binom(a,k) binom(-1-a,k) / k carries both generalized
binomials from k-1 to k; since n < p every division is by a unit, so the
kernel sums exactly modulo a power of p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import BadParameter
from .padic import PAdic

__all__ = ["ReducedPoint", "s_sum", "reduce_point"]


@dataclass(frozen=True)
class ReducedPoint:
    """Decomposition a = p*t + residue with residue in {0,...,p-1}."""

    residue: int
    t: PAdic


def s_sum(a: PAdic, n: int, p: int, N: int, inv: list[int]) -> PAdic:
    """S_n(a) = sum_{k=1}^{n} binom(a,k) binom(-1-a,k) / k, n <= p-1.

    inv is an inverse table mod p**N covering 1..n.  The result is known
    mod p**min(N, aprec of a); the kernel reads the same table at a shorter
    modulus, since its entries are still congruent to 1/k there.
    """
    if n > p - 1:
        raise BadParameter("s_sum requires n <= p-1")
    if a.prime != p:
        raise BadParameter("prime mismatch")
    if n < 1:
        return PAdic.zero(p)
    if a.zero_flag:
        return PAdic.zero(p)
    if a.valuation < 0:
        raise BadParameter("s_sum requires a in Z_p")
    aprec = min(N, a.aprec)
    return PAdic.from_int_exact(
        kernels.s_sum(a.lift(aprec), n, p, p**aprec, inv), p=p, aprec=aprec
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
