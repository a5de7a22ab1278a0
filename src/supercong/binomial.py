"""The incremental binomial sum S_n(a) and the split a = p*t + <a>_p.

S_n(a) = sum_{k<=n} binom(a,k) binom(-1-a,k) / k carries both generalized
binomials from k-1 to k; since n < p every division is by a unit, so the
kernel sums exactly modulo a power of p, at every endpoint up to its top in
one pass.
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


def s_sum(
    a: PAdic, n: int | tuple[int, ...], p: int, N: int, inv: list[int]
) -> PAdic | tuple[PAdic, ...]:
    """S_n(a) = sum_{k=1}^{n} binom(a,k) binom(-1-a,k) / k, n <= p-1.

    inv is an inverse table mod p**N covering 1..n.  The result is known
    mod p**min(N, aprec of a); the kernel reads the same table at a shorter
    modulus, since its entries are still congruent to 1/k there.  For a
    tuple of endpoints n, returns the tuple of S_k(a) for k in n, read from
    one kernel pass to max(n).
    """
    ends = n if isinstance(n, tuple) else (n,)
    top = max(ends)
    if top > p - 1:
        raise BadParameter("s_sum requires n <= p-1")
    if a.prime != p:
        raise BadParameter("prime mismatch")
    if top < 1 or a.zero_flag:
        vals = (PAdic.zero(p),) * len(ends)
    elif a.valuation < 0:
        raise BadParameter("s_sum requires a in Z_p")
    else:
        aprec = min(N, a.aprec)
        prefix = kernels.s_sum(a.lift(aprec), top, p, p**aprec, inv)
        vals = tuple(
            PAdic.zero(p) if k < 1 else PAdic.from_int_exact(prefix[k], p=p, aprec=aprec)
            for k in ends
        )
    return vals if isinstance(n, tuple) else vals[0]


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
