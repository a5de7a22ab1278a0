"""Alternating multiple harmonic sums as PAdic values.

Every summation index is below p, so the kernel computes exactly modulo
p**N in one pass over the caller's inverse table.
"""

from __future__ import annotations

from . import kernels
from .errors import BadParameter
from .padic import PAdic

__all__ = ["mhs"]


def mhs(exps: tuple[int, ...], n: int, p: int, N: int, inv: list[int]) -> PAdic:
    """H(a_1,...,a_m; n) mod p**N for n < p, O(n * depth).

    Negative exponents alternate in sign.  inv is an inverse table covering
    1..n whose entries are congruent to 1/k mod p**N.
    """
    if not exps or 0 in exps:
        raise BadParameter("signature must be nonempty with nonzero exponents")
    if n >= p:
        raise BadParameter("mhs requires n < p")
    if n < len(exps):
        return PAdic.zero(p)
    return PAdic.from_int_exact(kernels.mhs_sum(exps, n, p, p**N, inv), p=p, aprec=N)
