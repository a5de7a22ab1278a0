"""Alternating multiple harmonic sums as PAdic values.

All production ranges have every summation index below p, so the kernel
path computes exactly modulo p**N in one pass over the caller's inverse
table.  Larger n (still below p**2) fall back to exact rational summation
before embedding.
"""

from __future__ import annotations

from fractions import Fraction

from . import kernels
from .errors import BadParameter
from .padic import PAdic

__all__ = ["mhs"]


def mhs(exps: tuple[int, ...], n: int, p: int, N: int, inv: list[int]) -> PAdic:
    """H(a_1,...,a_m; n) reduced to a PAdic, O(n * depth).

    Negative exponents alternate in sign.  inv is an inverse table mod p**N
    covering 1..n; it is only read when n < p.
    """
    if not exps or 0 in exps:
        raise BadParameter("signature must be nonempty with nonzero exponents")
    if n >= p * p:
        raise BadParameter("mhs requires n < p^2")
    depth = len(exps)
    if n < depth:
        return PAdic.zero(p)
    if n < p:
        return PAdic.from_int_exact(
            kernels.mhs_sum(exps, n, p, p**N, inv), p=p, aprec=N
        )
    # indices divisible by p occur: exact rational prefix recursion, then embed
    state: list[Fraction] = [Fraction(1)] + [Fraction(0)] * depth
    for k in range(1, n + 1):
        for i in range(depth, 0, -1):
            a = exps[i - 1]
            w = Fraction((-1) ** k if a < 0 else 1, k ** abs(a))
            state[i] += w * state[i - 1]
    val = state[depth]
    if val == 0:
        return PAdic.zero(p)
    return PAdic.from_rational(val, p=p, digits=N)
