"""Alternating multiple harmonic sums as PAdic values.

Every summation index is below p, so the kernel computes exactly modulo
p**N in one pass over the caller's inverse table; mhs takes a tuple of
endpoints and reads the sum at each of them from that pass.
"""

from __future__ import annotations

from . import kernels
from .errors import BadParameter
from .padic import PAdic

__all__ = ["mhs"]


def mhs(
    exps: tuple[int, ...], ends: tuple[int, ...], p: int, N: int, inv: list[int]
) -> tuple[PAdic, ...]:
    """(H(a_1,...,a_m; n) mod p**N for n in ends), all n < p.

    Negative exponents alternate in sign.  inv is an inverse table
    covering 1..max(ends) whose entries are congruent to 1/k mod p**N.
    Every value is read from one O(max(ends) * depth) kernel pass.
    """
    top = max(ends)
    if not exps or 0 in exps:
        raise BadParameter("signature must be nonempty with nonzero exponents")
    if top >= p:
        raise BadParameter("mhs requires n < p")
    depth = len(exps)
    prefix = kernels.mhs_sum(exps, top, p, p**N, inv) if top >= depth else ()
    return tuple(
        PAdic.zero(p) if k < depth else PAdic.from_int_exact(prefix[k], p=p, aprec=N)
        for k in ends
    )
