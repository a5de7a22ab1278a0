"""Alternating multiple harmonic sums as PAdic values.

Every summation index is below p, so the kernel computes exactly modulo
p**N in one pass over the caller's inverse table; that pass gives the sum
at every endpoint up to its top.
"""

from __future__ import annotations

from . import kernels
from .errors import BadParameter
from .padic import PAdic

__all__ = ["mhs"]


def mhs(
    exps: tuple[int, ...], n: int | tuple[int, ...], p: int, N: int, inv: list[int]
) -> PAdic | tuple[PAdic, ...]:
    """H(a_1,...,a_m; n) mod p**N for n < p, O(n * depth).

    Negative exponents alternate in sign.  inv is an inverse table covering
    1..n whose entries are congruent to 1/k mod p**N.  For a tuple of
    endpoints n, returns the tuple of H(a_1,...,a_m; k) for k in n, read
    from one kernel pass to max(n).
    """
    ends = n if isinstance(n, tuple) else (n,)
    top = max(ends)
    if not exps or 0 in exps:
        raise BadParameter("signature must be nonempty with nonzero exponents")
    if top >= p:
        raise BadParameter("mhs requires n < p")
    depth = len(exps)
    prefix = kernels.mhs_sum(exps, top, p, p**N, inv) if top >= depth else ()
    vals = tuple(
        PAdic.zero(p) if k < depth else PAdic.from_int_exact(prefix[k], p=p, aprec=N)
        for k in ends
    )
    return vals if isinstance(n, tuple) else vals[0]
