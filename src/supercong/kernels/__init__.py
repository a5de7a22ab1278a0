"""The hot inner loops: every kernel is pykernels' function, re-exported.

See pykernels for what each computes.  The benchmark under perfbench/
pins this surface: tracer.py wraps each name of its KERNEL_FNS
(bernoulli_scaled, inverse_table, mhs_sum, weighted_sum, s_sum,
central_sum, geom_power_sum) by getattr on this package, run.py probes
backend_name(m), and the tracer's count hooks take the positional
parameters of five kernels:

    bernoulli_scaled(nmax, p, m)
    inverse_table(n, p, m)
    mhs_sum(exps, n, p, m, inv)
    weighted_sum(aexp, signed, cnum, factors, n, p, m, inv)
    s_sum(a_mod, n, p, m, inv)
"""

from __future__ import annotations

from .pykernels import (
    bernoulli_scaled,
    central_sum,
    geom_power_sum,
    inverse_table,
    mhs_sum,
    s_sum,
    weighted_sum,
)

__all__ = [
    "backend_name",
    "bernoulli_scaled",
    "central_sum",
    "geom_power_sum",
    "inverse_table",
    "mhs_sum",
    "s_sum",
    "weighted_sum",
]


def backend_name(m: int | None = None) -> str:
    """The kernels serving a call with modulus m: always "python"."""
    return "python"
