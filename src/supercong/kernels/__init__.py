"""The hot inner loops, in pure Python.

Prefix-recursive harmonic sums, incremental binomial sums and the
Akiyama-Tanigawa Bernoulli triangle, all computed exactly modulo m; each
kernel has one implementation, in pykernels, re-exported here as the same
function object.  The O(p^2) triangle is not on the per-prime path:
bernoulli.py gets B_n from power sums, and the tests use the triangle as an
independent cross-check.

backend_name() always returns "python"; perfbench/run.py probes it to
record which kernels a run used.

mhs_sum, weighted_sum, s_sum and central_sum return the list of their
prefix sums at k = 0..n (k = 0..hi for central_sum) from one pass.  The
entries are congruent mod m but not reduced; callers reduce the entries they
read.

The kernel names and positional parameters below are read by
perfbench/tracer.py, whose count hooks take the same parameter lists (for
example n * len(exps) steps per mhs_sum call); they stay fixed, and
changing them is a benchmark change.
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
