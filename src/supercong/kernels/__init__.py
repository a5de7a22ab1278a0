"""Kernel backend selection.

The hot inner loops (prefix-recursive harmonic sums, incremental binomial
sums, the Akiyama-Tanigawa Bernoulli triangle) exist twice: a compiled
Cython extension using unsigned 128-bit arithmetic, and a pure-Python
fallback.  Both compute exactly modulo m and return bit-identical results.
The O(p^2) triangle is not on the per-prime path: bernoulli.py gets B_n
from power sums, and the tests use the triangle as an independent
cross-check.

The compiled path is used when it was built, the modulus fits its 84-bit
limit, and SUPERCONG_KERNELS is not set to "py".  Set SUPERCONG_KERNELS=c
to require the extension (ImportError if missing), "py" to force Python.

The kernel names and positional signatures below are read by
perfbench/tracer.py, whose count hooks take the same parameter lists (for
example n * len(exps) steps per mhs_sum call); changing them is a benchmark
change.
"""

from __future__ import annotations

import importlib
import os

from . import pykernels

_FORCE = os.environ.get("SUPERCONG_KERNELS", "auto").lower()

_ckernels = None
if _FORCE in ("auto", "c"):
    try:
        _ckernels = importlib.import_module("._ckernels", __package__)
    except ImportError:
        if _FORCE == "c":
            raise
        _ckernels = None

_C_LIMIT = 1 << (getattr(_ckernels, "MAX_MODULUS_BITS", 0) or 0)

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
    """Backend that will serve a call with modulus m (or the default one)."""
    if _ckernels is not None and (m is None or m < _C_LIMIT):
        return "c"
    return "python"


def _pick(m: int):
    if _ckernels is not None and m < _C_LIMIT:
        return _ckernels
    return pykernels


def inverse_table(n: int, p: int, m: int) -> list[int]:
    return _pick(m).inverse_table(n, p, m)


def bernoulli_scaled(nmax: int, p: int, m: int) -> list[int]:
    return _pick(m).bernoulli_scaled(nmax, p, m)


def mhs_sum(exps, n: int, p: int, m: int, inv) -> int:
    return _pick(m).mhs_sum(tuple(exps), n, p, m, inv)


def weighted_sum(aexp, signed, cnum, factors, n, p, m, inv) -> int:
    return _pick(m).weighted_sum(aexp, signed, cnum, tuple(factors), n, p, m, inv)


def s_sum(a_mod: int, n: int, p: int, m: int, inv) -> int:
    return _pick(m).s_sum(a_mod, n, p, m, inv)


def central_sum(lo: int, hi: int, cinv: int, p: int, m: int, inv) -> int:
    return _pick(m).central_sum(lo, hi, cinv, p, m, inv)


def geom_power_sum(cnum: int, aexp: int, n: int, p: int, m: int, inv) -> int:
    return _pick(m).geom_power_sum(cnum, aexp, n, p, m, inv)
