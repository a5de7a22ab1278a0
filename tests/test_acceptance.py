"""Acceptance gate: the eight end-to-end criteria.

Each test prints exactly one "CRITERION n ...: PASS|FAIL" line on the real
stdout (bypassing capture) so the verdicts are visible in any log.
"""

import io
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from supercong import kernels
from supercong.bernoulli import x_constant, x_from_h2
from supercong.checks import registry, sweep
from supercong.cli import RunConfig, main
from supercong.harmonic import mhs
from supercong.padic import PAdic, congruent_mod
from supercong.primes import primes_in_range

from exact import harmonic_exact, mhs_exact_upto

# verdict lines, replayed by the terminal-summary hook in conftest.py so
# they survive output capture
CRITERION_LINES: list[str] = []

CRITERION2_IDS = (
    "eq-1-0",
    "eq-1-1",
    "thm11-full",
    "thm11-half",
    "thm12",
    "lem26",
    "lem-bridge",
)


@contextmanager
def criterion(n: int, label: str):
    verdict = {"ok": False}
    t0 = time.perf_counter()
    try:
        yield verdict
    finally:
        dt = time.perf_counter() - t0
        word = "PASS" if verdict["ok"] else "FAIL"
        line = f"CRITERION {n} ({label}): {word}  [{dt:.1f}s]"
        CRITERION_LINES.append(line)
        print(line, file=sys.__stdout__, flush=True)


def _bad(results):
    return [r for r in results if r.status not in ("pass", "skipped")]


def test_criterion_1_full_registry_sweep():
    with criterion(1, "full registry, primes up to 500, single thread") as v:
        ids = [d.id for d in registry()]
        primes = primes_in_range(7, 500)
        t0 = time.perf_counter()
        results = sweep(ids, primes, jobs=1)
        elapsed = time.perf_counter() - t0
        bad = _bad(results)
        assert not bad, bad[:5]
        assert elapsed < 300, f"runtime {elapsed:.1f}s exceeds budget"
        assert sum(r.status == "pass" for r in results) > 10000
        v["ok"] = True


def test_criterion_2_main_theorem_sweep_at_scale():
    with criterion(2, "main checks, primes up to 10007, parallel") as v:
        primes = primes_in_range(7, 10007)
        t0 = time.perf_counter()
        results = sweep(CRITERION2_IDS, primes, jobs=os.cpu_count() or 1)
        elapsed = time.perf_counter() - t0
        bad = _bad(results)
        assert not bad, bad[:5]
        assert elapsed < 600, f"runtime {elapsed:.1f}s exceeds budget"
        # cache the rows for criterion 3 so the big sweep runs once
        test_criterion_2_main_theorem_sweep_at_scale.results = results
        v["ok"] = True


def test_criterion_3_tail_congruence_zero_failures():
    with criterion(3, "16^k tail congruence over the full range") as v:
        results = getattr(
            test_criterion_2_main_theorem_sweep_at_scale, "results", None
        )
        if results is None:  # criterion 2 did not run first; redo just this check
            results = sweep(["eq-1-1"], primes_in_range(7, 10007), jobs=os.cpu_count() or 1)
        rows = [r for r in results if r.check == "eq-1-1"]
        assert len(rows) == len(primes_in_range(7, 10007))
        assert all(r.status == "pass" for r in rows)
        v["ok"] = True


def test_criterion_4_spot_values_p7():
    with criterion(4, "spot values at p = 7") as v:
        # X = -2/165 = 38 mod 49 by both routes
        inv = kernels.inverse_table(6, 7, 7**6)
        for x in (x_constant(7, 6), x_from_h2(mhs((2,), (6,), 7, 6, inv)[0])):
            assert x.lift(2) % 49 == 38
        # H_6 = 49/20, valuation 2
        assert harmonic_exact(6) == Fraction(49, 20)
        (h6,) = mhs((1,), (6,), 7, 6, inv)
        assert h6.valuation == 2
        # H_6 = 2 p^2 X mod 7^4
        rhs = x_constant(7, 6).shift(2).scale(2)
        assert congruent_mod(h6, rhs, 4)
        v["ok"] = True


def test_criterion_5_exact_identities():
    with criterion(5, "exact identities for n <= 200") as v:
        t0 = time.perf_counter()
        buf = io.StringIO()
        code = main(RunConfig(command="identities", n_max=200), out=buf)
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert "all identities hold exactly" in buf.getvalue()
        assert "identities checked: 1000" in buf.getvalue()
        assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds budget"
        v["ok"] = True


def _signatures(max_depth=3, max_weight=4):
    sigs = []
    for depth in range(1, max_depth + 1):
        entries = [a for a in range(-max_weight, max_weight + 1) if a != 0]
        for sig in product(entries, repeat=depth):
            if sum(abs(a) for a in sig) <= max_weight:
                sigs.append(sig)
    return sigs


def test_criterion_6_oracle_equivalence_grid():
    with criterion(6, "modular sums vs exact oracle on the full grid") as v:
        mismatches = 0
        # the exact values do not depend on p: one oracle pass per signature
        # gives H(sig; j) for every j <= 50
        exact_upto = {sig: mhs_exact_upto(sig, 50) for sig in _signatures()}
        for p in (7, 11, 13, 53):
            # the kernel covers n < p
            n_hi = min(50, p - 1)
            inv = kernels.inverse_table(p - 1, p, p**4)
            for sig, exact_at in exact_upto.items():
                for n in range(1, n_hi + 1):
                    (got,) = mhs(sig, (n,), p, 4, inv)
                    exact = exact_at[n]
                    if exact == 0:
                        want = PAdic.zero(p)
                    else:
                        want = PAdic.from_rational(exact, p=p, digits=8)
                    e = 4
                    for z in (got, want):
                        if z.aprec is not None:
                            e = min(e, z.aprec)
                    if not congruent_mod(got, want, e):
                        mismatches += 1
        assert mismatches == 0
        v["ok"] = True


def test_criterion_7_t_sign_resolution():
    with criterion(7, "t-sign convention resolved, diagnostic recorded") as v:
        primes = primes_in_range(7, 200)
        good = sweep(["thm11-full"], primes, jobs=1, t_sign="minus")
        assert all(r.status == "pass" for r in good)

        diag = sweep(["thm11-full"], primes_in_range(7, 60), jobs=1, t_sign="plus")
        assert diag
        for r in diag:
            assert r.status == "fail"
            assert "not p-integral" in r.note
        # a = -1/2 rows specifically report the non-integral t
        half_rows = [r for r in diag if r.params == ("a=-1/2",)]
        assert half_rows and all("plus-sign t" in r.note for r in half_rows)
        v["ok"] = True


def test_criterion_8_determinism_across_jobs():
    with criterion(8, "byte-identical sweep output for jobs in {1, 8}") as v:
        outs = []
        for jobs in (1, 8):
            cfg = RunConfig(
                check_ids=tuple(d.id for d in registry()),
                prime_lo=7,
                prime_hi=100,
                jobs=jobs,
                format="jsonl",
            )
            buf = io.StringIO()
            assert main(cfg, out=buf) == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        assert outs[0]
        v["ok"] = True
