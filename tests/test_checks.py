"""Check registry, verdict plumbing, and the sweep engine."""

from collections import Counter
from fractions import Fraction

import pytest

from supercong import checks, kernels
from supercong.binomial import s_sum
from supercong.harmonic import mhs
from supercong.checks import (
    DEFAULT_A_SAMPLES,
    CheckDefinition,
    PrimeContext,
    _evaluate,
    _ps_none,
    registry,
    render_padic,
    row_params,
    sweep,
)
from supercong.errors import BadParameter, PrimeTooSmall, UnknownCheck
from supercong.padic import PAdic


class TestRegistry:
    def test_catalog_shape(self):
        cat = registry()
        ids = [d.id for d in cat]
        assert len(ids) == len(set(ids))
        assert len(ids) >= 25
        for d in cat:
            assert 1 <= d.modulus_exponent <= 4
            assert d.description

    def test_param_spaces_nonempty(self):
        for d in registry():
            space = d.param_space(13, DEFAULT_A_SAMPLES)
            assert space, d.id
            for params in space:
                assert isinstance(params, dict)


def _row(check_id, p, params=(), a_samples=DEFAULT_A_SAMPLES):
    """The one row sweep emits for check_id at p with these rendered params."""
    rows = [r for r in sweep([check_id], [p], a_samples=a_samples) if r.params == params]
    assert len(rows) == 1, rows
    return rows[0]


class TestRunCheck:
    """Single rows of the sweep."""

    def test_paramless_check_passes(self):
        r = _row("eq-1-1", 7)
        assert r.status == "pass"
        assert r.modulus == "7^4"

    def test_param_row_rendered(self):
        r = _row("known-i", 11, ("a=1", "r=1"))
        assert r.status == "pass"

    def test_skip_when_prime_too_close(self):
        # a*r = 6 requires p > 8
        r = _row("known-i", 7, ("a=6", "r=1"))
        assert r.status == "skipped"
        assert "requires p >" in r.note

    def test_half_range_skip(self):
        # <5>_7 = 5 > (7-1)/2 = 3
        r = _row("thm11-half", 7, ("a=5",), a_samples=(Fraction(5),))
        assert r.status == "skipped"

    @pytest.mark.parametrize(
        "check_id",
        [d.id for d in registry()],
    )
    def test_every_check_passes_at_p13(self, check_id):
        results = sweep([check_id], [13])
        assert results
        assert all(r.status in ("pass", "skipped") for r in results), results


class TestVerdictPlumbing:
    def _defn(self, evaluator):
        return CheckDefinition("fixture", "fixture", 2, _ps_none, evaluator)

    def test_corrupted_rhs_fails(self):
        def ev(ctx):
            one = ctx.one()
            return one, one.scale(2), 2

        r = _evaluate(PrimeContext(7), self._defn(ev), {})
        assert r.status == "fail"
        assert r.lhs != r.rhs

    def test_low_precision_is_reported(self):
        def ev(ctx):
            lhs = PAdic.from_int_exact(3, p=7, aprec=1)
            return lhs, ctx.one().scale(3), 2

        r = _evaluate(PrimeContext(7), self._defn(ev), {})
        assert r.status == "precision_error"
        assert "verified only mod p^1 of p^2" in r.note

    def test_pass_keeps_note(self):
        def ev(ctx):
            one = ctx.one()
            return one, one, 2, "extra"

        r = _evaluate(PrimeContext(7), self._defn(ev), {})
        assert r.status == "pass"
        assert r.note == "extra"


class TestPrimeContext:
    def test_guards(self):
        with pytest.raises(PrimeTooSmall):
            PrimeContext(5)
        with pytest.raises(BadParameter):
            PrimeContext(7, digits=2)
        with pytest.raises(BadParameter):
            PrimeContext(7, t_sign="sideways")

    def test_theorem_t_minus(self):
        ctx = PrimeContext(7)
        n, t, note = ctx.theorem_t(Fraction(-1, 2))
        assert (n, note) == (3, "")
        assert t.rat == Fraction(-1, 2)

    def test_theorem_t_plus_non_integral(self):
        ctx = PrimeContext(7, t_sign="plus")
        n, t, note = ctx.theorem_t(Fraction(-1, 2))
        assert n == 3
        assert t.valuation < 0
        assert "not p-integral" in note

    def test_int_sum_exact_zero_residue(self):
        ctx = PrimeContext(7)
        a = PAdic.from_int_exact(3, p=7, aprec=6)
        b = PAdic.from_int_exact(7**6 - 3, p=7, aprec=6)
        s = ctx.int_sum([a, b])
        assert s.is_bounded_zero()
        assert s.aprec == 6

    def test_x_routes_cross_checked(self):
        ctx = PrimeContext(7)
        assert ctx.x().lift(2) % 49 == 38

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_s_shared_between_a_and_minus_one_minus_a(self, p):
        # -1/3 and -2/3 share one entry; every cached value is the direct sum
        ctx = PrimeContext(p)
        points = [PAdic.zero(p)]
        for a in DEFAULT_A_SAMPLES:
            points += [ctx.embed(a), ctx.reduce(a).t.shift(1)]
        for n in (ctx.half, p - 1):
            for a in points:
                assert ctx.s(a, n) == s_sum(a, n, p, ctx.digits, ctx.inv()), (a, n)
            pair = [ctx.s(ctx.embed(Fraction(-k, 3)), n) for k in (1, 2)]
            assert pair[0] is pair[1]
        assert ctx.s(PAdic.zero(p), p - 1).zero_flag


class TestSweep:
    def test_unknown_id_rejected(self):
        with pytest.raises(UnknownCheck):
            sweep(["nope"], [7])

    def test_skipped_rows_below_min_prime(self):
        results = sweep(["eq-1-1"], [5, 7])
        assert [r.status for r in results] == ["skipped", "pass"]
        assert "below min_prime" in results[0].note

    def test_deterministic_across_jobs(self):
        ids = ["eq-1-1", "lem-bridge", "known-viii-b"]
        primes = [7, 11, 13, 17, 19]
        assert sweep(ids, primes, jobs=1) == sweep(ids, primes, jobs=2)

    def test_fail_fast_same_rows_across_jobs(self):
        ids = ["thm11-full", "eq-1-1"]
        primes = [7, 11, 13, 17, 19, 23, 29, 31]
        rows = sweep(ids, primes, jobs=1, t_sign="plus", fail_fast=True)
        assert {r.prime for r in rows} == {7}
        assert rows == sweep(ids, primes, jobs=2, t_sign="plus", fail_fast=True)

    def test_pool_clamped_to_prime_count(self, monkeypatch):
        asked = []

        class InProcessPool:
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, work):
                return map(fn, work)

        monkeypatch.setattr(checks.multiprocessing, "Pool", InProcessPool)
        ids = ["eq-1-1", "lem-bridge"]
        rows = sweep(ids, [7, 11, 13], jobs=64)
        assert asked == [3]
        assert rows == sweep(ids, [7, 11, 13], jobs=1)

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_row_params_match_sweep(self, p):
        ids = [d.id for d in registry()]
        rows = sweep(ids, [p])
        for check_id in ids:
            emitted = [r.params for r in rows if r.check == check_id]
            assert emitted == sorted(row_params(check_id, p, DEFAULT_A_SAMPLES))

    def test_ordering(self):
        results = sweep(["lem-bridge", "eq-1-1"], [11, 7])
        keys = [(r.prime, r.check, r.params) for r in results]
        assert keys == sorted(keys)

    def test_plus_sign_diagnostic_fails_with_note(self):
        results = sweep(["thm11-full"], [7, 11], t_sign="plus")
        assert results
        for r in results:
            assert r.status == "fail"
            assert "not p-integral" in r.note


class TestRenderPadic:
    def test_shapes(self):
        assert render_padic(PAdic.zero(7), 7, 4) == "0"
        assert render_padic(PAdic.from_int_exact(0, p=7, aprec=4), 7, 4) == "0 mod 7^4"
        x = PAdic.from_int_exact(2 * 49, p=7, aprec=4)
        assert render_padic(x, 7, 4) == "7^2 * 2 mod 7^4"
        # window narrower than stored digits
        assert render_padic(x, 7, 3) == "7^2 * 2 mod 7^3"


class TestRegressionAnchors:
    """Frozen outcomes for the checks whose statements needed care."""

    @pytest.mark.parametrize("p", [7, 11, 13, 17, 19])
    def test_central_sum_denominator_16(self, p):
        # denominator 16 passes mod p^3 at every prime...
        assert _row("tauraso-6k", p).status == "pass"
        assert _row("sun-6k-tail", p).status == "pass"

    def test_central_sum_denominator_6_fails(self):
        # ...while denominator 6 fails already mod p, at every tested prime;
        # this pins the implemented reading of the two central-sum checks
        from supercong.checks import _BY_ID

        for p in (7, 11, 13):
            ctx = PrimeContext(p)
            lhs = ctx.central(1, p - 1, 6)
            rhs = ctx.mhs((1,), ctx.half).scale(-2)
            from supercong.padic import congruent_mod

            assert not congruent_mod(lhs, rhs, 1)

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_half_range_quadratic_member_exact_at_small_p(self, p):
        r = _row("known-viii-a", p, ("member=half-range",))
        assert r.status == "pass"

    def test_wolstenholme_refinement_at_p7(self):
        # H_6 = 49/20 and H_6 = 2 p^2 X mod 7^4
        from supercong.padic import congruent_mod

        ctx = PrimeContext(7)
        h6 = ctx.mhs((1,), 6)
        assert h6.valuation == 2
        assert congruent_mod(h6, ctx.x().shift(2).scale(2), 4)


class TestPerPrimeTables:
    """Every sum of a prime, the harmonic X route included, reads the one
    table PrimeContext.inv() builds, and no Bernoulli triangle is built."""

    MAIN_IDS = ("eq-1-0", "eq-1-1", "thm11-full", "thm11-half", "thm12", "lem26", "lem-bridge")

    def _table_builds(self, monkeypatch, ids, p):
        calls = Counter()
        for name in ("inverse_table", "bernoulli_scaled"):

            def counted(*args, _kernel=getattr(kernels, name), _name=name):
                calls[_name] += 1
                return _kernel(*args)

            monkeypatch.setattr(kernels, name, counted)
        results = sweep(ids, [p], jobs=1)
        assert {r.status for r in results} <= {"pass", "skipped"}
        return calls["inverse_table"], calls["bernoulli_scaled"]

    def test_full_catalog_below_table_limit(self, monkeypatch):
        ids = [d.id for d in registry()]
        assert self._table_builds(monkeypatch, ids, 499) == (1, 0)

    def test_main_checks_above_table_limit(self, monkeypatch):
        assert self._table_builds(monkeypatch, self.MAIN_IDS, 10007) == (1, 0)


class TestOnePassPerSignature:
    """A prime makes one kernel pass per sum signature and reads every
    endpoint it needs (0, (p-1)/2, p-1, <a>_p) from that pass."""

    KERNELS = ("mhs_sum", "weighted_sum", "s_sum", "central_sum")

    def _recorded(self, monkeypatch):
        """kernel name -> the argument tuples of its calls from now on."""
        calls = {name: [] for name in self.KERNELS}
        for name, log in calls.items():

            def counted(*args, _kernel=getattr(kernels, name), _log=log):
                _log.append(args)
                return _kernel(*args)

            monkeypatch.setattr(kernels, name, counted)
        return calls

    def _passes(self, monkeypatch, ids, p):
        calls = self._recorded(monkeypatch)
        results = sweep(ids, [p], jobs=1)
        assert {r.status for r in results} <= {"pass", "skipped"}
        return calls

    def test_main_checks_above_table_limit(self, monkeypatch):
        p = 10007
        calls = self._passes(monkeypatch, TestPerPrimeTables.MAIN_IDS, p)
        counts = {name: len(log) for name, log in calls.items()}
        assert counts == {"mhs_sum": 6, "weighted_sum": 5, "s_sum": 6, "central_sum": 1}
        assert {args[1] for args in calls["mhs_sum"]} == {p - 1}

    def test_full_catalog_below_table_limit(self, monkeypatch):
        p = 499
        calls = self._passes(monkeypatch, [d.id for d in registry()], p)
        signatures = {
            "mhs_sum": {args[0] for args in calls["mhs_sum"]},
            "weighted_sum": {args[:4] for args in calls["weighted_sum"]},
            # S_n(a) = S_n(-1-a): a and -1-a are one signature
            "s_sum": {
                (frozenset({a % m, (-1 - a) % m}), m)
                for a, _, _, m, _ in calls["s_sum"]
            },
            "central_sum": {(args[2], args[4]) for args in calls["central_sum"]},
        }
        for name, log in calls.items():
            assert log, name
            assert len(log) == len(signatures[name]), name
        # each pass runs to the top of its kernel's range
        assert {args[1] for args in calls["mhs_sum"]} == {p - 1}
        assert {args[4] for args in calls["weighted_sum"]} == {(p - 1) // 2, p - 1}
        assert {args[1] for args in calls["s_sum"]} == {p - 1}

    def test_unplanned_endpoints_match_the_direct_sums(self, monkeypatch):
        p = 13
        ctx = PrimeContext(p)
        inv = ctx.inv()
        a = ctx.embed(Fraction(2, 5))
        direct = {
            n: ([mhs(exps, n, p, ctx.digits, inv) for exps in ((1,), (1, -3), (2, 1, 1))],
                s_sum(a, n, p, ctx.digits, inv))
            for n in range(p)
        }
        calls = self._recorded(monkeypatch)
        for _ in range(2):
            for n in range(p):
                got = [ctx.mhs(exps, n) for exps in ((1,), (1, -3), (2, 1, 1))]
                assert (got, ctx.s(a, n)) == direct[n], n
        # a context without samples plans 6 and 12; the first request (n = 0)
        # and each other unplanned n add one pass, and every endpoint once
        # read stays with its signature
        assert len(calls["mhs_sum"]) == 3 * (1 + p - 3)
        assert len(calls["s_sum"]) == 1 + p - 3
