"""Check registry, verdict plumbing, and the sweep engine."""

import multiprocessing
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from supercong import bernoulli, checks, kernels, oracle
from supercong.kernels import pykernels
from supercong.binomial import s_sum
from supercong.checks import (
    DEFAULT_A_SAMPLES,
    CheckDefinition,
    PrimeContext,
    _NO_PARAMS,
    _evaluate,
    registry,
    row_params,
    sweep,
)
from supercong.errors import (
    BadParameter,
    InsufficientPrecision,
    PrecisionExhausted,
    PrimeTooSmall,
    UnknownCheck,
)
from supercong.padic import PAdic, congruent_mod
from supercong.primes import primes_in_range


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
        return CheckDefinition("fixture", "fixture", 2, _NO_PARAMS, evaluator)

    def test_corrupted_rhs_fails(self):
        def ev(ctx):
            one = ctx.embed(Fraction(1))
            return one, one.scale(2), 2

        r = _evaluate(PrimeContext(7), self._defn(ev), {})
        assert r.status == "fail"
        assert r.lhs != r.rhs

    def test_low_precision_is_reported(self):
        def ev(ctx):
            lhs = PAdic.from_int_exact(3, p=7, aprec=1)
            return lhs, ctx.embed(Fraction(3)), 2

        r = _evaluate(PrimeContext(7), self._defn(ev), {})
        assert r.status == "precision_error"
        assert "verified only mod p^1 of p^2" in r.note

    def test_pass_keeps_note(self):
        def ev(ctx):
            one = ctx.embed(Fraction(1))
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
        # t = (a - <a>_p)/p = -1/2, exact, as integers in lowest terms
        assert ctx.theorem_t(Fraction(-1, 2)) == (3, -1, 2, "")
        assert ctx.theorem_t(Fraction(5)) == (5, 0, 1, "")

    def test_theorem_t_plus_non_integral(self):
        ctx = PrimeContext(7, t_sign="plus")
        # t = (a + <a>_p)/p = 5/14, exact
        assert ctx.theorem_t(Fraction(-1, 2)) == (
            3, 5, 14, "plus-sign t = 5/14 is not p-integral"
        )
        # p-integral: t = (-7 + 0)/7 = -1
        assert ctx.theorem_t(Fraction(-7)) == (0, -1, 1, "plus-sign t")

    def test_int_sum_exact_zero_residue(self):
        ctx = PrimeContext(7)
        a = PAdic.from_int_exact(3, p=7, aprec=6)
        b = PAdic.from_int_exact(7**6 - 3, p=7, aprec=6)
        s = ctx.int_sum([a, b])
        assert s.digits == 0 and not s.zero_flag
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
                (direct,) = s_sum(a, (n,), p, ctx.digits, ctx.inv())
                assert ctx.s(a, n) == direct, (a, n)
            pair = [ctx.s(ctx.embed(Fraction(-k, 3)), n) for k in (1, 2)]
            assert pair[0] is pair[1]
        assert ctx.s(PAdic.zero(p), p - 1).zero_flag


def _fraction_theorem_t(ctx, a):
    """(<a>_p, t, note) with t a Fraction, as PrimeContext.theorem_t gave it."""
    n = ctx.reduce(a).residue
    if ctx.t_sign == "minus":
        return n, Fraction(a - n, ctx.p), ""
    t = Fraction(a + n, ctx.p)
    note = "plus-sign t"
    if t.denominator % ctx.p == 0:
        note = f"plus-sign t = {t} is not p-integral"
    return n, t, note


class TestIntegerT:
    """t = num/den and its polynomials from integers, against the Fraction
    expressions they replaced."""

    PRIMES = [7, 11, 13, 101, 499]

    @staticmethod
    def _samples(p):
        # the defaults; t = 7/6, where 14t - 12t^2 = 0; t = -1, where t + 1
        # = 0; 0, p-integral with either sign; and a few with larger parts
        extra = [Fraction(7 * p, 6), Fraction(-p), Fraction(0), Fraction(-1),
                 Fraction(49, 3), Fraction(-7, 5), Fraction(p * p + 3, 8)]
        return tuple(a for a in (*DEFAULT_A_SAMPLES, *extra) if a.denominator % p)

    @pytest.mark.parametrize("t_sign", ["minus", "plus"])
    @pytest.mark.parametrize("p", PRIMES)
    def test_theorem_t_is_the_fraction_t(self, p, t_sign):
        ctx = PrimeContext(p, t_sign=t_sign)
        notes = []
        for a in self._samples(p):
            n, num, den, note = ctx.theorem_t(a)
            want_n, t, want_note = _fraction_theorem_t(ctx, a)
            # the Fraction's own numerator and denominator: lowest terms, den > 0
            assert (n, num, den, note) == (want_n, t.numerator, t.denominator, want_note)
            notes.append(note)
        if t_sign == "minus":
            assert set(notes) == {""}
        else:
            # both plus-sign notes occur, "plus-sign t = 5/14 is not p-integral" among them
            assert "plus-sign t" in notes
            assert any(n.endswith("is not p-integral") for n in notes)

    @pytest.mark.parametrize("t_sign", ["minus", "plus"])
    @pytest.mark.parametrize("p", PRIMES)
    def test_embedded_t_polynomials_are_the_fraction_expressions(self, p, t_sign, monkeypatch):
        # every value the three checks embed, read as num/den where embed is
        # called, is the Fraction expression the check used to embed
        samples = self._samples(p)
        ctx = PrimeContext(p, t_sign=t_sign, a_samples=samples)
        embedded = []
        embed = PrimeContext.embed

        def recording(self, num, den=1):
            embedded.append(Fraction(num, den))
            return embed(self, num, den)

        monkeypatch.setattr(PrimeContext, "embed", recording)
        statuses = set()
        for a in samples:
            n, t, _ = _fraction_theorem_t(ctx, a)
            t_minus = Fraction(a - ctx.reduce(a).residue, p)  # lem24-half's t
            want = {
                "thm11-full": [a, t, 2 * t * t + 4 * t + 1, t + 1],
                "thm11-half": [a, t, 14 * t - 12 * t * t] if n <= ctx.half else [],
                "lem24-half": [14 * t_minus - 12 * t_minus * t_minus],
            }
            for check_id, values in want.items():
                embedded.clear()
                row = _evaluate(ctx, checks._BY_ID[check_id], {"a": a})
                assert embedded == values, (check_id, a)
                statuses.add(row.status)
        # every sample row was judged, or skipped for <a>_p > (p-1)/2
        assert statuses <= {"pass", "fail", "skipped"}
        assert ("fail" in statuses) == (t_sign == "plus")


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

        def rows_to_first_bad_prime(jobs):
            rows = []

            def on_prime(p, chunk):
                rows.extend(chunk)
                return any(r.status in ("fail", "precision_error") for r in chunk)

            sweep(ids, primes, jobs=jobs, t_sign="plus", on_prime=on_prime)
            return rows

        rows = rows_to_first_bad_prime(1)
        assert {r.prime for r in rows} == {7}
        assert rows == rows_to_first_bad_prime(2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_list_mode_computes_every_prime_when_rows_fail(self, jobs):
        primes = [7, 11, 13, 17]
        rows = sweep(["thm11-full"], primes, jobs=jobs, t_sign="plus")
        assert rows and all(r.status == "fail" for r in rows)
        assert sorted({r.prime for r in rows}) == primes

    @staticmethod
    def _in_process_pool(monkeypatch):
        """Replace multiprocessing.Pool by a fake that runs each apply_async
        call at once, in this process; return the log of what sweep asks of
        it: ("pool", processes), ("submit", prime), ("close",), ("join",)
        and ("terminate",)."""
        log = []

        class InProcessPool:
            def __init__(self, processes):
                log.append(("pool", processes))

            def apply_async(self, fn, args):
                log.append(("submit", args[0][0]))
                result = fn(*args)
                return SimpleNamespace(get=lambda: result)

            def close(self):
                log.append(("close",))

            def join(self):
                log.append(("join",))

            def terminate(self):
                log.append(("terminate",))

        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        return log

    def test_pool_clamped_to_prime_count(self, monkeypatch):
        log = self._in_process_pool(monkeypatch)
        ids = ["eq-1-1", "lem-bridge"]
        rows = sweep(ids, [7, 11, 13], jobs=64)
        assert [entry for entry in log if entry[0] == "pool"] == [("pool", 3)]
        assert rows == sweep(ids, [7, 11, 13], jobs=1)

    @pytest.mark.parametrize("stop", ["fail_fast", "closed_stdout"])
    def test_stopped_pool_closes_after_primes_in_flight(self, monkeypatch, stop):
        log = self._in_process_pool(monkeypatch)
        primes = primes_in_range(7, 83)
        assert len(primes) == 20

        def on_prime(p, chunk):
            if stop == "closed_stdout":
                raise BrokenPipeError
            return True

        if stop == "closed_stdout":
            with pytest.raises(BrokenPipeError):
                sweep(["eq-1-1"], primes, jobs=2, on_prime=on_prime)
        else:
            assert sweep(["eq-1-1"], primes, jobs=2, on_prime=on_prime) is None
        submitted = [entry[1] for entry in log if entry[0] == "submit"]
        # two primes a process in flight, and the next one handed in as the
        # first chunk comes back
        assert submitted == primes[: len(submitted)]
        assert len(submitted) <= 2 * 2 + 1
        assert ("terminate",) not in log
        assert log[-2:] == [("close",), ("join",)]

    def test_interrupted_pool_terminates(self, monkeypatch):
        log = self._in_process_pool(monkeypatch)

        def on_prime(p, chunk):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            sweep(["eq-1-1"], [7, 11, 13], jobs=2, on_prime=on_prime)
        assert ("terminate",) in log
        assert ("close",) not in log

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_prime_sees_each_sorted_chunk_in_prime_order(self, jobs):
        ids = ["lem-bridge", "eq-1-1", "thm11-half"]
        primes = [5, 7, 11, 13, 17]
        seen = []
        kept = sweep(ids, primes, jobs=jobs, on_prime=lambda p, chunk: seen.append((p, chunk)))
        # the chunks went to on_prime only: sweep keeps no rows of its own
        assert kept is None
        assert [p for p, _ in seen] == primes
        for p, chunk in seen:
            assert {r.prime for r in chunk} == {p}
            assert chunk == sorted(chunk, key=lambda r: (r.check, r.params))
        rows = [r for _, chunk in seen for r in chunk]
        assert rows == sorted(rows, key=lambda r: (r.prime, r.check, r.params))
        assert rows == sweep(ids, primes, jobs=3 - jobs)

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
        assert PAdic.zero(7).render(4) == "0"
        assert PAdic.from_int_exact(0, p=7, aprec=4).render(4) == "0 mod 7^4"
        x = PAdic.from_int_exact(2 * 49, p=7, aprec=4)
        assert x.render(4) == "7^2 * 2 mod 7^4"
        # window narrower than stored digits
        assert x.render(3) == "7^2 * 2 mod 7^3"
        # 100/7 = 7^-1 * 100, and 100/7 - 2/7 = 14 is 0 mod 7
        assert PAdic.from_rational(100, 7, p=7, digits=4).render(1) == "7^-1 * 2 mod 7^1"


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
        for p in (7, 11, 13):
            ctx = PrimeContext(p)
            total = sum(
                oracle.binom_exact(Fraction(2 * k), k) ** 2 / (k * 6**k)
                for k in range(1, p)
            )
            lhs = PAdic.from_rational(total, p=p, digits=ctx.digits)
            rhs = ctx.mhs((1,), ctx.half).scale(-2)
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
        # S_n(-1/2) is read from the central pass: 6 signatures, 5 s_sum passes
        assert counts == {"mhs_sum": 6, "weighted_sum": 5, "s_sum": 5, "central_sum": 1}
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
            "central_sum": {(args[2],) for args in calls["central_sum"]},
        }
        for name, log in calls.items():
            assert log, name
            assert len(log) == len(signatures[name]), name
        # each pass runs to the top of its kernel's range
        assert {args[1] for args in calls["mhs_sum"]} == {p - 1}
        assert {args[4] for args in calls["weighted_sum"]} == {(p - 1) // 2, p - 1}
        assert {args[1] for args in calls["s_sum"]} == {p - 1}

    @pytest.mark.parametrize("p", [13, 31])
    def test_minus_half_reads_the_central_pass(self, monkeypatch, p):
        # binom(-1/2,k)^2 = binom(2k,k)^2 / 16^k, so S_n(-1/2) is the 16^k
        # central sum; it makes no s_sum pass of its own
        ctx = PrimeContext(p)
        m = ctx.m
        a = ctx.embed(Fraction(-1, 2))
        ends = ((p - 1) // 2, p - 1)
        direct = s_sum(a, ends, p, ctx.digits, ctx.inv())
        prefix = kernels.central_sum(p - 1, p, m, ctx.inv())
        for n in range(1, p):
            exact = PAdic.from_rational(oracle.s_sum_exact(Fraction(-1, 2), n), p=p, digits=6)
            value = PAdic.from_int_exact(prefix[n], p=p, aprec=ctx.digits)
            assert congruent_mod(value, exact, ctx.digits), n
        calls = self._recorded(monkeypatch)
        got = tuple(ctx.s(a, n) for n in ends)
        assert got == direct
        assert calls["s_sum"] == []
        assert ctx.central(1, p - 1) == got[-1]


def _built_contexts(monkeypatch):
    """The contexts _run_prime builds from now on, in order."""
    built = []

    class Recorded(PrimeContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(checks, "PrimeContext", Recorded)
    return built


class TestPrecisionPlan:
    """_run_prime evaluates each row in a context mod p^MAX_E and evaluates
    the rows that context does not settle again at digits; every row is the
    one a context at digits gives directly."""

    SAMPLES = tuple(map(Fraction, ("1/2", "3", "-7/5", "-1", "-3", "0", "7", "49/3")))
    ALL_IDS = tuple(d.id for d in registry())

    @staticmethod
    def _rows(ids, p, digits=6, t_sign="minus", a_samples=DEFAULT_A_SAMPLES):
        ctx = PrimeContext(p, digits=digits, t_sign=t_sign, a_samples=a_samples)
        return [
            _evaluate(ctx, defn, params)
            for defn in (checks._BY_ID[check_id] for check_id in ids)
            for params in defn.param_space(p, a_samples)
        ]

    def _same_rows(self, ids, p, digits=6, t_sign="minus", a_samples=DEFAULT_A_SAMPLES):
        rows = checks._run_prime((p, ids, digits, a_samples, t_sign))
        assert rows
        assert rows == self._rows(ids, p, digits, t_sign, a_samples)

    def test_evaluator_exponent_is_registered(self):
        """Run alone, each check is judged at most at its registry exponent,
        and reaches it; MAX_E bounds them all."""
        for defn in registry():
            seen = set()
            for p in (7, 13, 101, 997):
                ctx = PrimeContext(p, a_samples=self.SAMPLES)
                for params in defn.param_space(p, self.SAMPLES):
                    try:
                        seen.add(defn.evaluator(ctx, **params)[2])
                    except (checks._Skip, PrecisionExhausted, InsufficientPrecision):
                        pass
            assert max(seen) == defn.modulus_exponent <= checks.MAX_E, (defn.id, seen)

    @pytest.mark.parametrize("p", [7, 11, 13, 101, 499, 997])
    def test_rows_match_full_precision(self, p):
        for digits in (4, 6, 9):
            self._same_rows(self.ALL_IDS, p, digits=digits)
        self._same_rows(self.ALL_IDS, p, t_sign="plus")
        self._same_rows(self.ALL_IDS, p, a_samples=self.SAMPLES)

    def test_main_checks_above_table_limit(self):
        self._same_rows(TestPerPrimeTables.MAIN_IDS, 10007)

    @pytest.mark.parametrize("digits", [4, 6, 9])
    def test_left_sides_at_max_e(self, monkeypatch, digits):
        # every sum of the first context works mod p^MAX_E, and the default
        # samples leave no row for a second context
        p = 13
        built = _built_contexts(monkeypatch)
        rows = checks._run_prime((p, self.ALL_IDS, digits, DEFAULT_A_SAMPLES, "minus"))
        assert {r.status for r in rows} == {"pass", "skipped"}
        (ctx,) = built
        want = checks.MAX_E
        assert (ctx.digits, ctx.m) == (want, p**want)
        assert ctx.inv() == [pow(k, -1, p**want) if k else 0 for k in range(p)]
        assert ctx.s(ctx.embed(Fraction(1, 3)), p - 1).aprec == want
        assert ctx.central(1, p - 1).aprec == want
        assert ctx.geom(2, 3, p - 1).aprec == want
        assert ctx.mhs((2,), p - 1).aprec == want


class TestRetry:
    """A row the context mod p^MAX_E does not settle is the row of a context
    at digits, built once per prime and only on first need."""

    MINUS_ONE = (Fraction(-1),)

    @pytest.mark.parametrize("check_id, p", [("thm11-full", 13), ("sun-param", 17)])
    def test_unsettled_row_is_the_full_context_row(self, monkeypatch, check_id, p):
        defn = checks._BY_ID[check_id]
        params = {"a": Fraction(-1)}
        first = PrimeContext(p, digits=checks.MAX_E, a_samples=self.MINUS_ONE)
        with pytest.raises(PrecisionExhausted):
            defn.evaluator(first, **params)
        assert _evaluate(first, defn, params).status == "precision_error"
        want = _evaluate(PrimeContext(p, digits=6, a_samples=self.MINUS_ONE), defn, params)
        assert want.status == "pass"
        built = _built_contexts(monkeypatch)
        assert checks._run_prime((p, (check_id,), 6, self.MINUS_ONE, "minus")) == [want]
        assert [ctx.digits for ctx in built] == [checks.MAX_E, 6]

    def test_full_context_built_once_per_prime(self, monkeypatch):
        # at p = 17 both rows at a = -1 need p^6; they share one context
        built = _built_contexts(monkeypatch)
        rows = checks._run_prime((17, ("sun-param", "thm11-full"), 6, self.MINUS_ONE, "minus"))
        assert [r.status for r in rows] == ["pass", "pass"]
        assert [ctx.digits for ctx in built] == [checks.MAX_E, 6]

    def test_no_second_context_at_max_e_digits(self, monkeypatch):
        built = _built_contexts(monkeypatch)
        (row,) = checks._run_prime((13, ("thm11-full",), 4, self.MINUS_ONE, "minus"))
        assert row.status == "precision_error"
        assert [ctx.digits for ctx in built] == [checks.MAX_E]

    def test_no_kernel_list_built_twice(self, monkeypatch):
        # a prime's rows retried at digits run after all its rows mod
        # p^MAX_E, so the kernels' one-slot cache moves from the first
        # context's table to the second once, and no power list or weight
        # list is built twice for one (table, modulus)
        lists = {}
        kept = []
        for name in ("_table_powers", "_binomial_weights"):

            def counted(inv, *args, _kernel=getattr(pykernels, name), _name=name):
                out = _kernel(inv, *args)
                # keep both alive, so that no id is reused
                kept.append((inv, out))
                lists.setdefault((_name, id(inv), *args), set()).add(id(out))
                return out

            monkeypatch.setattr(pykernels, name, counted)
        built = _built_contexts(monkeypatch)
        rows = sweep(
            [d.id for d in registry()], primes_in_range(101, 199),
            digits=6, a_samples=TestPrecisionPlan.SAMPLES,
        )
        assert {r.status for r in rows} == {"pass", "skipped"}
        # 21 primes, and a second context for each: a = -1 needs p^6
        assert len(built) == 42
        assert len({key[1] for key in lists}) == 42
        assert all(len(made) == 1 for made in lists.values())


class TestSharpness:
    """Each check's two sides differ mod p^(e+1) at some row, so a refactor
    that made them read the same sum, or cut both to the same digits, shows.

    Every value of PrimeContext(p, digits=9) is known mod p^9; no row or
    knob changes.  lem23-full and lem23-half are not probed: _lem23_scan
    always works mod p^4, so their sides carry no digit past their exponent.
    """

    PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 101, 211)
    UNPROBED = {"lem23-full", "lem23-half"}

    @pytest.fixture(scope="class")
    def witnesses(self):
        """The primes at which each check has a row with lhs != rhs mod p^(e+1)."""
        found = {d.id: set() for d in registry()}
        for p in self.PRIMES:
            ctx = PrimeContext(p, digits=9, a_samples=DEFAULT_A_SAMPLES)
            for defn in registry():
                for params in defn.param_space(p, DEFAULT_A_SAMPLES):
                    try:
                        lhs, rhs, e = defn.evaluator(ctx, **params)[:3]
                        if not congruent_mod(lhs, rhs, e + 1):
                            found[defn.id].add(p)
                    except (checks._Skip, PrecisionExhausted, InsufficientPrecision):
                        pass
        return found

    def test_every_probed_check_has_a_witness(self, witnesses):
        blunt = [i for i, ps in witnesses.items() if not ps and i not in self.UNPROBED]
        assert blunt == []

    def test_main_theorem_is_tight_mod_p5(self, witnesses):
        # the paper states eq-1-0 and eq-1-1 mod p^4; mod p^5 they fail at every prime
        for check_id in ("eq-1-0", "eq-1-1"):
            assert checks._BY_ID[check_id].modulus_exponent == 4
            assert witnesses[check_id] == set(self.PRIMES)

    def test_lem23_sides_stop_at_p4(self, witnesses):
        assert {i for i, ps in witnesses.items() if not ps} == self.UNPROBED
        ctx = PrimeContext(11, digits=9, a_samples=DEFAULT_A_SAMPLES)
        for check_id in self.UNPROBED:
            lhs, rhs, e = checks._BY_ID[check_id].evaluator(ctx, a=Fraction(1, 3))[:3]
            assert e == 4
            assert min(z.aprec for z in (lhs, rhs)) == 4


class TestExceptionalPrimes:
    """The valuations the theory predicts where a constant of the catalog
    vanishes mod p, so a change that loses digits there shows.

    16843 is a Wolstenholme prime: H_{p-1} = 0 mod p^3, and eq-1-1's two
    sides, -(21/2) H_{p-1} and its tail of the 16^k sum, have valuation 3;
    at p = 7 they do too, as 7 divides 21.  At the other primes H_{p-1} is
    p^2 times a unit.  1093 and 3511 are the Wieferich primes: q_2 = 0
    mod p, and with it known-ii's H((p-1)/2) at a = 1.  Since H_{p-1} =
    -p^2 B_{p-3}/3 mod p^3, B_{p-3} = 0 mod p at 16843, by the power sums of
    bernoulli() and by the harmonic route PrimeContext takes above
    X_TABLE_LIMIT alike.
    """

    @pytest.mark.parametrize("p, v", [(7, 3), (11, 2), (13, 2), (101, 2), (16843, 3)])
    def test_eq_1_1_valuation(self, p, v):
        lhs, rhs, e = checks._BY_ID["eq-1-1"].evaluator(PrimeContext(p))[:3]
        assert e == 4
        assert [z.valuation for z in (lhs, rhs)] == [v, v]
        assert not (lhs.zero_flag or rhs.zero_flag)

    @pytest.mark.parametrize("p, wieferich", [(1093, True), (1097, False),
                                              (3511, True), (3517, False)])
    def test_known_ii_at_a_1_vanishes_only_at_wieferich_primes(self, p, wieferich):
        lhs, rhs, e = checks._BY_ID["known-ii"].evaluator(PrimeContext(p), a=1)[:3]
        assert e == 1
        zero = PAdic.zero(p)
        assert [congruent_mod(z, zero, 1) for z in (lhs, rhs)] == [wieferich] * 2

    def test_b_pm3_vanishes_at_16843_by_both_routes(self):
        p = 16843
        assert p > checks.X_TABLE_LIMIT
        power_sums = bernoulli.bernoulli(p - 3, p, 1)
        harmonic = PrimeContext(p).b_pm3()
        zero = PAdic.zero(p)
        assert [congruent_mod(b, zero, 1) for b in (power_sums, harmonic)] == [True, True]
