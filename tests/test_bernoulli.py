"""Bernoulli numbers, Fermat quotients, and the constant X."""

import functools
import math
from fractions import Fraction

import pytest

from supercong import bernoulli as bernoulli_mod
from supercong.bernoulli import (
    _EXACT_WITNESS_LIMIT,
    _exact_bernoulli,
    bernoulli,
    fermat_quotient,
    x_constant,
    x_from_h2,
)
from supercong.checks import DEFAULT_A_SAMPLES, PrimeContext, _evaluate, registry, sweep
from supercong.errors import BadParameter
from supercong.harmonic import mhs
from supercong.kernels import pykernels
from supercong.padic import PAdic, congruent_mod
from supercong.primes import primes_in_range, smallest_prime_factors

from exact import embed, inv_table


# first Bernoulli numbers by the defining recurrence (frozen exact values)
_EXACT = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def bernoulli_poly(n, x, p, N):
    """B_n(x) = sum_k binom(n,k) B_k x^(n-k), from the table's B_k."""
    total = PAdic.zero(p)
    for k in range(n + 1):
        coeff = Fraction(math.comb(n, k)) * Fraction(x) ** (n - k)
        if coeff != 0:
            total = total + bernoulli(k, p, N).scale(coeff)
    return total


class TestExactRecurrence:
    def test_small_values(self):
        for n, want in _EXACT.items():
            assert _exact_bernoulli(n) == want

    def test_odd_values_vanish(self):
        for n in (3, 5, 7, 9, 11):
            assert _exact_bernoulli(n) == 0


class TestTable:
    """bernoulli() on the indices it accepts, and its guards."""

    @pytest.mark.parametrize("p", [7, 11, 101])
    def test_matches_exact_small_n(self, p):
        for n, want in _EXACT.items():
            if n > 0 and n % (p - 1) == 0:
                continue
            got = bernoulli(n, p, 6)
            assert congruent_mod(got, embed(want, p), 6)

    def test_large_index_beyond_witness_limit(self):
        # B_50 = 495057205241079648212477525/66 reduced mod p (no exact check)
        p = 101
        assert 50 > _EXACT_WITNESS_LIMIT
        got = bernoulli(50, p, 6)
        assert got.aprec == 6
        want = embed(Fraction(495057205241079648212477525, 66), p)
        assert congruent_mod(got, want, 6)

    def test_odd_index_is_exact_zero(self):
        assert bernoulli(3, 7, 6).zero_flag
        assert congruent_mod(bernoulli(1, 7, 6), embed(Fraction(-1, 2), 7), 6)

    def test_non_integral_index_rejected(self):
        with pytest.raises(BadParameter):
            bernoulli(6, 7, 6)  # (p-1) | 6

    def test_bernoulli_wrapper_guards(self):
        with pytest.raises(BadParameter):
            bernoulli(-1, 7, 6)
        with pytest.raises(BadParameter):
            bernoulli(15, 7, 6)  # beyond 2p
        with pytest.raises(BadParameter):
            bernoulli(2, 3, 6)  # p < 5
        with pytest.raises(BadParameter):
            bernoulli(12, 7, 6)  # (p-1) | 12
        assert bernoulli(5, 7, 6).zero_flag


def _assert_matches_triangle(p, N, indices, scaled):
    """bernoulli(n, p, N) against the triangle's p*B_n mod p^(N+1), divided by p."""
    for n in indices:
        got = bernoulli(n, p, N)
        want = PAdic.from_int_exact(scaled[n], p=p, aprec=N + 1).shift(-1)
        assert congruent_mod(got, want, N), (p, N, n)
        # the power-sum value itself, also where the exact B_n cross-checks it
        assert got == want, (p, N, n)


class TestPowerSumsAgainstTriangle:
    """The power-sum route against kernels' O(p^2) Akiyama-Tanigawa triangle."""

    NS = (4, 5, 6, 8)

    @pytest.mark.parametrize("p", primes_in_range(7, 211))
    def test_every_index_below_2p(self, p):
        top = pykernels.bernoulli_scaled(2 * p, p, p ** (max(self.NS) + 1))
        indices = [n for n in range(2, 2 * p + 1, 2) if n % (p - 1)]
        for N in self.NS:
            m = p ** (N + 1)
            _assert_matches_triangle(p, N, indices, [x % m for x in top])

    @pytest.mark.parametrize("p", [983, 991, 997])
    def test_catalog_indices_near_1000(self, p):
        scaled = pykernels.bernoulli_scaled(2 * p, p, p**7)
        indices = list(range(p - 13, p - 2, 2)) + [2 * p - 4]
        _assert_matches_triangle(p, 6, indices, scaled)

    @pytest.mark.parametrize("p", [7, 11, 13, 31, 37, 59, 61, 101])
    def test_exact_recurrence_up_to_60(self, p):
        for n in range(2, min(60, 2 * p) + 1, 2):
            if n % (p - 1) == 0:
                continue
            want = PAdic.from_rational(_exact_bernoulli(n), p=p, digits=6)
            assert congruent_mod(bernoulli(n, p, 6), want, 6), (p, n)


def _naive_power_sum(n, p, m):
    return sum(pow(k, n, m) for k in range(1, p)) % m


class TestSievedPowerSum:
    """sum_{k<p} k^n from one pow per prime k against one pow per k."""

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_small_primes(self, p):
        # the sieve strides only with 2 (p = 7) or with 2 and 3 (p = 11, 13)
        for e in (1, 2, 7):
            m = p**e
            for n in range(2 * p + 1):
                assert bernoulli_mod._power_sum(n, p, m) == _naive_power_sum(n, p, m)

    @pytest.mark.parametrize("p", [983, 991, 997])
    def test_every_catalog_exponent(self, p, monkeypatch):
        asked = []
        power_sum = bernoulli_mod._power_sum

        def record(n, q, m):
            asked.append((n, q, m))
            return power_sum(n, q, m)

        monkeypatch.setattr(bernoulli_mod, "_power_sum", record)
        bernoulli_mod._scaled.cache_clear()
        sweep([d.id for d in registry()], [p], jobs=1)
        # B_{p-3} and B_{2p-4}, and the lower indices their power sums
        # subtract; the sweep's contexts work mod p^4, so p*B_n is asked mod p^5
        want = set(range(p - 11, p - 2, 2)) | set(range(2 * p - 8, 2 * p - 3, 2))
        assert {n for n, _, _ in asked} == want
        assert {(q, m) for _, q, m in asked} == {(p, p**5)}
        for n, q, m in asked:
            assert power_sum(n, p, m) == _naive_power_sum(n, p, m), (n, m)

    @staticmethod
    def _check_power_sums(monkeypatch, rows, top, power_sums):
        # the recursion asks lower indices at lower moduli; they share the
        # power sums of the outermost modulus p^top, one per exponent, and
        # every p*B_n asked, at any modulus, is the triangle's
        p = 997
        asked = {}
        scaled = bernoulli_mod._scaled

        def record(n, q, e, top=0):
            asked[n, e] = scaled(n, q, e, top)
            return asked[n, e]

        monkeypatch.setattr(bernoulli_mod, "_scaled", record)
        scaled.cache_clear()
        bernoulli_mod._power_sum.cache_clear()
        assert {r.status for r in rows(p)} == {"pass", "skipped"}
        assert bernoulli_mod._power_sum.cache_info().misses == power_sums
        assert {e for n, e in asked if n > 1 and n % 2 == 0} == set(range(1, top + 1, 2))
        triangle = pykernels.bernoulli_scaled(2 * p, p, p**top)
        for (n, e), value in asked.items():
            assert value == triangle[n] % p**e, (n, e)

    def test_one_power_sum_per_exponent(self, monkeypatch):
        # the sweep's contexts work mod p^4: p*B_n mod p^5
        ids = [d.id for d in registry()]
        self._check_power_sums(monkeypatch, lambda p: sweep(ids, [p], jobs=1), 5, 8)

    def test_one_power_sum_per_exponent_at_six_digits(self, monkeypatch):
        # every row evaluated directly in a context at 6 digits: p*B_n mod p^7
        def rows(p):
            ctx = PrimeContext(p, digits=6, a_samples=DEFAULT_A_SAMPLES)
            return [
                _evaluate(ctx, d, params)
                for d in registry()
                for params in d.param_space(p, DEFAULT_A_SAMPLES)
            ]

        self._check_power_sums(monkeypatch, rows, 7, 10)

    def test_memo_stays_bounded_over_a_sweep(self, monkeypatch):
        # p is in every key, so a sweep never reads an earlier prime's
        # entries again: the memo keeps a bounded number of them, and the
        # rows are those of an unbounded memo
        ids = [d.id for d in registry()]
        primes = primes_in_range(7, 100)
        scaled = bernoulli_mod._scaled
        scaled.cache_clear()
        rows = sweep(ids, primes, jobs=1)
        info = scaled.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize < info.misses
        unbounded = functools.lru_cache(maxsize=None)(scaled.__wrapped__)
        monkeypatch.setattr(bernoulli_mod, "_scaled", unbounded)
        assert sweep(ids, primes, jobs=1) == rows
        assert unbounded.cache_info().currsize == info.misses

    def test_smallest_prime_factors_by_trial_division(self):
        spf = smallest_prime_factors(2000)
        assert spf[:2] == [0, 1]
        for k in range(2, 2001):
            assert spf[k] == next(q for q in range(2, k + 1) if k % q == 0), k

    def test_p_10007(self):
        p = 10007
        m = p**7
        assert bernoulli_mod._power_sum(p - 3, p, m) == _naive_power_sum(p - 3, p, m)

    def test_smaller_prime_reads_grown_table(self):
        m = 1009**7
        assert bernoulli_mod._power_sum(1006, 1009, m) == _naive_power_sum(1006, 1009, m)
        table = bernoulli_mod._SPF
        size = len(table)
        assert size >= 1009
        for p in (7, 13, 997):
            m = p**5
            assert bernoulli_mod._power_sum(p - 3, p, m) == _naive_power_sum(p - 3, p, m)
        assert bernoulli_mod._SPF is table and len(table) == size


class TestBernoulliPoly:
    def test_half_value(self):
        # B_n(1/2) = (2^(1-n) - 1) B_n
        for p in (7, 11):
            for n in (2, 4, 6, 8):
                # every B_k with k <= n appears; all must be p-integral
                if any(k % (p - 1) == 0 for k in range(2, n + 1, 2)):
                    continue
                got = bernoulli_poly(n, Fraction(1, 2), p, 6)
                want = embed((Fraction(2) ** (1 - n) - 1) * _EXACT[n], p)
                assert congruent_mod(got, want, 6)

    def test_shift_one(self):
        # B_n(1) = B_n + [n == 1]: B_3(1) = B_0 + 3 B_1 + 3 B_2 + B_3 = 0, so
        # its terms cancel exactly; their lifts mod p^6 sum to 0 mod p^6
        p, N = 7, 6
        terms = [bernoulli(k, p, N).scale(math.comb(3, k)) for k in range(4)]
        assert sum(t.lift(N) for t in terms) % p**N == 0

    def test_sum_of_powers(self):
        # sum_{j<n} j^m = (B_{m+1}(n) - B_{m+1}) / (m+1)
        p = 11
        for m, n in ((2, 9), (3, 7), (4, 5)):
            power_sum = sum(j**m for j in range(n))
            lhs = embed(power_sum, p)
            rhs = (
                bernoulli_poly(m + 1, Fraction(n), p, 6)
                - bernoulli(m + 1, p, 6)
            ).scale(Fraction(1, m + 1))
            assert congruent_mod(lhs, rhs, 5)


class TestFermatQuotient:
    @pytest.mark.parametrize("p", [7, 11, 13, 101])
    @pytest.mark.parametrize("a", [2, 3, 5])
    def test_definition(self, p, a):
        got = fermat_quotient(a, p, 6)
        want = embed(Fraction(a ** (p - 1) - 1, p), p)
        assert congruent_mod(got, want, 6)

    def test_requires_unit(self):
        with pytest.raises(BadParameter):
            fermat_quotient(14, 7, 6)


def _x_harmonic(p, N):
    """X = -H(2; p-1)/(4p) mod p^2, the route PrimeContext.x takes."""
    return x_from_h2(mhs((2,), (p - 1,), p, N, inv_table(p, N))[0])


class TestXConstant:
    def test_spot_value_p7(self):
        # X = B_4/4 - B_10/(4*7-8) = -1/120 - 1/264 = -2/165; -2/165 = 38 mod 49
        want = Fraction(-1, 30) / 4 - Fraction(5, 66) / 20
        assert want == Fraction(-2, 165)
        assert (-2 * pow(165, -1, 49)) % 49 == 38
        for x in (x_constant(7, 6), _x_harmonic(7, 6)):
            assert x.lift(2) % 49 == 38

    @pytest.mark.parametrize("p", [11, 13, 97, 101])
    def test_methods_agree(self, p):
        xb = x_constant(p, 6)
        xh = _x_harmonic(p, 6)
        assert xh.aprec == 2  # harmonic route is pinned mod p^2
        assert congruent_mod(xb, xh, 2)

    @pytest.mark.parametrize("p", [11, 13, 97, 101])
    def test_harmonic_route_reads_any_table_depth(self, p):
        # the caller's table mod p^N serves every N >= 3 with the same value
        x4, x6, x8 = (_x_harmonic(p, N) for N in (4, 6, 8))
        assert x4 == x6 == x8

    def test_guards(self):
        with pytest.raises(BadParameter):
            x_constant(5, 6)
