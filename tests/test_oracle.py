"""Self-consistency of the exact references: supercong.oracle and exact.py."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong import oracle

from exact import harmonic_exact, mhs_exact, mhs_exact_upto, odd_harmonic_exact

# the acceptance grid's signatures: depth <= 3, sum of |a_i| <= 4
GRID_SIGS = [
    sig
    for depth in (1, 2, 3)
    for sig in product([a for a in range(-4, 5) if a], repeat=depth)
    if sum(map(abs, sig)) <= 4
]


class TestBasics:
    def test_harmonic_values(self):
        assert harmonic_exact(1) == 1
        assert harmonic_exact(4) == Fraction(25, 12)
        assert harmonic_exact(6) == Fraction(49, 20)

    def test_mhs_depth1_equals_power_sum(self):
        for n in (1, 5, 10):
            assert mhs_exact((2,), n) == sum(
                Fraction(1, k * k) for k in range(1, n + 1)
            )

    def test_mhs_alternating(self):
        assert mhs_exact((-1,), 3) == Fraction(-1) + Fraction(1, 2) - Fraction(1, 3)

    def test_mhs_strict_ordering(self):
        # depth > n gives the empty sum
        assert mhs_exact((1, 1, 1), 2) == 0

    def test_mhs_range_cap(self):
        with pytest.raises(ValueError):
            mhs_exact((1,), 201)
        with pytest.raises(ValueError):
            mhs_exact_upto((1,), 201)

    def test_mhs_upto_matches_mhs_exact_on_grid(self):
        for sig in GRID_SIGS:
            upto = mhs_exact_upto(sig, 12)
            assert len(upto) == 13
            for n in (0, 1, 2, 3, 7, 12):
                assert upto[n] == mhs_exact(sig, n)

    def test_odd_harmonic(self):
        assert odd_harmonic_exact(1, 3) == 1 + Fraction(1, 3) + Fraction(1, 5)
        assert odd_harmonic_exact(2, 2) == 1 + Fraction(1, 9)

    def test_binom(self):
        assert oracle.binom_exact(Fraction(5), 2) == 10
        assert oracle.binom_exact(Fraction(-1, 2), 2) == Fraction(3, 8)
        assert oracle.binom_exact(Fraction(3), 5) == 0

    def test_central_identity(self):
        # binom(-1/2, k) * (-4)^k = binom(2k, k)
        for k in range(13):
            assert oracle.binom_exact(Fraction(-1, 2), k) * (-4) ** k == comb(2 * k, k)

    def test_s_sum_first_term(self):
        # S_1(a) = binom(a,1) binom(-1-a,1) = -a(1+a)
        for a in (Fraction(2), Fraction(-1, 2), Fraction(1, 3)):
            assert oracle.s_sum_exact(a, 1) == -a * (1 + a)


class TestShuffles:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40))
    def test_shuffle11(self, n):
        assert oracle.structural_identity("shuffle11", n).equal

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40))
    def test_shuffle22(self, n):
        assert oracle.structural_identity("shuffle22", n).equal

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=25),
        a=st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(
            lambda q: q != 0
        ),
    )
    def test_telescope(self, n, a):
        assert oracle.structural_identity("telescope", n, a).equal


class TestSigma:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40))
    def test_plain(self, n):
        assert oracle.sigma_identity("plain", n).equal

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40))
    def test_weighted(self, n):
        assert oracle.sigma_identity("weighted", n).equal

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            oracle.sigma_identity("nope", 3)
        with pytest.raises(ValueError):
            oracle.structural_identity("nope", 3)
        with pytest.raises(ValueError):
            oracle.structural_identity("telescope", 3)  # missing a
