"""Multiple harmonic sums and the weighted-sum kernel vs the exact references."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong import kernels
from supercong.errors import BadParameter
from supercong.harmonic import mhs
from supercong.padic import PAdic, congruent_mod

from exact import (
    embed,
    harmonic_exact,
    inv_table,
    mhs_exact,
    odd_harmonic_exact,
    weighted_sum_exact,
)


class TestSignature:
    def test_validation(self):
        with pytest.raises(BadParameter):
            mhs((), (5,), 7, 6, inv_table(7, 6))
        with pytest.raises(BadParameter):
            mhs((1, 0), (5,), 7, 6, inv_table(7, 6))


class TestMhsValues:
    # frozen exact values, computed by brute-force rational summation
    def test_h6_exact(self):
        assert harmonic_exact(6) == Fraction(49, 20)
        (x,) = mhs((1,), (6,), 7, 6, inv_table(7, 6))
        assert x.valuation == 2
        assert congruent_mod(x, embed(Fraction(49, 20), 7, 8), 6)

    def test_depth2_value(self):
        # H(1,2;4) = sum_{j<k<=4} 1/(j k^2) = 1/4 + (1+1/2)/9 + (1+1/2+1/3)/16
        expect = mhs_exact((1, 2), 4)
        assert expect == Fraction(1, 4) + Fraction(3, 2, _normalize=True) / 9 + Fraction(11, 6) / 16
        (got,) = mhs((1, 2), (4,), 11, 6, inv_table(11, 6))
        assert congruent_mod(got, embed(expect, 11, 6), 6)

    def test_alternating_value(self):
        expect = mhs_exact((-2,), 5)
        assert expect == sum(Fraction((-1) ** k, k * k) for k in range(1, 6))
        (got,) = mhs((-2,), (5,), 7, 6, inv_table(7, 6))
        assert congruent_mod(got, embed(expect, 7, 6), 6)

    def test_short_range_is_zero(self):
        assert mhs((1, 2), (1,), 7, 6, inv_table(7, 6))[0].zero_flag

    def test_range_from_p_raises(self):
        # n = p would divide by p; the modular kernel covers only n < p
        with pytest.raises(BadParameter):
            mhs((1,), (7,), 7, 4, inv_table(7, 4))

    def test_range_cap(self):
        with pytest.raises(BadParameter):
            mhs((1,), (49,), 7, 4, inv_table(7, 4))

    def test_endpoints_from_one_pass(self, monkeypatch):
        # several endpoints give one value per endpoint, each equal to the
        # single-endpoint call, from one kernel pass; n < depth is exact zero
        calls = []

        def counted(*args, _kernel=kernels.mhs_sum):
            calls.append(args[1])
            return _kernel(*args)

        p, N, inv = 13, 5, inv_table(13, 5)
        ends = (0, 1, 6, 3, 12)
        for exps in ((1,), (1, -3), (2, 1, 1)):
            single = [mhs(exps, (k,), p, N, inv)[0] for k in ends]
            monkeypatch.setattr(kernels, "mhs_sum", counted)
            got = mhs(exps, ends, p, N, inv)
            monkeypatch.undo()
            assert got == tuple(single)
            assert [x.zero_flag for x in got] == [k < len(exps) for k in ends]
        assert calls == [12, 12, 12]
        with pytest.raises(BadParameter):
            mhs((1,), (3, 13), p, N, inv)


_sigs = st.lists(
    st.integers(min_value=-4, max_value=4).filter(lambda a: a != 0),
    min_size=1,
    max_size=3,
).filter(lambda s: sum(abs(a) for a in s) <= 4)


class TestOracleEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(sig=_sigs, n=st.integers(min_value=1, max_value=30), p=st.sampled_from([7, 11, 13]))
    def test_mhs_matches_oracle(self, sig, n, p):
        (got,) = mhs(tuple(sig), (min(n, p - 1),), p, 5, inv_table(p, 5))
        expect = mhs_exact(tuple(sig), min(n, p - 1))
        want = embed(expect, p, 7)
        if want.zero_flag:
            assert got.zero_flag or congruent_mod(got, want, got.aprec)
        else:
            assert congruent_mod(got, want, 5)

    @settings(max_examples=60, deadline=None)
    @given(r=st.integers(min_value=1, max_value=3), k=st.integers(min_value=1, max_value=6))
    def test_odd_harmonic_matches_oracle(self, r, k):
        # sum_{j<=k} 1/(2j-1)^r = H(r; 2k-1) - H(r; k-1) / 2^r
        p = 13
        inv = inv_table(p, 5)
        (got,) = mhs((r,), (2 * k - 1,), p, 5, inv)
        if k > 1:
            got = got - mhs((r,), (k - 1,), p, 5, inv)[0].scale(Fraction(1, 2**r))
        expect = odd_harmonic_exact(r, k)
        assert congruent_mod(got, embed(expect, p, 7), 5)


class TestNestedSum:
    # the kernel tuples of PrimeContext.nested/geom: (outer, signed, c, factors)
    @pytest.mark.parametrize(
        "spec",
        [
            (2, False, 1, (("odd", 1, 1),)),
            (3, False, 1, (("harmonic", 1, 1),)),
            (2, False, 1, (("odd", 1, 2),)),
            (2, False, 1, (("odd", 2, 1),)),
            (2, False, 1, (("h2k", 1, 1),)),
            (1, True, 1, (("harmonic", 2, 1),)),
            (3, False, 2, ()),
        ],
    )
    def test_matches_exact_rational(self, spec):
        outer, signed, c, factors = spec
        p, n, N = 31, 10, 5
        m = p**N
        got = kernels.weighted_sum(
            outer, signed, None if c == 1 else c, factors, n, p, m,
            kernels.inverse_table(2 * n, p, m),
        )[n]
        total = weighted_sum_exact(outer, signed, c, factors, n)
        assert congruent_mod(PAdic.from_int_exact(got, p=p, aprec=N), embed(total, p, 7), N)

    def test_h2k_equals_split_odd_plus_half_harmonic(self):
        # H_{2k} = O_k + H_k/2 with O_k the odd-reciprocal prefix
        for k in range(1, 8):
            lhs = harmonic_exact(2 * k)
            rhs = odd_harmonic_exact(1, k) + harmonic_exact(k) / 2
            assert lhs == rhs
