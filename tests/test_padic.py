"""Capped-precision p-adic arithmetic: constructors, ops, congruence."""

import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supercong.errors import (
    BadParameter,
    DivisionByZero,
    InsufficientPrecision,
    PrecisionExhausted,
)
from supercong import padic
from supercong.padic import PAdic, congruent_mod, vp_int

P = 7


def vp_fraction(q: Fraction, p: int) -> int:
    """The p-adic valuation of a nonzero rational: the reference the
    Fraction routes below read."""
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def emb(q, digits=6, p=P):
    return PAdic.from_rational(Fraction(q), p=p, digits=digits)


class TestValuation:
    def test_vp_int(self):
        assert vp_int(49, 7) == 2
        assert vp_int(50, 7) == 0
        assert vp_int(-343, 7) == 3
        with pytest.raises(ValueError):
            vp_int(0, 7)

    def test_vp_fraction(self):
        assert vp_fraction(Fraction(49, 20), 7) == 2
        assert vp_fraction(Fraction(3, 7), 7) == -1
        assert vp_fraction(Fraction(5, 3), 7) == 0


class TestConstructors:
    def test_from_rational_unit(self):
        x = emb(Fraction(3, 5))
        assert x.valuation == 0
        assert x.unit == 3 * pow(5, -1, 7**6) % 7**6
        assert x.aprec == 6
        assert x == PAdic(7, 0, 3 * pow(5, -1, 7**6) % 7**6, 6)

    def test_from_rational_valued(self):
        x = emb(Fraction(49, 20))
        assert x.valuation == 2
        assert x.aprec == 8  # 2 + 6 digits
        assert x.unit % 7 != 0

    def test_from_rational_negative_valuation(self):
        x = emb(Fraction(3, 7))
        assert x.valuation == -1
        assert x.aprec == 5

    def test_from_rational_zero(self):
        x = emb(0)
        assert x.zero_flag
        assert x.aprec is None

    def test_from_int_exact(self):
        x = PAdic.from_int_exact(98, p=7, aprec=4)
        assert (x.valuation, x.unit) == (2, 2)
        assert x.aprec == 4
        assert x == PAdic(7, 2, 2, 2)

    def test_from_int_exact_zero_residue_is_bounded_zero(self):
        x = PAdic.from_int_exact(7**4, p=7, aprec=4)
        assert x.digits == 0 and not x.zero_flag
        assert x.aprec == 4

    def test_unit_validation(self):
        with pytest.raises(ValueError):
            PAdic(7, 0, 14, 2)  # unit divisible by p
        with pytest.raises(ValueError):
            PAdic(7, 0, 7**2 + 1, 2)  # unit out of range
        with pytest.raises(ValueError):
            PAdic(7, 0, 3, 0)  # bounded zero must have unit 0


class TestArithmetic:
    def test_add_matches_rational(self):
        x = emb(Fraction(3, 5)) + emb(Fraction(2, 3))
        expect = emb(Fraction(3, 5) + Fraction(2, 3))
        assert congruent_mod(x, expect, 6)

    def test_sub_exact_cancel_without_witness(self):
        a = PAdic.from_int_exact(12, p=7, aprec=4)
        b = PAdic.from_int_exact(12, p=7, aprec=4)
        with pytest.raises(PrecisionExhausted):
            a - b

    def test_add_loses_digits_on_partial_cancel(self):
        # 1 + (7^3 - 1): sum has valuation 3, so only aprec-3 digits remain
        a = emb(1)
        b = emb(7**3 - 1)
        s = a + b
        assert s.valuation == 3
        assert s.aprec == 6

    def test_mul(self):
        x = emb(Fraction(49, 20)) * emb(Fraction(5, 7))
        expect = emb(Fraction(49, 20) * Fraction(5, 7))
        assert congruent_mod(x, expect, 6)
        assert x.valuation == 1

    def test_mul_bounded_zero(self):
        bz = PAdic.from_int_exact(0, p=7, aprec=3)
        x = bz * emb(Fraction(2, 3))
        assert x.digits == 0 and not x.zero_flag
        assert x.valuation == 3

    def test_invert(self):
        x = emb(Fraction(3, 5)).invert()
        assert congruent_mod(x, emb(Fraction(5, 3)), 6)
        with pytest.raises(DivisionByZero):
            PAdic.zero(7).invert()
        with pytest.raises(PrecisionExhausted):
            PAdic.from_int_exact(0, p=7, aprec=3).invert()

    def test_shift_scale(self):
        x = emb(Fraction(3, 5))
        for j in (-3, -1, 0, 2):
            y = x.shift(j)
            assert (y.valuation, y.unit, y.digits) == (j, x.unit, x.digits)
        assert congruent_mod(x.scale(Fraction(-14, 3)), emb(Fraction(-14, 5)), 6)
        # scaling by a p-divisible constant moves the valuation, keeps digits
        y = x.scale(Fraction(7, 2))
        assert y.valuation == 1
        assert y.digits == x.digits

    def test_pow(self):
        x = emb(Fraction(2, 3))
        assert congruent_mod(x**3, emb(Fraction(8, 27)), 6)
        assert congruent_mod(x**0, emb(1), 6)
        assert congruent_mod(x**-2, emb(Fraction(9, 4)), 6)

    def test_prime_mismatch(self):
        with pytest.raises(BadParameter):
            emb(1) + PAdic.from_rational(1, p=11, digits=6)

    def test_lift(self):
        x = emb(Fraction(49, 20))
        assert x.lift(4) == 49 * pow(20, -1, 7**4) % 7**4
        with pytest.raises(InsufficientPrecision):
            x.lift(9)
        with pytest.raises(BadParameter):
            emb(Fraction(3, 7)).lift(2)


def _scale_by_fraction(x: PAdic, c) -> PAdic:
    """x * c the way scale once did it: through Fraction(c) and vp_fraction."""
    c = Fraction(c)
    p = x.prime
    vc = vp_fraction(c, p)
    if x.digits == 0:
        return PAdic(p, x.valuation + vc, 0, 0)
    uc = c / Fraction(p) ** vc
    m = p**x.digits
    unit = x.unit * (uc.numerator % m) * pow(uc.denominator, -1, m) % m
    return PAdic(p, x.valuation + vc, unit, x.digits)


class TestValueObject:
    def test_assignment_raises(self):
        x = emb(Fraction(3, 5))
        assert PAdic.__slots__ == ("prime", "valuation", "unit", "digits", "zero_flag")
        for name in PAdic.__slots__:
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.other = 1
        assert x == emb(Fraction(3, 5))

    def test_eq_and_hash_by_the_five_fields(self):
        embedded = emb(Fraction(3, 5))
        built = PAdic(P, embedded.valuation, embedded.unit, embedded.digits)
        assert embedded == built and hash(embedded) == hash(built)
        assert len({embedded, built}) == 1
        assert embedded != emb(Fraction(3, 5), digits=5)
        assert embedded != (P, 0, embedded.unit, 6, False)

    def test_pickle_round_trip(self):
        bounded_zero = PAdic.from_int_exact(0, p=P, aprec=3)
        for x in (emb(Fraction(-14, 3)), PAdic.zero(P), bounded_zero):
            y = pickle.loads(pickle.dumps(x))
            assert y == x and hash(y) == hash(x)
            assert (y.zero_flag, y.aprec) == (x.zero_flag, x.aprec)

    def test_validation(self):
        for args in ((7, 0, 3, -1), (7, 0, 3, 0), (7, 0, 0, 2), (7, 0, 49, 2), (7, 0, 14, 2)):
            with pytest.raises(ValueError):
                PAdic(*args)
        assert PAdic(7, 3, 0, 0).digits == 0
        assert PAdic(7, 0, 0, 0, zero_flag=True).zero_flag


class TestScale:
    CONSTANTS = [
        1, -1, 2, -4, 7, 14, -49, 12,
        Fraction(7, 2), Fraction(21, 2), Fraction(7, 6), Fraction(-1, 2),
        Fraction(2, 7), Fraction(-5, 49), Fraction(1, 4), Fraction(6, 1),
    ]

    @pytest.mark.parametrize("c", CONSTANTS, ids=str)
    def test_matches_the_fraction_route(self, c):
        values = [
            emb(Fraction(3, 5)),
            emb(Fraction(-98, 3), digits=4),
            PAdic.from_int_exact(7 * 123, p=P, aprec=6),
            PAdic.from_int_exact(0, p=P, aprec=5),  # bounded zero
        ]
        for x in values:
            got, want = x.scale(c), _scale_by_fraction(x, c)
            assert got == want
            assert (got.valuation, got.unit, got.digits) == (
                want.valuation, want.unit, want.digits
            )

    def test_int_constants_build_no_fraction(self, monkeypatch):
        x = PAdic.from_int_exact(3, p=P, aprec=6)
        built = []
        new = Fraction.__new__
        monkeypatch.setattr(
            Fraction, "__new__", lambda cls, *a, **k: built.append(a) or new(cls, *a, **k)
        )
        for c, split in ((3, (0, 3, 1)), (-14, (1, -2, 1)), (49, (2, 1, 1))):
            assert padic._split(c, P) == split
            assert x.scale(c) == _scale_by_fraction(x, c)
            built.clear()
            x.scale(c)
            assert built == []

    @pytest.mark.parametrize("num, den", [
        (-1, 2), (7, 6), (21, -4), (14, 49), (-98, 12), (5, 7 * 3), (0, 5),
    ])
    def test_integer_pair_is_the_fraction(self, num, den):
        for x in (emb(Fraction(3, 5)), emb(Fraction(-98, 3), digits=4),
                  PAdic.from_int_exact(0, p=P, aprec=5), PAdic.zero(P)):
            assert x.scale(num, den) == x.scale(Fraction(num, den))
        with pytest.raises(ZeroDivisionError):
            emb(Fraction(3, 5)).scale(num or 1, 0)

    def test_zero_and_exact_zero(self):
        assert emb(Fraction(3, 5)).scale(0).zero_flag
        assert emb(Fraction(3, 5)).scale(Fraction(0)).zero_flag
        assert PAdic.zero(P).scale(Fraction(7, 2)).zero_flag


def _from_rational_by_fraction(num, den, p, digits):
    """The Fraction route PAdic.from_rational took before it read integers."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    q = Fraction(num, den) if not isinstance(num, Fraction) else num / den
    if q == 0:
        return PAdic.zero(p)
    v = vp_fraction(q, p)
    u = q / Fraction(p) ** v
    m = p**digits
    return PAdic(p, v, u.numerator % m * pow(u.denominator, -1, m) % m, digits)


_primes = st.sampled_from([7, 11, 499])


class TestFromRational:
    @settings(max_examples=300)
    @given(
        st.integers(-10**6, 10**6), st.integers(-10**4, 10**4).filter(bool),
        st.integers(0, 3), st.integers(0, 3), _primes, st.integers(1, 8),
    )
    @example(3, -5, 0, 0, 7, 6)  # a negative denominator
    @example(-3, -5, 0, 0, 7, 6)
    @example(3, 5, 2, 0, 7, 6)  # p divides the numerator
    @example(3, 5, 0, 2, 7, 6)  # p divides the denominator
    @example(14, 21, 1, 1, 7, 4)  # and both, not in lowest terms
    @example(0, 5, 0, 0, 7, 6)  # zero
    @example(0, -5, 2, 3, 11, 1)
    def test_integers_match_the_fraction_route(self, num, den, vn, vd, p, digits):
        num, den = num * p**vn, den * p**vd
        got = PAdic.from_rational(num, den, p=p, digits=digits)
        assert got == _from_rational_by_fraction(num, den, p, digits)
        if num == 0:
            assert got.zero_flag and got == PAdic.zero(p)

    @settings(max_examples=200)
    @given(
        st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**3),
        st.integers(-50, 50).filter(bool), _primes, st.integers(1, 8),
    )
    @example(Fraction(7, 2), 3, 7, 6)  # a Fraction numerator, den other than 1
    @example(Fraction(-5, 49), -14, 7, 6)
    @example(Fraction(0), 9, 7, 6)
    def test_fraction_numerator_matches_the_fraction_route(self, q, den, p, digits):
        got = PAdic.from_rational(q, den, p=p, digits=digits)
        assert got == _from_rational_by_fraction(q, den, p, digits)
        assert got == PAdic.from_rational(q.numerator, q.denominator * den, p=p, digits=digits)

    @pytest.mark.parametrize("num, den", [(3, 5), (0, 5), (Fraction(3, 7), 2)])
    @pytest.mark.parametrize("digits", [0, -1])
    def test_digits_below_one_raise(self, num, den, digits):
        with pytest.raises(ValueError):
            PAdic.from_rational(num, den, p=P, digits=digits)
        with pytest.raises(ValueError):
            _from_rational_by_fraction(num, den, P, digits)

    @pytest.mark.parametrize("num", [3, 0, 49, Fraction(3, 7)])
    def test_zero_denominator_raises_as_the_fraction_route(self, num):
        with pytest.raises(ZeroDivisionError):
            PAdic.from_rational(num, 0, p=P, digits=6)
        with pytest.raises(ZeroDivisionError):
            _from_rational_by_fraction(num, 0, P, 6)

    def test_builds_no_fraction(self, monkeypatch):
        q = Fraction(-98, 3)
        built = []
        new = Fraction.__new__
        monkeypatch.setattr(
            Fraction, "__new__", lambda cls, *a, **k: built.append(a) or new(cls, *a, **k)
        )
        for num, den in ((3, 5), (-98, 3), (0, 4), (14, -49), (q, 1), (q, 7)):
            PAdic.from_rational(num, den, p=P, digits=6)
        assert built == []


class TestCongruentMod:
    def test_basic(self):
        assert congruent_mod(emb(Fraction(1, 2)), emb(Fraction(1, 2) + 7**3), 3)
        assert not congruent_mod(emb(Fraction(1, 2)), emb(Fraction(1, 2) + 7**2), 3)

    def test_exact_zero_operand(self):
        assert congruent_mod(PAdic.zero(7), emb(7**4), 4)
        assert not congruent_mod(PAdic.zero(7), emb(1), 1)

    def test_bounded_zero_operand(self):
        bz = PAdic.from_int_exact(0, p=7, aprec=4)
        assert congruent_mod(bz, emb(7**4), 4)
        with pytest.raises(InsufficientPrecision):
            congruent_mod(bz, emb(1), 5)

    def test_insufficient_precision_raises(self):
        x = PAdic.from_int_exact(3, p=7, aprec=2)
        with pytest.raises(InsufficientPrecision):
            congruent_mod(x, emb(3), 4)

    def test_negative_valuation_operands(self):
        x = emb(Fraction(3, 7))
        y = emb(Fraction(3, 7) + 7**2)
        assert congruent_mod(x, y, 2)
        assert not congruent_mod(x, emb(Fraction(4, 7)), 0)

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_the_list_route(self, data):
        # the closure-and-list form congruent_mod had before, on ordinary
        # values, bounded zeros and the exact zero
        def operand():
            kind = data.draw(st.sampled_from(["value", "bounded", "zero"]))
            v = data.draw(st.integers(-3, 4))
            if kind == "zero":
                return PAdic.zero(P)
            if kind == "bounded":
                return PAdic(P, v, 0, 0)
            d = data.draw(st.integers(1, 5))
            u = data.draw(st.integers(1, P**d - 1).filter(lambda u: u % P))
            return PAdic(P, v, u, d)

        x, y = operand(), operand()
        e = data.draw(st.integers(-3, 7))
        known = all(z.aprec is None or z.aprec >= e for z in (x, y))
        if not known:
            with pytest.raises(InsufficientPrecision):
                congruent_mod(x, y, e)
            return
        base = min([0] + [z.valuation for z in (x, y) if not z.zero_flag and z.digits > 0])
        reps = [0 if z.zero_flag or z.digits == 0 else z.unit * P ** (z.valuation - base)
                for z in (x, y)]
        assert congruent_mod(x, y, e) == ((reps[0] - reps[1]) % P ** (e - base) == 0)


_rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=200
).filter(lambda q: q.denominator % P != 0 and q.numerator % P != 0)


class TestProperties:
    @settings(max_examples=200)
    @given(_rationals, _rationals)
    # a - b = -235298/8007 = 7^6 * (-2/8007): every digit below p^6 cancels
    @example(Fraction(5512, 51), Fraction(21582, 157))
    def test_ring_ops_commute_with_embedding(self, a, b):
        for op in (operator.add, operator.sub, operator.mul):
            want = op(a, b)
            if want == 0 or vp_fraction(want, P) >= 6:
                # a value that cancels below the operands' p^6, exactly or
                # not, is computed in Q, not proved zero
                with pytest.raises(PrecisionExhausted):
                    op(emb(a), emb(b))
                continue
            got = op(emb(a), emb(b))
            e = min(6, got.aprec)
            assert congruent_mod(got, emb(want, digits=8), e)

    @settings(max_examples=50)
    @given(_rationals)
    def test_total_cancellation_raises(self, a):
        with pytest.raises(PrecisionExhausted):
            emb(a) - emb(a)
        with pytest.raises(PrecisionExhausted):
            emb(a) + emb(-a)

    @settings(max_examples=100)
    @given(_rationals)
    def test_invert_roundtrip(self, a):
        x = emb(a)
        assert congruent_mod(x.invert().invert(), x, 6)
        assert congruent_mod(x * x.invert(), emb(1), 6)

    @settings(max_examples=100)
    @given(_rationals, st.integers(min_value=1, max_value=5))
    def test_congruence_respects_rational_difference(self, a, e):
        # x and x + p^e agree mod p^e but not mod p^(e+1)
        x = emb(a, digits=8)
        y = emb(a + Fraction(P) ** e, digits=8)
        assert congruent_mod(x, y, e)
        assert not congruent_mod(x, y, e + 1)
