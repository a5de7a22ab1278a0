"""S_n(a), the split a = p*t + <a>_p, central-binomial sums, and the
product-scan cross-check."""

import math
import random
from fractions import Fraction
from itertools import accumulate, compress, islice, repeat
from operator import add, mod, mul, sub

import pytest

from supercong import checks, kernels, oracle
from supercong.binomial import Lem23Scan, reduce_point, s_sum
from supercong.checks import PrimeContext, _lem23_scan
from supercong.errors import BadParameter
from supercong.padic import PAdic, congruent_mod
from supercong.primes import primes_in_range

from exact import central_exact, embed, inv_table


class TestCentralBinom:
    """binom(2k,k) as it enters PrimeContext.central, term by term and summed."""

    @staticmethod
    def _central(ctx):
        """C(lo, hi) = sum_{k=lo}^{hi} binom(2k,k)^2 / (k * 16^k) mod p^digits,
        from the prefix list of the one central_sum pass PrimeContext reads."""
        p, m = ctx.p, ctx.m
        prefix = kernels.central_sum(p - 1, p, m, ctx.inv())
        return lambda lo, hi: PAdic.from_int_exact(
            prefix[hi] - prefix[lo - 1], p=p, aprec=ctx.digits
        )

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_matches_comb(self, p):
        # PrimeContext sums every value, central included, mod p^digits
        ctx = PrimeContext(p, digits=6)
        central = self._central(ctx)
        e = ctx.digits
        for k in range(1, p):
            got = central(k, k)
            assert congruent_mod(got, embed(central_exact(k, k, 16), p), e)
        for lo in (1, (p + 1) // 2):
            got = ctx.central(lo, p - 1)
            assert congruent_mod(got, embed(central_exact(lo, p - 1, 16), p), e)

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_valuation_one_in_upper_half(self, p):
        # binom(2k,k) picks up exactly one factor of p for (p+1)/2 <= k <= p-1,
        # so its square gives the k-th term valuation exactly 2
        central = self._central(PrimeContext(p, digits=6))
        for k in range((p + 1) // 2, p):
            assert central(k, k).valuation == 2
        for k in range(1, (p + 1) // 2):
            assert central(k, k).valuation == 0


class TestSSum:
    @pytest.mark.parametrize("p", [7, 11, 13])
    @pytest.mark.parametrize("a", [Fraction(-1, 2), Fraction(1, 3), Fraction(5)])
    def test_matches_oracle(self, p, a):
        (got,) = s_sum(embed(a, p, 6), (p - 1,), p, 6, inv_table(p, 6))
        want = embed(oracle.s_sum_exact(a, p - 1), p)
        assert congruent_mod(got, want, min(6, got.aprec))

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_short_a_reads_deeper_table(self, p):
        # a known to 3 digits; the table mod p^6 is read at modulus p^3 as is
        a = Fraction(-1, 3)
        (got,) = s_sum(embed(a, p, 3), (p - 1,), p, 6, inv_table(p, 6))
        assert got.aprec == 3
        assert congruent_mod(got, embed(oracle.s_sum_exact(a, p - 1), p), 3)

    @pytest.mark.parametrize("a", [Fraction(-1, 2), Fraction(5), Fraction(0)])
    def test_endpoints_from_one_pass(self, a, monkeypatch):
        # several endpoints give the single-endpoint values from one pass
        p, N, inv = 13, 6, inv_table(13, 6)
        ends = (0, 1, 6, 12, 4)
        x = embed(a, p, N)
        single = tuple(s_sum(x, (k,), p, N, inv)[0] for k in ends)
        calls = []

        def counted(*args, _kernel=kernels.s_sum):
            calls.append(args[1])
            return _kernel(*args)

        monkeypatch.setattr(kernels, "s_sum", counted)
        assert s_sum(x, ends, p, N, inv) == single
        assert calls == ([] if a == 0 else [12])
        assert single[0].zero_flag
        with pytest.raises(BadParameter):
            s_sum(x, (1, 13), p, N, inv)

    def test_trivial_cases(self):
        assert s_sum(PAdic.zero(7), (6,), 7, 6, inv_table(7, 6))[0].zero_flag
        assert s_sum(embed(1, 7, 6), (0,), 7, 6, inv_table(7, 6))[0].zero_flag
        with pytest.raises(BadParameter):
            s_sum(embed(Fraction(1, 7), 7, 6), (6,), 7, 6, inv_table(7, 6))
        with pytest.raises(BadParameter):
            s_sum(embed(1, 7, 6), (7,), 7, 6, inv_table(7, 6))


class TestReducePoint:
    def test_integer(self):
        rp = reduce_point(Fraction(5), 7, 6)
        assert rp.residue == 5
        assert rp.t.zero_flag and rp.tn == 0

    def test_fraction(self):
        # -1/2 = 3 mod 7, t = (-1/2 - 3)/7 = -1/2
        rp = reduce_point(Fraction(-1, 2), 7, 6)
        assert rp.residue == 3
        assert rp.t == PAdic.from_rational(Fraction(-1, 2), p=7, digits=6)

    def test_reconstruction(self):
        for a in (Fraction(1, 3), Fraction(-2, 3), Fraction(2, 5), Fraction(12)):
            for p in (7, 11):
                rp = reduce_point(a, p, 6)
                assert 0 <= rp.residue < p
                t = Fraction(a - rp.residue, p)
                assert rp.t == PAdic.from_rational(t, p=p, digits=6)
                assert Fraction(rp.tn, a.denominator) == t
                # a = p*t + <a>_p mod p^7, t known to 6 digits
                r = PAdic.from_rational(rp.residue, p=p, digits=7)
                a7 = PAdic.from_rational(a, p=p, digits=7)
                assert congruent_mod(rp.t.shift(1) + r, a7, 7)

    def test_bad_denominator(self):
        with pytest.raises(BadParameter):
            reduce_point(Fraction(1, 7), 7, 6)


class TestProductScanCrossCheck:
    """The O(p) Lemma 2.3 scan agrees with the direct falling-factorial
    evaluation of both generalized binomials."""

    @pytest.mark.parametrize("p", [7, 11, 13])
    @pytest.mark.parametrize("a", [Fraction(-1, 2), Fraction(1, 3), Fraction(2, 5)])
    @pytest.mark.parametrize("half", [False, True])
    def test_scan_matches_direct_product(self, p, a, half):
        ctx = PrimeContext(p, digits=6)
        rp = reduce_point(a, p, 6)
        t = rp.t
        pt = a - rp.residue
        top = (p - 1) // 2 if half else p - 1

        # the step the scan checks, B(k+1) D_k = B(k) N_k with D_k a unit:
        # carry N_k and D_k and compare N_k / D_k with the exact
        # falling-factorial product of both generalized binomials
        m4 = p**4
        T = 0 if t.zero_flag else p * t.lift(3) % m4
        num = 1
        for j in range(top):
            num = num * (T - j) * (-T - 2 - j) % m4
        den = 1
        for j in range(2, top + 1):
            den = den * j * j % m4
        for k in range(1, top + 1):
            exact = embed(
                oracle.binom_exact(pt + k - 1, top) * oracle.binom_exact(-pt - k - 1, top), p
            )
            assert den % p != 0, f"k={k}"
            carried = PAdic.from_int_exact(num * pow(den, -1, m4) % m4, p=p, aprec=4)
            assert congruent_mod(exact, carried, 4), f"k={k}"
            if k < top:
                num = num * (T + k) * (T + k + 1 + top) % m4
                den = den * (T + k - top) * (T + k + 1) % m4
        # with every row passing, the scan reports the product at k = top
        lhs, _, _, note = _lem23_scan(ctx, t, half)
        assert note == f"all k in 1..{top}"
        assert congruent_mod(lhs, exact, 4)

    @pytest.mark.parametrize("p", [7, 11])
    def test_scan_reports_all_k(self, p):
        ctx = PrimeContext(p, digits=6)
        t = reduce_point(Fraction(-1, 2), p, 6).t
        for half in (False, True):
            lhs, rhs, e, note = _lem23_scan(ctx, t, half)
            assert e == 4
            assert note.startswith("all k in 1..")
            assert congruent_mod(lhs, rhs, 4)

    @pytest.mark.parametrize("p", [13, 101])
    def test_scan_reports_first_mismatch(self, p):
        # inv[5] off by p corrupts the closed form from the first k that
        # reads it: 1/k at k = 5 (full range), 1/(2k-1) at k = 3 (half range)
        ctx = _SkewedContext(p, 5)
        inv = ctx.inv()
        a = Fraction(-1, 2)
        rp = reduce_point(a, p, 6)
        pt = a - rp.residue
        m4 = p**4
        T = p * rp.t.lift(3) % m4
        for half, bad_k in ((False, 5), (True, 3)):
            top = (p - 1) // 2 if half else p - 1
            lhs, rhs, e, note = _lem23_scan(ctx, rp.t, half)
            assert e == 4
            assert note == f"first mismatch at k={bad_k}"
            exact = oracle.binom_exact(pt + bad_k - 1, top) * oracle.binom_exact(
                -pt - bad_k - 1, top
            )
            assert congruent_mod(lhs, embed(exact, p), 4)
            want = PAdic.from_int_exact(_closed_form(inv, T, p, bad_k, half), p=p, aprec=4)
            assert congruent_mod(rhs, want, 4)
            assert not congruent_mod(lhs, rhs, 4)

    @pytest.mark.parametrize("p", [11, 13])
    @pytest.mark.parametrize("half", [False, True])
    def test_mismatch_at_first_k(self, p, half):
        # inv[1] = 1/1 enters the closed form at k = 1 on both ranges
        assert _scan_against_oracle(_SkewedContext(p, 1), Fraction(-1, 2), half) == 1

    @pytest.mark.parametrize("p", [11, 13])
    @pytest.mark.parametrize("half", [False, True])
    def test_mismatch_at_last_k(self, p, half):
        # 1/(p-1) enters the full range only at k = p-1, and 1/(p-2) =
        # 1/(2k-1) the half range only at k = (p-1)/2
        top = (p - 1) // 2 if half else p - 1
        ctx = _SkewedContext(p, p - 2 if half else p - 1)
        assert _scan_against_oracle(ctx, Fraction(-1, 2), half) == top

    @pytest.mark.parametrize("p", [11, 13])
    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("case", ["-1", "p^2-1", "p^2+3"])
    def test_p_divides_tau(self, p, half, case):
        # t = -1 and t = p-1 make p divide tau(tau+1), and t = p makes p
        # divide tau itself; the scan still passes at every k
        a = {"-1": Fraction(-1), "p^2-1": Fraction(p * p - 1), "p^2+3": Fraction(p * p + 3)}
        t = reduce_point(a[case], p, 6).t
        tau = 0 if t.zero_flag else t.lift(3)
        assert tau * (tau + 1) % p == 0
        if case == "p^2+3":
            assert tau % p == 0
        assert _scan_against_oracle(PrimeContext(p, digits=6), a[case], half) is None


class _SkewedContext(PrimeContext):
    """A context whose inverse table has inv[index] off by p."""

    def __init__(self, p, index):
        super().__init__(p, digits=6)
        self.index = index

    def inv(self):
        table = list(super().inv())
        table[self.index] += self.p
        return table


def _scan_against_oracle(ctx, a, half):
    """Check _lem23_scan at a against the exact product at every k.

    Compares the exact binom(pt+k-1, top) * binom(-pt-k-1, top) with the
    closed form from ctx's inverse table at k = 1..top, and asserts that
    the scan reports the first k where they differ (or all k), with the
    exact product and the closed form at that k.  Returns that k, or None.
    """
    p = ctx.p
    rp = reduce_point(a, p, 6)
    pt = a - rp.residue
    top = (p - 1) // 2 if half else p - 1
    T = 0 if rp.t.zero_flag else p * rp.t.lift(3) % p**4
    inv = ctx.inv()
    first = None
    for k in range(1, top + 1):
        exact = embed(
            oracle.binom_exact(pt + k - 1, top) * oracle.binom_exact(-pt - k - 1, top), p
        )
        closed = PAdic.from_int_exact(_closed_form(inv, T, p, k, half), p=p, aprec=4)
        if not congruent_mod(exact, closed, 4):
            first = k
            break
    lhs, rhs, e, note = _lem23_scan(ctx, rp.t, half)
    assert e == 4
    assert note == (f"all k in 1..{top}" if first is None else f"first mismatch at k={first}")
    assert congruent_mod(lhs, exact, 4)
    assert congruent_mod(rhs, closed, 4)
    return first


def _closed_form(inv, T, p, k, half):
    """Lemma 2.3's right-hand side at k mod p^4, term by term from inv."""
    m4 = p**4
    tk = T * inv[k]
    if half:
        o1 = sum(inv[2 * j - 1] for j in range(1, k + 1))
        o2 = sum(inv[2 * j - 1] ** 2 for j in range(1, k + 1))
        inner = (
            1 - tk + 2 * p * o1 + tk * tk + 2 * p * p * o1 * o1
            - 2 * tk * p * o1 - 4 * T * p * o2
        )
        return tk * inner % m4
    h = sum(inv[1 : k + 1])
    inner = 1 + 2 * p * h - p * inv[k] - 2 * tk
    return T * (T + p) * inv[k] ** 2 * inner % m4


class TestLem23AsPolynomials:
    """Lem23Scan builds each range of a prime once, as polynomials in tau,
    and gives the rows of the scan that built the closed form and stepped
    through it for each sample on its own."""

    def test_true_table_keeps_no_closed_form_lists(self):
        # with a true inverse table every step holds at the build's points
        # of tau, so the lists are dropped and a row costs O(1) at every
        # prime below 1000
        for p in primes_in_range(7, 997):
            inv = inv_table(p, 4)
            for half in (False, True):
                assert Lem23Scan(p, half, inv).closed is None, (p, half)

    def test_build_scans_one_point_more_than_the_degree(self, monkeypatch):
        # a step is tau times a polynomial of degree 4 in tau (3 on the full
        # range), so it holds at every tau only if it holds at 5 (4) points
        seen = []
        monkeypatch.setattr(Lem23Scan, "_first_step_failure", lambda _, tau: seen.append(tau))
        inv = inv_table(13, 4)
        for half, points in ((True, [1, 2, 3, 4, 5]), (False, [1, 2, 3, 4])):
            seen.clear()
            assert Lem23Scan(13, half, inv).closed is None
            assert seen == points, half

    @pytest.mark.parametrize("p", [7, 11, 13, 101, 499, 997])
    def test_matches_recurrence_scan(self, p):
        rng = random.Random(p)
        m3 = p**3
        # p | tau(tau+1) at tau = 0, p^2, -1, p-1 and 2p-1 mod p^3
        taus = [rng.randrange(m3) for _ in range(4)] + [0, p * p, m3 - 1, p - 1, 2 * p - 1]
        inv = inv_table(p, 4)
        for half in (False, True):
            scan = Lem23Scan(p, half, inv)
            for tau in taus:
                assert scan(tau) == _recurrence_scan(tau, p, half, inv), (half, tau)

    @pytest.mark.parametrize("p", [7, 11, 13, 101, 997])
    def test_matches_recurrence_scan_on_skewed_tables(self, p):
        rng = random.Random(p)
        taus = [rng.randrange(p**3) for _ in range(3)] + [p - 1, p * p]
        firsts = set()
        for index in sorted({1, 3, 5, (p - 1) // 2, p - 2, p - 1}):
            for skew in (p, p * p):
                inv = inv_table(p, 4)
                inv[index] += skew
                for half in (False, True):
                    scan = Lem23Scan(p, half, inv)
                    got = [scan(tau) for tau in taus]
                    assert got == [_recurrence_scan(tau, p, half, inv) for tau in taus], (
                        index, skew, half,
                    )
                    firsts.update(k for k, _, _ in got)
        # the skews are seen at k = 1, by B(1), and at later k, by a step
        assert 1 in firsts and max(k or 0 for k in firsts) > 1

    def test_one_scan_per_range_and_context(self, monkeypatch):
        built = []

        class Counted(Lem23Scan):
            __slots__ = ()

            def __init__(self, p, half_range, inv):
                super().__init__(p, half_range, inv)
                built.append(half_range)

        monkeypatch.setattr(checks, "Lem23Scan", Counted)
        samples = (Fraction(-1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(5))
        rows = checks._run_prime((101, ("lem23-full", "lem23-half"), 6, samples, "minus"))
        assert [r.status for r in rows] == ["pass"] * 8
        assert built == [False, True]


# the scan before Lem23Scan, the reference for its rows: the closed form
# and the steps for one tau at a time, and B(1) top!^2 / p^j as a product


def _prod_mod(lo, hi, m):
    """prod(range(lo, hi)) mod m."""
    out = 1
    for x in range(lo, hi):
        out = out * x % m
    return out


def _recurrence_scan(tau, p, half_range, inv):
    """(k, B(k), rhs_k) mod p^4 at the first mismatch, or (None, B(top), rhs_top)."""
    top = (p - 1) // 2 if half_range else p - 1
    j = 1 if half_range else 2
    m = p ** (4 - j)
    T = p * tau % m
    if half_range:
        io = list(map(mod, inv[1 : 2 * top : 2], repeat(m)))
        o1 = list(accumulate(io))
        o1x2 = list(map(add, o1, o1))
        y = list(map(mod, map(mul, inv[1 : top + 1], repeat(tau)), repeat(m)))
        z = list(map(sub, y, o1x2))
        w = map(add, map(mul, y, z), map(mul, o1, o1x2))
        w = map(sub, w, map(mul, accumulate(map(mul, io, io)), repeat(4 * tau)))
        inner = map(add, map(mul, map(sub, map(mul, w, repeat(p)), z), repeat(p)), repeat(1))
        closed = list(map(mod, map(mul, y, inner), repeat(m)))
        b1 = tau * _prod_mod(T - top + 1, T, m) * _prod_mod(-T - top - 1, -T - 1, m)
    else:
        c = tau * (tau + 1) % m
        ik = list(map(mod, inv[1 : top + 1], repeat(m)))
        inner = accumulate(map(mul, ik, repeat(2 * p * c % m)), initial=c)
        next(inner)
        inner = map(sub, inner, map(mul, ik, repeat((p + 2 * T) * c % m)))
        closed = list(map(mod, map(mul, map(mul, ik, ik), inner), repeat(m)))
        b1 = -c * _prod_mod(T - top + 1, T, m) * _prod_mod(-T - top, -T - 1, m)
    b1 = b1 * pow(math.factorial(top), -2, m) % m

    if b1 != closed[0]:
        k, lhs = 1, b1
    else:
        dens = map(mul, range(T + 1 - top, T), range(T + 2, T + top + 1))
        nums = map(mul, range(T + 1, T + top), range(T + top + 2, T + 2 * top + 1))
        steps = map(sub, map(mul, islice(closed, 1, None), dens), map(mul, closed, nums))
        k = next(compress(range(2, top + 1), map(mod, steps, repeat(m))), None)
        if k is None:
            lhs = closed[-1]
        else:
            num = closed[k - 2] * (T + k - 1) * (T + k + top)
            lhs = num * pow((T + k - 1 - top) * (T + k), -1, m) % m
    rhs = closed[-1 if k is None else k - 1]
    return k, lhs * p**j, rhs * p**j
