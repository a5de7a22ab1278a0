"""Kernels against independent evaluations of the sums they compute.

At production-sized primes (up to 10007, modulus p^6) every kernel equals a
direct loop over its defining sum that inverts each k with pow(k, -1, m)
instead of reading an inverse table; at small primes the sums equal the
exact rational oracles.  mhs_sum, weighted_sum, s_sum and central_sum return
their unreduced prefix sums at k = 0..n, so a sum up to n is entry [n] mod m.
"""

from fractions import Fraction
from math import comb

import pytest

from supercong import kernels, oracle
from supercong.bernoulli import _scaled
from supercong.kernels import pykernels

PRIMES = [7, 101, 1553, 10007]
DIGITS = 6


def _inv(p, m, n):
    return pykernels.inverse_table(n, p, m)


def _residue(q: Fraction, m: int) -> int:
    """A p-integral rational as an integer in [0, m)."""
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, m) % m


def _direct_mhs(exps, n, m):
    """H(exps; n) mod m: level i sums w_i(k) times level i-1 below k."""
    below = [1] * (n + 1)
    for a in exps:
        level = [0] * (n + 1)
        for k in range(1, n + 1):
            w = pow(k, -abs(a), m) * (-1) ** (k if a < 0 else 0)
            level[k] = (level[k - 1] + w * below[k - 1]) % m
        below = level
    return below[n]


def _prefix_addend(kind, r, k, m):
    if kind == "harmonic":
        return pow(k, -r, m)
    if kind == "odd":
        return pow(2 * k - 1, -r, m)
    assert kind == "h2k"
    return pow(2 * k - 1, -1, m) + pow(2 * k, -1, m)


def _direct_weighted(aexp, signed, cnum, factors, n, m):
    """sum_{k<=n} [(-1)^k] c^k k^-aexp prod(prefix^power) mod m, term by term."""
    prefixes = [0] * len(factors)
    total = 0
    for k in range(1, n + 1):
        term = pow(k, -aexp, m) * pow(1 if cnum is None else cnum, k, m)
        if signed:
            term *= (-1) ** k
        for i, (kind, r, power) in enumerate(factors):
            prefixes[i] = (prefixes[i] + _prefix_addend(kind, r, k, m)) % m
            term = term * pow(prefixes[i], power, m) % m
        total += term
    return total % m


def _direct_s(a_mod, n, m):
    """sum_{k<=n} binom(a,k) binom(-1-a,k) / k mod m, each binomial on its own."""
    b1 = b2 = 1
    total = 0
    for k in range(1, n + 1):
        kinv = pow(k, -1, m)
        b1 = b1 * (a_mod - k + 1) * kinv % m
        b2 = b2 * (-a_mod - k) * kinv % m
        total += b1 * b2 * kinv
    return total % m


def _direct_central(lo, hi, m):
    """sum_{k=lo}^{hi} binom(2k,k)^2 / (k 16^k) mod m, binom(2k,k) exact."""
    central = 1
    total = 0
    for k in range(1, hi + 1):
        central = central * 2 * (2 * k - 1) // k
        if k >= lo:
            total += central**2 * pow(k * pow(16, k, m), -1, m)
    return total % m


def _central_exact(lo, hi, c=16):
    """sum_{k=lo}^{hi} binom(2k,k)^2 / (k c^k) as an exact rational."""
    return sum(
        (Fraction(comb(2 * k, k) ** 2, k * c**k) for k in range(max(lo, 1), hi + 1)),
        Fraction(0),
    )


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_table_identical(p):
    for m in (p, p**DIGITS, p**9):
        for n in (0, 1, p - 1):
            tab = pykernels.inverse_table(n, p, m)
            assert len(tab) == n + 1
            assert tab[1:] == [pow(k, -1, m) for k in range(1, n + 1)]
        for k in range(1, n + 1):
            assert tab[k] * k % m == 1
    with pytest.raises(ValueError):
        pykernels.inverse_table(p, p, p**DIGITS)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("exps", [(1,), (2,), (3, 1), (1, -3), (-2, 2), (2, -1)])
def test_mhs_sum_identical(p, exps):
    m = p**DIGITS
    n = p - 1
    inv = _inv(p, m, n)
    assert pykernels.mhs_sum(exps, n, p, m, inv)[n] % m == _direct_mhs(exps, n, m)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize(
    "spec",
    [
        (2, False, None, (("odd", 1, 1),)),
        (3, False, None, (("harmonic", 1, 1),)),
        (2, False, None, (("odd", 1, 2),)),
        (2, False, None, (("odd", 2, 1),)),
        (2, False, None, (("h2k", 1, 1),)),
        (1, True, None, (("harmonic", 2, 1),)),
        (3, False, 2, ()),
    ],
)
def test_weighted_sum_identical(p, spec):
    aexp, signed, cnum, factors = spec
    m = p**DIGITS
    half = (p - 1) // 2
    inv = _inv(p, m, p - 1)
    got = pykernels.weighted_sum(aexp, signed, cnum, factors, half, p, m, inv)[half] % m
    assert got == _direct_weighted(aexp, signed, cnum, factors, half, m)


@pytest.mark.parametrize("p", PRIMES)
def test_s_sum_and_central_sum_identical(p):
    m = p**DIGITS
    n = p - 1
    inv = _inv(p, m, n)
    a_mod = (m + 1) // 2
    assert pykernels.s_sum(a_mod, n, p, m, inv)[n] % m == _direct_s(a_mod, n, m)
    prefix = pykernels.central_sum(n, p, m, inv)
    for lo in (1, (p + 1) // 2):
        got = (prefix[n] - prefix[lo - 1]) % m
        assert got == _direct_central(lo, n, m)


@pytest.mark.parametrize("p", [7, 101, 1553])
def test_bernoulli_scaled_identical(p):
    """The triangle's p*B_i against the power sums of bernoulli.py.

    Every index at p = 7 and 101; at 1553, where the power sums of every
    index take many seconds, the first 40 and p-3, p-1 and 2p-4.
    """
    e = DIGITS + 1
    nmax = 2 * p - 4
    triangle = pykernels.bernoulli_scaled(nmax, p, p**e)
    indices = range(nmax + 1) if p < 1000 else [*range(40), p - 3, p - 1, 2 * p - 4]
    assert [triangle[i] for i in indices] == [_scaled(i, p, e) for i in indices]


def test_large_modulus_near_limit():
    # m = 131071^4 is about 2^68, just above the 64-bit machine word
    p = 131071
    m = p**4
    n = 200
    got = pykernels.mhs_sum((3, 1), n, p, m, pykernels.inverse_table(n, p, m))[n] % m
    assert got == _residue(oracle.mhs_exact((3, 1), n), m)


def test_dispatcher_routes_oversized_moduli():
    # a modulus far beyond two machine words is still exact
    p = 2**61 - 1  # Mersenne prime; p^2 is about 2^122
    m = p**2
    inv = kernels.inverse_table(20, p, m)
    for k in range(1, 21):
        assert inv[k] * k % m == 1
    assert kernels.backend_name(m) == kernels.backend_name() == "python"


def test_package_reexports_the_kernels():
    for name in kernels.__all__:
        if name != "backend_name":
            assert getattr(kernels, name) is getattr(pykernels, name)


# ---------------------------------------------------------------------------
# sums against the exact rational oracles


class TestSumsAgainstOracle:
    P, N = 13, 5
    M = P**N
    INV = pykernels.inverse_table(P - 1, P, M)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 9, 12])
    @pytest.mark.parametrize("a", [1, -1, 2, -2, 3, -3])
    def test_mhs_depth_one(self, a, n):
        got = pykernels.mhs_sum((a,), n, self.P, self.M, self.INV)[n] % self.M
        assert got == _residue(oracle.mhs_exact((a,), n), self.M)

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 12])
    @pytest.mark.parametrize("exps", [(1, -3), (-2, 2), (2, 1), (1, 1, 1), (2, -1, 3)])
    def test_mhs_deeper(self, exps, n):
        got = pykernels.mhs_sum(exps, n, self.P, self.M, self.INV)[n] % self.M
        assert got == _residue(oracle.mhs_exact(exps, n), self.M)

    @pytest.mark.parametrize("a", [Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(5)])
    @pytest.mark.parametrize("t", [0, 1, -2])
    def test_s_sum(self, a, t):
        # a + t*m and -1 - a + t*m share their residues with a and -1 - a;
        # a = 0 gives a = 0 and a = -1 mod p^e, where every b_k vanishes
        for aa in (a + t * self.M, -1 - a + t * self.M):
            for n in (0, 1, 6, 12):
                got = pykernels.s_sum(_residue(aa, self.M), n, self.P, self.M, self.INV)
                assert got[n] % self.M == _residue(oracle.s_sum_exact(aa, n), self.M)

    @pytest.mark.parametrize("lo", [0, 1, 2, 5, 7, 12, 13])
    @pytest.mark.parametrize("c", [16, 6, -3])
    def test_central_sum(self, lo, c):
        # each term C(k) - C(k-1) of the one 16^k prefix list, weighted by
        # (16/c)^k, is the k-th term over c^k; at c = 16 the sum from lo to
        # hi telescopes to C(hi) - C(lo-1)
        hi, m = self.P - 1, self.M
        prefix = pykernels.central_sum(hi, self.P, m, self.INV)
        w = 16 * pow(c, -1, m)
        got = sum(
            (prefix[k] - prefix[k - 1]) * pow(w, k, m) for k in range(max(lo, 1), hi + 1)
        )
        assert got % m == _residue(_central_exact(lo, hi, c), m)

    @pytest.mark.parametrize("n", [0, 1, 6, 12])
    @pytest.mark.parametrize("a", [-1, 1, 2, 3])
    @pytest.mark.parametrize("c", [2, 3, -5])
    def test_geom_power_sum(self, c, a, n):
        args = (c % self.M, a, n, self.P, self.M, self.INV)
        if a < 0:
            # k^-a is no power of an inverse: the kernel raises, even for n = 0
            with pytest.raises(ValueError):
                pykernels.geom_power_sum(*args)
            return
        got = pykernels.geom_power_sum(*args)
        want = sum((Fraction(c**k) / Fraction(k) ** a for k in range(1, n + 1)), Fraction(0))
        assert got == _residue(want, self.M)

    def test_zero_exponents_weigh_one(self):
        # k^0 = 1: H(0; n) = n and H(0, 1; n) = sum_{k<=n} (k-1)/k
        n = 12
        assert pykernels.mhs_sum((0,), n, self.P, self.M, self.INV)[n] == n
        got = pykernels.mhs_sum((0, 1), n, self.P, self.M, self.INV)[n] % self.M
        assert got == _residue(sum(Fraction(k - 1, k) for k in range(1, n + 1)), self.M)


class TestPrefixLists:
    """Every entry of a kernel's prefix list against the oracle, at p = 13."""

    P, N = 13, 5
    M = P**N
    INV = pykernels.inverse_table(P - 1, P, P**N)

    def _reduced(self, prefix):
        return [x % self.M for x in prefix]

    @pytest.mark.parametrize("exps", [(1,), (-2,), (3, 1), (1, -3), (2, -1, 1)])
    def test_mhs_sum_every_entry(self, exps):
        n = self.P - 1
        got = pykernels.mhs_sum(exps, n, self.P, self.M, self.INV)
        want = [_residue(q, self.M) for q in oracle.mhs_exact_upto(exps, n)]
        assert self._reduced(got) == want

    @pytest.mark.parametrize(
        "outer, factors",
        [(3, (("harmonic", 1, 1),)), (2, (("odd", 1, 2),)), (2, (("h2k", 1, 1),)), (1, ())],
    )
    def test_weighted_sum_every_entry(self, outer, factors):
        n = (self.P - 1) // 2
        got = pykernels.weighted_sum(
            outer, False, None, factors, n, self.P, self.M, self.INV
        )
        want = [
            _residue(oracle.weighted_sum_exact(outer, False, 1, factors, k), self.M)
            for k in range(n + 1)
        ]
        assert self._reduced(got) == want

    @pytest.mark.parametrize("a", [Fraction(-1, 2), Fraction(2, 5)])
    def test_s_sum_every_entry(self, a):
        n = self.P - 1
        got = pykernels.s_sum(_residue(a, self.M), n, self.P, self.M, self.INV)
        want = [_residue(oracle.s_sum_exact(a, k), self.M) for k in range(n + 1)]
        assert self._reduced(got) == want

    @pytest.mark.parametrize("lo", [1, 7])
    def test_central_sum_every_entry(self, lo):
        # entry k - entry (lo-1) is the sum from lo to k, for every k >= lo
        hi = self.P - 1
        got = pykernels.central_sum(hi, self.P, self.M, self.INV)
        want = [_residue(_central_exact(1, k), self.M) for k in range(hi + 1)]
        assert self._reduced(got) == want
        for k in range(lo, hi + 1):
            part = (got[k] - got[lo - 1]) % self.M
            assert part == _residue(_central_exact(lo, k), self.M)

    @pytest.mark.parametrize("n", [0, 1, 6, 12])
    def test_one_entry_per_k(self, n):
        p, m, inv = self.P, self.M, self.INV
        half = min(n, (p - 1) // 2)
        assert len(pykernels.mhs_sum((1, -3), n, p, m, inv)) == n + 1
        odd = (("odd", 1, 1),)
        assert len(pykernels.weighted_sum(2, False, None, odd, half, p, m, inv)) == half + 1
        assert len(pykernels.weighted_sum(3, True, 2, (), n, p, m, inv)) == n + 1
        for a_mod in (5, 12345):
            assert len(pykernels.s_sum(a_mod, n, p, m, inv)) == n + 1
        assert len(pykernels.central_sum(n, p, m, inv)) == n + 1

    @pytest.mark.parametrize(
        "a, stop",
        [
            (Fraction(0), 1),
            (Fraction(-1), 1),
            (Fraction(-1 + 3 * M), 1),  # a = -1 mod p^5, the lift far from -1
            (Fraction(1), 2),
            (Fraction(5), 6),
            (Fraction(-6), 6),
            (Fraction(5 + P**6), 6),
        ],
    )
    def test_s_sum_stops_where_the_binomials_vanish(self, a, stop):
        """From k = stop on b_k = 0 mod m: the list stays constant there, and
        a table ending at stop - 1 serves the whole range."""
        n = self.P - 1
        want = [_residue(oracle.s_sum_exact(a, k), self.M) for k in range(n + 1)]
        for a_mod in (_residue(a, self.M), int(a) % self.P**7):
            short = pykernels.inverse_table(stop - 1, self.P, self.M)
            got = pykernels.s_sum(a_mod, n, self.P, self.M, short)
            assert self._reduced(got) == want
            assert got[stop - 1:] == [got[-1]] * (n + 2 - stop)
            if stop > 1:
                with pytest.raises(IndexError):
                    pykernels.s_sum(a_mod, n, self.P, self.M, short[:-1])

    def test_s_sum_stops_at_the_middle_when_p_divides_2a_plus_1(self):
        # 2a + 1 = p + p^4 mod p^5: k(k-1) = a(a+1) mod p^5 only at k = (p+1)/2,
        # and neither a + 1 nor -a mod p^5 lies below p
        p, m, n = self.P, self.M, self.P - 1
        a_mod = (p + p**4 - 1) * pow(2, -1, m) % m
        stop = (p + 1) // 2
        got = pykernels.s_sum(a_mod, n, p, m, pykernels.inverse_table(stop - 1, p, m))
        want = [_residue(oracle.s_sum_exact(Fraction(a_mod), k), m) for k in range(n + 1)]
        assert self._reduced(got) == want
        assert want[stop - 1] == want[-1] and want[stop - 2] != want[-1]


class TestWeightedSumAgainstOracle:
    P, N = 31, 5
    M = P**N

    def _check(self, outer, signed, c, factors, n):
        inv = pykernels.inverse_table(2 * n, self.P, self.M)
        got = pykernels.weighted_sum(
            outer, signed, None if c == 1 else c, factors, n, self.P, self.M, inv
        )[n] % self.M
        want = oracle.weighted_sum_exact(outer, signed, c, factors, n)
        assert got == _residue(want, self.M)

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("power", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["harmonic", "odd", "h2k"])
    def test_one_factor(self, kind, power, n):
        for r in (1, 2):
            for outer in (1, 3):
                self._check(outer, False, 1, ((kind, r, power),), n)
        self._check(2, True, 1, ((kind, 1, power),), n)

    @pytest.mark.parametrize("n", [9, 10])
    def test_no_factor(self, n):
        for outer in (1, 2, 3):
            for c in (2, 3, -5):
                self._check(outer, False, c, (), n)
                self._check(outer, True, c, (), n)
        self._check(2, True, 1, (), n)

    @pytest.mark.parametrize("n", [9, 10])
    def test_two_factors(self, n):
        self._check(2, False, 1, (("odd", 1, 2), ("harmonic", 2, 1)), n)
        self._check(1, True, 3, (("h2k", 1, 1), ("harmonic", 1, 3)), n)

    def test_negative_exponents_raise(self):
        # the exponent r of 1/k^r is never negative: weighted_sum and
        # geom_power_sum raise ValueError; in mhs_sum a negative entry of
        # exps is an alternating sign on 1/k^|a|, a power of an inverse
        n = 10
        inv = pykernels.inverse_table(2 * n, self.P, self.M)
        for r in (-1, -2):
            with pytest.raises(ValueError):
                pykernels.weighted_sum(r, False, None, (), n, self.P, self.M, inv)
            with pytest.raises(ValueError):
                pykernels.geom_power_sum(2, r, n, self.P, self.M, inv)
            got = pykernels.mhs_sum((r,), n, self.P, self.M, inv)[n] % self.M
            assert got == _direct_mhs((r,), n, self.M)

    @pytest.mark.parametrize("kind", ["harmonic", "odd"])
    @pytest.mark.parametrize("r", [-2, -1, 0])
    def test_prefix_exponents_up_to_zero(self, kind, r):
        # at r = 0 each prefix is an integer sum of ones, power 0 gives 1; a
        # negative r is no power of an inverse, and the kernel raises
        n = 10
        inv = pykernels.inverse_table(2 * n, self.P, self.M)
        if r < 0:
            for power in (0, 1, 2):
                with pytest.raises(ValueError):
                    pykernels.weighted_sum(1, True, None, ((kind, r, power),), n, self.P, self.M, inv)
            return
        addend = {
            "harmonic": lambda j: j**-r,
            "odd": lambda j: (2 * j - 1) ** -r,
        }[kind]
        for power in (0, 1, 2):
            got = pykernels.weighted_sum(
                1, True, None, ((kind, r, power),), n, self.P, self.M, inv
            )[n] % self.M
            want = sum(
                Fraction((-1) ** k * sum(map(addend, range(1, k + 1))) ** power, k)
                for k in range(1, n + 1)
            )
            assert got == _residue(want, self.M)


class TestShortInverseTable:
    """A table that ends before the last index read raises IndexError.

    The sums stream over slices of the table, and a slice alone would stop
    early and silently sum fewer terms.
    """

    P = 31
    M = P**4
    N = 7

    def _table(self, top):
        return pykernels.inverse_table(top, self.P, self.M)

    def _pinned(self, call, top):
        """call(table) needs exactly the entries 1..top."""
        full = call(self._table(self.P - 1))
        assert call(self._table(top)) == full
        with pytest.raises(IndexError):
            call(self._table(top - 1))

    @pytest.mark.parametrize("exps", [(1,), (-1,), (3,), (-2,), (1, -3), (2, 1, 1)])
    def test_mhs_sum(self, exps):
        n = self.N
        self._pinned(lambda inv: pykernels.mhs_sum(exps, n, self.P, self.M, inv), n)

    @pytest.mark.parametrize(
        "kind, top",
        [("harmonic", N), ("odd", 2 * N - 1), ("h2k", 2 * N)],
    )
    def test_weighted_sum(self, kind, top):
        n = self.N
        self._pinned(
            lambda inv: pykernels.weighted_sum(
                2, False, None, ((kind, 1, 1),), n, self.P, self.M, inv
            ),
            top,
        )

    def test_weighted_sum_without_factors(self):
        n = self.N
        self._pinned(
            lambda inv: pykernels.weighted_sum(3, True, 2, (), n, self.P, self.M, inv), n
        )

    def test_s_sum(self):
        n = self.N
        self._pinned(lambda inv: pykernels.s_sum(12345, n, self.P, self.M, inv), n)

    def test_geom_power_sum(self):
        n = self.N
        self._pinned(
            lambda inv: pykernels.geom_power_sum(2, 3, n, self.P, self.M, inv), n
        )

    @pytest.mark.parametrize("lo", [1, 4])
    def test_central_sum(self, lo):
        # the sum from lo to n, C(n) - C(lo-1), still needs every entry to n
        n = self.N

        def part(inv):
            prefix = pykernels.central_sum(n, self.P, self.M, inv)
            return prefix[n] - prefix[lo - 1]

        self._pinned(part, n)


class TestPowerCache:
    """mhs_sum and weighted_sum read inv[k]**r mod m from power lists that a
    one-slot cache keeps per (table, m): results must not depend on which
    table or modulus the cache held before a call.
    """

    P = 101
    N = 50  # "odd" prefixes read inv up to 2N - 1 = P - 2

    @staticmethod
    def _factors(r):
        return (("harmonic", r, 1), ("odd", r, 2))

    def _check(self, r, sign, m, inv):
        p, n = self.P, self.N
        for exps in ((sign * r,), (sign * r, r)):
            got = pykernels.mhs_sum(exps, n, p, m, inv)[n] % m
            assert got == _direct_mhs(exps, n, m), (exps, m)
        signed = sign < 0
        got = pykernels.weighted_sum(r, signed, None, self._factors(r), n, p, m, inv)[n] % m
        assert got == _direct_weighted(r, signed, None, self._factors(r), n, m), (r, m)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("r", range(1, 7))
    def test_one_table_under_two_moduli(self, r, sign):
        p = self.P
        inv = pykernels.inverse_table(p - 1, p, p**6)
        for m in (p**3, p**6, p**3):
            self._check(r, sign, m, inv)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("r", range(1, 7))
    def test_two_equal_tables_interleaved(self, r, sign):
        p, m = self.P, self.P**4
        first = pykernels.inverse_table(p - 1, p, m)
        second = list(first)
        # a table mod a higher power holds other integers, congruent mod m
        wider = pykernels.inverse_table(p - 1, p, p**7)
        for inv in (first, second, first, wider, second):
            self._check(r, sign, m, inv)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_each_table_is_read_for_its_own_entries(self, r):
        # an entry off by one is no longer an inverse: the sum follows the table
        p, n, m = self.P, self.N, self.P**4
        good = pykernels.inverse_table(p - 1, p, m)
        skewed = list(good)
        skewed[7] += 1
        for inv in (good, skewed, good):
            want = sum(inv[k] ** r for k in range(1, n + 1)) % m
            assert pykernels.mhs_sum((r,), n, p, m, inv)[n] % m == want

    def test_cache_keeps_reduced_lists_for_r_from_2_only(self):
        p, m = self.P, self.P**4
        inv = pykernels.inverse_table(p - 1, p, m)
        for r in range(1, 7):
            self._check(r, 1, m, inv)
        assert pykernels._cached_table is inv and pykernels._cached_m == m
        assert sorted(pykernels._cached_powers) == [2, 3, 4, 5, 6]
        for r, pows in pykernels._cached_powers.items():
            assert pows == [pow(x, r, m) for x in inv]

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_short_table_raises_after_a_full_one(self, r):
        p, n, m = self.P, self.N, self.P**4
        full = pykernels.inverse_table(p - 1, p, m)
        self._check(r, -1, m, full)
        short = pykernels.inverse_table(n - 1, p, m)
        with pytest.raises(IndexError):
            pykernels.mhs_sum((r,), n, p, m, short)
        with pytest.raises(IndexError):
            pykernels.weighted_sum(r, False, None, (), n, p, m, short)
        # odd prefixes read up to 2n - 1
        with pytest.raises(IndexError):
            pykernels.weighted_sum(
                1, False, None, (("odd", r, 1),), n, p, m, full[: 2 * n - 1]
            )
