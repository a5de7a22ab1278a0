"""Kernels: the compiled and pure-Python backends are bit-identical, and the
pure-Python sums equal the exact rational oracles.

The backend-equivalence tests compare against the shipped _ckernels.c,
compiled by the session fixture `ckernels` (tests/conftest.py); they skip
only where gcc or Python.h is missing.
"""

from fractions import Fraction
from math import comb

import pytest

from supercong import kernels, oracle
from supercong.kernels import pykernels

PRIMES = [7, 101, 1553, 10007]
DIGITS = 6


def _inv(p, m, n):
    return pykernels.inverse_table(n, p, m)


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_table_identical(ckernels, p):
    m = p**DIGITS
    n = p - 1
    tab_py = pykernels.inverse_table(n, p, m)
    tab_c = ckernels.inverse_table(n, p, m)
    assert tab_py == tab_c
    for k in range(1, n + 1):
        assert tab_py[k] * k % m == 1


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("exps", [(1,), (2,), (3, 1), (1, -3), (-2, 2), (2, -1)])
def test_mhs_sum_identical(ckernels, p, exps):
    m = p**DIGITS
    n = p - 1
    inv = _inv(p, m, n)
    assert pykernels.mhs_sum(exps, n, p, m, inv) == ckernels.mhs_sum(exps, n, p, m, inv)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize(
    "spec",
    [
        (2, False, None, (("odd", 1, 1),)),
        (3, False, None, (("harmonic", 1, 1),)),
        (2, False, None, (("odd", 1, 2),)),
        (2, False, None, (("odd", 2, 1),)),
        (2, False, None, (("h2k", 1, 1),)),
        (1, True, None, (("signed", 2, 1),)),
        (3, False, 2, ()),
    ],
)
def test_weighted_sum_identical(ckernels, p, spec):
    aexp, signed, cnum, factors = spec
    m = p**DIGITS
    half = (p - 1) // 2
    inv = _inv(p, m, p - 1)
    got_py = pykernels.weighted_sum(aexp, signed, cnum, factors, half, p, m, inv)
    got_c = ckernels.weighted_sum(aexp, signed, cnum, factors, half, p, m, inv)
    assert got_py == got_c


@pytest.mark.parametrize("p", PRIMES)
def test_s_sum_and_central_sum_identical(ckernels, p):
    m = p**DIGITS
    n = p - 1
    inv = _inv(p, m, n)
    a_mod = (m + 1) // 2
    assert pykernels.s_sum(a_mod, n, p, m, inv) == ckernels.s_sum(a_mod, n, p, m, inv)
    cinv = pow(16, -1, m)
    for lo in (1, (p + 1) // 2):
        assert pykernels.central_sum(lo, n, cinv, p, m, inv) == ckernels.central_sum(
            lo, n, cinv, p, m, inv
        )


@pytest.mark.parametrize("p", [7, 101, 1553])
def test_bernoulli_scaled_identical(ckernels, p):
    m = p**(DIGITS + 1)
    nmax = 2 * p - 4
    assert pykernels.bernoulli_scaled(nmax, p, m) == ckernels.bernoulli_scaled(nmax, p, m)


def test_invmod_identical(ckernels):
    for p in PRIMES:
        m = p**DIGITS
        for u in (1, 2, m - 1, m // 2 + 1):
            if u % p == 0:
                continue
            got = ckernels.invmod(u, p, m)
            assert got == pykernels.invmod(u, p, m)
            assert got * u % m == 1


def test_large_modulus_near_limit(ckernels, monkeypatch):
    # exercise the 128-bit mulmod path: p^4 above 2^64 but below 2^84
    monkeypatch.setattr(kernels, "_ckernels", ckernels)
    monkeypatch.setattr(kernels, "_C_LIMIT", 1 << ckernels.MAX_MODULUS_BITS)
    p = 15485863  # p^6 > 2^84: routed to python
    m_small = 131071**4  # ~2^68, between 2^64 and 2^84: compiled split-mulmod path
    p2 = 131071
    inv_py = pykernels.inverse_table(200, p2, m_small)
    inv_c = ckernels.inverse_table(200, p2, m_small)
    assert inv_py == inv_c
    assert pykernels.mhs_sum((3, 1), 200, p2, m_small, inv_py) == ckernels.mhs_sum(
        (3, 1), 200, p2, m_small, inv_c
    )
    assert kernels.backend_name(m_small) == "c"
    assert kernels.backend_name(p**6) == "python"


def test_dispatcher_routes_oversized_moduli():
    # modulus >= 2^84 must be served by the python backend and still be correct
    p = 2**61 - 1  # Mersenne prime; p^2 > 2^84
    m = p**2
    inv = kernels.inverse_table(20, p, m)
    for k in range(1, 21):
        assert inv[k] * k % m == 1
    assert kernels.backend_name(m) == "python"


def test_default_backend_is_compiled_when_built(ckernels, monkeypatch):
    monkeypatch.setattr(kernels, "_ckernels", ckernels)
    monkeypatch.setattr(kernels, "_C_LIMIT", 1 << ckernels.MAX_MODULUS_BITS)
    assert kernels.backend_name(7**6) == "c"
    assert kernels.backend_name() == "c"
    monkeypatch.setattr(kernels, "_ckernels", None)
    monkeypatch.setattr(kernels, "_C_LIMIT", 1)
    assert kernels.backend_name(7**6) == "python"


# ---------------------------------------------------------------------------
# pure-Python sums against the exact rational oracles (no compiler needed)


def _residue(q: Fraction, m: int) -> int:
    """A p-integral rational as an integer in [0, m)."""
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, m) % m


class TestSumsAgainstOracle:
    P, N = 13, 5
    M = P**N
    INV = pykernels.inverse_table(P - 1, P, M)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 9, 12])
    @pytest.mark.parametrize("a", [1, -1, 2, -2, 3, -3])
    def test_mhs_depth_one(self, a, n):
        got = pykernels.mhs_sum((a,), n, self.P, self.M, self.INV)
        assert got == _residue(oracle.mhs_exact((a,), n), self.M)

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 12])
    @pytest.mark.parametrize("exps", [(1, -3), (-2, 2), (2, 1), (1, 1, 1), (2, -1, 3)])
    def test_mhs_deeper(self, exps, n):
        got = pykernels.mhs_sum(exps, n, self.P, self.M, self.INV)
        assert got == _residue(oracle.mhs_exact(exps, n), self.M)

    @pytest.mark.parametrize("a", [Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(5)])
    @pytest.mark.parametrize("t", [0, 1, -2])
    def test_s_sum(self, a, t):
        # a + t*m and -1 - a + t*m share their residues with a and -1 - a;
        # a = 0 gives a = 0 and a = -1 mod p^e, where every b_k vanishes
        for aa in (a + t * self.M, -1 - a + t * self.M):
            for n in (0, 1, 6, 12):
                got = pykernels.s_sum(_residue(aa, self.M), n, self.P, self.M, self.INV)
                assert got == _residue(oracle.s_sum_exact(aa, n), self.M)

    @pytest.mark.parametrize("lo", [0, 1, 2, 5, 7, 12, 13])
    @pytest.mark.parametrize("c", [16, 6, -3])
    def test_central_sum(self, lo, c):
        hi = self.P - 1
        got = pykernels.central_sum(lo, hi, pow(c, -1, self.M), self.P, self.M, self.INV)
        want = sum(
            (Fraction(comb(2 * k, k) ** 2, k * c**k) for k in range(max(lo, 1), hi + 1)),
            Fraction(0),
        )
        assert got == _residue(want, self.M)


class TestWeightedSumAgainstOracle:
    P, N = 31, 5
    M = P**N

    def _check(self, outer, signed, c, factors, n):
        inv = pykernels.inverse_table(2 * n, self.P, self.M)
        got = pykernels.weighted_sum(
            outer, signed, None if c == 1 else c, factors, n, self.P, self.M, inv
        )
        want = oracle.weighted_sum_exact(outer, signed, c, factors, n)
        assert got == _residue(want, self.M)

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("power", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["harmonic", "odd", "signed", "h2k"])
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
        self._check(1, True, 3, (("h2k", 1, 1), ("signed", 1, 3)), n)

    def test_negative_exponents_are_powers_of_k(self):
        # k^(-aexp) and the addends inv[k]^r for negative exponents
        n = 10
        inv = pykernels.inverse_table(n, self.P, self.M)
        got = pykernels.weighted_sum(-2, False, None, (("harmonic", -1, 2),), n, self.P, self.M, inv)
        want = sum(k**2 * (k * (k + 1) // 2) ** 2 for k in range(1, n + 1))
        assert got == want % self.M


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
        [("harmonic", N), ("signed", N), ("odd", 2 * N - 1), ("h2k", 2 * N)],
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

    @pytest.mark.parametrize("lo", [1, 4])
    def test_central_sum(self, lo):
        n = self.N
        cinv = pow(16, -1, self.M)
        self._pinned(
            lambda inv: pykernels.central_sum(lo, n, cinv, self.P, self.M, inv), n
        )
