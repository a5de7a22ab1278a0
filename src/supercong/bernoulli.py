"""Bernoulli numbers mod p**N, Fermat quotients, and the constant X.

Bernoulli numbers are produced by one Akiyama-Tanigawa pass per (p, N),
scaled by p so the triangle stays integral mod p**(N+1); this yields the
whole table B_0..B_2p in O(p^2) kernel operations.  Indices with
(p-1) | n are rejected (von Staudt-Clausen: not p-integral), odd n > 1
give the exact zero.

The constant X = B_{p-3}/(p-3) - B_{2p-4}/(4p-8) is available by two
independent routes: from the Bernoulli table (O(p^2), full N digits) and
from the harmonic sum H(2; p-1) (O(p), 2 digits), which suffices wherever
X carries a p^2 or p^3 prefactor.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import kernels
from .errors import BadParameter
from .harmonic import mhs
from .padic import PAdic, congruent_mod

__all__ = [
    "BernoulliTable",
    "bernoulli",
    "fermat_quotient",
    "x_constant",
]

_X_APREC_HARMONIC = 2  # H(2;p-1) = -4pX holds mod p^3, so X is pinned mod p^2
_EXACT_WITNESS_LIMIT = 30  # small B_n carry their exact rational as a witness


@functools.lru_cache(maxsize=None)
def _exact_bernoulli(n: int) -> Fraction:
    """Exact B_n from the defining recurrence sum_{k<=n} binom(n+1,k) B_k = 0."""
    if n == 0:
        return Fraction(1)
    acc = sum(
        (Fraction(math.comb(n + 1, k)) * _exact_bernoulli(k) for k in range(n)),
        Fraction(0),
    )
    return -acc / (n + 1)


class BernoulliTable:
    """Read-only table of B_n mod p**digits for n = 0..nmax."""

    def __init__(self, p: int, digits: int, nmax: int):
        if p < 5:
            raise BadParameter("BernoulliTable requires p >= 5")
        if nmax + 1 >= p * p:
            raise BadParameter("table index range must stay below p^2")
        self.prime = p
        self.digits = digits
        self.nmax = nmax
        # scaled row holds p*B_i mod p^(digits+1); dividing by p recovers
        # B_i to `digits` digits of absolute precision
        self._scaled = kernels.bernoulli_scaled(nmax, p, p ** (digits + 1))

    def get(self, n: int) -> PAdic:
        p = self.prime
        if n < 0 or n > self.nmax:
            raise BadParameter(f"index {n} outside table range 0..{self.nmax}")
        if n == 0:
            return PAdic.from_rational(1, p=p, digits=self.digits)
        if n > 0 and n % 2 == 1:
            return PAdic.zero(p) if n > 1 else PAdic.from_rational(-1, 2, p=p, digits=self.digits)
        if n > 0 and n % (p - 1) == 0:
            raise BadParameter(f"B_{n} is not p-integral for p={p}")
        scaled = PAdic.from_int_exact(self._scaled[n], p=p, aprec=self.digits + 1)
        value = scaled.shift(-1)
        if n <= _EXACT_WITNESS_LIMIT:
            # cheap exact value doubles as a consistency check on the table
            # and as a cancellation witness in later arithmetic
            exact = PAdic.from_rational(_exact_bernoulli(n), p=p, digits=self.digits)
            if not congruent_mod(exact, value, self.digits):
                raise AssertionError(f"Bernoulli table disagrees with exact B_{n}")
            return exact
        return value


_table_cache: dict[tuple[int, int], BernoulliTable] = {}


def _table(p: int, N: int) -> BernoulliTable:
    """The one table per (p, N), sized for every index bernoulli() accepts."""
    tab = _table_cache.get((p, N))
    if tab is None:
        tab = BernoulliTable(p, N, 2 * p)
        _table_cache[(p, N)] = tab
    return tab


def bernoulli(n: int, p: int, N: int) -> PAdic:
    """B_n mod p**N for 0 <= n <= 2p; rejects (p-1) | n for n > 0."""
    return _table(p, N).get(n)


def fermat_quotient(a: int, p: int, N: int) -> PAdic:
    """q_p(a) = (a^(p-1) - 1) / p."""
    if a % p == 0:
        raise BadParameter("a must be coprime to p")
    m = p ** (N + 1)
    num = (pow(a, p - 1, m) - 1) % m
    return PAdic.from_int_exact(num, p=p, aprec=N + 1).shift(-1)


def x_constant(p: int, N: int, method: str = "bernoulli") -> PAdic:
    """X = B_{p-3}/(p-3) - B_{2p-4}/(4p-8).

    method="bernoulli": via the O(p^2) table, N digits.
    method="harmonic":  X = -H(2; p-1)/(4p) mod p^2, O(p).
    """
    if p <= 5:
        raise BadParameter("X requires p > 5")
    if method == "bernoulli":
        tab = _table(p, N)
        return tab.get(p - 3).scale(Fraction(1, p - 3)) - tab.get(2 * p - 4).scale(
            Fraction(1, 4 * p - 8)
        )
    if method == "harmonic":
        N_h = _X_APREC_HARMONIC + 2
        h2 = mhs((2,), p - 1, p, N_h, kernels.inverse_table(p - 1, p, p**N_h))
        x = h2.scale(Fraction(-1, 4)).shift(-1)
        # valid only mod p^2: truncate the window so callers cannot over-trust it
        return _truncate(x, _X_APREC_HARMONIC)
    raise BadParameter(f"unknown method {method!r}")


def _truncate(x: PAdic, aprec: int) -> PAdic:
    if x.zero_flag or x.aprec is None:
        raise BadParameter("cannot truncate an exact zero")
    if x.aprec <= aprec:
        return x
    if x.valuation >= aprec:
        return PAdic(x.prime, aprec, 0, 0)
    digits = aprec - x.valuation
    return PAdic(x.prime, x.valuation, x.unit % x.prime**digits, digits)
