"""Congruence registry and prime-sweep engine.

Each check pairs a directly-summed left-hand side with an independently
computed closed-form right-hand side and compares them modulo p**e via
congruent_mod.  Each check is declared once, by @_check on its evaluator,
and the catalog lists them in definition order.  Checks are pure functions
of (prime, params); the sweep evaluates a set of checks over a prime range
with an optional process pool and emits results deterministically ordered
by (prime, id, params).

Shared per-prime quantities (the inverse table every sum reads, the
constant X, Fermat quotients, B_{p-3}, H(3,1;(p-1)/2), the binomial sums
S_n(a) and the split of each sample a) are cached on a
PrimeContext.  Each sum the checks read is a signature (the exponents of a
harmonic sum, the point a of S_n(a), ...) read at a few endpoints n that
the context fixes when it is built: (p-1)/2, p-1 and <a>_p of each sample.
It makes one kernel pass per signature, on the first request, and keeps
the values at those endpoints; no other n is ever read.
"""

from __future__ import annotations

import contextlib
import math
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

from . import kernels
from .bernoulli import bernoulli, fermat_quotient, x_constant, x_from_h2
from .binomial import Lem23Scan, reduce_point, s_sum
from .errors import (
    BadParameter,
    InsufficientPrecision,
    PrecisionExhausted,
    PrimeTooSmall,
    UnknownCheck,
)
from .harmonic import mhs
from .padic import PAdic, congruent_mod

__all__ = [
    "DEFAULT_A_SAMPLES",
    "CheckDefinition",
    "CheckResult",
    "PrimeContext",
    "registry",
    "row_params",
    "sweep",
]

DEFAULT_A_SAMPLES: tuple[Fraction, ...] = (
    Fraction(-1, 2),
    Fraction(1, 3),
    Fraction(-1, 3),
    Fraction(2, 5),
    Fraction(-2, 3),
    Fraction(5),
    Fraction(1, 4),
)

# at or below this bound X and B_{p-3} come from the Bernoulli numbers at
# full precision, cross-checked against the O(p) harmonic route; above it
# they stay the harmonic values (X mod p^2, B_{p-3} mod p), so that rows
# for p > 1000 do not change
X_TABLE_LIMIT = 1000

MIN_PRIME = 7


class _Skip(Exception):
    """Raised by an evaluator when a precondition fails for (p, params)."""


# A catalog entry, made by @_check: param_space(p, a_samples) lists the
# params dicts of its rows, and evaluator(ctx, **params) returns
# (lhs, rhs, e[, note]) with e at most modulus_exponent.
CheckDefinition = namedtuple(
    "CheckDefinition", "id description modulus_exponent param_space evaluator"
)

# One row: params rendered as "name=value" strings, lhs and rhs rendered
# mod the modulus the row was judged at, and status one of pass, fail,
# skipped or precision_error.
CheckResult = namedtuple(
    "CheckResult",
    "check prime params status lhs rhs modulus note",
    defaults=("",),
)


class PrimeContext:
    """Per-prime cache of the inverse table, the sums and recurring constants.

    Every value works mod p**digits: one inverse table, one modulus m.
    a_samples are the sample points the checks will read; their residues
    <a>_p are endpoints of the sums, next to (p-1)/2 and p-1.  The
    expansions of S_n(a) read the depth-1 harmonic sums and the nested sums
    at <a>_p; S_n(a) itself, the central sums and the deeper harmonic sums
    are read only at (p-1)/2 and p-1.  A sum read at any other n raises
    KeyError.
    """

    def __init__(
        self,
        p: int,
        digits: int = 6,
        t_sign: str = "minus",
        a_samples: tuple[Fraction, ...] = (),
    ):
        if p < MIN_PRIME:
            raise PrimeTooSmall(f"checks require p >= {MIN_PRIME}, got {p}")
        if digits < 4:
            raise BadParameter("contexts need at least 4 working digits")
        if t_sign not in ("minus", "plus"):
            raise BadParameter(f"unknown t_sign {t_sign!r}")
        self.p = p
        self.digits = digits
        self.t_sign = t_sign
        self.a_samples = tuple(map(Fraction, a_samples))
        self.m = p**digits
        self.half = (p - 1) // 2
        self._memo: dict = {}
        # the endpoints a sum's one pass keeps: (p-1)/2 and p-1, and for the
        # sums the expansions of S_n(a) read, also <a>_p of each sample
        self._ends = (self.half, p - 1)
        residues = {
            self.reduce(a).residue for a in self.a_samples if a.denominator % p != 0
        }
        self._ends_res = tuple(sorted(residues.union(self._ends)))

    def _cached(self, key, make):
        val = self._memo.get(key)
        if val is None:
            val = make()
            self._memo[key] = val
        return val

    def _at(self, key, n: int, ends: tuple[int, ...], values):
        """The sum named key at n, an endpoint of ends.

        The first request makes the one pass: values(ends) returns one value
        per endpoint of the sorted tuple ends, and the values are kept.
        """
        kept = self._memo.get(key)
        if kept is None:
            kept = self._memo[key] = dict(zip(ends, values(ends)))
        return kept[n]

    # -- kernel-backed primitives -------------------------------------------

    def inv(self) -> list[int]:
        """inv[k] = 1/k mod p**digits for k < p: the table every sum reads."""
        return self._cached(
            "inv", lambda: kernels.inverse_table(self.p - 1, self.p, self.m)
        )

    def mhs(self, exps: tuple[int, ...], n: int) -> PAdic:
        return self._at(
            ("mhs", exps), n, self._ends_res if len(exps) == 1 else self._ends,
            lambda ends: mhs(exps, ends, self.p, self.digits, self.inv()),
        )

    def s(self, a: PAdic, n: int) -> PAdic:
        """S_n(a) = sum_{k<=n} binom(a,k) binom(-1-a,k) / k, cached.

        S_n(a) = S_n(-1-a): the two binomials swap, so the kernel returns the
        same integer for both, and a p-adic integer a shares its entry with
        -1-a through the smaller of their residues mod p**aprec.  At
        a = -1/2 mod p**aprec, binom(-1/2,k)^2 = binom(2k,k)^2 / 16^k, so
        S_n(a) is read from the 16^k central pass.
        """
        N = self.digits
        key = a
        if not a.zero_flag and a.valuation >= 0:
            aprec = min(N, a.aprec)
            u = a.lift(aprec)
            m = self.p**aprec
            if (2 * u + 1) % m == 0 and 1 <= n <= self.p - 1:
                return PAdic.from_int_exact(self._central(n), p=self.p, aprec=aprec)
            key = (min(u, (-1 - u) % m), aprec)
        return self._at(
            ("s", key), n, self._ends,
            lambda ends: s_sum(a, ends, self.p, N, self.inv()),
        )

    def nested(self, outer: int, factors: tuple, n: int) -> PAdic:
        """sum_{k<=n} k^-outer * prod of prefix factors (kind, r, power)."""
        doubled = any(kind in ("odd", "h2k") for kind, _, _ in factors)

        def values(ends):
            prefix = kernels.weighted_sum(
                outer, False, None, factors, ends[-1], self.p, self.m, self.inv()
            )
            return [
                PAdic.from_int_exact(prefix[k], p=self.p, aprec=self.digits)
                for k in ends
            ]

        ends = self._ends_res
        if doubled:
            ends = ends[: ends.index(self.half) + 1]
        return self._at(("nested", outer, factors), n, ends, values)

    def _central(self, k: int) -> int:
        """sum_{j<=k} binom(2j,j)^2 / (j * 16^j) mod p**digits."""
        if k < 1:
            return 0
        m = self.m

        def values(ends):
            prefix = kernels.central_sum(ends[-1], self.p, m, self.inv())
            return [prefix[k] % m for k in ends]

        return self._at("central", k, self._ends, values)

    def central(self, lo: int, hi: int) -> PAdic:
        """sum_{k=lo}^{hi} binom(2k,k)^2 / (k * 16^k): C(hi) - C(lo-1), C(0) = 0."""
        total = self._central(hi) - self._central(lo - 1)
        return PAdic.from_int_exact(total, p=self.p, aprec=self.digits)

    def geom(self, c: int, outer: int, n: int) -> PAdic:
        """sum_{k<=n} c^k / k^outer.  Not memoized: thm12's one row reads it."""
        m = self.m
        val = kernels.geom_power_sum(c % m, outer, n, self.p, m, self.inv())
        return PAdic.from_int_exact(val, p=self.p, aprec=self.digits)

    # -- constants -----------------------------------------------------------

    def q2(self) -> PAdic:
        return self._cached("q2", lambda: fermat_quotient(2, self.p, self.digits))

    def x(self) -> PAdic:
        """X, known mod p^2 at least; both routes cross-checked up to the limit."""

        def make():
            xh = x_from_h2(self.mhs((2,), self.p - 1))
            if self.p <= X_TABLE_LIMIT:
                xb = x_constant(self.p, self.digits)
                if not congruent_mod(xb, xh, 2):
                    raise AssertionError(f"X route mismatch at p={self.p}")
                return xb
            return xh

        return self._cached("x", make)

    def bernoulli(self, n: int) -> PAdic:
        """B_n mod p**digits, once per context."""
        return self._cached(
            ("bernoulli", n), lambda: bernoulli(n, self.p, self.digits)
        )

    def b_pm3(self) -> PAdic:
        """B_{p-3}: full precision up to the limit, else -H(3;(p-1)/2)/2 mod p."""

        def make():
            if self.p <= X_TABLE_LIMIT:
                return self.bernoulli(self.p - 3)
            value = self.mhs((3,), self.half).scale(-1, 2)
            return PAdic.from_int_exact(value.lift(1), p=self.p, aprec=1)

        return self._cached("b_pm3", make)

    # -- parameter helpers ----------------------------------------------------

    def embed(self, num: int | Fraction, den: int = 1) -> PAdic:
        """num/den with the context's digits.  Not memoized: most values
        embedded are t-polynomials that one row reads."""
        return PAdic.from_rational(num, den, p=self.p, digits=self.digits)

    def reduce(self, a: Fraction):
        # keyed by integers: a Fraction key is hashed in Python
        return self._cached(
            ("reduce", a.numerator, a.denominator),
            lambda: reduce_point(a, self.p, self.digits),
        )

    def theorem_t(self, a: Fraction) -> tuple[int, int, int, str]:
        """(<a>_p, num, den, note): the exact t = num/den per the configured
        sign convention, in lowest terms with den > 0, from integers."""
        n, _, tn = self.reduce(a)
        if self.t_sign == "minus":
            return n, tn, a.denominator, ""
        num = a.numerator + n * a.denominator
        if num % self.p:
            den = a.denominator * self.p
            return n, num, den, f"plus-sign t = {num}/{den} is not p-integral"
        return n, num // self.p, a.denominator, "plus-sign t"

    def int_sum(self, values: list[PAdic]) -> PAdic:
        """Exact modular sum of p-adic integers (no cancellation loss)."""
        aprec = min([self.digits] + [v.aprec for v in values if v.aprec is not None])
        total = sum(v.lift(aprec) for v in values)
        return PAdic.from_int_exact(total, p=self.p, aprec=aprec)


# ---------------------------------------------------------------------------
# the catalog: each evaluator declares its check with @_check

_CATALOG: list[CheckDefinition] = []


def _check(check_id: str, e: int, space, description: str):
    """Append the decorated evaluator's check to the catalog, in definition
    order: its rows are space(p, a_samples), each judged at most mod p^e."""

    def register(evaluator):
        _CATALOG.append(CheckDefinition(check_id, description, e, space, evaluator))
        return evaluator

    return register


def _fixed(rows):
    """The param_space of rows that depend neither on p nor on the samples:
    one tuple, built once."""
    rows = tuple(rows)
    return lambda p, a_samples: rows


def _ps_samples(p, a_samples):
    return [{"a": a} for a in a_samples if a.denominator % p != 0]


_NO_PARAMS = _fixed([{}])
_AR = _fixed({"a": a, "r": r} for a in range(1, 7) for r in range(1, 7) if a * r <= 6)
# a + b odd and at most 5
_AB_ROWS = [{"a": a, "b": b} for a in range(1, 5) for b in range(1, 6 - a) if (a + b) % 2]
_AB = _fixed(_AB_ROWS)
_AB_VARIANT = _fixed(
    dict(ab, variant=v) for ab in _AB_ROWS for v in ("neg-first", "neg-second")
)

_ODD_FACTOR = ("odd", 1, 1)
_ODD_SQ_FACTOR = ("odd", 1, 2)
_ODD2_FACTOR = ("odd", 2, 1)
_HARM_FACTOR = ("harmonic", 1, 1)
_H2K_FACTOR = ("h2k", 1, 1)


# evaluators: each returns (lhs, rhs, e[, note]), e at most the one it registers


@_check("known-i", 3, _AR,
        "repeated-exponent harmonic sums over 1..p-1 vs Bernoulli closed form")
def _ev_known_i(ctx, a, r):
    ar = a * r
    if ctx.p <= ar + 2:
        raise _Skip(f"requires p > {ar + 2}")
    lhs = ctx.mhs((a,) * r, ctx.p - 1)
    if ar % 2 == 1:
        coeff = (-1) ** r * a * (ar + 1)
        rhs = ctx.bernoulli(ctx.p - ar - 2).shift(2).scale(coeff, 2 * (ar + 2))
        return lhs, rhs, 3
    coeff = (-1) ** (r - 1) * a
    rhs = ctx.bernoulli(ctx.p - ar - 1).shift(1).scale(coeff, ar + 1)
    return lhs, rhs, 2


@_check("known-ii", 2, _fixed({"a": a} for a in range(1, 6)),
        "power sums over the half range vs Fermat-quotient/Bernoulli values")
def _ev_known_ii(ctx, a):
    if ctx.p <= a + 2:
        raise _Skip(f"requires p > {a + 2}")
    lhs = ctx.mhs((a,), ctx.half)
    if a == 1:
        return lhs, ctx.q2().scale(-2), 1
    if a % 2 == 1:
        rhs = ctx.bernoulli(ctx.p - a).scale(-(2**a - 2), a)
        return lhs, rhs, 1
    coeff = a * (2 ** (a + 1) - 1)
    rhs = ctx.bernoulli(ctx.p - a - 1).shift(1).scale(coeff, 2 * (a + 1))
    return lhs, rhs, 2


@_check("known-iii", 1, _AB,
        "depth-2 harmonic sums over 1..p-1, odd total weight, mod p")
def _ev_known_iii(ctx, a, b):
    if ctx.p <= a + b + 1:
        raise _Skip(f"requires p > {a + b + 1}")
    lhs = ctx.mhs((a, b), ctx.p - 1)
    coeff = (-1) ** b * math.comb(a + b, a)
    rhs = ctx.bernoulli(ctx.p - a - b).scale(coeff, a + b)
    return lhs, rhs, 1


@_check("known-iv", 1, _AB,
        "depth-2 harmonic sums over the half range, odd total weight, mod p")
def _ev_known_iv(ctx, a, b):
    if ctx.p <= a + b:
        raise _Skip(f"requires p > {a + b}")
    lhs = ctx.mhs((a, b), ctx.half)
    coeff = (-1) ** b * math.comb(a + b, a) + 2 ** (a + b) - 2
    rhs = ctx.bernoulli(ctx.p - a - b).scale(coeff, 2 * (a + b))
    return lhs, rhs, 1


@_check("known-v", 2, _fixed({"a": a} for a in range(2, 6)),
        "alternating power sums over 1..p-1 vs Bernoulli closed form")
def _ev_known_v(ctx, a):
    lhs = ctx.mhs((-a,), ctx.p - 1)
    p, N = ctx.p, ctx.digits
    if a % 2 == 1:
        c = (1 - pow(2, p - a, ctx.m)) % ctx.m
        coeff = PAdic.from_int_exact(c, p=p, aprec=N)
        rhs = (ctx.bernoulli(p - a) * coeff).scale(-2, a)
        return lhs, rhs, 1
    c = (1 - pow(2, p - 1 - a, ctx.m)) % ctx.m
    coeff = PAdic.from_int_exact(c, p=p, aprec=N)
    rhs = (ctx.bernoulli(p - 1 - a) * coeff).shift(1).scale(a, a + 1)
    return lhs, rhs, 2


@_check("known-vi", 1, _AB_VARIANT,
        "depth-2 sums with one alternating slot, odd total weight, mod p")
def _ev_known_vi(ctx, a, b, variant):
    sig = (-a, b) if variant == "neg-first" else (a, -b)
    lhs = ctx.mhs(sig, ctx.p - 1)
    c = (1 - pow(2, ctx.p - a - b, ctx.m)) % ctx.m
    coeff = PAdic.from_int_exact(c, p=ctx.p, aprec=ctx.digits)
    rhs = (ctx.bernoulli(ctx.p - a - b) * coeff).scale(1, a + b)
    return lhs, rhs, 1


_VII_ZERO_SIGS = {"H(-4)": (-4,), "H(2,2)": (2, 2), "H(1,3)": (1, 3)}


@_check("known-vii-zero", 1, _fixed({"member": m} for m in _VII_ZERO_SIGS),
        "three weight-4 sums over 1..p-1 that vanish mod p")
def _ev_known_vii_zero(ctx, member):
    lhs = ctx.mhs(_VII_ZERO_SIGS[member], ctx.p - 1)
    return lhs, PAdic.zero(ctx.p), 1


@_check("known-vii-2m1", 2, _NO_PARAMS,
        "H(2,-1;p-1) against its X / Fermat-quotient expansion mod p^2")
def _ev_known_vii_2m1(ctx):
    lhs = ctx.mhs((2, -1), ctx.p - 1)
    rhs = (
        ctx.x().scale(-3, 2)
        - (ctx.q2() * ctx.b_pm3()).shift(1).scale(7, 6)
        + ctx.mhs((1, -3), ctx.p - 1).shift(1)
    )
    return lhs, rhs, 2


_VII_CLUSTER = {
    "H(1,2)": ((1, 2), Fraction(-1, 2)),
    "H(2,1)": ((2, 1), Fraction(1, 2)),
    "H(-3)": ((-3,), Fraction(1)),
    "H(1,-2)": ((1, -2), Fraction(-2)),
}


@_check("known-vii-cluster", 2, _fixed({"member": m} for m in _VII_CLUSTER),
        "four weight-3 sums that all reduce to 3X mod p^2")
def _ev_known_vii_cluster(ctx, member):
    sig, coeff = _VII_CLUSTER[member]
    lhs = ctx.mhs(sig, ctx.p - 1).scale(coeff)
    return lhs, ctx.x().scale(3), 2


@_check(
    "known-viii-a", 3,
    _fixed({"member": m} for m in ("harmonic-number", "full-range", "half-range")),
    "H_{p-1}/p and the two quadratic sums against -4pX mod p^3",
)
def _ev_known_viii_a(ctx, member):
    rhs = ctx.x().shift(1).scale(-4)
    if member == "harmonic-number":
        lhs = ctx.mhs((1,), ctx.p - 1).scale(-2).shift(-1)
    elif member == "full-range":
        lhs = ctx.mhs((2,), ctx.p - 1)
    else:
        # stated with a 2/7 coefficient on the left; moving the 7/2 to the
        # right keeps the comparison exact when p = 7
        lhs = ctx.mhs((2,), ctx.half)
        rhs = rhs.scale(7, 2)
    return lhs, rhs, 3


@_check("known-viii-b", 2, _NO_PARAMS,
        "cubic power sum over the half range against 12X mod p^2")
def _ev_known_viii_b(ctx):
    return ctx.mhs((3,), ctx.half), ctx.x().scale(12), 2


@_check("tauraso-6k", 3, _NO_PARAMS,
        "sum of binom(2k,k)^2/(k 16^k) over 1..p-1 mod p^3")
def _ev_tauraso_6k(ctx):
    lhs = ctx.central(1, ctx.p - 1)
    rhs = ctx.mhs((1,), ctx.half).scale(-2)
    return lhs, rhs, 3


@_check("sun-6k-tail", 3, _NO_PARAMS,
        "tail of the 16^k central-binomial sum vs (7/2)p^2 B_{p-3} mod p^3")
def _ev_sun_6k_tail(ctx):
    lhs = ctx.central(ctx.half + 1, ctx.p - 1)
    rhs = ctx.b_pm3().shift(2).scale(7, 2)
    return lhs, rhs, 3


@_check("tauraso-param", 2, _ps_samples,
        "S_{p-1}(a) mod p^2 for sampled p-adic integers a")
def _ev_tauraso_param(ctx, a):
    rp = ctx.reduce(a)
    n, t = rp.residue, rp.t
    lhs = ctx.s(ctx.embed(a), ctx.p - 1)
    rhs = ctx.mhs((1,), n).scale(-2) + (t.shift(1) * ctx.mhs((2,), n)).scale(2)
    return lhs, rhs, 2


@_check("sun-param", 3, _ps_samples,
        "S_{p-1}(a) mod p^3 with the Bernoulli correction term")
def _ev_sun_param(ctx, a):
    rp = ctx.reduce(a)
    n, t = rp.residue, rp.t
    lhs = ctx.s(ctx.embed(a), ctx.p - 1)
    rhs = (
        ctx.mhs((1,), n).scale(-2)
        + (t.shift(1) * ctx.mhs((2,), n)).scale(2)
        + (t.shift(2) * ctx.mhs((3,), n)).scale(2)
        - (t.shift(2) * ctx.b_pm3()).scale(2, 3)
    )
    return lhs, rhs, 3


@_check("thm11-full", 4, _ps_samples,
        "S_{p-1}(a) mod p^4: the full-range main expansion")
def _ev_thm11_full(ctx, a):
    n, tn, td, note = ctx.theorem_t(a)
    lhs = ctx.s(ctx.embed(a), ctx.p - 1)
    t = ctx.embed(tn, td)
    # the t-polynomials that can vanish are computed in Q, t = tn/td
    poly = ctx.embed(2 * tn * tn + 4 * tn * td + td * td, td * td)
    t_plus_one = ctx.embed(tn + td, td)
    hk3 = ctx.nested(3, (_HARM_FACTOR,), n)
    rhs = (
        (t.shift(2) * ctx.x()).scale(4)
        - ctx.mhs((1,), n).scale(2)
        + (t.shift(1) * ctx.mhs((2,), n)).scale(2)
        + (t.shift(2) * ctx.mhs((3,), n)).scale(2)
        - (t.shift(3) * poly * ctx.mhs((4,), n)).scale(2)
        + (t.shift(3) * t_plus_one * hk3).scale(4)
    )
    return lhs, rhs, 4, note


def _p2x_term(ctx, tn: int, td: int) -> PAdic:
    """(14t - 12t^2) p^2 X at t = tn/td, the p^2 X term of thm11-half and
    lem24-half; the coefficient is computed in Q, where it vanishes at t = 7/6."""
    return ctx.embed(14 * tn * td - 12 * tn * tn, td * td).shift(2) * ctx.x()


@_check("thm11-half", 4, _ps_samples,
        "S_{(p-1)/2}(a) mod p^4: the half-range main expansion")
def _ev_thm11_half(ctx, a):
    n, tn, td, note = ctx.theorem_t(a)
    if n > ctx.half:
        raise _Skip(f"<a>_p = {n} exceeds (p-1)/2")
    lhs = ctx.s(ctx.embed(a), ctx.half)
    t = ctx.embed(tn, td)
    t2 = t * t
    rhs = (
        _p2x_term(ctx, tn, td)
        - ctx.mhs((1,), n).scale(2)
        + (t.shift(1) * ctx.mhs((2,), n)).scale(4)
        - (t2.shift(2) * ctx.mhs((3,), n)).scale(6)
        + ((t2 * t).shift(3) * ctx.mhs((4,), n)).scale(8)
        + (t.shift(2) * ctx.nested(2, (_ODD_FACTOR,), n)).scale(4)
        - (t2.shift(3) * ctx.nested(3, (_ODD_FACTOR,), n)).scale(8)
        + (t.shift(3) * ctx.nested(2, (_ODD_SQ_FACTOR,), n)).scale(4)
        - (t2.shift(3) * ctx.nested(2, (_ODD2_FACTOR,), n)).scale(8)
    )
    return lhs, rhs, 4, note


@_check("eq-1-0", 4, _NO_PARAMS, "sum of binom(2k,k)^2/(k 16^k) over 1..p-1 mod p^4")
def _ev_eq_1_0(ctx):
    lhs = ctx.central(1, ctx.p - 1)
    rhs = ctx.mhs((1,), ctx.half).scale(-2) - ctx.nested(
        3, (_HARM_FACTOR,), ctx.half
    ).shift(3)
    return lhs, rhs, 4


@_check("eq-1-1", 4, _NO_PARAMS,
        "tail of the 16^k central-binomial sum vs -(21/2)H_{p-1} mod p^4")
def _ev_eq_1_1(ctx):
    lhs = ctx.central(ctx.half + 1, ctx.p - 1)
    rhs = ctx.mhs((1,), ctx.p - 1).scale(-21, 2)
    return lhs, rhs, 4


def _lem23_scan(ctx, t: PAdic, half_range: bool):
    """Lemma 2.3 mod p^4 at every k in 1..top, by binomial.Lem23Scan.

    Reports B(k) and rhs_k at the first k where they differ, or at k = top.
    The scan of each range is built once per context, on first use.
    """
    p = ctx.p
    scan = ctx._cached(("lem23", half_range), lambda: Lem23Scan(p, half_range, ctx.inv()))
    k, lhs, rhs = scan(t.lift(3))
    note = f"all k in 1..{scan.top}" if k is None else f"first mismatch at k={k}"
    lhs = PAdic.from_int_exact(lhs, p=p, aprec=4)
    return lhs, PAdic.from_int_exact(rhs, p=p, aprec=4), 4, note


@_check("lem23-full", 4, _ps_samples,
        "generalized-binomial product over 1..p-1, every k, mod p^4")
def _ev_lem23_full(ctx, a):
    return _lem23_scan(ctx, ctx.reduce(a).t, False)


@_check("lem23-half", 4, _ps_samples,
        "generalized-binomial product over the half range, every k, mod p^4")
def _ev_lem23_half(ctx, a):
    return _lem23_scan(ctx, ctx.reduce(a).t, True)


@_check("lem24-full", 4, _ps_samples, "S_{p-1}(pt) = 4p^2 t X mod p^4")
def _ev_lem24_full(ctx, a):
    t = ctx.reduce(a).t
    lhs = ctx.s(t.shift(1), ctx.p - 1)
    rhs = (t.shift(2) * ctx.x()).scale(4)
    return lhs, rhs, 4


@_check("lem24-half", 4, _ps_samples,
        "S_{(p-1)/2}(pt) = -12p^2 t^2 X + 14 p^2 t X mod p^4")
def _ev_lem24_half(ctx, a):
    rp = ctx.reduce(a)
    lhs = ctx.s(rp.t.shift(1), ctx.half)
    return lhs, _p2x_term(ctx, rp.tn, a.denominator), 4


@_check("lem25-ds1", 2, _NO_PARAMS, "sum of odd-harmonic prefixes over k^2 mod p^2")
def _ev_lem25_ds1(ctx):
    lhs = ctx.nested(2, (_ODD_FACTOR,), ctx.half)
    rhs = (
        ctx.x().scale(-21, 2)
        + (ctx.q2() * ctx.b_pm3()).shift(1).scale(2)
        - ctx.mhs((3, 1), ctx.half).shift(1).scale(1, 2)
    )
    return lhs, rhs, 2


@_check("lem25-ds2", 1, _NO_PARAMS, "sum of H_k/k^3 over the half range mod p")
def _ev_lem25_ds2(ctx):
    lhs = ctx.nested(3, (_HARM_FACTOR,), ctx.half)
    rhs = (ctx.q2() * ctx.b_pm3()).scale(4) - ctx.mhs((3, 1), ctx.half)
    return lhs, rhs, 1


@_check("lem25-ds3", 2, _NO_PARAMS, "sum of squared-odd prefixes over k mod p^2")
def _ev_lem25_ds3(ctx):
    lhs = ctx.nested(1, (_ODD2_FACTOR,), ctx.half)
    rhs = (
        ctx.x().scale(21, 4)
        - (ctx.q2() * ctx.b_pm3()).shift(1)
        + ctx.mhs((1, -3), ctx.p - 1).shift(1)
        + ctx.mhs((3, 1), ctx.half).shift(1).scale(1, 4)
    )
    return lhs, rhs, 2


@_check("lem-bridge", 1, _NO_PARAMS, "H(1,3;(p-1)/2) = 4 H(1,-3;p-1) mod p")
def _ev_lem_bridge(ctx):
    lhs = ctx.mhs((1, 3), ctx.half)
    rhs = ctx.mhs((1, -3), ctx.p - 1).scale(4)
    return lhs, rhs, 1


@_check("lem26", 1, _NO_PARAMS, "three half-range odd-prefix sums cancel mod p")
def _ev_lem26(ctx):
    parts = [
        ctx.nested(2, (_ODD_SQ_FACTOR,), ctx.half),
        ctx.nested(3, (_ODD_FACTOR,), ctx.half),
        ctx.nested(2, (_ODD2_FACTOR,), ctx.half),
    ]
    return ctx.int_sum(parts), PAdic.zero(ctx.p), 1


@_check("lem31", 4, _NO_PARAMS, "H_{(p-1)/2} via Fermat-quotient powers and X, mod p^4")
def _ev_lem31(ctx):
    q = ctx.q2()
    lhs = ctx.mhs((1,), ctx.half)
    rhs = (
        q.scale(-2)
        + (q * q).shift(1)
        - (q**3).shift(2).scale(2, 3)
        + (q**4).shift(3).scale(1, 2)
        + ctx.x().shift(2).scale(7, 2)
    )
    return lhs, rhs, 4


@_check("thm12", 2, _NO_PARAMS, "sum of 2^k/k^3 over 1..p-1 mod p^2")
def _ev_thm12(ctx):
    q = ctx.q2()
    lhs = ctx.geom(2, 3, ctx.p - 1)
    rhs = (
        (q**3).scale(-1, 3)
        + ctx.x().scale(7, 4)
        + (q**4).shift(1).scale(5, 12)
        + (q * ctx.b_pm3()).shift(1).scale(7, 6)
        - ctx.nested(3, (_HARM_FACTOR,), ctx.half).shift(1).scale(3, 8)
    )
    return lhs, rhs, 2


@_check("proofstep-u1", 1, _NO_PARAMS, "squared odd-prefix sum vs 2H(1,-3;p-1) mod p")
def _ev_proofstep_u1(ctx):
    lhs = ctx.nested(2, (_ODD_SQ_FACTOR,), ctx.half)
    rhs = ctx.mhs((1, -3), ctx.p - 1).scale(2)
    return lhs, rhs, 1


@_check("proofstep-u2", 1, _NO_PARAMS,
        "squared-odd-term prefix sum vs -2H(-2,2;p-1) mod p")
def _ev_proofstep_u2(ctx):
    lhs = ctx.nested(2, (_ODD2_FACTOR,), ctx.half)
    rhs = ctx.mhs((-2, 2), ctx.p - 1).scale(-2)
    return lhs, rhs, 1


@_check("proofstep-u3", 1, _NO_PARAMS,
        "odd-prefix sum over k^3 vs its depth-2 reduction mod p")
def _ev_proofstep_u3(ctx):
    lhs = ctx.nested(3, (_ODD_FACTOR,), ctx.half)
    rhs = ctx.mhs((1, -3), ctx.p - 1).scale(4) - ctx.mhs((1, 3), ctx.half).scale(1, 2)
    return lhs, rhs, 1


@_check("proofstep-h2k", 2, _NO_PARAMS,
        "sum of H_{2k}/k^2 over the half range vs -9X mod p^2")
def _ev_proofstep_h2k(ctx):
    lhs = ctx.nested(2, (_H2K_FACTOR,), ctx.half)
    rhs = ctx.x().scale(-9)
    return lhs, rhs, 2


@_check("proofstep-1221", 2, _NO_PARAMS,
        "H(2,1;(p-1)/2) against its X / h31 expansion mod p^2")
def _ev_proofstep_1221(ctx):
    lhs = ctx.mhs((2, 1), ctx.half)
    rhs = (
        ctx.x().scale(-3)
        - (ctx.q2() * ctx.b_pm3()).shift(1).scale(2, 3)
        - ctx.mhs((3, 1), ctx.half).shift(1)
    )
    return lhs, rhs, 2


def registry() -> list[CheckDefinition]:
    """The full check catalog with stable, unique ids."""
    return list(_CATALOG)


_BY_ID = {d.id: d for d in _CATALOG}

# the largest exponent any row is judged at; _run_prime's first context
# works mod p**MAX_E
MAX_E = max(d.modulus_exponent for d in _CATALOG)


# ---------------------------------------------------------------------------
# evaluation and sweep


def _render_params(params: dict) -> tuple[str, ...]:
    return tuple(f"{k}={v}" for k, v in params.items())


def _evaluate(
    ctx: PrimeContext, defn: CheckDefinition, params: dict, defer: bool = False
) -> CheckResult | None:
    """defn's row at params, judged mod p^e_eff, e_eff = min(e, lhs.aprec,
    rhs.aprec) and e the exponent the evaluator returns.

    A skipped row, and one with e_eff = e, is settled: a context with more
    digits gives the same bytes.  Any other row (PrecisionExhausted,
    InsufficientPrecision or e_eff < e) is not settled; with defer it is
    not judged, and None is returned for the caller to evaluate it again in
    a context with more digits.
    """
    rendered = _render_params(params)
    p = ctx.p
    try:
        out = defn.evaluator(ctx, **params)
    except _Skip as exc:
        return CheckResult(defn.id, p, rendered, "skipped", "", "", "", note=str(exc))
    except (PrecisionExhausted, InsufficientPrecision) as exc:
        if defer:
            return None
        return CheckResult(defn.id, p, rendered, "precision_error", "", "", "", note=str(exc))
    lhs, rhs, e = out[:3]
    note = out[3] if len(out) > 3 else ""
    la, ra = lhs.aprec, rhs.aprec
    e_eff = min(e, e if la is None else la, e if ra is None else ra)
    if e_eff < e and defer:
        return None
    if not congruent_mod(lhs, rhs, e_eff):
        status = "fail"
    elif e_eff < e:
        status = "precision_error"
        extra = f"verified only mod p^{e_eff} of p^{e}"
        note = f"{note}; {extra}" if note else extra
    else:
        status = "pass"
    return CheckResult(
        defn.id,
        p,
        rendered,
        status,
        lhs.render(e_eff),
        rhs.render(e_eff),
        f"{p}^{e}",
        note=note,
    )


def row_params(
    check_id: str, p: int, a_samples: tuple[Fraction, ...]
) -> list[tuple[str, ...]]:
    """Rendered params of the rows sweep emits for (check_id, p)."""
    if p < MIN_PRIME:
        return [()]
    space = _BY_ID[check_id].param_space(p, a_samples)
    return [_render_params(params) for params in space]


def _run_prime(args) -> list[CheckResult]:
    """One prime's rows, from a context mod p**MAX_E: no row is judged above
    p^MAX_E.  The rows it does not settle are evaluated again, after all of
    its rows, in one context at digits (never when digits <= MAX_E), so the
    kernels' one-slot cache moves to the second table once per prime.
    """
    p, ids, digits, a_samples, t_sign = args
    if p < MIN_PRIME:
        note = f"p below min_prime {MIN_PRIME}"
        return [CheckResult(i, p, (), "skipped", "", "", "", note=note) for i in ids]
    ctx = PrimeContext(p, min(digits, MAX_E), t_sign, a_samples)
    # only the rows to retry keep their params past their evaluation: holding
    # every row's through the prime raised peak RSS by about 0.1 MB
    out, retry = [], []
    for defn in map(_BY_ID.__getitem__, ids):
        for params in defn.param_space(p, a_samples):
            row = _evaluate(ctx, defn, params, digits > MAX_E)
            if row is None:
                retry.append((len(out), defn, params))
            out.append(row)
    if retry:
        full = PrimeContext(p, digits, t_sign, a_samples)
        for i, defn, params in retry:
            out[i] = _evaluate(full, defn, params)
    return out


def _order(r: CheckResult) -> tuple:
    return (r.prime, r.check, r.params)


def sweep(
    ids,
    primes,
    jobs: int = 1,
    digits: int = 6,
    a_samples: tuple[Fraction, ...] = DEFAULT_A_SAMPLES,
    t_sign: str = "minus",
    on_prime: Callable[[int, list[CheckResult]], bool] | None = None,
) -> list[CheckResult] | None:
    """Evaluate checks over primes; return every row ordered by (prime, id, params).

    Each prime is one chunk of rows, made in this process or, with jobs > 1,
    on a pool of min(jobs, len(primes)) processes that hands the chunks back
    in the order of primes (pool.ordered_map).  Each chunk is sorted by
    (id, params).  With on_prime, each chunk is passed to on_prime(p, rows)
    before the next one is taken, so a caller can show a prime's rows while
    later primes still run; the rows are not kept, and sweep returns None.
    The sweep stops after the first prime for which on_prime returns true.
    """
    ids = tuple(ids)
    for check_id in ids:
        if check_id not in _BY_ID:
            raise UnknownCheck(f"no check named {check_id!r}")
    a_samples = tuple(map(Fraction, a_samples))
    primes = list(primes)
    work = [(p, ids, digits, a_samples, t_sign) for p in primes]
    if jobs <= 1 or len(work) <= 1:
        running = contextlib.nullcontext(map(_run_prime, work))
    else:
        # imported here: a serial run, and every other subcommand, starts faster
        from .pool import ordered_map

        running = ordered_map(_run_prime, work, min(jobs, len(work)))
    results: list[CheckResult] = []
    with running as chunks:
        for p, chunk in zip(primes, chunks):
            chunk.sort(key=_order)
            if on_prime is None:
                results.extend(chunk)
            elif on_prime(p, chunk):
                break
    if on_prime is not None:
        return None
    results.sort(key=_order)
    return results
