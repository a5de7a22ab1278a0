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
S_n(a) and the embedding and split of each sample a) are cached on a
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
from functools import cache

from . import kernels
from .bernoulli import bernoulli, fermat_quotient, x_constant, x_from_h2
from .binomial import lem23_scan, reduce_point, s_sum
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
    "render_padic",
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


def render_padic(x: PAdic, p: int, e: int) -> str:
    """Render a value as known modulo p**e: "p^v * u mod p^e"."""
    if x.zero_flag:
        return "0"
    v = x.valuation
    if x.digits == 0 or v >= e:
        return f"0 mod {p}^{e}"
    u = x.unit % p ** (e - v)
    return f"{p}^{v} * {u} mod {p}^{e}"


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
        """sum_{k<=n} c^k / k^outer."""
        m = self.m

        def make():
            val = kernels.geom_power_sum(c % m, outer, n, self.p, m, self.inv())
            return PAdic.from_int_exact(val, p=self.p, aprec=self.digits)

        return self._cached(("geom", c, outer, n), make)

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

    def b_pm3(self) -> PAdic:
        """B_{p-3}: full precision up to the limit, else -H(3;(p-1)/2)/2 mod p."""

        def make():
            if self.p <= X_TABLE_LIMIT:
                return bernoulli(self.p - 3, self.p, self.digits)
            value = self.mhs((3,), self.half).scale(Fraction(-1, 2))
            return PAdic.from_int_exact(value.lift(1), p=self.p, aprec=1)

        return self._cached("b_pm3", make)

    # -- parameter helpers ----------------------------------------------------

    def embed(self, a: Fraction) -> PAdic:
        return self._cached(
            ("embed", a),
            lambda: PAdic.from_rational(a, p=self.p, digits=self.digits),
        )

    def reduce(self, a: Fraction):
        return self._cached(
            ("reduce", a), lambda: reduce_point(a, self.p, self.digits)
        )

    def theorem_t(self, a: Fraction) -> tuple[int, PAdic, str]:
        """(<a>_p, t, note) with t per the configured sign convention."""
        rp = self.reduce(a)
        if self.t_sign == "minus":
            return rp.residue, rp.t, ""
        t_plus = (Fraction(a) + rp.residue) / self.p
        if t_plus == 0:
            return rp.residue, PAdic.zero(self.p), "plus-sign t"
        t = PAdic.from_rational(t_plus, p=self.p, digits=self.digits)
        note = "plus-sign t"
        if t.valuation < 0:
            note = f"plus-sign t = {t_plus} is not p-integral"
        return rp.residue, t, note

    def one(self) -> PAdic:
        return PAdic.from_rational(1, p=self.p, digits=self.digits)

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
        coeff = Fraction((-1) ** r * a * (ar + 1), 2 * (ar + 2))
        rhs = bernoulli(ctx.p - ar - 2, ctx.p, ctx.digits).shift(2).scale(coeff)
        return lhs, rhs, 3
    coeff = Fraction((-1) ** (r - 1) * a, ar + 1)
    rhs = bernoulli(ctx.p - ar - 1, ctx.p, ctx.digits).shift(1).scale(coeff)
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
        rhs = bernoulli(ctx.p - a, ctx.p, ctx.digits).scale(Fraction(-(2**a - 2), a))
        return lhs, rhs, 1
    coeff = Fraction(a * (2 ** (a + 1) - 1), 2 * (a + 1))
    rhs = bernoulli(ctx.p - a - 1, ctx.p, ctx.digits).shift(1).scale(coeff)
    return lhs, rhs, 2


@_check("known-iii", 1, _AB,
        "depth-2 harmonic sums over 1..p-1, odd total weight, mod p")
def _ev_known_iii(ctx, a, b):
    if ctx.p <= a + b + 1:
        raise _Skip(f"requires p > {a + b + 1}")
    lhs = ctx.mhs((a, b), ctx.p - 1)
    coeff = Fraction((-1) ** b * math.comb(a + b, a), a + b)
    rhs = bernoulli(ctx.p - a - b, ctx.p, ctx.digits).scale(coeff)
    return lhs, rhs, 1


@_check("known-iv", 1, _AB,
        "depth-2 harmonic sums over the half range, odd total weight, mod p")
def _ev_known_iv(ctx, a, b):
    if ctx.p <= a + b:
        raise _Skip(f"requires p > {a + b}")
    lhs = ctx.mhs((a, b), ctx.half)
    coeff = Fraction(
        (-1) ** b * math.comb(a + b, a) + 2 ** (a + b) - 2, 2 * (a + b)
    )
    rhs = bernoulli(ctx.p - a - b, ctx.p, ctx.digits).scale(coeff)
    return lhs, rhs, 1


@_check("known-v", 2, _fixed({"a": a} for a in range(2, 6)),
        "alternating power sums over 1..p-1 vs Bernoulli closed form")
def _ev_known_v(ctx, a):
    lhs = ctx.mhs((-a,), ctx.p - 1)
    p, N = ctx.p, ctx.digits
    if a % 2 == 1:
        c = (1 - pow(2, p - a, ctx.m)) % ctx.m
        coeff = PAdic.from_int_exact(c, p=p, aprec=N)
        rhs = (bernoulli(p - a, p, N) * coeff).scale(Fraction(-2, a))
        return lhs, rhs, 1
    c = (1 - pow(2, p - 1 - a, ctx.m)) % ctx.m
    coeff = PAdic.from_int_exact(c, p=p, aprec=N)
    rhs = (bernoulli(p - 1 - a, p, N) * coeff).shift(1).scale(Fraction(a, a + 1))
    return lhs, rhs, 2


@_check("known-vi", 1, _AB_VARIANT,
        "depth-2 sums with one alternating slot, odd total weight, mod p")
def _ev_known_vi(ctx, a, b, variant):
    sig = (-a, b) if variant == "neg-first" else (a, -b)
    lhs = ctx.mhs(sig, ctx.p - 1)
    c = (1 - pow(2, ctx.p - a - b, ctx.m)) % ctx.m
    coeff = PAdic.from_int_exact(c, p=ctx.p, aprec=ctx.digits)
    rhs = (bernoulli(ctx.p - a - b, ctx.p, ctx.digits) * coeff).scale(
        Fraction(1, a + b)
    )
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
        ctx.x().scale(Fraction(-3, 2))
        - (ctx.q2() * ctx.b_pm3()).shift(1).scale(Fraction(7, 6))
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
        rhs = rhs.scale(Fraction(7, 2))
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
    rhs = ctx.b_pm3().shift(2).scale(Fraction(7, 2))
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
        - (t.shift(2) * ctx.b_pm3()).scale(Fraction(2, 3))
    )
    return lhs, rhs, 3


@_check("thm11-full", 4, _ps_samples,
        "S_{p-1}(a) mod p^4: the full-range main expansion")
def _ev_thm11_full(ctx, a):
    n, t, note = ctx.theorem_t(a)
    lhs = ctx.s(ctx.embed(a), ctx.p - 1)
    one = ctx.one()
    poly = (t * t).scale(2) + t.scale(4) + one
    hk3 = ctx.nested(3, (_HARM_FACTOR,), n)
    rhs = (
        (t.shift(2) * ctx.x()).scale(4)
        - ctx.mhs((1,), n).scale(2)
        + (t.shift(1) * ctx.mhs((2,), n)).scale(2)
        + (t.shift(2) * ctx.mhs((3,), n)).scale(2)
        - (t.shift(3) * poly * ctx.mhs((4,), n)).scale(2)
        + (t.shift(3) * (t + one) * hk3).scale(4)
    )
    return lhs, rhs, 4, note


@_check("thm11-half", 4, _ps_samples,
        "S_{(p-1)/2}(a) mod p^4: the half-range main expansion")
def _ev_thm11_half(ctx, a):
    n, t, note = ctx.theorem_t(a)
    if n > ctx.half:
        raise _Skip(f"<a>_p = {n} exceeds (p-1)/2")
    lhs = ctx.s(ctx.embed(a), ctx.half)
    t2 = t * t
    x = ctx.x()
    rhs = (
        -(t2.shift(2) * x).scale(12)
        + (t.shift(2) * x).scale(14)
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
    rhs = ctx.mhs((1,), ctx.p - 1).scale(Fraction(-21, 2))
    return lhs, rhs, 4


def _lem23_scan(ctx, t: PAdic, half_range: bool):
    """Lemma 2.3 mod p^4 at every k in 1..top, by binomial.lem23_scan.

    Reports B(k) and rhs_k at the first k where they differ, or at k = top.
    """
    p = ctx.p
    top = ctx.half if half_range else p - 1
    tau = 0 if t.zero_flag else t.lift(3)
    k, lhs, rhs = lem23_scan(tau, p, half_range, ctx.inv())
    note = f"all k in 1..{top}" if k is None else f"first mismatch at k={k}"
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
    t = ctx.reduce(a).t
    lhs = ctx.s(t.shift(1), ctx.half)
    x = ctx.x()
    rhs = -((t * t).shift(2) * x).scale(12) + (t.shift(2) * x).scale(14)
    return lhs, rhs, 4


@_check("lem25-ds1", 2, _NO_PARAMS, "sum of odd-harmonic prefixes over k^2 mod p^2")
def _ev_lem25_ds1(ctx):
    lhs = ctx.nested(2, (_ODD_FACTOR,), ctx.half)
    rhs = (
        ctx.x().scale(Fraction(-21, 2))
        + (ctx.q2() * ctx.b_pm3()).shift(1).scale(2)
        - ctx.mhs((3, 1), ctx.half).shift(1).scale(Fraction(1, 2))
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
        ctx.x().scale(Fraction(21, 4))
        - (ctx.q2() * ctx.b_pm3()).shift(1)
        + ctx.mhs((1, -3), ctx.p - 1).shift(1)
        + ctx.mhs((3, 1), ctx.half).shift(1).scale(Fraction(1, 4))
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
        - (q**3).shift(2).scale(Fraction(2, 3))
        + (q**4).shift(3).scale(Fraction(1, 2))
        + ctx.x().shift(2).scale(Fraction(7, 2))
    )
    return lhs, rhs, 4


@_check("thm12", 2, _NO_PARAMS, "sum of 2^k/k^3 over 1..p-1 mod p^2")
def _ev_thm12(ctx):
    q = ctx.q2()
    lhs = ctx.geom(2, 3, ctx.p - 1)
    rhs = (
        (q**3).scale(Fraction(-1, 3))
        + ctx.x().scale(Fraction(7, 4))
        + (q**4).shift(1).scale(Fraction(5, 12))
        + (q * ctx.b_pm3()).shift(1).scale(Fraction(7, 6))
        - ctx.nested(3, (_HARM_FACTOR,), ctx.half).shift(1).scale(Fraction(3, 8))
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
    rhs = ctx.mhs((1, -3), ctx.p - 1).scale(4) - ctx.mhs((1, 3), ctx.half).scale(
        Fraction(1, 2)
    )
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
        - (ctx.q2() * ctx.b_pm3()).shift(1).scale(Fraction(2, 3))
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


def _evaluate(ctx: PrimeContext, defn: CheckDefinition, params: dict, full=None) -> CheckResult:
    """defn's row at params, judged mod p^e_eff, e_eff = min(e, lhs.aprec,
    rhs.aprec) and e the exponent the evaluator returns.

    A skipped row, and one with e_eff = e, is settled: a context with more
    digits gives the same bytes.  Any other row (PrecisionExhausted,
    InsufficientPrecision or e_eff < e) is evaluated again in full() when
    full is given, and that row is returned.
    """
    rendered = _render_params(params)
    p = ctx.p
    try:
        out = defn.evaluator(ctx, **params)
    except _Skip as exc:
        return CheckResult(defn.id, p, rendered, "skipped", "", "", "", note=str(exc))
    except (PrecisionExhausted, InsufficientPrecision) as exc:
        if full is not None:
            return _evaluate(full(), defn, params)
        return CheckResult(defn.id, p, rendered, "precision_error", "", "", "", note=str(exc))
    lhs, rhs, e = out[0], out[1], out[2]
    note = out[3] if len(out) > 3 else ""
    e_eff = min([e] + [z.aprec for z in (lhs, rhs) if z.aprec is not None])
    if e_eff < e and full is not None:
        return _evaluate(full(), defn, params)
    ok = congruent_mod(lhs, rhs, e_eff)
    if not ok:
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
        render_padic(lhs, p, e_eff),
        render_padic(rhs, p, e_eff),
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
    p^MAX_E.  A row it does not settle is evaluated again in a context at
    digits, built at most once, on first need (never when digits = MAX_E).
    """
    p, ids, digits, a_samples, t_sign = args
    if p < MIN_PRIME:
        note = f"p below min_prime {MIN_PRIME}"
        return [CheckResult(i, p, (), "skipped", "", "", "", note=note) for i in ids]
    ctx = PrimeContext(p, min(digits, MAX_E), t_sign, a_samples)
    full = None
    if digits > MAX_E:
        full = cache(lambda: PrimeContext(p, digits, t_sign, a_samples))
    return [
        _evaluate(ctx, defn, params, full)
        for defn in (_BY_ID[check_id] for check_id in ids)
        for params in defn.param_space(p, a_samples)
    ]


def _order(r: CheckResult) -> tuple:
    return (r.prime, r.check, r.params)


def sweep(
    ids,
    primes,
    jobs: int = 1,
    digits: int = 6,
    a_samples: tuple[Fraction, ...] = DEFAULT_A_SAMPLES,
    t_sign: str = "minus",
    fail_fast: bool = False,
    on_prime: Callable[[int, list[CheckResult]], None] | None = None,
) -> list[CheckResult] | None:
    """Evaluate checks over primes; return every row ordered by (prime, id, params).

    Each prime is one chunk of rows, made in this process or, with jobs > 1,
    on a pool of min(jobs, len(primes)) processes whose ordered imap hands
    the chunks back in the order of primes.  Each chunk is sorted by
    (id, params).  With on_prime, each chunk is passed to on_prime(p, rows)
    before the next one is taken, so a caller can show a prime's rows while
    later primes still run; the rows are not kept, and sweep returns None.

    With fail_fast, stop after the first prime with a fail or precision_error.
    """
    ids = tuple(ids)
    for check_id in ids:
        if check_id not in _BY_ID:
            raise UnknownCheck(f"no check named {check_id!r}")
    a_samples = tuple(map(Fraction, a_samples))
    primes = list(primes)
    work = [(p, ids, digits, a_samples, t_sign) for p in primes]
    if jobs <= 1 or len(work) <= 1:
        pool = contextlib.nullcontext()
        chunks = map(_run_prime, work)
    else:
        # imported here: a serial run, and every other subcommand, starts faster
        import multiprocessing

        pool = multiprocessing.Pool(processes=min(jobs, len(work)))
        chunks = pool.imap(_run_prime, work)
    results: list[CheckResult] = []
    with pool:
        for p, chunk in zip(primes, chunks):
            chunk.sort(key=_order)
            if on_prime is None:
                results.extend(chunk)
            else:
                on_prime(p, chunk)
            if fail_fast and any(r.status in ("fail", "precision_error") for r in chunk):
                break
    if on_prime is not None:
        return None
    results.sort(key=_order)
    return results
