"""Congruence registry and prime-sweep engine.

Each check pairs a directly-summed left-hand side with an independently
computed closed-form right-hand side and compares them modulo p**e via
congruent_mod.  Checks are pure functions of (prime, params); the sweep
evaluates a set of checks over a prime range with an optional process
pool and emits results deterministically ordered by (prime, id, params).

Shared per-prime quantities (the inverse table every sum reads, the
constant X, Fermat quotients, B_{p-3}, H(3,1;(p-1)/2), the binomial sums
S_n(a) and the embedding and split of each sample a) are cached on a
PrimeContext.  Each sum the checks read is a signature (the exponents of a
harmonic sum, the point a of S_n(a), ...) read at a few endpoints n that
are known before any sum runs: (p-1)/2, p-1 and <a>_p of each sample.
The context makes one kernel pass per signature and keeps its values at
those endpoints.
"""

from __future__ import annotations

import contextlib
import functools
import math
import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import add, mod, mul, ne, sub
from typing import Callable

from . import kernels
from .bernoulli import _truncate, bernoulli, fermat_quotient, x_constant, x_from_h2
from .binomial import reduce_point, s_sum
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


@dataclass(frozen=True)
class CheckDefinition:
    id: str
    description: str
    modulus_exponent: int
    param_space: Callable[[int, tuple[Fraction, ...]], list[dict]]
    evaluator: Callable


@dataclass(frozen=True)
class CheckResult:
    check: str
    prime: int
    params: tuple[str, ...]
    status: str
    lhs: str
    rhs: str
    modulus: str
    note: str = ""


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

    a_samples are the sample points the checks will read; their residues
    <a>_p are endpoints of the sums, next to (p-1)/2 and p-1.
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

    def _cached(self, key, make):
        val = self._memo.get(key)
        if val is None:
            val = make()
            self._memo[key] = val
        return val

    def _plan(self, top: int, residues: bool) -> frozenset[int]:
        """The endpoints up to top that a sum's one pass keeps: (p-1)/2 and
        p-1, and with residues also <a>_p of each sample.

        The expansions of S_n(a) read the depth-1 harmonic sums and the
        nested sums at <a>_p; S_n(a) itself, the central sums and the deeper
        harmonic sums are read only at (p-1)/2 and p-1.
        """

        def make():
            ends = {self.half, self.p - 1}
            if residues:
                ends |= {
                    self.reduce(a).residue
                    for a in self.a_samples
                    if a.denominator % self.p != 0
                }
            return frozenset(k for k in ends if k <= top)

        return self._cached(("plan", top, residues), make)

    def _at(self, key, n: int, plan: frozenset[int], values):
        """The sum named key at n, from one kernel pass per signature.

        The first request makes one pass that keeps the values at the
        endpoints of plan and at n; values(ends) makes that pass and returns
        one value per endpoint of the sorted tuple ends.  An n not kept makes
        one more pass that adds it.
        """
        kept = self._memo.get(key, {})
        if n not in kept:
            ends = tuple(sorted(plan | kept.keys() | {n}))
            kept = dict(zip(ends, values(ends)))
            self._memo[key] = kept
        return kept[n]

    # -- kernel-backed primitives -------------------------------------------

    def inv(self) -> list[int]:
        """inv[k] = 1/k mod p**digits for k < p: the table every sum reads."""
        return self._cached(
            "inv", lambda: kernels.inverse_table(self.p - 1, self.p, self.m)
        )

    def mhs(self, exps: tuple[int, ...], n: int) -> PAdic:
        return self._at(
            ("mhs", exps), n, self._plan(self.p - 1, len(exps) == 1),
            lambda ends: mhs(exps, ends, self.p, self.digits, self.inv()),
        )

    def s(self, a: PAdic, n: int) -> PAdic:
        """S_n(a) = sum_{k<=n} binom(a,k) binom(-1-a,k) / k, cached.

        S_n(a) = S_n(-1-a): the two binomials swap, so the kernel returns the
        same integer for both, and a p-adic integer a shares its entry with
        -1-a through the smaller of their residues mod p**aprec.
        """
        key = a
        if not a.zero_flag and a.valuation >= 0:
            aprec = min(self.digits, a.aprec)
            u = a.lift(aprec)
            key = (min(u, (-1 - u) % self.p**aprec), aprec)
        return self._at(
            ("s", key), n, self._plan(self.p - 1, False),
            lambda ends: s_sum(a, ends, self.p, self.digits, self.inv()),
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

        top = self.half if doubled else self.p - 1
        return self._at(("nested", outer, factors), n, self._plan(top, True), values)

    def central(self, lo: int, hi: int, denom: int) -> PAdic:
        """sum_{k=lo}^{hi} binom(2k,k)^2 / (k * denom^k): C(hi) - C(lo-1), C(0) = 0."""
        cinv = pow(denom, -1, self.m)

        def values(ends):
            prefix = kernels.central_sum(1, ends[-1], cinv, self.p, self.m, self.inv())
            return [prefix[k] % self.m for k in ends]

        def at(k):
            if k < 1:
                return 0
            return self._at(("central", denom), k, self._plan(self.p - 1, False), values)

        total = at(hi) - at(lo - 1)
        return PAdic.from_int_exact(total, p=self.p, aprec=self.digits)

    def geom(self, c: int, outer: int, n: int) -> PAdic:
        """sum_{k<=n} c^k / k^outer."""

        def make():
            val = kernels.geom_power_sum(c % self.m, outer, n, self.p, self.m, self.inv())
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
            return _truncate(value, 1)

        return self._cached("b_pm3", make)

    def h31(self) -> PAdic:
        return self._cached("h31", lambda: self.mhs((3, 1), self.half))

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
# parameter spaces

_ODD_FACTOR = ("odd", 1, 1)
_ODD_SQ_FACTOR = ("odd", 1, 2)
_ODD2_FACTOR = ("odd", 2, 1)
_HARM_FACTOR = ("harmonic", 1, 1)
_H2K_FACTOR = ("h2k", 1, 1)


def _ps_none(p, a_samples):
    return [{}]


def _ps_ar(p, a_samples):
    return [
        {"a": a, "r": r} for a in range(1, 7) for r in range(1, 7) if a * r <= 6
    ]


def _ps_a_small(lo, hi):
    def ps(p, a_samples):
        return [{"a": a} for a in range(lo, hi + 1)]

    return ps


def _ps_ab(p, a_samples):
    return [
        {"a": a, "b": b}
        for a in range(1, 5)
        for b in range(1, 5)
        if (a + b) % 2 == 1 and a + b <= 5
    ]


def _ps_ab_variant(p, a_samples):
    return [
        dict(base, variant=v)
        for base in _ps_ab(p, a_samples)
        for v in ("neg-first", "neg-second")
    ]


def _ps_members(*members):
    def ps(p, a_samples):
        return [{"member": m} for m in members]

    return ps


def _ps_samples(p, a_samples):
    return [{"a": a} for a in a_samples if Fraction(a).denominator % p != 0]


# ---------------------------------------------------------------------------
# evaluators: each returns (lhs, rhs, e) or (lhs, rhs, e, note)


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


def _ev_known_iii(ctx, a, b):
    if ctx.p <= a + b + 1:
        raise _Skip(f"requires p > {a + b + 1}")
    lhs = ctx.mhs((a, b), ctx.p - 1)
    coeff = Fraction((-1) ** b * math.comb(a + b, a), a + b)
    rhs = bernoulli(ctx.p - a - b, ctx.p, ctx.digits).scale(coeff)
    return lhs, rhs, 1


def _ev_known_iv(ctx, a, b):
    if ctx.p <= a + b:
        raise _Skip(f"requires p > {a + b}")
    lhs = ctx.mhs((a, b), ctx.half)
    coeff = Fraction(
        (-1) ** b * math.comb(a + b, a) + 2 ** (a + b) - 2, 2 * (a + b)
    )
    rhs = bernoulli(ctx.p - a - b, ctx.p, ctx.digits).scale(coeff)
    return lhs, rhs, 1


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


def _ev_known_vii_zero(ctx, member):
    lhs = ctx.mhs(_VII_ZERO_SIGS[member], ctx.p - 1)
    return lhs, PAdic.zero(ctx.p), 1


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


def _ev_known_vii_cluster(ctx, member):
    sig, coeff = _VII_CLUSTER[member]
    lhs = ctx.mhs(sig, ctx.p - 1).scale(coeff)
    return lhs, ctx.x().scale(3), 2


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


def _ev_known_viii_b(ctx):
    return ctx.mhs((3,), ctx.half), ctx.x().scale(12), 2


def _ev_tauraso_6k(ctx):
    lhs = ctx.central(1, ctx.p - 1, 16)
    rhs = ctx.mhs((1,), ctx.half).scale(-2)
    return lhs, rhs, 3


def _ev_sun_6k_tail(ctx):
    lhs = ctx.central(ctx.half + 1, ctx.p - 1, 16)
    rhs = ctx.b_pm3().shift(2).scale(Fraction(7, 2))
    return lhs, rhs, 3


def _ev_tauraso_param(ctx, a):
    rp = ctx.reduce(a)
    n, t = rp.residue, rp.t
    lhs = ctx.s(ctx.embed(a), ctx.p - 1)
    rhs = ctx.mhs((1,), n).scale(-2) + (t.shift(1) * ctx.mhs((2,), n)).scale(2)
    return lhs, rhs, 2


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


def _ev_eq_1_0(ctx):
    lhs = ctx.central(1, ctx.p - 1, 16)
    rhs = ctx.mhs((1,), ctx.half).scale(-2) - ctx.nested(
        3, (_HARM_FACTOR,), ctx.half
    ).shift(3)
    return lhs, rhs, 4


def _ev_eq_1_1(ctx):
    lhs = ctx.central(ctx.half + 1, ctx.p - 1, 16)
    rhs = ctx.mhs((1,), ctx.p - 1).scale(Fraction(-21, 2))
    return lhs, rhs, 4


def _lem23_scan(ctx, t: PAdic, half_range: bool):
    """Exact mod-p^4 scan of the generalized-binomial product over all k.

    The product B(k) = binom(pt+k-1, top) * binom(-pt-k-1, top) is carried
    as a numerator N_k and a denominator D_k, running products mod p^4 that
    gain (T+k)(T+k+1+top) and (T+k-top)(T+k+1) from k to k+1 (T = pt).
    D_k is a unit, so B(k) matches the closed form rhs_k exactly when
    N_k = rhs_k * D_k mod p^4; the only inversion is at the k reported.
    The row costs O(p) multiplications.
    """
    p = ctx.p
    m4 = p**4
    top = ctx.half if half_range else p - 1
    T = 0 if t.zero_flag else p * t.lift(3) % m4
    inv = list(map(mod, ctx.inv(), repeat(m4)))
    ik = inv[1 : top + 1]

    # closed[k-1] = rhs_k, unreduced, from the prefix sums
    # O_r(k) = sum_{j<=k} 1/(2j-1)^r (half range) or H(k) = sum_{j<=k} 1/j
    if half_range:
        io = inv[1 : 2 * top : 2]
        tk = list(map(mul, ik, repeat(T)))
        v = list(map(mul, accumulate(io), repeat(p)))
        u = list(map(sub, tk, v))
        # T/k * (1 - T/k + 2pO_1 + (T/k)^2 + 2(pO_1)^2 - 2(T/k)pO_1 - 4TpO_2)
        # = T/k * (1 + u(u-1) + v(v+1) - 4TpO_2) with u = T/k - pO_1, v = pO_1
        inner = map(
            add,
            map(mul, u, map(sub, u, repeat(1))),
            map(mul, v, map(add, v, repeat(1))),
        )
        o2 = accumulate(map(mul, io, io))
        inner = map(sub, inner, map(mul, o2, repeat(4 * T * p)))
        closed = list(map(mul, tk, map(add, inner, repeat(1))))
    else:
        # T(T+p)/k^2 * (1 + 2pH(k) - (p + 2T)/k)
        inner = map(
            sub,
            map(add, map(mul, accumulate(ik), repeat(2 * p)), repeat(1)),
            map(mul, ik, repeat(p + 2 * T)),
        )
        closed = list(
            map(mul, map(mul, map(mul, ik, ik), inner), repeat(T * (T + p) % m4))
        )

    def mulmod(x, y):
        return x * y % m4

    n1 = functools.reduce(
        mulmod, map(mul, range(T, T - top, -1), range(-T - 2, -T - 2 - top, -1)), 1
    )
    nums = list(accumulate(
        map(mul, range(T + 1, T + top), range(T + top + 2, T + 2 * top + 1)),
        mulmod, initial=n1,
    ))
    dens = list(accumulate(
        map(mul, range(T + 1 - top, T), range(T + 2, T + top + 1)),
        mulmod, initial=math.factorial(top) ** 2 % m4,
    ))
    rhs_dens = map(mod, map(mul, closed, dens), repeat(m4))
    bad = next(compress(range(top), map(ne, nums, rhs_dens)), None)
    i = top - 1 if bad is None else bad
    lhs = PAdic.from_int_exact(nums[i] * pow(dens[i], -1, m4) % m4, p=p, aprec=4)
    rhs = PAdic.from_int_exact(closed[i] % m4, p=p, aprec=4)
    note = f"all k in 1..{top}" if bad is None else f"first mismatch at k={i + 1}"
    return lhs, rhs, 4, note


def _ev_lem23_full(ctx, a):
    return _lem23_scan(ctx, ctx.reduce(a).t, False)


def _ev_lem23_half(ctx, a):
    return _lem23_scan(ctx, ctx.reduce(a).t, True)


def _ev_lem24_full(ctx, a):
    t = ctx.reduce(a).t
    lhs = ctx.s(t.shift(1), ctx.p - 1)
    rhs = (t.shift(2) * ctx.x()).scale(4)
    return lhs, rhs, 4


def _ev_lem24_half(ctx, a):
    t = ctx.reduce(a).t
    lhs = ctx.s(t.shift(1), ctx.half)
    x = ctx.x()
    rhs = -((t * t).shift(2) * x).scale(12) + (t.shift(2) * x).scale(14)
    return lhs, rhs, 4


def _ev_lem25_ds1(ctx):
    lhs = ctx.nested(2, (_ODD_FACTOR,), ctx.half)
    rhs = (
        ctx.x().scale(Fraction(-21, 2))
        + (ctx.q2() * ctx.b_pm3()).shift(1).scale(2)
        - ctx.h31().shift(1).scale(Fraction(1, 2))
    )
    return lhs, rhs, 2


def _ev_lem25_ds2(ctx):
    lhs = ctx.nested(3, (_HARM_FACTOR,), ctx.half)
    rhs = (ctx.q2() * ctx.b_pm3()).scale(4) - ctx.h31()
    return lhs, rhs, 1


def _ev_lem25_ds3(ctx):
    lhs = ctx.nested(1, (_ODD2_FACTOR,), ctx.half)
    rhs = (
        ctx.x().scale(Fraction(21, 4))
        - (ctx.q2() * ctx.b_pm3()).shift(1)
        + ctx.mhs((1, -3), ctx.p - 1).shift(1)
        + ctx.h31().shift(1).scale(Fraction(1, 4))
    )
    return lhs, rhs, 2


def _ev_lem_bridge(ctx):
    lhs = ctx.mhs((1, 3), ctx.half)
    rhs = ctx.mhs((1, -3), ctx.p - 1).scale(4)
    return lhs, rhs, 1


def _ev_lem26(ctx):
    parts = [
        ctx.nested(2, (_ODD_SQ_FACTOR,), ctx.half),
        ctx.nested(3, (_ODD_FACTOR,), ctx.half),
        ctx.nested(2, (_ODD2_FACTOR,), ctx.half),
    ]
    return ctx.int_sum(parts), PAdic.zero(ctx.p), 1


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


def _ev_proofstep_u1(ctx):
    lhs = ctx.nested(2, (_ODD_SQ_FACTOR,), ctx.half)
    rhs = ctx.mhs((1, -3), ctx.p - 1).scale(2)
    return lhs, rhs, 1


def _ev_proofstep_u2(ctx):
    lhs = ctx.nested(2, (_ODD2_FACTOR,), ctx.half)
    rhs = ctx.mhs((-2, 2), ctx.p - 1).scale(-2)
    return lhs, rhs, 1


def _ev_proofstep_u3(ctx):
    lhs = ctx.nested(3, (_ODD_FACTOR,), ctx.half)
    rhs = ctx.mhs((1, -3), ctx.p - 1).scale(4) - ctx.mhs((1, 3), ctx.half).scale(
        Fraction(1, 2)
    )
    return lhs, rhs, 1


def _ev_proofstep_h2k(ctx):
    lhs = ctx.nested(2, (_H2K_FACTOR,), ctx.half)
    rhs = ctx.x().scale(-9)
    return lhs, rhs, 2


def _ev_proofstep_1221(ctx):
    lhs = ctx.mhs((2, 1), ctx.half)
    rhs = (
        ctx.x().scale(-3)
        - (ctx.q2() * ctx.b_pm3()).shift(1).scale(Fraction(2, 3))
        - ctx.h31().shift(1)
    )
    return lhs, rhs, 2


# ---------------------------------------------------------------------------
# registry

_CATALOG: list[CheckDefinition] = [
    CheckDefinition(
        "known-i",
        "repeated-exponent harmonic sums over 1..p-1 vs Bernoulli closed form",
        3, _ps_ar, _ev_known_i,
    ),
    CheckDefinition(
        "known-ii",
        "power sums over the half range vs Fermat-quotient/Bernoulli values",
        2, _ps_a_small(1, 5), _ev_known_ii,
    ),
    CheckDefinition(
        "known-iii",
        "depth-2 harmonic sums over 1..p-1, odd total weight, mod p",
        1, _ps_ab, _ev_known_iii,
    ),
    CheckDefinition(
        "known-iv",
        "depth-2 harmonic sums over the half range, odd total weight, mod p",
        1, _ps_ab, _ev_known_iv,
    ),
    CheckDefinition(
        "known-v",
        "alternating power sums over 1..p-1 vs Bernoulli closed form",
        2, _ps_a_small(2, 5), _ev_known_v,
    ),
    CheckDefinition(
        "known-vi",
        "depth-2 sums with one alternating slot, odd total weight, mod p",
        1, _ps_ab_variant, _ev_known_vi,
    ),
    CheckDefinition(
        "known-vii-zero",
        "three weight-4 sums over 1..p-1 that vanish mod p",
        1, _ps_members("H(-4)", "H(2,2)", "H(1,3)"), _ev_known_vii_zero,
    ),
    CheckDefinition(
        "known-vii-2m1",
        "H(2,-1;p-1) against its X / Fermat-quotient expansion mod p^2",
        2, _ps_none, _ev_known_vii_2m1,
    ),
    CheckDefinition(
        "known-vii-cluster",
        "four weight-3 sums that all reduce to 3X mod p^2",
        2,
        _ps_members("H(1,2)", "H(2,1)", "H(-3)", "H(1,-2)"),
        _ev_known_vii_cluster,
    ),
    CheckDefinition(
        "known-viii-a",
        "H_{p-1}/p and the two quadratic sums against -4pX mod p^3",
        3,
        _ps_members("harmonic-number", "full-range", "half-range"),
        _ev_known_viii_a,
    ),
    CheckDefinition(
        "known-viii-b",
        "cubic power sum over the half range against 12X mod p^2",
        2, _ps_none, _ev_known_viii_b,
    ),
    CheckDefinition(
        "tauraso-6k",
        "sum of binom(2k,k)^2/(k 6^k) over 1..p-1 mod p^3",
        3, _ps_none, _ev_tauraso_6k,
    ),
    CheckDefinition(
        "sun-6k-tail",
        "tail of the 6^k central-binomial sum vs (7/2)p^2 B_{p-3} mod p^3",
        3, _ps_none, _ev_sun_6k_tail,
    ),
    CheckDefinition(
        "tauraso-param",
        "S_{p-1}(a) mod p^2 for sampled p-adic integers a",
        2, _ps_samples, _ev_tauraso_param,
    ),
    CheckDefinition(
        "sun-param",
        "S_{p-1}(a) mod p^3 with the Bernoulli correction term",
        3, _ps_samples, _ev_sun_param,
    ),
    CheckDefinition(
        "thm11-full",
        "S_{p-1}(a) mod p^4: the full-range main expansion",
        4, _ps_samples, _ev_thm11_full,
    ),
    CheckDefinition(
        "thm11-half",
        "S_{(p-1)/2}(a) mod p^4: the half-range main expansion",
        4, _ps_samples, _ev_thm11_half,
    ),
    CheckDefinition(
        "eq-1-0",
        "sum of binom(2k,k)^2/(k 16^k) over 1..p-1 mod p^4",
        4, _ps_none, _ev_eq_1_0,
    ),
    CheckDefinition(
        "eq-1-1",
        "tail of the 16^k central-binomial sum vs -(21/2)H_{p-1} mod p^4",
        4, _ps_none, _ev_eq_1_1,
    ),
    CheckDefinition(
        "lem23-full",
        "generalized-binomial product over 1..p-1, every k, mod p^4",
        4, _ps_samples, _ev_lem23_full,
    ),
    CheckDefinition(
        "lem23-half",
        "generalized-binomial product over the half range, every k, mod p^4",
        4, _ps_samples, _ev_lem23_half,
    ),
    CheckDefinition(
        "lem24-full",
        "S_{p-1}(pt) = 4p^2 t X mod p^4",
        4, _ps_samples, _ev_lem24_full,
    ),
    CheckDefinition(
        "lem24-half",
        "S_{(p-1)/2}(pt) = -12p^2 t^2 X + 14 p^2 t X mod p^4",
        4, _ps_samples, _ev_lem24_half,
    ),
    CheckDefinition(
        "lem25-ds1",
        "sum of odd-harmonic prefixes over k^2 mod p^2",
        2, _ps_none, _ev_lem25_ds1,
    ),
    CheckDefinition(
        "lem25-ds2",
        "sum of H_k/k^3 over the half range mod p",
        1, _ps_none, _ev_lem25_ds2,
    ),
    CheckDefinition(
        "lem25-ds3",
        "sum of squared-odd prefixes over k mod p^2",
        2, _ps_none, _ev_lem25_ds3,
    ),
    CheckDefinition(
        "lem-bridge",
        "H(1,3;(p-1)/2) = 4 H(1,-3;p-1) mod p",
        1, _ps_none, _ev_lem_bridge,
    ),
    CheckDefinition(
        "lem26",
        "three half-range odd-prefix sums cancel mod p",
        1, _ps_none, _ev_lem26,
    ),
    CheckDefinition(
        "lem31",
        "H_{(p-1)/2} via Fermat-quotient powers and X, mod p^4",
        4, _ps_none, _ev_lem31,
    ),
    CheckDefinition(
        "thm12",
        "sum of 2^k/k^3 over 1..p-1 mod p^2",
        2, _ps_none, _ev_thm12,
    ),
    CheckDefinition(
        "proofstep-u1",
        "squared odd-prefix sum vs 2H(1,-3;p-1) mod p",
        1, _ps_none, _ev_proofstep_u1,
    ),
    CheckDefinition(
        "proofstep-u2",
        "squared-odd-term prefix sum vs -2H(-2,2;p-1) mod p",
        1, _ps_none, _ev_proofstep_u2,
    ),
    CheckDefinition(
        "proofstep-u3",
        "odd-prefix sum over k^3 vs its depth-2 reduction mod p",
        1, _ps_none, _ev_proofstep_u3,
    ),
    CheckDefinition(
        "proofstep-h2k",
        "sum of H_{2k}/k^2 over the half range vs -9X mod p^2",
        2, _ps_none, _ev_proofstep_h2k,
    ),
    CheckDefinition(
        "proofstep-1221",
        "H(2,1;(p-1)/2) against its X / h31 expansion mod p^2",
        2, _ps_none, _ev_proofstep_1221,
    ),
]


def registry() -> list[CheckDefinition]:
    """The full check catalog with stable, unique ids."""
    return list(_CATALOG)


_BY_ID = {d.id: d for d in _CATALOG}


# ---------------------------------------------------------------------------
# evaluation and sweep


def _render_params(params: dict) -> tuple[str, ...]:
    return tuple(f"{k}={v}" for k, v in params.items())


def _evaluate(ctx: PrimeContext, defn: CheckDefinition, params: dict) -> CheckResult:
    rendered = _render_params(params)
    p = ctx.p
    try:
        out = defn.evaluator(ctx, **params)
    except _Skip as exc:
        return CheckResult(
            defn.id, p, rendered, "skipped", "", "", "", note=str(exc)
        )
    except (PrecisionExhausted, InsufficientPrecision) as exc:
        return CheckResult(
            defn.id, p, rendered, "precision_error", "", "", "", note=str(exc)
        )
    lhs, rhs, e = out[0], out[1], out[2]
    note = out[3] if len(out) > 3 else ""
    e_eff = min([e] + [z.aprec for z in (lhs, rhs) if z.aprec is not None])
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
    p, ids, digits, a_samples, t_sign = args
    if p < MIN_PRIME:
        note = f"p below min_prime {MIN_PRIME}"
        return [CheckResult(i, p, (), "skipped", "", "", "", note=note) for i in ids]
    ctx = PrimeContext(p, digits=digits, t_sign=t_sign, a_samples=a_samples)
    return [
        _evaluate(ctx, defn, params)
        for defn in (_BY_ID[check_id] for check_id in ids)
        for params in defn.param_space(p, a_samples)
    ]


def sweep(
    ids,
    primes,
    jobs: int = 1,
    digits: int = 6,
    a_samples: tuple[Fraction, ...] = DEFAULT_A_SAMPLES,
    t_sign: str = "minus",
    fail_fast: bool = False,
) -> list[CheckResult]:
    """Evaluate checks over primes; output ordered by (prime, id, params).

    With fail_fast, stop after the first prime with a fail or precision_error.
    """
    ids = tuple(ids)
    for check_id in ids:
        if check_id not in _BY_ID:
            raise UnknownCheck(f"no check named {check_id!r}")
    a_samples = tuple(map(Fraction, a_samples))
    work = [(p, ids, digits, a_samples, t_sign) for p in primes]
    if jobs <= 1 or len(work) <= 1:
        pool = contextlib.nullcontext()
        chunks = map(_run_prime, work)
    else:
        pool = multiprocessing.Pool(processes=min(jobs, len(work)))
        chunks = pool.imap(_run_prime, work)
    results: list[CheckResult] = []
    with pool:
        for chunk in chunks:
            results.extend(chunk)
            if fail_fast and any(r.status in ("fail", "precision_error") for r in chunk):
                break
    results.sort(key=lambda r: (r.prime, r.check, r.params))
    return results
