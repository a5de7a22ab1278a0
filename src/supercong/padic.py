"""Capped-precision arithmetic in Q_p.

A value is stored as ``p**valuation * unit`` where ``unit`` is coprime to p
and reduced modulo ``p**digits``; ``digits`` is the number of significant
base-p digits that are known.  The absolute precision of a value is
``valuation + digits``: the value is known exactly modulo
``p**(valuation + digits)``.

Two degenerate shapes exist besides ordinary values:

* the exact zero (``zero_flag`` set), with infinite precision;
* a *bounded zero*, ``digits == 0``: all that is known is that the value is
  divisible by ``p**valuation``.  Bounded zeros arise when an exact-mod-m
  accumulator happens to vanish; they are legal congruence operands but
  cannot be inverted.

A sum in which every known digit cancels raises :class:`PrecisionExhausted`
(two bounded zeros sum to a bounded zero): a value that must cancel exactly
is computed in Q and embedded once.

PAdic is a slotted, immutable class: ``__init__`` validates and sets the
five fields, and assignment raises.
:meth:`PAdic.scale` splits its constant c = p**v * num/den on each call:
that costs less than hashing c for a memo.  :meth:`PAdic.from_rational`
takes the same integer route: it splits num/den into p**v * num'/den' and
reduces num' / den' modulo p**digits, with no Fraction built, so a caller
holding a rational as two integers embeds it as they stand.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    BadParameter,
    DivisionByZero,
    InsufficientPrecision,
    PrecisionExhausted,
)

__all__ = ["PAdic", "congruent_mod", "vp_int"]


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _split(c: int | Fraction, p: int, den: int = 1) -> tuple[int, int, int]:
    """(v, num', den') with c / den = p**v * num' / den' and num', den'
    coprime to p; c nonzero.  c's numerator and denominator are read as
    integers (an int has them too), so no Fraction is built.  A zero den
    raises ZeroDivisionError, as the loop below would never end."""
    if not den:
        raise ZeroDivisionError(f"{c} / 0")
    num, den = c.numerator, den * c.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


class PAdic:
    __slots__ = ("prime", "valuation", "unit", "digits", "zero_flag")

    def __init__(
        self,
        prime: int,
        valuation: int,
        unit: int,
        digits: int,
        zero_flag: bool = False,
    ) -> None:
        if not zero_flag:
            if digits < 0:
                raise ValueError("digits must be >= 0")
            if digits == 0:
                if unit != 0:
                    raise ValueError("bounded zero must have unit 0")
            else:
                if not (0 < unit < prime**digits):
                    raise ValueError("unit out of range")
                if unit % prime == 0:
                    raise ValueError("unit must be coprime to p")
        _set_prime(self, prime)
        _set_valuation(self, valuation)
        _set_unit(self, unit)
        _set_digits(self, digits)
        _set_zero_flag(self, zero_flag)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: PAdic is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: PAdic is immutable")

    def _key(self) -> tuple:
        return (self.prime, self.valuation, self.unit, self.digits, self.zero_flag)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PAdic:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"PAdic(prime={self.prime!r}, valuation={self.valuation!r}, "
            f"unit={self.unit!r}, digits={self.digits!r}, zero_flag={self.zero_flag!r})"
        )

    def __reduce__(self):
        return PAdic, self._key()

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PAdic":
        return cls(p, 0, 0, 0, zero_flag=True)

    @classmethod
    def from_rational(cls, num: int | Fraction, den: int = 1, *, p: int, digits: int) -> "PAdic":
        """Embed num/den into Q_p with ``digits`` significant digits.

        num/den need not be in lowest terms, and den may be negative; a
        Fraction num is read through its numerator and denominator.
        """
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if not den:
            raise ZeroDivisionError(f"{num} / 0")
        if not num:
            return cls.zero(p)
        v, num, den = _split(num, p, den)
        m = p**digits
        return cls(p, v, num * pow(den, -1, m) % m, digits)

    @classmethod
    def from_int_exact(cls, value: int, *, p: int, aprec: int) -> "PAdic":
        """Wrap an integer known exactly modulo ``p**aprec``.

        Used to lift kernel accumulator outputs.  A residue of 0 yields a
        bounded zero of precision aprec.
        """
        m = p**aprec
        value %= m
        if value == 0:
            return cls(p, aprec, 0, 0)
        v = vp_int(value, p)
        return cls(p, v, (value // p**v) % p ** (aprec - v), aprec - v)

    # -- structure ---------------------------------------------------------

    @property
    def aprec(self) -> int | None:
        """Absolute precision; None means infinite (exact zero)."""
        if self.zero_flag:
            return None
        return self.valuation + self.digits

    def lift(self, aprec: int) -> int:
        """Integer congruent to the value modulo ``p**aprec`` (requires valuation >= 0)."""
        if self.zero_flag:
            return 0
        if self.valuation < 0:
            raise BadParameter("lift requires a p-adic integer")
        if self.aprec is not None and self.aprec < aprec:
            raise InsufficientPrecision(
                f"value known mod p^{self.aprec}, lift mod p^{aprec} requested"
            )
        return self.unit * self.prime**self.valuation % self.prime**aprec

    def render(self, e: int) -> str:
        """The value as known modulo p**e: "p^v * u mod p^e"."""
        if self.zero_flag:
            return "0"
        p, v = self.prime, self.valuation
        if self.digits == 0 or v >= e:
            return f"0 mod {p}^{e}"
        return f"{p}^{v} * {self.unit % p ** (e - v)} mod {p}^{e}"

    # -- arithmetic --------------------------------------------------------

    def _require_same_prime(self, other: "PAdic") -> None:
        if self.prime != other.prime:
            raise BadParameter("operands have different primes")

    def __neg__(self) -> "PAdic":
        if self.zero_flag:
            return self
        if self.digits == 0:
            return self
        m = self.prime**self.digits
        return PAdic(self.prime, self.valuation, (-self.unit) % m, self.digits)

    def __add__(self, other: "PAdic") -> "PAdic":
        self._require_same_prime(other)
        p = self.prime
        if self.zero_flag:
            return other
        if other.zero_flag:
            return self
        aprec = min(self.aprec, other.aprec)  # type: ignore[type-var]
        base = min(self.valuation, other.valuation)
        mod = p ** (aprec - base)
        s = (
            self.unit * p ** (self.valuation - base)
            + other.unit * p ** (other.valuation - base)
        ) % mod
        if s == 0:
            if self.digits == 0 and other.digits == 0:
                return PAdic(p, aprec, 0, 0)
            raise PrecisionExhausted(
                f"all digits cancelled below p^{aprec}; value not provably zero"
            )
        v = vp_int(s, p)
        digits = aprec - base - v
        return PAdic(p, base + v, (s // p**v) % p**digits, digits)

    def __sub__(self, other: "PAdic") -> "PAdic":
        return self + (-other)

    def __mul__(self, other: "PAdic") -> "PAdic":
        self._require_same_prime(other)
        p = self.prime
        if self.zero_flag or other.zero_flag:
            return PAdic.zero(p)
        v = self.valuation + other.valuation
        if self.digits == 0 or other.digits == 0:
            # product of a bounded zero: only divisibility information survives
            return PAdic(p, v + min(self.digits, other.digits), 0, 0)
        digits = min(self.digits, other.digits)
        m = p**digits
        return PAdic(p, v, self.unit * other.unit % m, digits)

    def invert(self) -> "PAdic":
        if self.zero_flag:
            raise DivisionByZero("cannot invert the exact zero")
        if self.digits == 0:
            raise PrecisionExhausted("cannot invert a value with no known digits")
        m = self.prime**self.digits
        return PAdic(self.prime, -self.valuation, pow(self.unit, -1, m), self.digits)

    def shift(self, j: int) -> "PAdic":
        """Multiply by p**j (exact)."""
        if self.zero_flag:
            return self
        return PAdic(self.prime, self.valuation + j, self.unit, self.digits)

    def scale(self, c: int | Fraction, den: int = 1) -> "PAdic":
        """Multiply by the exact rational c/den without losing digits."""
        if not c:
            return PAdic.zero(self.prime)
        if self.zero_flag:
            return self
        p = self.prime
        vc, num, den = _split(c, p, den)
        if self.digits == 0:
            return PAdic(p, self.valuation + vc, 0, 0)
        m = p**self.digits
        unit = self.unit * num * pow(den, -1, m) % m
        return PAdic(p, self.valuation + vc, unit, self.digits)

    def __pow__(self, e: int) -> "PAdic":
        if e < 0:
            return self.invert() ** (-e)
        out = PAdic.from_rational(1, p=self.prime, digits=max(self.digits, 1))
        for _ in range(e):
            out = out * self
        return out


# the slots' own setters: __init__ writes the fields through them, past the
# __setattr__ that makes instances immutable, at less cost per field than
# object.__setattr__
_set_prime, _set_valuation, _set_unit, _set_digits, _set_zero_flag = (
    PAdic.__dict__[name].__set__ for name in PAdic.__slots__
)


def _require_known(z: PAdic, e: int) -> None:
    if not z.zero_flag and z.valuation + z.digits < e:
        raise InsufficientPrecision(
            f"operand known mod p^{z.valuation + z.digits}, congruence mod p^{e} requested"
        )


def congruent_mod(x: PAdic, y: PAdic, e: int) -> bool:
    """True iff v_p(x - y) >= e.

    Both operands must be known modulo p**e; otherwise the caller has a
    precision-planning bug and InsufficientPrecision is raised.
    """
    if x.prime != y.prime:
        raise BadParameter("operands have different primes")
    _require_known(x, e)
    _require_known(y, e)
    p = x.prime
    # an exact or bounded zero reads as 0; the others as unit * p**(v - base),
    # base the lowest of their valuations and 0
    xu = 0 if x.zero_flag else x.unit
    yu = 0 if y.zero_flag else y.unit
    base = min(0, x.valuation if xu else 0, y.valuation if yu else 0)
    xi = xu * p ** (x.valuation - base) if xu else 0
    yi = yu * p ** (y.valuation - base) if yu else 0
    return (xi - yi) % p ** (e - base) == 0
