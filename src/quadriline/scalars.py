"""Exact scalar arithmetic: unbounded rationals and odd prime fields.

Rational values are plain :class:`fractions.Fraction`; prime-field values are
:class:`FpElement`.  Both support ``+ - * / **``, exact equality and truthiness
(zero is falsy), so every layer above this one is written once and runs over
either field.  Characteristic 2 is rejected outright: midpoints and the
reflection step of normalization both need division by 2.

A :class:`Ratio` is a point of the projective line: a slope, an aspect ratio
or any exact value a report prints, stored as two canonical ints, which makes
equality and hashing structural.  Literals are ASCII, each part read by one int().
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Optional

from .errors import FieldError, ParseError

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z", re.ASCII)
_INT_RE = re.compile(r"([+-]?\d+)\Z", re.ASCII)
_RATIO_RE = re.compile(r"([+-]?\d+)(?:/([+-]?\d+))?\Z", re.ASCII)


def _ints(match) -> list:
    """The int of each part of a matched literal, 1 for a missing denominator."""
    try:
        return [int(part) for part in match.groups("1")]
    except ValueError:
        digits = max(len(part.lstrip("+-")) for part in match.groups(""))
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"a number of {digits} digits: at most {limit} are supported") from None


class Record:
    """A value: the annotated fields of its class and of its bases, set once by position
    or keyword (a field not given reads its class-level default) and compared and hashed
    by type and field values; ``vars`` lists the fields given, in the order given."""

    _fields = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        self.__dict__.update(zip(self._fields, args), **kwargs)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}{self._values()!r}"


class FpElement:
    """Canonical residue in [0, p), with field arithmetic via operators."""

    __slots__ = ("value", "field")

    def __init__(self, value, field):
        self.value = value % field.p
        self.field = field

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.field.p != self.field.p:
                raise FieldError("mixed moduli %d and %d" % (self.field.p, other.field.p))
            return other.value
        if isinstance(other, int):
            return other
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value + v, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value - v, self.field)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.value, self.field)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value * v, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        v %= self.field.p
        if v == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.field.p)
        return FpElement(self.value * pow(v, -1, self.field.p), self.field)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.field.p)
        inv = pow(self.value, -1, self.field.p)
        return FpElement(v * inv, self.field)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        return FpElement(pow(self.value, exponent, self.field.p), self.field)

    def __neg__(self):
        return FpElement(-self.value, self.field)

    def __eq__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return self.value == v % self.field.p

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"FpElement({self.value} mod {self.field.p})"


# psi_k (OEIS A014233) is the least strong pseudoprime to the first k prime bases, so
# Miller-Rabin to them is exact below psi_k (Sorenson and Webster, "Strong pseudoprimes
# to twelve prime bases", 2015); psi_12 fools every prime base up to 37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
        341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
        318665857834031151167461, 3317044064679887385961981)
PSI_13 = _PSI[12]


def _is_odd_prime(n):
    """Whether n is an odd prime, exactly for n < psi_13: Miller-Rabin to the first k bases."""
    if n < 3 or n % 2 == 0:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    e = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^e * q with q odd
    q = (n - 1) >> e
    for a in _MR_BASES[: 1 + sum(n >= psi for psi in _PSI[:12])]:
        x = pow(a, q, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(e - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of arbitrary-precision rationals."""

    char = 0
    _zero, _one = Fraction(0), Fraction(1)  # Fractions are immutable: one of each serves

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def quotient(self, n, d) -> Fraction:
        """n / d for ints or Fractions n and d, d nonzero."""
        return Fraction(n, d)

    def parse(self, text: str) -> Fraction:
        text = text.strip()
        match = _RATIONAL_RE.match(text)
        if not match:
            raise ParseError(f"not a rational literal: {text!r}")
        n, d = _ints(match)
        if not d:
            raise ParseError(f"zero denominator in literal {text!r}")
        return Fraction(n, d)

    def sqrt(self, x: int) -> Optional[int]:
        """The square root of the int x, or None when x is not a square in the field."""
        if x < 0:
            return None
        r = math.isqrt(x)
        return r if r * r == x else None

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """The field F_p for an odd prime p."""

    def __init__(self, p: int):
        if p == 2:
            raise FieldError("characteristic 2 is not supported")
        if p >= PSI_13:
            raise FieldError(
                f"modulus {p} is too large: only odd primes below {PSI_13} are supported"
            )
        if not _is_odd_prime(p):
            raise FieldError(f"modulus {p} is not an odd prime")
        self.p = p
        self.char = p
        # The least quadratic non-residue, for sqrt.  It is stored at
        # construction: a field's attribute set stays fixed, which keeps the
        # attribute loads of FpElement arithmetic on their fast path.
        n = 2
        while pow(n, (p - 1) // 2, p) != p - 1:
            n += 1
        self.non_residue = n

    def zero(self):
        return FpElement(0, self)

    def one(self):
        return FpElement(1, self)

    def from_int(self, n: int) -> FpElement:
        return FpElement(n, self)

    def quotient(self, n: int, d: int) -> FpElement:
        """n / d for ints n and d, with one inverse of d mod p; d = 0 mod p raises."""
        if not d % self.p:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(n * pow(d, -1, self.p), self)

    def parse(self, text: str) -> FpElement:
        text = text.strip()
        match = _INT_RE.match(text)
        if not match:
            raise ParseError(f"not an integer literal: {text!r}")
        return FpElement(*_ints(match), self)

    def sqrt(self, x: int) -> Optional[int]:
        """The least square root r <= p // 2 of the int x mod p, or None when x is
        not a square mod p.

        Euler's criterion rejects non-squares; Tonelli-Shanks (Cohen, *A Course
        in Computational Algebraic Number Theory*, Alg. 1.5.1) finds a root in
        O(log^2 p) multiplications mod p, with the quadratic non-residue it
        needs found once per field (``non_residue``).
        """
        p, a = self.p, x % self.p
        if a == 0:
            return 0
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        e = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^e * q with q odd
        q = (p - 1) >> e
        y = pow(self.non_residue, q, p)  # generates the 2-Sylow subgroup of F_p^*
        r = pow(a, (q + 1) // 2, p)
        b = pow(a, q, p)  # r^2 = a * b, with b in the 2-Sylow subgroup
        while b != 1:
            m, b2 = 0, b
            while b2 != 1:
                b2 = b2 * b2 % p
                m += 1
            t = pow(y, 1 << (e - m - 1), p)
            y = t * t % p
            e = m
            r = r * t % p
            b = b * y % p
        return min(r, p - r)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()


class Ratio:
    """The point s : t of the projective line over ``field``, for two ints s and t, or
    for field elements through :meth:`of`.  It keeps the canonical ints: coprime with
    t > 0 over the rationals, (v, 1) for a residue v over F_p, and (1, 0).  ``num`` and
    ``den`` are field elements; ``str`` is the report text of every exact value:
    "1/0", "s/t" or "s"."""

    __slots__ = ("field", "s", "t")

    def __init__(self, field, s: int, t: int):
        p = field.char
        if p and t % p:
            s, t = s * pow(t, -1, p) % p, 1
        elif not p and t:
            g = math.gcd(s, t) if t > 0 else -math.gcd(s, t)
            s, t = s // g, t // g
        elif s % p if p else s:
            s, t = 1, 0
        else:
            raise ParseError("0/0 is not a point of the projective line")
        self.field, self.s, self.t = field, s, t

    @staticmethod
    def of(num, den) -> "Ratio":
        """num : den for field elements; ints raise TypeError (see ``Ratio(field, s, t)``)."""
        if isinstance(num, int) or isinstance(den, int):
            raise TypeError("Ratio.of takes field elements, not ints")
        if isinstance(num, FpElement):
            return Ratio(num.field, num.value, num._coerce(den))
        return Ratio(QQ, num.numerator * den.denominator, den.numerator * num.denominator)

    @property
    def num(self):
        return self.field.quotient(self.s, self.t) if self.t else self.field.one()

    @property
    def den(self):
        return self.field.one() if self.t else self.field.zero()

    def __eq__(self, other):
        same_field = isinstance(other, Ratio) and self.field == other.field
        return same_field and (self.s, self.t) == (other.s, other.t)

    def __hash__(self):
        return hash((self.s, self.t))

    def __str__(self):
        return str(self.s) if self.t == 1 else f"{self.s}/{self.t}" if self.t else "1/0"

    def __repr__(self):
        return f"Ratio(num={self.num!r}, den={self.den!r})"


def ratio_parse(text: str, field) -> Ratio:
    """Parse 's/t' (integer numerator and denominator) or a single integer s, as s : 1."""
    text = text.strip()
    match = _RATIO_RE.match(text)
    if not match:
        raise ParseError(f"not a ratio literal: {text!r}")
    return Ratio(field, *_ints(match))
