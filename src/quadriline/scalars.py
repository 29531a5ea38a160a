"""Exact scalar arithmetic: unbounded rationals and odd prime fields.

Rational values are plain :class:`fractions.Fraction`; prime-field values are
:class:`FpElement`.  Both support ``+ - * / **``, exact equality and truthiness
(zero is falsy), so every layer above this one is written once and runs over
either field.  Characteristic 2 is rejected outright: midpoints and the
reflection step of normalization both need division by 2.

A :class:`Ratio` is a point of the projective line, used for slopes and aspect
ratios.  It is stored in canonical form (last nonzero entry scaled to 1), which
makes equality and hashing structural.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import FieldError, ParseError

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")


def _too_many_digits(text: str) -> ParseError:
    """The error for a literal past int()'s digit limit: the one ValueError of a matched literal."""
    digits = max(len(run) for run in re.findall(r"\d+", text))
    return ParseError(
        f"a number of {digits} digits: at most {sys.get_int_max_str_digits()} are supported"
    )


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


# Miller-Rabin to the 13 prime bases 2..41 is exact below psi_13
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015).
# Twelve bases are not enough there: psi_12 = 318665857834031151167461 is a
# strong pseudoprime to every prime base up to 37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def _is_odd_prime(n):
    """Whether n is an odd prime, exactly for n < psi_13, in O(log n) products mod n."""
    if n < 3 or n % 2 == 0:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    e = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^e * q with q odd
    q = (n - 1) >> e
    for a in _MR_BASES:
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
        if not _RATIONAL_RE.match(text):
            raise ParseError(f"not a rational literal: {text!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in literal {text!r}") from None
        except ValueError:
            raise _too_many_digits(text) from None

    def sqrt(self, x: int) -> Optional[int]:
        """The square root of the int x, or None when x is not a square in the field."""
        if x < 0:
            return None
        r = math.isqrt(x)
        return r if r * r == x else None

    def elements(self):
        raise FieldError("cannot enumerate the rationals")

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
        if not _INT_RE.match(text):
            raise ParseError(f"not an integer literal: {text!r}")
        try:
            return FpElement(int(text), self)
        except ValueError:
            raise _too_many_digits(text) from None

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

    def elements(self):
        return (FpElement(v, self) for v in range(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()


@dataclass(frozen=True)
class Ratio:
    """A point [num : den] of the projective line over the working field.

    Canonical form: the last nonzero entry is 1, i.e. affine ratios are stored
    as (value, 1) and the infinite ratio as (1, 0).  Use :meth:`of` rather
    than the raw constructor so canonicalization always runs.
    """

    num: object
    den: object

    @staticmethod
    def of(num, den) -> "Ratio":
        """num : den for field elements; ints raise TypeError (see :meth:`from_ints`)."""
        if isinstance(num, int) or isinstance(den, int):
            raise TypeError("Ratio.of takes field elements, not ints")
        if den:
            return Ratio(num / den, den / den)
        if num:
            return Ratio(num / num, den)
        raise ParseError("0/0 is not a point of the projective line")

    @staticmethod
    def from_ints(field, s: int, t: int) -> "Ratio":
        """The ratio s : t of two ints in the field, with one quotient."""
        p = field.char
        if t % p if p else t:
            return Ratio(field.quotient(s, t), field.one())
        if s % p if p else s:
            return Ratio(field.one(), field.zero())
        raise ParseError("0/0 is not a point of the projective line")

    @property
    def is_infinite(self) -> bool:
        return not self.den

    def __str__(self):
        if not self.den:
            return "1/0"
        return str(self.num)


def ratio_parse(text: str, field) -> Ratio:
    """Parse 's/t' (integer numerator and denominator) or a single scalar."""
    text = text.strip()
    if "/" in text:
        parts = text.split("/")
        if len(parts) == 2 and _INT_RE.match(parts[0]) and _INT_RE.match(parts[1]):
            return Ratio.of(field.parse(parts[0]), field.parse(parts[1]))
    if _INT_RE.match(text):
        return Ratio.of(field.parse(text), field.one())
    raise ParseError(f"not a ratio literal: {text!r}")
