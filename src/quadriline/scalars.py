"""Exact scalars: unbounded rationals and odd prime fields, on ints.

A value is an int, or a :class:`Ratio` of two ints, from the literal to the
printed text: the layers above compute on ints over both fields, reducing mod p
over F_p (``field.char`` is p, and 0 over the rationals), and no value is a
field element.  A field parses literals to ints and takes int square roots.
Characteristic 2 is rejected outright: midpoints and the reflection step of
normalization both need division by 2.

A :class:`Ratio` is a point of the projective line: a slope, an aspect ratio
or any exact value a report prints, stored as two canonical ints, which makes
equality and hashing structural.  Literals are ASCII, each part read by one int().
"""

from __future__ import annotations

import math
import re
import sys
from functools import cached_property
from typing import Optional

from .errors import FieldError, ParseError, PreconditionError

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z", re.ASCII)
_INT_RE = re.compile(r"([+-]?\d+)\Z", re.ASCII)
_RATIO_RE = re.compile(r"([+-]?\d+)(?:/([+-]?\d+))?\Z", re.ASCII)


def _ints(regex, kind: str, text: str) -> list:
    """The int of each part of the literal ``text.strip()``, 1 for a missing denominator;
    "not {kind} literal" when ``regex`` does not match it."""
    text = text.strip()
    match = regex.match(text)
    if not match:
        raise ParseError(f"not {kind} literal: {text!r}")
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


# psi_k (OEIS A014233) is the least strong pseudoprime to the first k prime bases, so
# Miller-Rabin to them is exact below psi_k (Sorenson and Webster, "Strong pseudoprimes
# to twelve prime bases", 2015); psi_12 fools every prime base up to 37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
        341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
        318665857834031151167461, 3317044064679887385961981)
PSI_13 = _PSI[12]

# Largest prime a census runs at, and whose tables a PrimeField builds.  At p = 59,999
# one census, end to end, takes 0.92 s and 113 MB on the configs/cfg1.json lines and
# 1.2 s and 140 MB on the degenerate configs/cfg2.json lines (2p + 1 rectangles), on
# a 2-vCPU x86-64 VM with Python 3.11: time and memory grow about linearly in p.
MAX_CENSUS_PRIME = 60_000


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

    def parse(self, text: str) -> tuple:
        """The literal "n" or "n/d" as its canonical ints (n, d): coprime, with d > 0."""
        n, d = _ints(_RATIONAL_RE, "a rational", text)
        if not d:
            raise ParseError(f"zero denominator in literal {text.strip()!r}")
        g = math.gcd(n, d)
        return n // g, d // g

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
        # The least quadratic non-residue, which sqrt needs, found once per field.
        n = 2
        while pow(n, (p - 1) // 2, p) != p - 1:
            n += 1
        self.non_residue = n

    def parse(self, text: str) -> tuple:
        """The integer literal n as (n mod p, 1), the pair that ``RationalField.parse`` gives."""
        return _ints(_INT_RE, "an integer", text)[0] % self.p, 1

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

    @cached_property
    def tables(self) -> tuple:
        """(inverses, roots), built at the first read: the inverse of each residue x (0 at
        0), by x^-1 = -(p // x) (p mod x)^-1 in p steps, and the dict of :meth:`sqrt` of
        each square, from r = 0, ..., p // 2, where each square has its one least root."""
        p, inverses = self.p, [0, 1]
        if p > MAX_CENSUS_PRIME:
            raise PreconditionError(f"no tables mod {p}: they are built up to {MAX_CENSUS_PRIME}")
        for x in range(2, p):
            inverses.append(-(p // x) * inverses[p % x] % p)
        return inverses, {r * r % p: r for r in range(p // 2 + 1)}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()


class Ratio:
    """The point s : t of the projective line over ``field``, for two ints s and t not
    both zero in the field.  It keeps the canonical ints: coprime with t > 0 over the
    rationals, (v, 1) for a residue v over F_p, and (1, 0).  ``str`` is its
    :func:`ratio_text`."""

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

    def __eq__(self, other):
        same_field = isinstance(other, Ratio) and self.field == other.field
        return same_field and (self.s, self.t) == (other.s, other.t)

    def __hash__(self):
        return hash((self.s, self.t))

    def __str__(self):
        return ratio_text(self.field.char, self.s, self.t)

    def __repr__(self):
        return f"Ratio({self.field!r}, {self.s}, {self.t})"


def digit_limit_error() -> PreconditionError:
    """The error of a report value whose int is past the int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    return PreconditionError(f"a report value past {limit} digits cannot be written")


def ratio_text(p: int, s: int, t: int) -> str:
    """The report text of s : t, ints not both zero in the field of characteristic p:
    "s/t" or "s" reduced with t > 0 over ℚ, the residue s / t over F_p (no inverse for
    t = 1) and "1/0"; an int past the int-to-str digit limit raises digit_limit_error()."""
    try:
        if t == 1:
            return str(s % p if p else s)
        if p:
            return str(s * pow(t, -1, p) % p) if t % p else "1/0"
        g = math.gcd(s, t) if t > 0 else -math.gcd(s, t)
        return "1/0" if not t else str(s // g) if t == g else f"{s // g}/{t // g}"
    except ValueError:
        raise digit_limit_error() from None


def ratio_parse(text: str, field) -> Ratio:
    """Parse 's/t' (integer numerator and denominator) or a single integer s, as s : 1."""
    return Ratio(field, *_ints(_RATIO_RE, "a ratio", text))
