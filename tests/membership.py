"""The paper's defining conditions of a rectangle, as an independent check.

A point [x_A : y_A : ... : x_D : y_D : w] of projective 8-space is in the
configuration space when each vertex lies on its scaled line
y = m_L x + b_L w; it is a parallelogram when x_A - x_B = x_D - x_C and
y_A - y_B = y_D - y_C, and a rectangle when, moreover, AB is orthogonal to BC.
The rectangles of a given slope or aspect solve a 2x2 linear membership
system.  The library builds rectangles only from the closed-form paths and
the census; the tests check both against these definitions.  The slope,
aspect ratio and center of a point are read here through field elements, the
reference for the library's reads off canonical residues.  Normalization to
standing form is here too, in field elements throughout: the reference for the
library's normalization on integer covectors.  So are the path forms, the
at-infinity forms and the locus conic in field elements, the reference for the
library's int forms on the integer standing form, and the canonical key of a
rational point as nine Fractions, the reference for its primitive integer key.
The standing lines and the roots of a binary quadratic form are here in field
elements too, the references for the library's corners and at-infinity roots
on ints.  Every reference reads the standing constants in field elements
through :func:`constants`, the quotients of the library's standing ints.

The field elements themselves are here: :class:`FpElement` and ``Fraction``,
through :func:`zero_of`, :func:`one_of`, :func:`from_int`, :func:`quotient` and
:func:`parse`, the reference literal reader, with :func:`covector`, whose one-lcm
clearing of a :class:`Line` of them is the reference for the ints that
``cli.load_config`` reads.  :func:`ratio_of`, :func:`num` and :func:`den` go
between them and the library's ``Ratio`` of two ints, and :func:`vertex` and
:func:`w_of` read a point's coordinates as field elements.  The library keeps
no field element: every value it computes is an int or a ``Ratio``.
"""

from __future__ import annotations

import itertools
import math
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from quadriline import hpoly
from quadriline.configuration import (
    ROLES,
    ConfigurationInput,
    NormalizedConfig,
    adjugate,
    cross,
)
from quadriline.errors import (
    AllParallelError,
    AtInfinityError,
    ConcurrentLinesError,
    FieldError,
    InternalCheckError,
    ParseError,
    PreconditionError,
    ReflectionUnavailableError,
)
from quadriline.paths import PathPolynomials
from quadriline.rectangles import ALL_RATIOS, INDETERMINATE, ProjectiveRectangle
from quadriline.scalars import _INT_RE, _RATIONAL_RE, QQ, _ints, Ratio


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
        return FpElement(v * pow(self.value, -1, self.field.p), self.field)

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


def from_int(field, n: int):
    """The int n as a field element: a Fraction over the rationals, an FpElement over F_p."""
    return FpElement(n, field) if field.char else Fraction(n)


def elements(field):
    """The p elements of the prime field F_p, in the order of their residues."""
    return [FpElement(v, field) for v in range(field.char)]


def zero_of(field):
    return from_int(field, 0)


def one_of(field):
    return from_int(field, 1)


def quotient(field, n, d):
    """n / d in field elements for ints (or Fractions over the rationals) n and d; d = 0
    in the field raises ZeroDivisionError."""
    if field.char:
        if not d % field.char:
            raise ZeroDivisionError("division by zero in F_%d" % field.char)
        return FpElement(n * pow(d, -1, field.char), field)
    return Fraction(n, d)


def parse(field, text: str):
    """A literal as one field element, with the library's grammar and messages: "n" or
    "n/d" over the rationals, "n" over F_p."""
    if field.char:
        return FpElement(*_ints(_INT_RE, "an integer", text), field)
    n, d = _ints(_RATIONAL_RE, "a rational", text)
    if not d:
        raise ParseError(f"zero denominator in literal {text.strip()!r}")
    return Fraction(n, d)


class Line(NamedTuple):
    """The line a x + b y = c with a, b and c field elements."""

    a: object
    b: object
    c: object


def covector(field, line: Line) -> tuple:
    """The covector (a, b, -c) of a line of field elements as three ints, up to a
    nonzero factor: the residues over F_p, cleared by one lcm over the rationals."""
    a, b, c = line
    if field.char:
        return a.value, b.value, -c.value
    m = math.lcm(a.denominator, b.denominator, c.denominator)
    return (a.numerator * (m // a.denominator), b.numerator * (m // b.denominator),
            -c.numerator * (m // c.denominator))


def field_line(field, line) -> Line:
    """An int ``InputLine`` as a line of field elements."""
    return Line(from_int(field, line.a), from_int(field, line.b), from_int(field, line.c))


def ratio_of(num, den) -> Ratio:
    """num : den for field elements; ints raise TypeError (an int / int is a float)."""
    if isinstance(num, int) or isinstance(den, int):
        raise TypeError("ratio_of takes field elements, not ints")
    if isinstance(num, FpElement):
        return Ratio(num.field, num.value, num._coerce(den))
    return Ratio(QQ, num.numerator * den.denominator, den.numerator * num.denominator)


def num(r: Ratio):
    """The numerator of r as a field element, at the scale where the denominator is 1 or 0."""
    return quotient(r.field, r.s, r.t) if r.t else one_of(r.field)


def den(r: Ratio):
    return one_of(r.field) if r.t else zero_of(r.field)


def value(r: Ratio):
    """The affine Ratio r as one field element."""
    return quotient(r.field, r.s, r.t)


def coordinates(p: ProjectiveRectangle) -> list:
    """The nine coordinates of p as field elements, at the scale where its pivot is 1."""
    field, key = p.field, p.key
    if field.char:
        return [FpElement(c, field) for c in key]
    pivot = next(c for c in reversed(key) if c)
    return [Fraction(c, pivot) for c in key]


def vertex(p: ProjectiveRectangle, role: str) -> tuple:
    i = 2 * ROLES.index(role)
    return tuple(coordinates(p)[i : i + 2])


def w_of(p: ProjectiveRectangle):
    return coordinates(p)[8]


class Solution2(NamedTuple):
    """Solution set of a 2x2 linear system.

    kind is one of "unique", "none", "line", "all".  For "line" the set is
    {particular + k * direction}; for a homogeneous system the particular
    part is the zero vector.
    """

    kind: str
    particular: Optional[tuple]
    direction: Optional[tuple]


def solve2(m00, m01, m10, m11, b0, b1) -> Solution2:
    det = m00 * m11 - m01 * m10
    if det:
        x0 = (b0 * m11 - b1 * m01) / det
        x1 = (m00 * b1 - m10 * b0) / det
        return Solution2("unique", (x0, x1), None)
    rows = []
    for a, b, c in ((m00, m01, b0), (m10, m11, b1)):
        if not a and not b:
            if c:
                return Solution2("none", None, None)
        else:
            rows.append((a, b, c))
    if not rows:
        return Solution2("all", None, None)
    if len(rows) == 2:
        (a1, b1_, c1), (a2, b2_, c2) = rows
        # Rows are proportional (det = 0); the right sides must match scale.
        if a1 * c2 - a2 * c1 or b1_ * c2 - b2_ * c1:
            return Solution2("none", None, None)
    a, b, c = rows[0]
    if a:
        particular = (c / a, c - c)
    else:
        particular = (c - c, c / b)
    return Solution2("line", particular, (-b, a))


class Constants(NamedTuple):
    """The standing constants and the diagonal constants in field elements."""

    m_a: object
    m_b: object
    m_c: object
    m_d: object
    b_a: object
    e1: object
    e2: object
    f1: object
    f2: object


def constants(cfg: NormalizedConfig) -> Constants:
    """The field values of the standing ints (M_A, ..., B_A, δ, E1, E2, F1, F2):
    m_L and b_A over δ, e1, e2 and f2 over δ², f1 over δ³."""
    m_a, m_b, m_c, m_d, b_a, d, e1, e2, f1, f2 = cfg.standing
    field = cfg.field
    q = lambda n, d: quotient(field, n, d)
    return Constants(
        q(m_a, d), q(m_b, d), q(m_c, d), q(m_d, d), q(b_a, d),
        q(e1, d * d), q(e2, d * d), q(f1, d**3), q(f2, d * d),
    )


def standing_line(cfg: NormalizedConfig, role: str) -> Line:
    """The line y = m_L x + b_L of a role in field elements, with b_B = 1 and
    b_C = b_D = 0: so m_L is -a and b_L is c."""
    zero, one = zero_of(cfg.field), one_of(cfg.field)
    k = constants(cfg)
    m = {"A": k.m_a, "B": k.m_b, "C": k.m_c, "D": k.m_d}[role]
    b = {"A": k.b_a, "B": one, "C": zero, "D": zero}[role]
    return Line(-m, one, b)


def satisfies_membership(p: ProjectiveRectangle, cfg: NormalizedConfig) -> bool:
    for role in ROLES:
        x, y = vertex(p, role)
        line = standing_line(cfg, role)
        if line.a * x + line.b * y != line.c * w_of(p):
            return False
    return True


def is_parallelogram(p: ProjectiveRectangle) -> bool:
    xa, ya = vertex(p, "A")
    xb, yb = vertex(p, "B")
    xc, yc = vertex(p, "C")
    xd, yd = vertex(p, "D")
    return xa - xb == xd - xc and ya - yb == yd - yc


def evaluate(h, x_a, x_b, w):
    """The rectangle quadric h = (aa, ab, bb, aw, bw, ww) at the parameters (x_A, x_B, w)."""
    aa, ab, bb, aw, bw, ww = h
    return (
        aa * x_a * x_a + ab * x_a * x_b + bb * x_b * x_b
        + aw * x_a * w + bw * x_b * w + ww * w * w
    )


def complete_parallelogram(cfg: NormalizedConfig, x_a, x_b, w) -> ProjectiveRectangle:
    """The unique parallelogram in the configuration space over (x_A, x_B, w).

    x_C is forced to (m_AD x_A + m_DB x_B + (b_A - 1) w) / m_DC, then
    x_D = x_A - x_B + x_C and every y_L = m_L x_L + b_L w.  The result
    satisfies the parallelogram condition by construction; it need not be a
    rectangle.
    """
    if not x_a and not x_b and not w:
        raise PreconditionError("(x_A, x_B, w) must be a nonzero triple")
    one = one_of(cfg.field)
    m_a, m_b, m_c, m_d, b_a = constants(cfg)[:5]
    x_c = ((m_a - m_d) * x_a + (m_d - m_b) * x_b + (b_a - one) * w) / (m_d - m_c)
    x_d = x_a - x_b + x_c
    xs = {"A": x_a, "B": x_b, "C": x_c, "D": x_d}
    coords = []
    for role in ROLES:
        line = standing_line(cfg, role)
        coords.append(xs[role])
        coords.append(line.c * w - line.a * xs[role])
    coords.append(w)
    return ProjectiveRectangle.canonical(cfg.field, integer_forms(cfg.field, [coords])[0])


def is_rectangle(p: ProjectiveRectangle) -> bool:
    """Exact test of (x_C - x_B)(x_B - x_A) + (y_C - y_B)(y_B - y_A) = 0."""
    xa, ya = vertex(p, "A")
    xb, yb = vertex(p, "B")
    xc, yc = vertex(p, "C")
    return not ((xc - xb) * (xb - xa) + (yc - yb) * (yb - ya))


def has_slope(p: ProjectiveRectangle, r: Ratio) -> bool:
    """Does (s, t) = r satisfy both defining slope equations of p?"""
    xa, ya = vertex(p, "A")
    xb, yb = vertex(p, "B")
    xc, yc = vertex(p, "C")
    s, t = num(r), den(r)
    return not ((xb - xa) * s - (yb - ya) * t) and not ((yc - yb) * s + (xc - xb) * t)


def has_aspect(p: ProjectiveRectangle, r: Ratio) -> bool:
    xa, ya = vertex(p, "A")
    xb, yb = vertex(p, "B")
    xc, yc = vertex(p, "C")
    u, v = num(r), den(r)
    return not ((xb - xc) * u - (ya - yb) * v) and not ((yb - yc) * u + (xa - xb) * v)


def slope_of(p: ProjectiveRectangle):
    """The slope [s : t] solving both slope equations, read through field
    elements; INDETERMINATE when all four coefficients vanish."""
    xa, ya = vertex(p, "A")
    xb, yb = vertex(p, "B")
    xc, yc = vertex(p, "C")
    if xb - xa or yb - ya:
        return ratio_of(yb - ya, xb - xa)
    if yc - yb or xc - xb:
        return ratio_of(-(xc - xb), yc - yb)
    return INDETERMINATE


def aspect_of(p: ProjectiveRectangle):
    """The aspect ratio [u : v] solving both aspect equations, read through
    field elements; INDETERMINATE when all four coefficients vanish."""
    xa, ya = vertex(p, "A")
    xb, yb = vertex(p, "B")
    xc, yc = vertex(p, "C")
    if xb - xc or ya - yb:
        return ratio_of(ya - yb, xb - xc)
    if yb - yc or xa - xb:
        return ratio_of(-(xa - xb), yb - yc)
    return INDETERMINATE


def center_of(p: ProjectiveRectangle):
    """The affine center ((x_A + x_C) / 2w, (y_A + y_C) / 2w) in field elements."""
    if p.at_infinity:
        raise AtInfinityError("rectangle at infinity has no center")
    xa, ya = vertex(p, "A")
    xc, yc = vertex(p, "C")
    two_w = 2 * w_of(p)
    return (xa + xc) / two_w, (ya + yc) / two_w


def slope_system(cfg: NormalizedConfig, r: Ratio):
    """Matrix M and vector U of the slope membership system M (x_A, x_B) = w U.

    det M equals the at-infinity slope form evaluated at r.
    """
    s, t = num(r), den(r)
    one = one_of(cfg.field)
    m_a, m_b, m_c, m_d, b_a = constants(cfg)[:5]
    m = (
        s - m_a * t,
        m_b * t - s,
        (m_a - m_d) * (m_c * s + t),
        (m_c - m_b) * (m_d * s + t),
    )
    u = (
        (b_a - one) * t,
        (m_d * s + t) - b_a * (m_c * s + t),
    )
    return m, u


def aspect_system(cfg: NormalizedConfig, r: Ratio):
    """Matrix M and vector U for membership at a given aspect ratio.

    det M equals m_CD times the at-infinity aspect form at r.
    """
    u_, v_ = num(r), den(r)
    one = one_of(cfg.field)
    m_a, m_b, m_c, m_d, b_a = constants(cfg)[:5]
    m_cd = m_c - m_d
    m_dc = -m_cd
    m = (
        (m_d - m_a) * u_ + m_a * m_cd * v_,
        (m_b - m_c) * u_ + m_b * m_dc * v_,
        m_c * (m_d - m_a) * u_ + m_dc * v_,
        m_d * (m_b - m_c) * u_ + m_cd * v_,
    )
    # First right-side entry is (b_A - 1)(u - m_CD v): expanding the defining
    # aspect equations for a completed parallelogram fixes this sign.
    u = (
        (b_a - one) * (u_ - m_cd * v_),
        (b_a * m_c - m_d) * u_,
    )
    return m, u


@dataclass(frozen=True)
class Fiber:
    """Rectangles matching a requested slope or aspect at a given scale.

    Over a prime field the list is exhaustive.  Over the rationals a
    positive-dimensional solution family cannot be listed; representatives
    are returned and ``exhaustive`` is False.
    """

    rectangles: tuple
    exhaustive: bool


def _build(cfg, x_a, x_b, w) -> ProjectiveRectangle:
    p = complete_parallelogram(cfg, x_a, x_b, w)
    if not is_rectangle(p):
        raise InternalCheckError("membership system produced a non-rectangle")
    return p


def _fiber_from_solution(cfg, sol, w) -> Fiber:
    field = cfg.field
    zero, one = zero_of(field), one_of(field)
    if sol.kind == "none":
        return Fiber((), True)
    if sol.kind == "unique":
        x0, x1 = sol.particular
        if not w and not x0 and not x1:
            # The zero triple is not a projective point: no rectangle of this
            # ratio lives at infinity.
            return Fiber((), True)
        return Fiber((_build(cfg, x0, x1, w),), True)
    if sol.kind == "line":
        if not w:
            # Homogeneous system with a 1-dimensional kernel: one projective
            # point, spanned by the direction.
            d0, d1 = sol.direction
            return Fiber((_build(cfg, d0, d1, w),), True)
        if field.char:
            rects = []
            for k in elements(field):
                x0 = sol.particular[0] + k * sol.direction[0]
                x1 = sol.particular[1] + k * sol.direction[1]
                rects.append(_build(cfg, x0, x1, w))
            return Fiber(tuple(rects), True)
        reps = []
        for k in (zero, one):
            x0 = sol.particular[0] + k * sol.direction[0]
            x1 = sol.particular[1] + k * sol.direction[1]
            reps.append(_build(cfg, x0, x1, w))
        return Fiber(tuple(reps), False)
    # sol.kind == "all": every (x_A, x_B) works.
    if not w:
        if field.char:
            rects = [_build(cfg, k, one, w) for k in elements(field)]
            rects.append(_build(cfg, one, zero, w))
            return Fiber(tuple(rects), True)
        reps = (
            _build(cfg, one, zero, w),
            _build(cfg, zero, one, w),
            _build(cfg, one, one, w),
        )
        return Fiber(reps, False)
    if field.char:
        rects = [
            _build(cfg, x0, x1, w)
            for x0 in elements(field)
            for x1 in elements(field)
        ]
        return Fiber(tuple(rects), True)
    reps = (
        _build(cfg, zero, zero, w),
        _build(cfg, one, zero, w),
        _build(cfg, zero, one, w),
    )
    return Fiber(reps, False)


def rectangle_from_slope(cfg: NormalizedConfig, r: Ratio, w) -> Fiber:
    """All rectangles of slope r at scale w (an empty fiber when none exist).

    When the system matrix is invertible there is exactly one; a singular
    matrix yields either the projective kernel solutions (w = 0), an
    inconsistent system (empty), or a family (degenerate configurations at
    the shared slope).
    """
    m, u = slope_system(cfg, r)
    sol = solve2(m[0], m[1], m[2], m[3], w * u[0], w * u[1])
    return _fiber_from_solution(cfg, sol, w)


def rectangle_from_aspect(cfg: NormalizedConfig, r: Ratio, w) -> Fiber:
    """All rectangles of aspect ratio r at scale w."""
    m, u = aspect_system(cfg, r)
    sol = solve2(m[0], m[1], m[2], m[3], w * u[0], w * u[1])
    return _fiber_from_solution(cfg, sol, w)


def _slope_intercept(line: Line):
    """(m, k) with y = m*x + k; requires a non-vertical line."""
    if not line.b:
        raise PreconditionError("vertical line has no slope-intercept form")
    return -line.a / line.b, line.c / line.b


def _image(line: Line, m) -> Line:
    """The line with covector (a, b, -c) m, for the line a x + b y = c, in field elements."""
    a, b, c = (line.a * u + line.b * v - line.c * w for u, v, w in zip(*m))
    return Line(a, b, -c)


def _meet(line1: Line, line2: Line) -> tuple:
    """The meet (X : Y : Z) of two lines in field elements: their covectors (a, b, -c) crossed."""
    return cross((line1.a, line1.b, -line1.c), (line2.a, line2.b, -line2.c))


def intersection(line1: Line, line2: Line):
    """The affine meet (X / Z, Y / Z) of two lines in field elements, or None for parallel lines."""
    x, y, z = _meet(line1, line2)
    return (x / z, y / z) if z else None


def _labeling(pair1, pair2, swaps):
    s1, s2, sr = swaps
    p1 = tuple(reversed(pair1)) if s1 else tuple(pair1)
    p2 = tuple(reversed(pair2)) if s2 else tuple(pair2)
    labels1 = ("C", "A") if s1 else ("A", "C")
    labels2 = ("D", "B") if s2 else ("B", "D")
    if sr:
        p1, p2 = p2, p1
        labels1, labels2 = labels2, labels1
    lines = {"A": p1[0], "C": p1[1], "B": p2[0], "D": p2[1]}
    role_to_input = {"A": labels1[0], "C": labels1[1], "B": labels2[0], "D": labels2[1]}
    return lines, role_to_input


def _labeling_valid(lines: dict) -> bool:
    """C not parallel to D, and B not through C∩D (so B is not D either)."""
    origin = intersection(lines["C"], lines["D"])
    b = lines["B"]
    return origin is not None and b.a * origin[0] + b.b * origin[1] != b.c


def _pick_reflection(field, lines):
    """Smallest t in 1, 2, ... whose reflection about y = t x leaves no line vertical."""
    one = one_of(field)
    for i in range(1, field.char or 10):
        t = from_int(field, i)
        if not one + t * t:
            continue
        if all(2 * t * ln.a + (t * t - one) * ln.b for ln in lines.values()):
            return t
    raise ReflectionUnavailableError(
        "no reflection parameter removes vertical lines in this field"
    )


def normalize(cfg_input: ConfigurationInput):
    """``configuration.normalize`` in field elements, line by line.

    Labelings are tried in the library's order, each tested on the meet of C
    and D and on whether B contains it; the plane map's matrix is built in
    field elements and cleared to ints at the end, and the standing form is
    read off each mapped line by slope-intercept division.  The int input
    lines are read as field elements first (:func:`field_line`).
    """
    field = cfg_input.field
    pair1, pair2 = ([field_line(field, ln) for ln in pair] for pair in (cfg_input.pair1, cfg_input.pair2))
    first, *rest = (*pair1, *pair2)
    if all(not _meet(first, ln)[2] for ln in rest):
        raise AllParallelError("all four lines are parallel")
    for swaps in itertools.product((False, True), repeat=3):
        lines, role_to_input = _labeling(pair1, pair2, swaps)
        if _labeling_valid(lines):
            break
    else:
        raise ConcurrentLinesError("all four lines pass through one point")

    origin = intersection(lines["C"], lines["D"])
    one, zero = one_of(field), zero_of(field)
    tx, ty = translation = (-origin[0], -origin[1])
    t = None
    unscaled = ((one, zero, -tx), (zero, one, -ty), (zero, zero, one))
    if any(not ln.b for ln in lines.values()):
        t = _pick_reflection(field, lines)
        d = one + t * t
        unscaled = ((one - t * t, 2 * t, -d * tx), (2 * t, t * t - one, -d * ty), (zero, zero, d))
    _, b_intercept = _slope_intercept(_image(lines["B"], unscaled))
    if not b_intercept:
        raise InternalCheckError("B passes through the origin after labeling")
    scale = one / b_intercept
    matrix = integer_forms(field, [(n0, n1, n2 * scale) for n0, n1, n2 in unscaled])
    plane_map = types.SimpleNamespace(
        field=field, swaps=swaps, role_to_input=role_to_input, translation=translation,
        reflection_t=t, scale=scale, matrix=tuple(matrix),
    )

    by_label = {"A": pair1[0], "C": pair1[1], "B": pair2[0], "D": pair2[1]}
    slopes, intercepts = {}, {}
    for role in ROLES:
        image = _image(by_label[role_to_input[role]], matrix)
        slopes[role], intercepts[role] = _slope_intercept(image)
    if intercepts["C"] or intercepts["D"] or intercepts["B"] != one:
        raise InternalCheckError("normalization produced wrong intercepts")
    standing = (slopes["A"], slopes["B"], slopes["C"], slopes["D"], intercepts["A"], one)
    cfg = NormalizedConfig.make(field, integer_forms(field, [standing])[0])
    return cfg, plane_map


def all_parallel_midline(field, lines) -> tuple:
    """``locus.all_parallel_analysis`` in field elements, for four parallel Lines A, B,
    C, D: each line's offset c / k for its normal k times A's, the midlines of (A, C)
    and (B, D) as the means of those, and (shared, the midline Line or None)."""
    a, b, c, d = lines

    def scaled_offset(line):
        return line.c / (line.a / a.a if a.a else line.b / a.b)

    mid_ac = (scaled_offset(a) + scaled_offset(c)) / 2
    mid_bd = (scaled_offset(b) + scaled_offset(d)) / 2
    return (True, Line(a.a, a.b, mid_ac)) if mid_ac == mid_bd else (False, None)


def diagonal_constants(cfg: NormalizedConfig) -> tuple:
    """(e1, e2, f1, f2) in field elements, off the standing-form constants."""
    m_a, m_b, m_c, m_d, b_a = constants(cfg)[:5]
    return (
        b_a * m_b - m_a,
        b_a - one_of(cfg.field),
        b_a * (m_b - m_c) * m_d + (m_d - m_a) * m_c,
        (m_d - m_a) + b_a * (m_b - m_c),
    )


def _sqrt(field, x):
    """A square root of the field element x through the field's int ``sqrt``:
    over the rationals of its numerator and denominator apart."""
    if field.char:
        r = field.sqrt(x.value)
        return None if r is None else from_int(field, r)
    n, d = field.sqrt(x.numerator), field.sqrt(x.denominator)
    return None if n is None or d is None else Fraction(n, d)


def solve_quadratic(field, a, b, c):
    """The distinct roots of a*X^2 + b*X + c in field elements, as a list: empty
    when the discriminant is not a square in the field.  The zero polynomial
    raises ``PreconditionError``."""
    if not a and not b and not c:
        raise PreconditionError("all quadratic coefficients are zero")
    if not a:
        if not b:
            return []  # c != 0: no roots
        return [-c / b]
    disc = b * b - 4 * a * c
    if not disc:
        return [-b / (2 * a)]
    r = _sqrt(field, disc)
    if r is None:
        return []
    return [(-b + r) / (2 * a), (-b - r) / (2 * a)]


def projective_quadratic_roots(field, form):
    """The projective roots [s : t] of a form (c0, c1, c2) of field elements, in
    the order of ``rectangles.projective_quadratic_roots``: the reference for its
    roots on ints."""
    c0, c1, c2 = form
    if not c0 and not c1 and not c2:
        return ALL_RATIOS
    if c0:
        return [ratio_of(r, one_of(field)) for r in solve_quadratic(field, c0, c1, c2)]
    roots = [ratio_of(one_of(field), zero_of(field))]
    if c1:
        roots.append(ratio_of(-c2, c1))
    return roots


def slope_infinity_form(cfg: NormalizedConfig) -> tuple:
    """(m_A m_C - m_B m_D) S^2 - beta S T - (m_A m_C - m_B m_D) T^2 in field
    elements, with beta = (m_A m_C + 1)(m_B + m_D) - (m_B m_D + 1)(m_A + m_C)."""
    one = one_of(cfg.field)
    m_a, m_b, m_c, m_d = constants(cfg)[:4]
    lead = m_a * m_c - m_b * m_d
    beta = (m_a * m_c + one) * (m_b + m_d) - (m_b * m_d + one) * (m_a + m_c)
    return (lead, -beta, -lead)


def aspect_infinity_form(cfg: NormalizedConfig) -> tuple:
    """m_BC m_AD U^2 - gamma U V + m_AB m_CD V^2 in field elements, with
    gamma = (m_A m_C - 1)(m_B + m_D) - (m_B m_D - 1)(m_A + m_C)."""
    one = one_of(cfg.field)
    m_a, m_b, m_c, m_d = constants(cfg)[:4]
    lead = (m_b - m_c) * (m_a - m_d)
    gamma = (m_a * m_c - one) * (m_b + m_d) - (m_b * m_d - one) * (m_a + m_c)
    tail = (m_a - m_b) * (m_c - m_d)
    return (lead, -gamma, tail)


def integer_forms(field, forms):
    """The forms of field elements as tuples of Python ints, all scaled by one
    nonzero constant: 1 over F_p, with the residues, and over the rationals the
    lcm of every coefficient's denominator."""
    if field.char:
        return [tuple(c.value for c in f) for f in forms]
    factor = math.lcm(*(c.denominator for f in forms for c in f))
    return [tuple(c.numerator * (factor // c.denominator) for c in f) for f in forms]


def fraction_key(coords) -> tuple:
    """The canonical key of a rational point as nine Fractions: the coordinates
    (ints or Fractions) divided by the last nonzero one."""
    pivot = next(c for c in reversed(coords) if c)
    return tuple(Fraction(c, pivot) for c in coords)


def _slope_forms(cfg: NormalizedConfig):
    zero, one = zero_of(cfg.field), one_of(cfg.field)
    e1, e2, f1, f2 = diagonal_constants(cfg)
    if not e1 and not e2:
        return (zero,), (one,)
    if e1 * f1 + e2 * f2:
        return (e1, e2), (f2, -f1)
    if e1:
        return (one,), (f2 / e1,)
    return (one,), (-f1 / e2,)


def _aspect_forms(cfg: NormalizedConfig):
    zero, one = zero_of(cfg.field), one_of(cfg.field)
    e1, e2, f1, f2 = diagonal_constants(cfg)
    m_c, m_d = constants(cfg)[2:4]
    m_cd = m_c - m_d
    if not f1 and not e2:
        return (zero,), (one,)
    if e1 * f1 + e2 * f2:
        return (f1 / m_cd, e2), (f2 / m_cd, -e1)
    if e2:
        return (one,), (-e1 / e2,)
    return (one,), (f2 / f1,)


def _path(cfg: NormalizedConfig, first, second, x, w) -> PathPolynomials:
    y = {}
    for role in ROLES:
        line = standing_line(cfg, role)
        y[role] = hpoly.add(hpoly.scale(-line.a, x[role]), hpoly.scale(line.c, w))
    return PathPolynomials(first, second, x, y, w)


def slope_path_polys(cfg: NormalizedConfig) -> PathPolynomials:
    """The slope path's forms in field elements: the reference for the library's int forms."""
    e_form, f_form = _slope_forms(cfg)
    zero, one = zero_of(cfg.field), one_of(cfg.field)
    m_b, m_c, m_d = constants(cfg)[1:4]
    x = {
        "A": hpoly.add(hpoly.mul((-one, m_c), e_form), hpoly.mul((one, zero), f_form)),
        "B": hpoly.add(hpoly.mul((-one, m_d), e_form), hpoly.mul((one, zero), f_form)),
        "C": hpoly.mul((-one, m_d), e_form),
        "D": hpoly.mul((-one, m_c), e_form),
    }
    w = hpoly.sub(
        hpoly.mul(hpoly.scale(m_b - m_c, (one, -m_d)), e_form),
        hpoly.mul((m_b, one), f_form),
    )
    return _path(cfg, e_form, f_form, x, w)


def aspect_path_polys(cfg: NormalizedConfig) -> PathPolynomials:
    """The aspect path's forms in field elements: the reference for the library's int forms."""
    m_form, n_form = _aspect_forms(cfg)
    zero, one = zero_of(cfg.field), one_of(cfg.field)
    m_b, m_c, m_d = constants(cfg)[1:4]
    m_cd, m_bc = m_c - m_d, m_b - m_c
    u_only = (one, zero)
    x = {
        "A": hpoly.sub(hpoly.mul((one, -m_cd), m_form), hpoly.mul(hpoly.scale(m_c, u_only), n_form)),
        "B": hpoly.sub(hpoly.mul((one, -m_cd), m_form), hpoly.mul(hpoly.scale(m_d, u_only), n_form)),
        "C": hpoly.sub(hpoly.mul(u_only, m_form), hpoly.mul(hpoly.scale(m_d, u_only), n_form)),
        "D": hpoly.sub(hpoly.mul(u_only, m_form), hpoly.mul(hpoly.scale(m_c, u_only), n_form)),
    }
    w = hpoly.add(
        hpoly.mul((-m_bc, m_cd * m_b), m_form),
        hpoly.mul((m_bc * m_d, m_cd), n_form),
    )
    return _path(cfg, m_form, n_form, x, w)


def path_case(pp: PathPolynomials) -> str:
    """The case of a path's forms, read off their shape: "both-zero" when
    ``first`` is the zero constant, "generic" when the forms are linear (the
    path is a conic), and "orthogonal" when they are nonzero constants (the
    diagonals are orthogonal and the path is a line)."""
    if len(pp.first) == 2:
        return "generic"
    return "orthogonal" if pp.first[0] else "both-zero"


def coordinate_forms(pp: PathPolynomials) -> list:
    """The nine forms x_A, y_A, ..., x_D, y_D, w of a path."""
    return [f for role in ROLES for f in (pp.x[role], pp.y[role])] + [pp.w]


def one_multiple(field, forms, reference) -> bool:
    """Whether the int forms are the field-element reference forms times one
    nonzero constant, coefficient by coefficient (so of the same degrees)."""
    if [len(f) for f in forms] != [len(f) for f in reference]:
        return False
    got = [from_int(field, c) for f in forms for c in f]
    want = [c for f in reference for c in f]
    pivot = next((i for i, c in enumerate(want) if c), None)
    if pivot is None:
        return not any(got)
    factor = got[pivot] / want[pivot]
    return bool(factor) and all(g == factor * c for g, c in zip(got, want))


def locus_conic(cfg: NormalizedConfig):
    """The conic of the slope-path centers in field elements, scaled so its
    last nonzero coefficient is 1, or None when the center map's matrix is
    singular: the reference for ``centers_paths(cfg).conic``.

    The center map is (x_A + x_C, y_A + y_C, 2 w); with M its coefficient
    matrix and (a, b, c) the rows of adj(M), the conic is b^2 - a c = 0 in
    (x, y, 1).
    """
    pp = slope_path_polys(cfg)
    forms = (hpoly.add(pp.x["A"], pp.x["C"]), hpoly.add(pp.y["A"], pp.y["C"]),
             hpoly.scale(from_int(cfg.field, 2), pp.w))
    if len(forms[0]) != 3:
        return None
    a, b, c = adj = adjugate(forms)
    if not sum((n * m for n, m in zip(adj[0], (f[0] for f in forms))), zero_of(cfg.field)):
        return None
    coeffs = []
    for i, j in ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)):
        k = b[i] * b[j] - a[i] * c[j]
        coeffs.append(k if i == j else k + b[j] * b[i] - a[j] * c[i])
    last = next(k for k in reversed(coeffs) if k)
    return tuple(k / last for k in coeffs)
