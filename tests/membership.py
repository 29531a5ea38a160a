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
library's normalization on integer covectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from quadriline import hpoly
from quadriline.configuration import (
    ROLES,
    ConfigurationInput,
    InputLine,
    NormalizedConfig,
    PlaneMap,
)
from quadriline.errors import (
    AllParallelError,
    AtInfinityError,
    ConcurrentLinesError,
    InternalCheckError,
    PreconditionError,
    ReflectionUnavailableError,
)
from quadriline.rectangles import INDETERMINATE, ProjectiveRectangle
from quadriline.scalars import Ratio


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


def satisfies_membership(p: ProjectiveRectangle, cfg: NormalizedConfig) -> bool:
    for role in ROLES:
        x, y = p.vertex(role)
        if y != cfg.slope(role) * x + cfg.intercept(role) * p.w:
            return False
    return True


def is_parallelogram(p: ProjectiveRectangle) -> bool:
    xa, ya = p.vertex("A")
    xb, yb = p.vertex("B")
    xc, yc = p.vertex("C")
    xd, yd = p.vertex("D")
    return xa - xb == xd - xc and ya - yb == yd - yc


def evaluate(h, x_a, x_b, w):
    """The rectangle quadric h (a ``QuadricH``) at the parameters (x_A, x_B, w)."""
    return (
        h.aa * x_a * x_a
        + h.ab * x_a * x_b
        + h.bb * x_b * x_b
        + h.aw * x_a * w
        + h.bw * x_b * w
        + h.ww * w * w
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
    one = cfg.field.one()
    m_dc = cfg.m_d - cfg.m_c
    x_c = ((cfg.m_a - cfg.m_d) * x_a + (cfg.m_d - cfg.m_b) * x_b + (cfg.b_a - one) * w) / m_dc
    x_d = x_a - x_b + x_c
    xs = {"A": x_a, "B": x_b, "C": x_c, "D": x_d}
    coords = []
    for role in ROLES:
        coords.append(xs[role])
        coords.append(cfg.slope(role) * xs[role] + cfg.intercept(role) * w)
    coords.append(w)
    return ProjectiveRectangle.canonical(cfg.field, [getattr(c, "value", c) for c in coords])


def is_rectangle(p: ProjectiveRectangle) -> bool:
    """Exact test of (x_C - x_B)(x_B - x_A) + (y_C - y_B)(y_B - y_A) = 0."""
    xa, ya = p.vertex("A")
    xb, yb = p.vertex("B")
    xc, yc = p.vertex("C")
    return not ((xc - xb) * (xb - xa) + (yc - yb) * (yb - ya))


def has_slope(p: ProjectiveRectangle, r: Ratio) -> bool:
    """Does (s, t) = r satisfy both defining slope equations of p?"""
    xa, ya = p.vertex("A")
    xb, yb = p.vertex("B")
    xc, yc = p.vertex("C")
    s, t = r.num, r.den
    return not ((xb - xa) * s - (yb - ya) * t) and not ((yc - yb) * s + (xc - xb) * t)


def has_aspect(p: ProjectiveRectangle, r: Ratio) -> bool:
    xa, ya = p.vertex("A")
    xb, yb = p.vertex("B")
    xc, yc = p.vertex("C")
    u, v = r.num, r.den
    return not ((xb - xc) * u - (ya - yb) * v) and not ((yb - yc) * u + (xa - xb) * v)


def slope_of(p: ProjectiveRectangle):
    """The slope [s : t] solving both slope equations, read through field
    elements; INDETERMINATE when all four coefficients vanish."""
    xa, ya = p.vertex("A")
    xb, yb = p.vertex("B")
    xc, yc = p.vertex("C")
    if xb - xa or yb - ya:
        return Ratio.of(yb - ya, xb - xa)
    if yc - yb or xc - xb:
        return Ratio.of(-(xc - xb), yc - yb)
    return INDETERMINATE


def aspect_of(p: ProjectiveRectangle):
    """The aspect ratio [u : v] solving both aspect equations, read through
    field elements; INDETERMINATE when all four coefficients vanish."""
    xa, ya = p.vertex("A")
    xb, yb = p.vertex("B")
    xc, yc = p.vertex("C")
    if xb - xc or ya - yb:
        return Ratio.of(ya - yb, xb - xc)
    if yb - yc or xa - xb:
        return Ratio.of(-(xa - xb), yb - yc)
    return INDETERMINATE


def center_of(p: ProjectiveRectangle):
    """The affine center ((x_A + x_C) / 2w, (y_A + y_C) / 2w) in field elements."""
    if p.at_infinity:
        raise AtInfinityError("rectangle at infinity has no center")
    xa, ya = p.vertex("A")
    xc, yc = p.vertex("C")
    two_w = 2 * p.w
    return (xa + xc) / two_w, (ya + yc) / two_w


def slope_system(cfg: NormalizedConfig, r: Ratio):
    """Matrix M and vector U of the slope membership system M (x_A, x_B) = w U.

    det M equals the at-infinity slope form evaluated at r.
    """
    s, t = r.num, r.den
    one = cfg.field.one()
    m = (
        s - cfg.m_a * t,
        cfg.m_b * t - s,
        (cfg.m_a - cfg.m_d) * (cfg.m_c * s + t),
        (cfg.m_c - cfg.m_b) * (cfg.m_d * s + t),
    )
    u = (
        (cfg.b_a - one) * t,
        (cfg.m_d * s + t) - cfg.b_a * (cfg.m_c * s + t),
    )
    return m, u


def aspect_system(cfg: NormalizedConfig, r: Ratio):
    """Matrix M and vector U for membership at a given aspect ratio.

    det M equals m_CD times the at-infinity aspect form at r.
    """
    u_, v_ = r.num, r.den
    one = cfg.field.one()
    m_cd = cfg.m_c - cfg.m_d
    m_dc = -m_cd
    m = (
        (cfg.m_d - cfg.m_a) * u_ + cfg.m_a * m_cd * v_,
        (cfg.m_b - cfg.m_c) * u_ + cfg.m_b * m_dc * v_,
        cfg.m_c * (cfg.m_d - cfg.m_a) * u_ + m_dc * v_,
        cfg.m_d * (cfg.m_b - cfg.m_c) * u_ + m_cd * v_,
    )
    # First right-side entry is (b_A - 1)(u - m_CD v): expanding the defining
    # aspect equations for a completed parallelogram fixes this sign.
    u = (
        (cfg.b_a - one) * (u_ - m_cd * v_),
        (cfg.b_a * cfg.m_c - cfg.m_d) * u_,
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
    zero, one = field.zero(), field.one()
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
            for k in field.elements():
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
            rects = [_build(cfg, k, one, w) for k in field.elements()]
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
            for x0 in field.elements()
            for x1 in field.elements()
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


def _slope_intercept(line: InputLine):
    """(m, k) with y = m*x + k; requires a non-vertical line."""
    if not line.b:
        raise PreconditionError("vertical line has no slope-intercept form")
    return -line.a / line.b, line.c / line.b


def _image(line: InputLine, m) -> InputLine:
    """The line with covector (a, b, -c) m, for the line a x + b y = c, in field elements."""
    a, b, c = (line.a * u + line.b * v - line.c * w for u, v, w in zip(*m))
    return InputLine(a, b, -c)


def _labeling(cfg_input: ConfigurationInput, swaps):
    s1, s2, sr = swaps
    p1 = tuple(reversed(cfg_input.pair1)) if s1 else tuple(cfg_input.pair1)
    p2 = tuple(reversed(cfg_input.pair2)) if s2 else tuple(cfg_input.pair2)
    labels1 = ("C", "A") if s1 else ("A", "C")
    labels2 = ("D", "B") if s2 else ("B", "D")
    if sr:
        p1, p2 = p2, p1
        labels1, labels2 = labels2, labels1
    lines = {"A": p1[0], "C": p1[1], "B": p2[0], "D": p2[1]}
    role_to_input = {"A": labels1[0], "C": labels1[1], "B": labels2[0], "D": labels2[1]}
    return lines, role_to_input


def _labeling_valid(lines: dict) -> bool:
    if lines["C"].parallel_to(lines["D"]):
        return False
    if lines["B"].same_line(lines["D"]):
        return False
    origin = lines["C"].intersection(lines["D"])
    return not lines["B"].contains(origin)


def _pick_reflection(field, lines):
    """Smallest t in 1, 2, ... whose reflection about y = t x leaves no line vertical."""
    one = field.one()
    for i in range(1, field.char or 10):
        t = field.from_int(i)
        if not one + t * t:
            continue
        if all(2 * t * ln.a + (t * t - one) * ln.b for ln in lines.values()):
            return t
    raise ReflectionUnavailableError(
        "no reflection parameter removes vertical lines in this field"
    )


def normalize(cfg_input: ConfigurationInput):
    """``configuration.normalize`` through line methods and field elements.

    Labelings are tried in the library's order, each tested with
    ``parallel_to``, ``same_line``, ``intersection`` and ``contains``; the
    plane map's matrix is built in field elements and cleared to ints at the
    end, and the standing form is read off each mapped line by
    slope-intercept division.
    """
    field = cfg_input.field
    first, *rest = cfg_input.all_lines()
    if all(first.parallel_to(ln) for ln in rest):
        raise AllParallelError("all four lines are parallel")
    for swaps in itertools.product((False, True), repeat=3):
        lines, role_to_input = _labeling(cfg_input, swaps)
        if _labeling_valid(lines):
            break
    else:
        raise ConcurrentLinesError("all four lines pass through one point")

    origin = lines["C"].intersection(lines["D"])
    one, zero = field.one(), field.zero()
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
    matrix = hpoly.integer_forms(field, [(n0, n1, n2 * scale) for n0, n1, n2 in unscaled])
    plane_map = PlaneMap(field, swaps, role_to_input, translation, t, scale, tuple(matrix))

    by_label = cfg_input.lines_by_label()
    slopes, intercepts = {}, {}
    for role in ROLES:
        image = _image(by_label[role_to_input[role]], matrix)
        slopes[role], intercepts[role] = _slope_intercept(image)
    if intercepts["C"] or intercepts["D"] or intercepts["B"] != one:
        raise InternalCheckError("normalization produced wrong intercepts")
    cfg = NormalizedConfig.make(
        field, slopes["A"], slopes["B"], slopes["C"], slopes["D"], intercepts["A"]
    )
    return cfg, plane_map
