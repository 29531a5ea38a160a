"""The paper's defining conditions of a rectangle, as an independent check.

A point [x_A : y_A : ... : x_D : y_D : w] of projective 8-space is in the
configuration space when each vertex lies on its scaled line
y = m_L x + b_L w; it is a parallelogram when x_A - x_B = x_D - x_C and
y_A - y_B = y_D - y_C, and a rectangle when, moreover, AB is orthogonal to BC.
The rectangles of a given slope or aspect solve a 2x2 linear membership
system.  The library builds rectangles only from the closed-form paths and
the census; the tests check both against these definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from quadriline.configuration import ROLES, NormalizedConfig
from quadriline.errors import InternalCheckError, PreconditionError
from quadriline.rectangles import ProjectiveRectangle
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
    return ProjectiveRectangle.canonical(cfg.field, tuple(coords))


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
