"""Points of the scaled-configuration space and their rectangle structure.

A point [x_A : y_A : ... : x_D : y_D : w] of projective 8-space belongs to the
configuration space when each vertex (x_L, y_L) lies on the scaled line
y = m_L x + b_L w.  Parallelograms and rectangles are cut out of that space by
linear and quadratic conditions; everything here manipulates those conditions
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from .configuration import ROLES, NormalizedConfig
from .errors import InternalCheckError, PreconditionError
from .linalg import solve2
from .scalars import Ratio, solve_quadratic

# slope_of / aspect_of outcome when every ratio satisfies the defining system.
INDETERMINATE = object()

# Marker: every point of the projective line occurs (at-infinity queries).
ALL_RATIOS = object()


@dataclass(frozen=True)
class ProjectiveRectangle:
    """A canonicalized point of the configuration space in projective 8-space.

    coords is the 9-tuple (x_A, y_A, x_B, y_B, x_C, y_C, x_D, y_D, w).  Over
    the rationals the last nonzero coordinate is scaled to 1; over a prime
    field the first nonzero coordinate is.  Construction sites guarantee the
    membership and parallelogram conditions; the rectangle condition is
    checked by :func:`is_rectangle`.
    """

    coords: tuple

    @staticmethod
    def canonical(field, coords) -> "ProjectiveRectangle":
        if all(not c for c in coords):
            raise PreconditionError("projective point needs a nonzero coordinate")
        if field.pivot == "last":
            pivot = next(c for c in reversed(coords) if c)
        else:
            pivot = next(c for c in coords if c)
        return ProjectiveRectangle(tuple(c / pivot for c in coords))

    def vertex(self, role: str):
        i = 2 * ROLES.index(role)
        return self.coords[i], self.coords[i + 1]

    @property
    def w(self):
        return self.coords[8]

    @property
    def at_infinity(self) -> bool:
        return not self.w

    def affine_vertices(self) -> dict:
        """Vertices (x_L / w, y_L / w); requires w != 0."""
        if self.at_infinity:
            raise PreconditionError("rectangle at infinity has no affine vertices")
        return {
            role: (self.vertex(role)[0] / self.w, self.vertex(role)[1] / self.w)
            for role in ROLES
        }

    def satisfies_membership(self, cfg: NormalizedConfig) -> bool:
        for role in ROLES:
            x, y = self.vertex(role)
            if y != cfg.slope(role) * x + cfg.intercept(role) * self.w:
                return False
        return True

    def is_parallelogram(self) -> bool:
        xa, ya = self.vertex("A")
        xb, yb = self.vertex("B")
        xc, yc = self.vertex("C")
        xd, yd = self.vertex("D")
        return xa - xb == xd - xc and ya - yb == yd - yc


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


def slope_of(p: ProjectiveRectangle):
    """The unique slope of a rectangle, or INDETERMINATE.

    The slope is the common solution [s : t] of
    (x_B - x_A) s = (y_B - y_A) t and (y_C - y_B) s = -(x_C - x_B) t; when all
    four coefficients vanish every ratio qualifies.
    """
    xa, ya = p.vertex("A")
    xb, yb = p.vertex("B")
    xc, yc = p.vertex("C")
    if xb - xa or yb - ya:
        return Ratio.of(yb - ya, xb - xa)
    if yc - yb or xc - xb:
        return Ratio.of(-(xc - xb), yc - yb)
    return INDETERMINATE


def aspect_of(p: ProjectiveRectangle):
    """The unique aspect ratio of a rectangle, or INDETERMINATE.

    Aspect 0/1 means the A and B vertices coincide; 1/0 means B and C do.
    """
    xa, ya = p.vertex("A")
    xb, yb = p.vertex("B")
    xc, yc = p.vertex("C")
    if xb - xc or ya - yb:
        return Ratio.of(ya - yb, xb - xc)
    if yb - yc or xa - xb:
        return Ratio.of(-(xa - xb), yb - yc)
    return INDETERMINATE


def slope_infinity_form(cfg: NormalizedConfig):
    """Quadratic form whose projective roots are the slopes at infinity.

    Coefficients of (m_A m_C - m_B m_D) S^2 - beta S T - (m_A m_C - m_B m_D) T^2
    with beta = (m_A m_C + 1)(m_B + m_D) - (m_B m_D + 1)(m_A + m_C).
    """
    one = cfg.field.one()
    lead = cfg.m_a * cfg.m_c - cfg.m_b * cfg.m_d
    beta = (cfg.m_a * cfg.m_c + one) * (cfg.m_b + cfg.m_d) - (
        cfg.m_b * cfg.m_d + one
    ) * (cfg.m_a + cfg.m_c)
    return (lead, -beta, -lead)


def aspect_infinity_form(cfg: NormalizedConfig):
    """Quadratic form whose projective roots are the aspect ratios at infinity.

    Coefficients of m_BC m_AD U^2 - gamma U V + m_AB m_CD V^2 with
    gamma = (m_A m_C - 1)(m_B + m_D) - (m_B m_D - 1)(m_A + m_C).
    """
    one = cfg.field.one()
    lead = (cfg.m_b - cfg.m_c) * (cfg.m_a - cfg.m_d)
    gamma = (cfg.m_a * cfg.m_c - one) * (cfg.m_b + cfg.m_d) - (
        cfg.m_b * cfg.m_d - one
    ) * (cfg.m_a + cfg.m_c)
    tail = (cfg.m_a - cfg.m_b) * (cfg.m_c - cfg.m_d)
    return (lead, -gamma, tail)


def projective_quadratic_roots(field, form):
    """Distinct projective roots [s : t] of c0 S^2 + c1 S T + c2 T^2.

    Returns ALL_RATIOS when the form vanishes identically.
    """
    c0, c1, c2 = form
    if not c0 and not c1 and not c2:
        return ALL_RATIOS
    if c0:
        return [Ratio.of(r.value, field.one()) for r in solve_quadratic(field, c0, c1, c2)]
    roots = [Ratio.of(field.one(), field.zero())]
    if c1:
        roots.append(Ratio.of(-c2, c1))
    return roots


def slopes_at_infinity(cfg: NormalizedConfig):
    """ALL_RATIOS for twin pairs, else the at-infinity slopes (possibly none)."""
    return projective_quadratic_roots(cfg.field, slope_infinity_form(cfg))


def aspects_at_infinity(cfg: NormalizedConfig):
    """ALL_RATIOS for dual pairs, else the at-infinity aspect ratios."""
    return projective_quadratic_roots(cfg.field, aspect_infinity_form(cfg))


@dataclass(frozen=True)
class QuadricH:
    """The quadric in parameters (X_A, X_B, X) cutting out the rectangles.

    h(x_A, x_B, w) = 0 exactly when the completed parallelogram over
    (x_A, x_B, w) is a rectangle.  Coefficient order: X_A^2, X_A X_B, X_B^2,
    X_A X, X_B X, X^2.
    """

    aa: object
    ab: object
    bb: object
    aw: object
    bw: object
    ww: object

    def evaluate(self, x_a, x_b, w):
        return (
            self.aa * x_a * x_a
            + self.ab * x_a * x_b
            + self.bb * x_b * x_b
            + self.aw * x_a * w
            + self.bw * x_b * w
            + self.ww * w * w
        )

    def restrict_to_infinity(self):
        """Coefficients of h(X_A, X_B, 0) as a binary quadratic form."""
        return (self.aa, self.ab, self.bb)


def _symmetric_product(l1, l2):
    """Expand the product of two linear forms in (X_A, X_B, X) to a QuadricH tuple."""
    a1, b1, w1 = l1
    a2, b2, w2 = l2
    return (
        a1 * a2,
        a1 * b2 + b1 * a2,
        b1 * b2,
        a1 * w2 + w1 * a2,
        b1 * w2 + w1 * b2,
        w1 * w2,
    )


def quadric_h(cfg: NormalizedConfig) -> QuadricH:
    """Expand the rectangle condition over the parallelogram parameters.

    With f the linear form giving x_C, the quadric is
    (y_B - y_A)(y_C - y_B) + (x_B - x_A)(x_C - x_B) written in (X_A, X_B, X).
    """
    one = cfg.field.one()
    zero = cfg.field.zero()
    m_dc = cfg.m_d - cfg.m_c
    # f = x_C as a linear form in (X_A, X_B, X).
    f = (
        (cfg.m_a - cfg.m_d) / m_dc,
        (cfg.m_d - cfg.m_b) / m_dc,
        (cfg.b_a - one) / m_dc,
    )
    yb_minus_ya = (-cfg.m_a, cfg.m_b, one - cfg.b_a)
    yc_minus_yb = (cfg.m_c * f[0], cfg.m_c * f[1] - cfg.m_b, cfg.m_c * f[2] - one)
    xb_minus_xa = (-one, one, zero)
    xc_minus_xb = (f[0], f[1] - one, f[2])
    parts1 = _symmetric_product(yb_minus_ya, yc_minus_yb)
    parts2 = _symmetric_product(xb_minus_xa, xc_minus_xb)
    return QuadricH(*(p + q for p, q in zip(parts1, parts2)))


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
