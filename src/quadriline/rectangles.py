"""Points of the scaled-configuration space and their rectangle structure.

A point [x_A : y_A : ... : x_D : y_D : w] of projective 8-space belongs to the
configuration space when each vertex (x_L, y_L) lies on the scaled line
y = m_L x + b_L w.  A parallelogram there is fixed by (x_A : x_B : w), and it
is a rectangle exactly on the quadric :func:`quadric_h`.  Here are the
canonical points, their slope and aspect, the at-infinity forms and that
quadric, all exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from .configuration import ROLES, NormalizedConfig
from .errors import PreconditionError
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
    field the first nonzero coordinate is.  The paths and the census build
    these points; each of them guarantees that the vertices lie on their
    lines, form a parallelogram and satisfy the rectangle condition.
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
