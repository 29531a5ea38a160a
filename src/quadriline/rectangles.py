"""Points of the scaled-configuration space and their rectangle structure.

A point [x_A : y_A : ... : x_D : y_D : w] of projective 8-space belongs to the
configuration space when each vertex (x_L, y_L) lies on the scaled line
y = m_L x + b_L w.  A parallelogram there is fixed by (x_A : x_B : w), and it
is a rectangle exactly on the quadric :func:`quadric_h`.  Here are the
canonical points, their slope and aspect, the at-infinity forms and that
quadric, all exact.  The slope and the aspect ratio are each one formula on
the canonical key, which holds residues over F_p and Fractions over the
rationals, and the same formula serves both fields.  An outcome that is not a
ratio is a :class:`Marker`; reports print a ratio as its ``str`` and a marker
as its value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .configuration import ROLES, NormalizedConfig
from .errors import PreconditionError
from .scalars import FpElement, Ratio, solve_quadratic


class Marker(Enum):
    """An outcome that is not a ratio or a list of ratios; reports print its value."""

    INDETERMINATE = "indeterminate"  # slope_of / aspect_of: every ratio satisfies the system
    ALL_RATIOS = "all"  # at-infinity queries: every point of the projective line occurs


INDETERMINATE = Marker.INDETERMINATE
ALL_RATIOS = Marker.ALL_RATIOS


def canonical_key(field, coords) -> tuple:
    """The canonical key of the projective point with coordinates coords.

    Over the rationals coords are integers or Fractions, and each is divided
    by the last nonzero one.  Over F_p they are ints, scaled by one inverse of
    the first that is nonzero mod p and reduced mod p.
    """
    p = field.char
    if p:
        for pivot in coords:
            if pivot % p:
                inv = pow(pivot, -1, p)
                return tuple([c * inv % p for c in coords])
    else:
        for pivot in reversed(coords):
            if pivot:
                return tuple([Fraction(c, pivot) for c in coords])
    raise PreconditionError("projective point needs a nonzero coordinate")


class ProjectiveRectangle:
    """A canonicalized point of the configuration space in projective 8-space.

    coords is the 9-tuple (x_A, y_A, x_B, y_B, x_C, y_C, x_D, y_D, w).  Over
    the rationals the last nonzero coordinate is scaled to 1; over a prime
    field the first nonzero coordinate is.  The paths and the census scale
    their points through :func:`canonical_key`, the only code that picks a
    pivot; each of them guarantees that the vertices lie on their lines, form
    a parallelogram and satisfy the rectangle condition.

    A point's identity is its canonical key: the nine canonical residues in
    [0, p) over F_p, the nine Fractions over the rationals.  Points hash by
    key and compare by (characteristic, key), so points over different fields
    are unequal.  Slope, aspect and center are read off the key
    (:func:`slope_of`, :func:`aspect_of`, ``locus.center_of``).  Over F_p the
    field elements of vertex and w are built from the key when read and not
    kept: a point that is only hashed and compared never builds one,
    and a read point holds no second copy of its coordinates.
    """

    __slots__ = ("field", "key")

    def __init__(self, field, key: tuple):
        self.field = field
        self.key = key

    @staticmethod
    def canonical(field, coords) -> "ProjectiveRectangle":
        """The point with coordinates coords, scaled by :func:`canonical_key`."""
        return ProjectiveRectangle(field, canonical_key(field, coords))

    def __eq__(self, other):
        if not isinstance(other, ProjectiveRectangle):
            return NotImplemented
        return self.key == other.key and self.field.char == other.field.char

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"ProjectiveRectangle({self.field!r}, {self.key!r})"

    def vertex(self, role: str):
        i = 2 * ROLES.index(role)
        field, key = self.field, self.key
        if field.char:
            return FpElement(key[i], field), FpElement(key[i + 1], field)
        return key[i], key[i + 1]

    @property
    def w(self):
        field, w = self.field, self.key[8]
        return FpElement(w, field) if field.char else w

    @property
    def at_infinity(self) -> bool:
        return not self.key[8]

    def affine_vertices(self) -> dict:
        """Vertices (x_L / w, y_L / w); requires w != 0."""
        if self.at_infinity:
            raise PreconditionError("rectangle at infinity has no affine vertices")
        return {
            role: (self.vertex(role)[0] / self.w, self.vertex(role)[1] / self.w)
            for role in ROLES
        }


def _slope_pair(key: tuple):
    """The slope of the point with canonical key ``key`` as a pair (num, den) of
    key differences, or None when it is indeterminate.

    The slope is the common solution [s : t] of (x_B - x_A) s = (y_B - y_A) t
    and (y_C - y_B) s = -(x_C - x_B) t; when all four coefficients vanish every
    ratio qualifies.  The key holds residues over F_p and Fractions over the
    rationals, and the differences are taken on either alike.
    """
    xa, ya, xb, yb, xc, yc = key[:6]
    if xb != xa or yb != ya:
        return yb - ya, xb - xa
    if yc != yb or xc != xb:
        return xb - xc, yc - yb
    return None


def _aspect_pair(key: tuple):
    """The aspect ratio of the point with canonical key ``key``, as in
    :func:`_slope_pair`: (0 : 1) when the A and B vertices coincide, (1 : 0)
    when B and C do."""
    xa, ya, xb, yb, xc, yc = key[:6]
    if xb != xc or ya != yb:
        return ya - yb, xb - xc
    if yb != yc or xa != xb:
        return xb - xa, yb - yc
    return None


def _residue(p: int, pair):
    """A (num, den) pair of residue differences as one residue: v in [0, p) for
    (v : 1), p for (1 : 0), None for None."""
    if pair is None:
        return None
    num, den = pair
    return num * pow(den, -1, p) % p if den else p


def _ratio(field, pair):
    """A (num, den) pair of key differences as a ratio, or INDETERMINATE for None."""
    if pair is None:
        return INDETERMINATE
    num, den = pair
    if not den:
        return Ratio(field.one(), field.zero())
    return Ratio(field.quotient(num, den), field.one())


def slope_residue(p: int, key: tuple):
    """The slope of the F_p point with canonical key ``key``, as one residue
    (:func:`_residue`)."""
    return _residue(p, _slope_pair(key))


def aspect_residue(p: int, key: tuple):
    """The aspect ratio of the F_p point with canonical key ``key``, as one
    residue (:func:`_residue`)."""
    return _residue(p, _aspect_pair(key))


def residue_text(p: int, value) -> str:
    """A slope_residue / aspect_residue outcome as report text: the ``str`` of
    the matching ratio, or the value of INDETERMINATE."""
    if value is None:
        return INDETERMINATE.value
    return "1/0" if value == p else str(value)


def slope_of(p: ProjectiveRectangle):
    """The unique slope of a rectangle (:func:`_slope_pair`), or INDETERMINATE."""
    return _ratio(p.field, _slope_pair(p.key))


def aspect_of(p: ProjectiveRectangle):
    """The unique aspect ratio of a rectangle (:func:`_aspect_pair`), or
    INDETERMINATE.  Aspect 0/1 means the A and B vertices coincide; 1/0 means
    B and C do."""
    return _ratio(p.field, _aspect_pair(p.key))


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
        return [Ratio.of(r, field.one()) for r in solve_quadratic(field, c0, c1, c2)]
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
