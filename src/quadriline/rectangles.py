"""Points of the scaled-configuration space and their rectangle structure.

A point [x_A : y_A : ... : x_D : y_D : w] of projective 8-space belongs to the
configuration space when each vertex (x_L, y_L) lies on the scaled line
y = m_L x + b_L w.  Here are the canonical points, their slope and aspect,
and the at-infinity forms and their roots, all exact.  The slope and the
aspect ratio are each one formula on the canonical key, which holds ints over
both fields (residues over F_p), and the same formula serves both.  An
outcome that is not a ratio is a :class:`Marker`; reports print a ratio as
its ``str`` and a marker as its value.
"""

from __future__ import annotations

import math
from enum import Enum

from . import hpoly
from .configuration import ROLES, NormalizedConfig
from .errors import PreconditionError
from .scalars import Ratio


class Marker(Enum):
    """An outcome that is not a ratio or a list of ratios; reports print its value."""

    INDETERMINATE = "indeterminate"  # slope_of / aspect_of: every ratio satisfies the system
    ALL_RATIOS = "all"  # at-infinity queries: every point of the projective line occurs


INDETERMINATE = Marker.INDETERMINATE
ALL_RATIOS = Marker.ALL_RATIOS


def canonical_key(field, coords) -> tuple:
    """The canonical key of the projective point with coordinates coords.

    Over the rationals it is the primitive integer vector of the point: gcd 1,
    last nonzero coordinate positive.  Over F_p it is the coordinates scaled by
    one inverse of the first that is nonzero mod p and reduced mod p.  The
    coordinates are ints over both fields.
    """
    p = field.char
    if p:
        for pivot in coords:
            if pivot % p:
                inv = pow(pivot, -1, p)
                return tuple([c * inv % p for c in coords])
    else:
        g = math.gcd(*coords)
        for pivot in reversed(coords):
            if pivot:
                g = g if pivot > 0 else -g
                return tuple([c // g for c in coords])
    raise PreconditionError("projective point needs a nonzero coordinate")


def canonical_keys(field, columns) -> list:
    """:func:`canonical_key` of each row of nine int columns over F_p: every column is
    scaled by the table inverse of the first column's residue, and a row whose first
    coordinate is 0 mod p goes through :func:`canonical_key`, the one pivot rule."""
    p, inverses = field.char, field.tables[0]
    scales = [inverses[c % p] for c in columns[0]]
    keys = list(zip(*[[c * s % p for c, s in zip(column, scales)] for column in columns]))
    for i in [i for i, s in enumerate(scales) if not s]:
        keys[i] = canonical_key(field, [column[i] for column in columns])
    return keys


class ProjectiveRectangle:
    """A canonicalized point of the configuration space in projective 8-space.

    coords is the 9-tuple (x_A, y_A, x_B, y_B, x_C, y_C, x_D, y_D, w).  The one
    pivot rule is :func:`canonical_key`: ``paths.eval_path`` calls it, and the
    bare keys of the census and ``paths.path_keys`` come from :func:`canonical_keys`,
    which defers to it.  The paths and the census guarantee that the vertices lie
    on their lines, form a parallelogram and satisfy the rectangle condition.

    A point's identity is its canonical key: the nine canonical residues in
    [0, p) over F_p, the primitive integer vector over the rationals.  Points
    hash by key and compare by (characteristic, key), so points over different
    fields are unequal.  Slope, aspect, center and affine vertices are read off
    the key as ``Ratio``s (:func:`slope_of`, :func:`aspect_of`,
    ``locus.center_of``, :meth:`affine_vertices`).
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

    @property
    def at_infinity(self) -> bool:
        return not self.key[8]

    def affine_vertices(self) -> dict:
        """Vertices (x_L / w, y_L / w) as Ratios off the key; requires w != 0."""
        if self.at_infinity:
            raise PreconditionError("rectangle at infinity has no affine vertices")
        field, key = self.field, self.key
        return {
            role: (Ratio(field, key[2 * i], key[8]), Ratio(field, key[2 * i + 1], key[8]))
            for i, role in enumerate(ROLES)
        }


def _slope_pair(key: tuple):
    """The slope of the point with canonical key ``key`` as a pair (num, den) of
    key differences, or None when it is indeterminate.

    The slope is the common solution [s : t] of (x_B - x_A) s = (y_B - y_A) t
    and (y_C - y_B) s = -(x_C - x_B) t; when all four coefficients vanish every
    ratio qualifies.  The key holds residues over F_p and the primitive integer
    vector over the rationals; the pair is blind to a common scale, so the
    differences are taken on either alike.
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


def _residues(field, pairs) -> list:
    """Each (num, den) pair of ints as one residue, by ``field.tables``: v in [0, p)
    for (v : 1), p for (1 : 0), None for None."""
    p, inverses = field.char, field.tables[0]
    return [
        None if pair is None else pair[0] * inverses[pair[1] % p] % p if pair[1] % p else p
        for pair in pairs
    ]


def _ratio(field, pair):
    """A (num, den) pair of key differences as a ratio, or INDETERMINATE for None."""
    return INDETERMINATE if pair is None else Ratio(field, *pair)


def slope_residues(field, keys) -> list:
    """The slope of each F_p point whose canonical key is in ``keys``, as one
    residue (:func:`_residues`)."""
    return _residues(field, map(_slope_pair, keys))


def aspect_residues(field, keys) -> list:
    """The aspect ratio of each F_p point whose canonical key is in ``keys``, as
    one residue (:func:`_residues`)."""
    return _residues(field, map(_aspect_pair, keys))


def residue_text(p: int, value) -> str:
    """A slope_residues / aspect_residues outcome as report text: the ``str`` of
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


def slope_infinity_form(cfg: NormalizedConfig) -> tuple:
    """Int form whose projective roots are the slopes at infinity.

    δ³ times (m_A m_C - m_B m_D) S^2 - beta S T - (m_A m_C - m_B m_D) T^2, with
    beta = (m_A m_C + 1)(m_B + m_D) - (m_B m_D + 1)(m_A + m_C), on the standing ints.
    """
    m_a, m_b, m_c, m_d, _, d = cfg.standing[:6]
    lead = d * (m_a * m_c - m_b * m_d)
    beta = (m_a * m_c + d * d) * (m_b + m_d) - (m_b * m_d + d * d) * (m_a + m_c)
    return (lead, -beta, -lead)


def aspect_infinity_form(cfg: NormalizedConfig) -> tuple:
    """Int form whose projective roots are the aspect ratios at infinity.

    δ³ times m_BC m_AD U^2 - gamma U V + m_AB m_CD V^2, with gamma =
    (m_A m_C - 1)(m_B + m_D) - (m_B m_D - 1)(m_A + m_C), on the standing ints.
    """
    m_a, m_b, m_c, m_d, _, d = cfg.standing[:6]
    gamma = (m_a * m_c - d * d) * (m_b + m_d) - (m_b * m_d - d * d) * (m_a + m_c)
    return (d * (m_b - m_c) * (m_a - m_d), -gamma, d * (m_a - m_b) * (m_c - m_d))


def projective_quadratic_roots(field, form):
    """Distinct projective roots [s : t] of c0 S^2 + c1 S T + c2 T^2, for an int
    form (c0, c1, c2), reduced mod p over F_p.

    With c0 nonzero the roots are (-c1 + r : 2 c0), then (-c1 - r : 2 c0), for r
    the field's square root of the discriminant: one root when r = 0, none when
    there is no r.  Returns ALL_RATIOS when the form vanishes identically.
    """
    p = field.char
    c0, c1, c2 = (hpoly.mod(c, p) for c in form)
    if not c0 and not c1 and not c2:
        return ALL_RATIOS
    if not c0:
        roots = [Ratio(field, 1, 0)]
        if c1:
            roots.append(Ratio(field, -c2, c1))
        return roots
    r = field.sqrt(hpoly.mod(c1 * c1 - 4 * c0 * c2, p))
    if r is None:
        return []
    roots = [Ratio(field, -c1 + r, 2 * c0)]
    if r:
        roots.append(Ratio(field, -c1 - r, 2 * c0))
    return roots


def slopes_at_infinity(cfg: NormalizedConfig):
    """ALL_RATIOS for twin pairs, else the at-infinity slopes (possibly none)."""
    return projective_quadratic_roots(cfg.field, slope_infinity_form(cfg))


def aspects_at_infinity(cfg: NormalizedConfig):
    """ALL_RATIOS for dual pairs, else the at-infinity aspect ratios."""
    return projective_quadratic_roots(cfg.field, aspect_infinity_form(cfg))
