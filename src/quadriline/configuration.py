"""Line configurations: normalization to standing form and classification.

Input is four lines given as two ordered pairs (A, C) and (B, D).  A plane
similarity (relabel within the pair structure, translate C∩D to the origin,
optionally reflect about a line y = t·x to remove vertical lines, scale so B
has y-intercept 1) brings the configuration to the standing form

    A: y = m_A x + b_A    B: y = m_B x + 1    C: y = m_C x    D: y = m_D x

with C and D non-parallel and B distinct from D.  All later geometry runs on
the normalized constants; the recorded :class:`PlaneMap`, one exact 3×3
matrix, carries points and lines back to the original coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from . import hpoly
from .errors import (
    AllParallelError,
    ConcurrentLinesError,
    InternalCheckError,
    PreconditionError,
    ReflectionUnavailableError,
)
from .scalars import Ratio

ROLES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class InputLine:
    """The line a*x + b*y = c with (a, b) != (0, 0)."""

    a: object
    b: object
    c: object

    def __post_init__(self):
        if not self.a and not self.b:
            raise PreconditionError("line needs (a, b) != (0, 0)")

    def slope(self) -> Ratio:
        """Slope as a projective ratio [dy : dx] = [-a : b]."""
        return Ratio.of(-self.a, self.b)

    def _meet(self, other: "InputLine") -> tuple:
        """The meet (X : Y : Z) of the two lines: their covectors (a, b, -c) crossed."""
        return cross((self.a, self.b, -self.c), (other.a, other.b, -other.c))

    def parallel_to(self, other: "InputLine") -> bool:
        return not self._meet(other)[2]

    def same_line(self, other: "InputLine") -> bool:
        return not any(self._meet(other))

    def contains(self, point) -> bool:
        x, y = point
        return self.a * x + self.b * y == self.c

    def intersection(self, other: "InputLine"):
        """The unique intersection point (X / Z, Y / Z), or None for parallel lines."""
        x, y, z = self._meet(other)
        return (x / z, y / z) if z else None


@dataclass(frozen=True)
class ConfigurationInput:
    """Four lines as ordered pairs (A, C) and (B, D) over a common field."""

    field: object
    pair1: tuple  # roles (A, C)
    pair2: tuple  # roles (B, D)

    def lines_by_label(self) -> dict:
        return {
            "A": self.pair1[0],
            "C": self.pair1[1],
            "B": self.pair2[0],
            "D": self.pair2[1],
        }

    def all_lines(self):
        return (self.pair1[0], self.pair1[1], self.pair2[0], self.pair2[1])


def cross(u, v):
    """The cross product u × v of two 3-vectors."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def adjugate(m):
    """adj(m) for the 3×3 matrix m given by its rows.

    The rows of adj(m) are c1 × c2, c2 × c0 and c0 × c1 for the columns c_j
    of m, so adj(m) m = det(m) I.
    """
    c0, c1, c2 = zip(*m)
    return (cross(c1, c2), cross(c2, c0), cross(c0, c1))


def covector(field, line: InputLine) -> tuple:
    """The covector (a, b, -c) of the line a x + b y = c as three ints, up to a
    nonzero factor: the residues over F_p, cleared by one lcm over the rationals."""
    return hpoly.integer_forms(field, [(line.a, line.b, -line.c)])[0]


def _times(v, m) -> tuple:
    """The row vector v times the 3×3 matrix m given by its rows."""
    return tuple(v[0] * u + v[1] * w + v[2] * z for u, w, z in zip(*m))


@dataclass(frozen=True)
class PlaneMap:
    """Exact similarity between the original plane and normalized coordinates.

    Normalization relabels roles, translates by ``translation``, reflects
    about y = t x for t = ``reflection_t`` (when set) and scales by s =
    ``scale``.  ``matrix`` is the one 3×3 matrix N of ints (residues over F_p)
    taking normalized points (x : y : w) back, built by :func:`normalize` from
    the integer covectors of the input lines and defined up to a nonzero
    factor, which no output depends on: with d = 1 + t^2 and (tx, ty) =
    translation it is a multiple of [[1 - t^2, 2t, -d s tx], [2t, t^2 - 1,
    -d s ty], [0, 0, d s]], and of [[1, 0, -s tx], [0, 1, -s ty], [0, 0, s]]
    without a reflection.  The line a x + b y = c is the covector (a, b, -c):
    it maps forward by (a, b, -c) N and back by (a, b, -c) adj(N).  N is
    orthogonal up to scale, so parallelograms, the rectangle condition and
    midpoints are preserved.
    """

    field: object
    swaps: tuple  # (swap within pair1, swap within pair2, swap pair roles)
    role_to_input: dict  # normalized role -> original label
    translation: tuple
    reflection_t: Optional[object]
    scale: object
    matrix: tuple  # N, three rows of ints

    def original_point(self, x, y, w):
        """The original affine point of (x : y : w), w != 0: ints, or over the rationals Fractions."""
        X, Y, W = (n0 * x + n1 * y + n2 * w for n0, n1, n2 in self.matrix)
        return self.field.quotient(X, W), self.field.quotient(Y, W)

    def original_points(self, key) -> list:
        """The original vertices A, B, C, D and center of the affine rectangle with canonical
        key (x_A, y_A, ..., x_D, y_D, w): N (x_L, y_L, w) and N (x_A + x_C, y_A + y_C, 2w)."""
        if not self.field.char:
            key = hpoly.integer_forms(self.field, [key])[0]
        w = key[8]
        points = [self.original_point(key[i], key[i + 1], w) for i in range(0, 8, 2)]
        points.append(self.original_point(key[0] + key[4], key[1] + key[5], 2 * w))
        return points

    def normalized_line(self, line: InputLine) -> InputLine:
        """The image of an original line in normalized coordinates: its covector times N."""
        a, b, c = (self.field.from_int(v) for v in _times(covector(self.field, line), self.matrix))
        return InputLine(a, b, -c)

    def original_line(self, line: InputLine) -> InputLine:
        """The original line of a line in normalized coordinates: its covector times adj(N)."""
        adj = adjugate(self.matrix)
        a, b, c = (self.field.from_int(v) for v in _times(covector(self.field, line), adj))
        return InputLine(a, b, -c)


@dataclass(frozen=True)
class NormalizedConfig:
    """Standing-form constants plus the derived diagonal constants.

    e1, e2 encode the diagonal E through A∩B and C∩D, and f1, f2 the diagonal
    F through A∩D and B∩C: whenever the slope is defined it equals e1/e2
    (resp. f1/f2).  They can never all four vanish.
    """

    field: object
    m_a: object
    m_b: object
    m_c: object
    m_d: object
    b_a: object
    e1: object
    e2: object
    f1: object
    f2: object

    @staticmethod
    def make(field, m_a, m_b, m_c, m_d, b_a) -> "NormalizedConfig":
        if m_c == m_d:
            raise PreconditionError("C and D must not be parallel")
        one = field.one()
        e1 = b_a * m_b - m_a
        e2 = b_a - one
        f1 = b_a * (m_b - m_c) * m_d + (m_d - m_a) * m_c
        f2 = (m_d - m_a) + b_a * (m_b - m_c)
        if not e1 and not e2 and not f1 and not f2:
            raise InternalCheckError("e and f constants cannot all vanish")
        return NormalizedConfig(field, m_a, m_b, m_c, m_d, b_a, e1, e2, f1, f2)

    @staticmethod
    def from_ints(field, m_a, m_b, m_c, m_d, b_a) -> "NormalizedConfig":
        f = field.from_int
        return NormalizedConfig.make(field, f(m_a), f(m_b), f(m_c), f(m_d), f(b_a))

    @property
    def ef_sum(self):
        """e1*f1 + e2*f2; zero exactly for degenerate configurations."""
        return self.e1 * self.f1 + self.e2 * self.f2

    def slope(self, role: str):
        return {"A": self.m_a, "B": self.m_b, "C": self.m_c, "D": self.m_d}[role]

    def intercept(self, role: str):
        zero, one = self.field.zero(), self.field.one()
        return {"A": self.b_a, "B": one, "C": zero, "D": zero}[role]

    def line(self, role: str) -> InputLine:
        return InputLine(-self.slope(role), self.field.one(), self.intercept(role))

    def lines(self) -> dict:
        return {r: self.line(r) for r in ROLES}

    def corner(self, role1: str, role2: str):
        """Affine intersection of two of the four lines, or None if parallel."""
        return self.line(role1).intersection(self.line(role2))


class DiagonalMarker(Enum):
    """Outcomes of diagonal-slope computation that are not a slope."""

    LINES_A_B_EQUAL = "A=B"
    LINES_A_D_EQUAL = "A=D"
    AT_INFINITY = "at-infinity"


def diagonal_slopes(cfg: NormalizedConfig):
    """Slopes of the diagonals E and F, or markers for the special cases.

    E degenerates exactly when A = B.  When f1 = f2 = 0 the diagonal F is the
    line at infinity if b_A != 0 (then A is parallel to D and B to C) and the
    marker A = D otherwise.
    """
    if cfg.e1 or cfg.e2:
        e: Union[Ratio, DiagonalMarker] = Ratio.of(cfg.e1, cfg.e2)
    else:
        e = DiagonalMarker.LINES_A_B_EQUAL
    if cfg.f1 or cfg.f2:
        f: Union[Ratio, DiagonalMarker] = Ratio.of(cfg.f1, cfg.f2)
    elif cfg.b_a:
        f = DiagonalMarker.AT_INFINITY
    else:
        f = DiagonalMarker.LINES_A_D_EQUAL
    return e, f


class LocusShape(Enum):
    NONDEGENERATE_CONIC = "NonDegenerateConic"
    TWO_LINES = "TwoLines"
    LINE_PLUS_INFINITY = "LinePlusInfinity"


@dataclass(frozen=True)
class ConfigClass:
    degenerate: bool
    twin_pairs: bool
    dual_pairs: bool
    slope_path_at_infinity: bool
    aspect_path_at_infinity: bool
    locus_shape: LocusShape


def classify(cfg: NormalizedConfig) -> ConfigClass:
    """Degeneracy and the special pair structures of a configuration.

    Degenerate means the diagonals E and F are orthogonal, equivalently
    e1*f1 + e2*f2 = 0.  Twin pairs (A parallel to D and B to C, or A
    orthogonal to C and B to D) put the slope path at infinity; dual pairs
    (a slope m with m^2 = -1 shared by three lines) put the aspect path
    there.  The two cannot coincide for a valid configuration.
    """
    one = cfg.field.one()
    degenerate = not cfg.ef_sum
    twin = (cfg.m_a == cfg.m_d and cfg.m_b == cfg.m_c) or (
        cfg.m_a * cfg.m_c == -one and cfg.m_b * cfg.m_d == -one
    )
    dual = cfg.m_a * cfg.m_a == -one and (
        (cfg.m_a == cfg.m_b and cfg.m_b == cfg.m_c)
        or (cfg.m_a == cfg.m_b and cfg.m_b == cfg.m_d)
    )
    if twin and dual:
        raise InternalCheckError("twin and dual pairs are mutually exclusive")
    if (twin or dual) and not degenerate:
        raise InternalCheckError("twin/dual pairs must be degenerate")
    if twin or dual:
        shape = LocusShape.LINE_PLUS_INFINITY
    elif degenerate:
        shape = LocusShape.TWO_LINES
    else:
        shape = LocusShape.NONDEGENERATE_CONIC
    return ConfigClass(
        degenerate=degenerate,
        twin_pairs=twin,
        dual_pairs=dual,
        slope_path_at_infinity=twin,
        aspect_path_at_infinity=dual,
        locus_shape=shape,
    )


def _role_to_input(swaps) -> dict:
    """The input label of each normalized role under a labeling (swap within
    pair1, swap within pair2, swap the pair roles)."""
    s1, s2, sr = swaps
    labels1 = ("C", "A") if s1 else ("A", "C")
    labels2 = ("D", "B") if s2 else ("B", "D")
    if sr:
        labels1, labels2 = labels2, labels1
    # labels1 now plays roles (A, C) and labels2 roles (B, D).
    return {"A": labels1[0], "C": labels1[1], "B": labels2[0], "D": labels2[1]}


def _reduce(v: int, p: int) -> int:
    """v mod p over F_p, v itself over the rationals (p = 0): zero exactly when v is."""
    return v % p if p else v


def _reflection(vectors, p: int) -> int:
    """Smallest t in 1, 2, ... whose reflection leaves no line vertical.

    The image of the covector (a, b, c) is vertical when 2 t a + (t^2 - 1) b
    = 0: a nonzero quadratic in t when b != 0, and t = 0 alone when b = 0.  So
    each of the four lines rules out at most two t, and over the rationals,
    where 1 + t^2 never vanishes, one of t = 1, ..., 9 always works.
    """
    for t in range(1, p or 10):
        if _reduce(1 + t * t, p) and all(
            _reduce(2 * t * a + (t * t - 1) * b, p) for a, b, _ in vectors
        ):
            return t
    raise ReflectionUnavailableError(
        "no reflection parameter removes vertical lines in this field"
    )


def normalize(cfg_input: ConfigurationInput):
    """Bring four input lines to standing form.

    Returns ``(NormalizedConfig, PlaneMap)``.  Labelings are tried in a fixed
    lexicographic order (swap within pair1, swap within pair2, swap the pair
    roles) and the first one with C not parallel to D and B avoiding C∩D (so
    B distinct from D) wins, which makes the output reproducible.

    Each input line is cleared once to its integer covector, and the rest
    runs on ints, reduced mod p over F_p: C ∦ D is det(C, D) != 0, B avoiding
    C∩D is det(B, C, D) != 0, and C∩D is the point C × D = (X : Y : Z).  Each
    reported constant is one quotient of ints.
    """
    field = cfg_input.field
    p = field.char
    vectors = {label: covector(field, line) for label, line in cfg_input.lines_by_label().items()}
    a0, b0, _ = vectors["A"]
    if not any(_reduce(a0 * b - b0 * a, p) for a, b, _ in vectors.values()):
        raise AllParallelError("all four lines are parallel")
    # Lexicographic over (swap pair1, swap pair2, swap pair roles).
    for swaps in itertools.product((False, True), repeat=3):
        role_to_input = _role_to_input(swaps)
        B, C, D = (vectors[role_to_input[role]] for role in "BCD")
        X, Y, Z = cross(C, D)
        if _reduce(Z, p) and _reduce(B[0] * X + B[1] * Y + B[2] * Z, p):
            break
    else:
        raise ConcurrentLinesError("all four lines pass through one point")

    translation = (field.quotient(-X, Z), field.quotient(-Y, Z))
    # Z times N at scale 1: scaling normalized points by s multiplies its last column by s.
    t = None
    unscaled = ((Z, 0, X), (0, Z, Y), (0, 0, Z))
    if not all(_reduce(v[1], p) for v in vectors.values()):
        t = _reflection(vectors.values(), p)
        d = 1 + t * t
        unscaled = (
            ((1 - t * t) * Z, 2 * t * Z, d * X),
            (2 * t * Z, (t * t - 1) * Z, d * Y),
            (0, 0, d * Z),
        )
    _, u, v = _times(B, unscaled)
    if not _reduce(v, p):
        raise InternalCheckError("B passes through the origin after labeling")
    # B's image has intercept -v / u, so s = -u / v: N is v times the
    # unscaled matrix with its last column multiplied by s.
    matrix = tuple((v * n0, v * n1, -u * n2) for n0, n1, n2 in unscaled)
    if p:
        matrix = tuple(tuple(n % p for n in row) for row in matrix)
    reflection_t = None if t is None else field.from_int(t)
    plane_map = PlaneMap(
        field, swaps, role_to_input, translation, reflection_t, field.quotient(-u, v), matrix
    )

    # The standing form is read off the images (a', b', c') of the input lines,
    # found through the recorded labels, so the map reproduces it by construction:
    # slope -a' / b' and intercept -c' / b'.
    images = {role: _times(vectors[role_to_input[role]], matrix) for role in ROLES}
    (_, b1, b2), (_, _, c2), (_, _, d2) = images["B"], images["C"], images["D"]
    if _reduce(c2, p) or _reduce(d2, p) or _reduce(b1 + b2, p):
        raise InternalCheckError("normalization produced wrong intercepts")
    slopes = [field.quotient(-images[role][0], images[role][1]) for role in ROLES]
    b_a = field.quotient(-images["A"][2], images["A"][1])
    return NormalizedConfig.make(field, *slopes, b_a), plane_map
