"""Line configurations: normalization to standing form and classification.

Input is four lines given as two ordered pairs (A, C) and (B, D).  A plane
similarity (relabel within the pair structure, translate C∩D to the origin,
optionally reflect about a line y = t·x to remove vertical lines, scale so B
has y-intercept 1) brings the configuration to the standing form

    A: y = m_A x + b_A    B: y = m_B x + 1    C: y = m_C x    D: y = m_D x

with C and D non-parallel and B distinct from D.  All later geometry runs on
these constants as ints (:class:`NormalizedConfig`); the recorded
:class:`PlaneMap`, one exact 3×3 matrix, carries points and lines back to the
original coordinates.
"""

from __future__ import annotations

import itertools
import math
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
from .scalars import Ratio, Record

ROLES = ("A", "B", "C", "D")


class InputLine(Record):
    """The line a*x + b*y = c for ints a, b and c (over F_p they stand for their
    residues): its int covector is (a, b, -c)."""

    a: int
    b: int
    c: int


class ConfigurationInput(Record):
    """Four lines as ordered pairs (A, C) and (B, D) over a common field, each with
    int a, b and c and (a, b) != (0, 0) in the field."""

    field: object
    pair1: tuple  # roles (A, C)
    pair2: tuple  # roles (B, D)

    def __init__(self, *fields, **kwargs):
        super().__init__(*fields, **kwargs)
        p = self.field.char
        for i, pair in enumerate((self.pair1, self.pair2)):
            for j, line in enumerate(pair):
                if not all(isinstance(v, int) for v in (line.a, line.b, line.c)):
                    raise PreconditionError(f"pairs[{i}][{j}]: a, b and c must be ints: {line}")
                if not (hpoly.mod(line.a, p) or hpoly.mod(line.b, p)):
                    raise PreconditionError(f"pairs[{i}][{j}]: line needs (a, b) != (0, 0)")

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


def covector(line: InputLine) -> tuple:
    """The int covector (a, b, -c) of the line a x + b y = c."""
    return line.a, line.b, -line.c


def _times(v, m) -> tuple:
    """The row vector v times the 3×3 matrix m given by its rows."""
    return tuple(v[0] * u + v[1] * w + v[2] * z for u, w, z in zip(*m))


class PlaneMap(Record):
    """Exact similarity between the original plane and normalized coordinates.

    Normalization relabels roles, translates by (tx, ty), the negated meet of C
    and D, reflects about y = t x for the int ``t`` (when set) and scales by
    s = n / d for the int pair ``s`` = (n, d).  ``matrix`` is the one 3×3 matrix
    N of ints (residues over F_p) taking normalized points (x : y : w) back,
    built by :func:`normalize` from the integer covectors of the input lines and
    defined up to a nonzero factor, which no output depends on: with
    d = 1 + t^2 it is a multiple of [[1 - t^2, 2t, -d s tx], [2t, t^2 - 1,
    -d s ty], [0, 0, d s]], and of [[1, 0, -s tx], [0, 1, -s ty], [0, 0, s]]
    without a reflection, so its last column (X, Y, Z) gives (tx, ty) =
    (-X / Z, -Y / Z).  The line a x + b y = c is the covector (a, b, -c): it
    maps forward by (a, b, -c) N and back by (a, b, -c) adj(N).  N is
    orthogonal up to scale, so parallelograms, the rectangle condition and
    midpoints are preserved.
    """

    field: object
    swaps: tuple  # (swap within pair1, swap within pair2, swap pair roles)
    role_to_input: dict  # normalized role -> original label
    matrix: tuple  # N, three rows of ints
    t: Optional[int]  # the reflection parameter, or None
    s: tuple  # the scale as an int pair (n, d), s = n / d

    def original(self, points) -> list:
        """N (x, y, w) of each normalized int point (x : y : w): its original int point (X : Y : W)."""
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = self.matrix
        return [
            (a0 * x + a1 * y + a2 * w, b0 * x + b1 * y + b2 * w, c0 * x + c1 * y + c2 * w)
            for x, y, w in points
        ]

    def normalized_line(self, u) -> tuple:
        """u N: the normalized int covector of the original line with int covector u."""
        return _times(u, self.matrix)

    def original_line(self, u) -> tuple:
        """u adj(N): the original int covector of the normalized line with int covector u."""
        return _times(u, adjugate(self.matrix))


class NormalizedConfig(Record):
    """The standing form as the ints (M_A, M_B, M_C, M_D, B_A, δ, E1, E2, F1, F2).

    The standing constants are m_L = M_L / δ and b_A = B_A / δ, with δ the
    lcm of their denominators over the rationals, and δ = 1 and residues over
    F_p.  E1, E2 encode the diagonal E through A∩B and C∩D, and F1, F2 the
    diagonal F through A∩D and B∩C: e1, e2, f2 = E1, E2, F2 / δ² and
    f1 = F1 / δ³, and whenever the slope is defined it equals e1/e2 (resp.
    f1/f2).  They can never all four vanish.  Every reader runs on these
    ints, and the ``classify`` report writes their quotients as text.
    """

    field: object
    standing: tuple

    @staticmethod
    def make(field, ints) -> "NormalizedConfig":
        """The configuration of the six ints (M_A, M_B, M_C, M_D, B_A, δ), residues over F_p."""
        M_A, M_B, M_C, M_D, B, d = ints
        p = field.char
        if not hpoly.mod(M_C - M_D, p):
            raise PreconditionError("C and D must not be parallel")
        E1, E2 = B * M_B - d * M_A, d * (B - d)
        F1 = B * (M_B - M_C) * M_D + d * (M_D - M_A) * M_C
        F2 = d * (M_D - M_A) + B * (M_B - M_C)
        diagonal = tuple(hpoly.mod(v, p) for v in (E1, E2, F1, F2))
        if not any(diagonal):
            raise InternalCheckError("e and f constants cannot all vanish")
        return NormalizedConfig(field, (*ints, *diagonal))

    @staticmethod
    def from_ints(field, m_a, m_b, m_c, m_d, b_a) -> "NormalizedConfig":
        """The configuration with the five int constants at δ = 1, reduced mod p over F_p."""
        ints = (m_a, m_b, m_c, m_d, b_a, 1)
        return NormalizedConfig.make(field, tuple(hpoly.mod(v, field.char) for v in ints))

    @property
    def ef_sum(self) -> int:
        """δ⁵ (e1*f1 + e2*f2) = E1*F1 + δ*E2*F2 (mod p); zero exactly when degenerate."""
        d, e1, e2, f1, f2 = self.standing[5:]
        return hpoly.mod(e1 * f1 + d * e2 * f2, self.field.char)

    def corner(self, role1: str, role2: str) -> tuple:
        """The meet (X : Y : Z) of two of the four lines as ints, reduced mod p over
        F_p: the cross product of their standing covectors (M_L, -δ, B_L), with
        B_B = δ and B_C = B_D = 0.  Z is zero exactly when the lines are parallel."""
        m_a, m_b, m_c, m_d, b_a, d = self.standing[:6]
        covectors = {"A": (m_a, -d, b_a), "B": (m_b, -d, d), "C": (m_c, -d, 0), "D": (m_d, -d, 0)}
        meet = cross(covectors[role1], covectors[role2])
        return tuple(hpoly.mod(v, self.field.char) for v in meet)


class DiagonalMarker(Enum):
    """Outcomes of diagonal-slope computation that are not a slope."""

    LINES_A_B_EQUAL = "A=B"
    LINES_A_D_EQUAL = "A=D"
    AT_INFINITY = "at-infinity"


def diagonal_slopes(cfg: NormalizedConfig):
    """Slopes of the diagonals E and F, or markers for the special cases.

    E is E1 : E2 and degenerates exactly when A = B.  F is f1 : f2 = F1 : δ F2.
    When F1 = F2 = 0 the diagonal F is the line at infinity if B_A != 0 (then
    A is parallel to D and B to C) and the marker A = D otherwise.
    """
    field = cfg.field
    b_a, d, e1, e2, f1, f2 = cfg.standing[4:]
    if e1 or e2:
        e: Union[Ratio, DiagonalMarker] = Ratio(field, e1, e2)
    else:
        e = DiagonalMarker.LINES_A_B_EQUAL
    if f1 or f2:
        f: Union[Ratio, DiagonalMarker] = Ratio(field, f1, d * f2)
    elif b_a:
        f = DiagonalMarker.AT_INFINITY
    else:
        f = DiagonalMarker.LINES_A_D_EQUAL
    return e, f


class LocusShape(Enum):
    NONDEGENERATE_CONIC = "NonDegenerateConic"
    TWO_LINES = "TwoLines"
    LINE_PLUS_INFINITY = "LinePlusInfinity"


class ConfigClass(Record):
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
    m_a, m_b, m_c, m_d, _, d = cfg.standing[:6]
    p = cfg.field.char
    degenerate = not cfg.ef_sum
    # m m' = -1 is M M' + δ² = 0 on the standing ints.
    twin = (m_a == m_d and m_b == m_c) or not (
        hpoly.mod(m_a * m_c + d * d, p) or hpoly.mod(m_b * m_d + d * d, p)
    )
    dual = not hpoly.mod(m_a * m_a + d * d, p) and m_a == m_b and m_b in (m_c, m_d)
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


def _reflection(vectors, p: int) -> int:
    """Smallest t in 1, 2, ... whose reflection leaves no line vertical.

    The image of the covector (a, b, c) is vertical when 2 t a + (t^2 - 1) b
    = 0: a nonzero quadratic in t when b != 0, and t = 0 alone when b = 0.  So
    each of the four lines rules out at most two t, and over the rationals,
    where 1 + t^2 never vanishes, one of t = 1, ..., 9 always works.
    """
    for t in range(1, p or 10):
        if hpoly.mod(1 + t * t, p) and all(
            hpoly.mod(2 * t * a + (t * t - 1) * b, p) for a, b, _ in vectors
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

    Each input line is its integer covector (a, b, -c), and the rest runs on
    ints, reduced mod p over F_p: C ∦ D is det(C, D) != 0, B avoiding
    C∩D is det(B, C, D) != 0, and C∩D is the point C × D = (X : Y : Z).  The
    four slopes and b_A are quotients of ints, cleared together to the
    standing ints over their lcm denominator δ.
    """
    field = cfg_input.field
    p = field.char
    vectors = {label: covector(line) for label, line in cfg_input.lines_by_label().items()}
    a0, b0, _ = vectors["A"]
    if not any(hpoly.mod(a0 * b - b0 * a, p) for a, b, _ in vectors.values()):
        raise AllParallelError("all four lines are parallel")
    # Lexicographic over (swap pair1, swap pair2, swap pair roles).
    for swaps in itertools.product((False, True), repeat=3):
        role_to_input = _role_to_input(swaps)
        B, C, D = (vectors[role_to_input[role]] for role in "BCD")
        X, Y, Z = cross(C, D)
        if hpoly.mod(Z, p) and hpoly.mod(B[0] * X + B[1] * Y + B[2] * Z, p):
            break
    else:
        raise ConcurrentLinesError("all four lines pass through one point")

    # Z times N at scale 1: scaling normalized points by s multiplies its last column by s.
    t = None
    unscaled = ((Z, 0, X), (0, Z, Y), (0, 0, Z))
    if not all(hpoly.mod(v[1], p) for v in vectors.values()):
        t = _reflection(vectors.values(), p)
        d = 1 + t * t
        unscaled = (
            ((1 - t * t) * Z, 2 * t * Z, d * X),
            (2 * t * Z, (t * t - 1) * Z, d * Y),
            (0, 0, d * Z),
        )
    _, u, v = _times(B, unscaled)
    if not hpoly.mod(v, p):
        raise InternalCheckError("B passes through the origin after labeling")
    # B's image has intercept -v / u, so s = -u / v: N is v times the
    # unscaled matrix with its last column multiplied by s.
    matrix = tuple((v * n0, v * n1, -u * n2) for n0, n1, n2 in unscaled)
    if p:
        matrix = tuple(tuple(n % p for n in row) for row in matrix)
    plane_map = PlaneMap(field, swaps, role_to_input, matrix, t, (-u, v))

    # The standing form is read off the images (a', b', c') of the input lines,
    # found through the recorded labels, so the map reproduces it by construction:
    # slope -a' / b' and intercept -c' / b' as Ratios s / t, cleared over the lcm δ of the t.
    images = {role: _times(vectors[role_to_input[role]], matrix) for role in ROLES}
    (_, b1, b2), (_, _, c2), (_, _, d2) = images["B"], images["C"], images["D"]
    if hpoly.mod(c2, p) or hpoly.mod(d2, p) or hpoly.mod(b1 + b2, p):
        raise InternalCheckError("normalization produced wrong intercepts")
    values = [Ratio(field, -images[role][0], images[role][1]) for role in ROLES]
    values.append(Ratio(field, -images["A"][2], images["A"][1]))
    d = math.lcm(*(r.t for r in values))
    standing = (*(r.s * (d // r.t) for r in values), d)
    return NormalizedConfig.make(field, standing), plane_map
