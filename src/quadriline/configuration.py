"""Line configurations: normalization to standing form and classification.

Input is four lines given as two ordered pairs (A, C) and (B, D).  A plane
similarity (relabel within the pair structure, translate C∩D to the origin,
optionally reflect about a line y = t·x to remove vertical lines, scale so B
has y-intercept 1) brings the configuration to the standing form

    A: y = m_A x + b_A    B: y = m_B x + 1    C: y = m_C x    D: y = m_D x

with C and D non-parallel and B distinct from D.  All later geometry runs on
the normalized constants; the recorded :class:`PlaneMap` carries rectangles
back to the original coordinates exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Union

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

    @staticmethod
    def from_slope_intercept(field, m, k) -> "InputLine":
        """The line y = m*x + k."""
        return InputLine(-m, field.one(), k)

    @property
    def is_vertical(self) -> bool:
        return not self.b

    def slope(self) -> Ratio:
        """Slope as a projective ratio [dy : dx] = [-a : b]."""
        return Ratio.of(-self.a, self.b)

    def parallel_to(self, other: "InputLine") -> bool:
        return not (self.a * other.b - self.b * other.a)

    def same_line(self, other: "InputLine") -> bool:
        return (
            not (self.a * other.b - self.b * other.a)
            and not (self.a * other.c - self.c * other.a)
            and not (self.b * other.c - self.c * other.b)
        )

    def contains(self, point) -> bool:
        x, y = point
        return self.a * x + self.b * y == self.c

    def intersection(self, other: "InputLine"):
        """The unique intersection point, or None for parallel lines."""
        det = self.a * other.b - self.b * other.a
        if not det:
            return None
        return (
            (self.c * other.b - self.b * other.c) / det,
            (self.a * other.c - self.c * other.a) / det,
        )

    def slope_intercept(self):
        """(m, k) with y = m*x + k; requires a non-vertical line."""
        if self.is_vertical:
            raise PreconditionError("vertical line has no slope-intercept form")
        return -self.a / self.b, self.c / self.b


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

    def all_parallel(self) -> bool:
        first = self.pair1[0]
        return all(first.parallel_to(ln) for ln in self.all_lines()[1:])


@dataclass(frozen=True)
class PlaneMap:
    """Exact similarity taking the original plane to normalized coordinates.

    Application order: relabel roles, translate by ``translation``, reflect
    about y = reflection_t * x (when set), scale by ``scale``.  The map is
    orthogonal up to the scale factor, so parallelograms, the rectangle
    condition, and midpoints are all preserved in both directions.
    """

    field: object
    swaps: tuple  # (swap within pair1, swap within pair2, swap pair roles)
    role_to_input: dict  # normalized role -> original label
    translation: tuple
    reflection_t: Optional[object]
    scale: object

    def _reflect(self, point):
        t = self.reflection_t
        x, y = point
        d = 1 + t * t
        return ((1 - t * t) * x + 2 * t * y) / d, (2 * t * x + (t * t - 1) * y) / d

    def apply_point(self, point):
        x, y = point
        x, y = x + self.translation[0], y + self.translation[1]
        if self.reflection_t is not None:
            x, y = self._reflect((x, y))
        return self.scale * x, self.scale * y

    def invert_point(self, point):
        x, y = point
        x, y = x / self.scale, y / self.scale
        if self.reflection_t is not None:
            x, y = self._reflect((x, y))
        return x - self.translation[0], y - self.translation[1]

    def apply_line(self, line: InputLine) -> InputLine:
        a, b, c = line.a, line.b, line.c
        tx, ty = self.translation
        c = c + a * tx + b * ty
        if self.reflection_t is not None:
            t = self.reflection_t
            a, b = (1 - t * t) * a + 2 * t * b, 2 * t * a + (t * t - 1) * b
            c = (1 + t * t) * c
        return InputLine(a, b, self.scale * c)

    def invert_line(self, line: InputLine) -> InputLine:
        a, b, c = line.a, line.b, line.c
        c = c / self.scale
        if self.reflection_t is not None:
            t = self.reflection_t
            a, b = (1 - t * t) * a + 2 * t * b, 2 * t * a + (t * t - 1) * b
            c = (1 + t * t) * c
        tx, ty = self.translation
        return InputLine(a, b, c - a * tx - b * ty)

    @property
    def is_identity(self) -> bool:
        return (
            self.swaps == (False, False, False)
            and not self.translation[0]
            and not self.translation[1]
            and self.reflection_t is None
            and self.scale == self.field.one()
        )


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


def _labelings():
    # Lexicographic over (swap pair1, swap pair2, swap pair roles).
    return itertools.product((False, True), repeat=3)


def _apply_labeling(cfg_input: ConfigurationInput, swaps):
    s1, s2, sr = swaps
    p1 = tuple(reversed(cfg_input.pair1)) if s1 else tuple(cfg_input.pair1)
    p2 = tuple(reversed(cfg_input.pair2)) if s2 else tuple(cfg_input.pair2)
    labels1 = ("C", "A") if s1 else ("A", "C")
    labels2 = ("D", "B") if s2 else ("B", "D")
    if sr:
        p1, p2 = p2, p1
        labels1, labels2 = labels2, labels1
    # p1 now plays roles (A, C) and p2 roles (B, D); labels record where each
    # line sat in the input file.
    lines = {"A": p1[0], "C": p1[1], "B": p2[0], "D": p2[1]}
    role_to_input = {
        "A": labels1[0],
        "C": labels1[1],
        "B": labels2[0],
        "D": labels2[1],
    }
    return lines, role_to_input


def _labeling_valid(lines: dict) -> bool:
    if lines["C"].parallel_to(lines["D"]):
        return False
    if lines["B"].same_line(lines["D"]):
        return False
    origin = lines["C"].intersection(lines["D"])
    return not lines["B"].contains(origin)


def _pick_reflection(field, lines, limit=40):
    """Smallest t in 1, 2, ... whose reflection leaves no line vertical."""
    if field.char:
        candidates = range(1, field.char)
    else:
        candidates = range(1, limit)
    one = field.one()
    for i in candidates:
        t = field.from_int(i)
        if not one + t * t:
            continue  # reflection about y = t x undefined when 1 + t^2 = 0
        ok = True
        for ln in lines.values():
            if not (2 * t * ln.a + (t * t - one) * ln.b):
                ok = False
                break
        if ok:
            return t
    raise ReflectionUnavailableError(
        "no reflection parameter removes vertical lines in this field"
    )


def normalize(cfg_input: ConfigurationInput):
    """Bring four input lines to standing form.

    Returns ``(NormalizedConfig, PlaneMap)``.  Labelings are tried in a fixed
    lexicographic order (swap within pair1, swap within pair2, swap the pair
    roles) and the first one with C not parallel to D, B distinct from D and
    B avoiding C∩D wins, which makes the output reproducible.
    """
    if cfg_input.all_parallel():
        raise AllParallelError("all four lines are parallel")
    field = cfg_input.field
    chosen = None
    for swaps in _labelings():
        lines, role_to_input = _apply_labeling(cfg_input, swaps)
        if _labeling_valid(lines):
            chosen = (swaps, lines, role_to_input)
            break
    if chosen is None:
        raise ConcurrentLinesError("all four lines pass through one point")
    swaps, lines, role_to_input = chosen

    origin = lines["C"].intersection(lines["D"])
    reflection_t = None
    if any(ln.is_vertical for ln in lines.values()):
        reflection_t = _pick_reflection(field, lines)
    unscaled = PlaneMap(
        field=field,
        swaps=swaps,
        role_to_input=role_to_input,
        translation=(-origin[0], -origin[1]),
        reflection_t=reflection_t,
        scale=field.one(),
    )
    _, b_intercept = unscaled.apply_line(lines["B"]).slope_intercept()
    if not b_intercept:
        raise InternalCheckError("B passes through the origin after labeling")
    plane_map = replace(unscaled, scale=field.one() / b_intercept)

    # The standing form is read off the images of the input lines, found
    # through the recorded labels, so the map reproduces it by construction.
    by_label = cfg_input.lines_by_label()
    slopes = {}
    intercepts = {}
    for role in ROLES:
        image = plane_map.apply_line(by_label[role_to_input[role]])
        slopes[role], intercepts[role] = image.slope_intercept()
    if intercepts["C"] or intercepts["D"] or intercepts["B"] != field.one():
        raise InternalCheckError("normalization produced wrong intercepts")

    cfg = NormalizedConfig.make(
        field, slopes["A"], slopes["B"], slopes["C"], slopes["D"], intercepts["A"]
    )
    return cfg, plane_map
