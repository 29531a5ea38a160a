"""Enumeration of inscribed rectangles over a prime field.

The rectangles are the F_p-points of a plane quadric in the parallelogram
parameters (x_A : x_B : w).  Each affine row (x_A, w = 1) meets it in the
roots of a quadratic in x_B, read off the rectangle condition at
x_B = 0, 1 and -1 on plain ints mod p; the p + 1 points with w = 0 are
tested one by one.  Every hit is completed to a parallelogram without
touching the path code it checks.  The census is then replayed against the
slope and aspect paths: together the two paths must find every rectangle,
degenerate configurations must show the constant-aspect / constant-slope
split, and non-degenerate ones a single curve with injective slope.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field

from .configuration import NormalizedConfig, classify
from .errors import InternalCheckError, PreconditionError
from .paths import all_ratios, aspect_path_polys, eval_path, slope_path_polys
from .rectangles import (
    INDETERMINATE,
    ProjectiveRectangle,
    Ratio,
    aspect_of,
    quadric_h,
    slope_of,
)
from .scalars import FpElement, ratio_format

# Largest prime a census runs at.  Its time and the set of rectangles it holds
# both grow about linearly in p; near this bound one census takes 8-12 s and
# 220-280 MB, the more for degenerate configurations (2p + 1 rectangles).
MAX_CENSUS_PRIME = 60_000


def _residues(*values):
    return tuple(v.value for v in values)


def _row_roots(field, a: int, b: int, c: int):
    """The x in F_p with a x^2 + b x + c = 0 (residues mod p); range(p) when
    all three coefficients vanish."""
    p = field.char
    if a:
        d = (b * b - 4 * a * c) % p
        root = field.sqrt(FpElement(d, field))
        if root is None:
            return ()
        r = root.value
        if (r * r - d) % p:
            raise InternalCheckError(f"{r} is not a square root of {d} mod {p}")
        inv = pow(2 * a, -1, p)
        return {(r - b) * inv % p, (-r - b) * inv % p}
    if b:
        return (-c * pow(b, -1, p) % p,)
    return () if c else range(p)


def enumerate_rectangles(cfg: NormalizedConfig):
    """The set of all rectangles in the configuration space over F_p.

    A parameter point is completed to a parallelogram on ints mod p, with
    x_C = k_A x_A + k_B x_B + k_w w from one inverse of m_D - m_C.  On the row
    (x_A, x_B, 1) the rectangle condition is g(x_B) = a x_B^2 + b x_B + c with
    c = g(0), b = (g(1) - g(-1)) / 2 and a = (g(1) + g(-1)) / 2 - c, solved by
    one square root; a row where a, b and c all vanish lies in the quadric.
    The line w = 0 is tested point by point.  Only the hits are scaled to
    their canonical form.
    """
    field = cfg.field
    if not field.char:
        raise PreconditionError("census enumeration needs a prime field")
    p = field.char
    if p > MAX_CENSUS_PRIME:
        raise PreconditionError(
            f"census at p = {p} is too large: a census runs at primes up to {MAX_CENSUS_PRIME}"
        )
    m_a, m_b, m_c, m_d, b_a = _residues(cfg.m_a, cfg.m_b, cfg.m_c, cfg.m_d, cfg.b_a)
    inv = pow(m_d - m_c, -1, p)
    k_a, k_b, k_w = (m_a - m_d) * inv % p, (m_d - m_b) * inv % p, (b_a - 1) * inv % p

    def vertices(x_a, x_b, w):
        x_c = (k_a * x_a + k_b * x_b + k_w * w) % p
        return x_a, m_a * x_a + b_a * w, x_b, m_b * x_b + w, x_c, m_c * x_c

    def condition(x_a, x_b, w):
        _, y_a, _, y_b, x_c, y_c = vertices(x_a, x_b, w)
        return ((x_c - x_b) * (x_b - x_a) + (y_c - y_b) * (y_b - y_a)) % p

    hits = [(x_a, 1, 0) for x_a in range(p) if not condition(x_a, 1, 0)]
    if not condition(1, 0, 0):
        hits.append((1, 0, 0))
    half = (p + 1) // 2
    for x_a in range(p):
        c = condition(x_a, 0, 1)
        g_plus, g_minus = condition(x_a, 1, 1), condition(x_a, -1, 1)
        b = (g_plus - g_minus) * half % p
        a = ((g_plus + g_minus) * half - c) % p
        hits.extend((x_a, x_b, 1) for x_b in _row_roots(field, a, b, c))

    found = set()
    for x_a, x_b, w in hits:
        _, y_a, _, y_b, x_c, y_c = vertices(x_a, x_b, w)
        x_d = x_a - x_b + x_c
        coords = [c % p for c in (x_a, y_a, x_b, y_b, x_c, y_c, x_d, m_d * x_d, w)]
        scale = pow(next(c for c in coords if c), -1, p)
        found.add(ProjectiveRectangle(tuple(FpElement(c * scale, field) for c in coords)))
    return found


@dataclass
class CensusReport:
    """Exact counts plus the verdicts of the structural cross-checks."""

    p: int
    total: int
    at_infinity: int
    by_slope: dict
    by_aspect: dict
    union_covered: bool
    at_infinity_bound_ok: bool
    degenerate_consistency_ok: bool
    failures: list = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.union_covered
            and self.at_infinity_bound_ok
            and self.degenerate_consistency_ok
        )


def _ratio_key(field, value) -> str:
    if value is INDETERMINATE:
        return "indeterminate"
    return ratio_format(value, field)


def verify_against_paths(cfg: NormalizedConfig) -> CensusReport:
    """Enumerate rectangles and check them against both paths."""
    field = cfg.field
    census = enumerate_rectangles(cfg)
    cls = classify(cfg)
    failures = []

    spp = slope_path_polys(cfg)
    app = aspect_path_polys(cfg)
    ratios = all_ratios(field)
    slope_rects = [eval_path(cfg, spp, r) for r in ratios]
    aspect_rects = [eval_path(cfg, app, r) for r in ratios]
    slope_image, aspect_image = set(slope_rects), set(aspect_rects)

    union = slope_image | aspect_image
    union_covered = census == union
    if not union_covered:
        for witness in sorted(census ^ union, key=lambda p: str(p.coords)):
            side = "census-only" if witness in census else "path-only"
            failures.append(f"union mismatch ({side}): {witness.coords}")

    infinity_count = sum(1 for p in census if p.at_infinity)
    if cls.twin_pairs or cls.dual_pairs:
        bound_ok = True
    else:
        bound_ok = infinity_count <= 2
        if not bound_ok:
            failures.append(f"{infinity_count} rectangles at infinity")

    slope_keys = {rect: _ratio_key(field, slope_of(rect)) for rect in census}
    consistency_ok = True
    if cls.degenerate:
        shared_aspect = Ratio.of((cfg.m_c - cfg.m_d) * spp.first[0], spp.second[0])
        for r, rect in zip(ratios, slope_rects):
            got = aspect_of(rect)
            if got is INDETERMINATE or got != shared_aspect:
                consistency_ok = False
                failures.append(f"slope path aspect varies at {r}: {rect.coords}")
        shared_slope = Ratio.of(app.first[0], app.second[0])
        if cfg.f1 or cfg.f2:
            if shared_slope != Ratio.of(cfg.f1, cfg.f2):
                consistency_ok = False
                failures.append("aspect-path slope differs from the F diagonal")
        for r, rect in zip(ratios, aspect_rects):
            got = slope_of(rect)
            if got is INDETERMINATE or got != shared_slope:
                consistency_ok = False
                failures.append(f"aspect path slope varies at {r}: {rect.coords}")
    else:
        if slope_image != aspect_image:
            consistency_ok = False
            failures.append("slope and aspect path images differ")
        seen = {}
        for rect, key in slope_keys.items():
            if key in seen and seen[key] != rect:
                consistency_ok = False
                failures.append(f"slope {key} repeats: {rect.coords}")
            seen[key] = rect

    by_slope = Counter(slope_keys.values())
    by_aspect = Counter(_ratio_key(field, aspect_of(p)) for p in census)

    return CensusReport(
        p=field.char,
        total=len(census),
        at_infinity=infinity_count,
        by_slope=dict(sorted(by_slope.items())),
        by_aspect=dict(sorted(by_aspect.items())),
        union_covered=union_covered,
        at_infinity_bound_ok=bound_ok,
        degenerate_consistency_ok=consistency_ok,
        failures=failures,
    )


def quadric_point_count(cfg: NormalizedConfig) -> int:
    """Zeros of the rectangle quadric on the parameter plane P^2(F_p), by theorem.

    For p odd a quadratic form on P^2(F_p) with symmetric matrix S has
    p + 1 zeros at rank 3 or 1; at rank 2, 2p + 1 zeros (two lines) when it
    splits over F_p and 1 otherwise; p^2 + p + 1 at rank 0 (Lidl and
    Niederreiter, *Finite Fields*, section 6.2).  A rank-2 form splits iff -m
    is a square, m any nonzero principal 2x2 minor of S.  The rank is read off
    2S, which has integer entries and the same minors up to square factors.
    """
    field = cfg.field
    p = field.char
    if not p:
        raise PreconditionError("census enumeration needs a prime field")
    h = quadric_h(cfg)
    aa, ab, bb, aw, bw, ww = _residues(h.aa, h.ab, h.bb, h.aw, h.bw, h.ww)
    s = ((2 * aa, ab, aw), (ab, 2 * bb, bw), (aw, bw, 2 * ww))
    # minors[i][j] = det(2S without row i and column j); the diagonal holds the principal ones.
    minors = [
        [
            (s[i1][j1] * s[i2][j2] - s[i1][j2] * s[i2][j1]) % p
            for j1, j2 in ((1, 2), (0, 2), (0, 1))
        ]
        for i1, i2 in ((1, 2), (0, 2), (0, 1))
    ]
    if (s[0][0] * minors[0][0] - s[0][1] * minors[0][1] + s[0][2] * minors[0][2]) % p:
        return p + 1
    if any(any(row) for row in minors):
        m = next((minors[i][i] for i in range(3) if minors[i][i]), None)
        if m is None:
            raise InternalCheckError("a rank-2 symmetric matrix has no nonzero principal minor")
        return 2 * p + 1 if field.is_square(FpElement(-m, field)) else 1
    if any(v % p for row in s for v in row):
        return p + 1
    return p * p + p + 1
