"""Brute-force enumeration of inscribed rectangles over a prime field.

The parameter plane (x_A : x_B : w) is walked point by point on plain ints
mod p; each parameter is completed to a parallelogram and kept when the
rectangle condition holds, without touching the path code it checks.
The census is then replayed against the slope and aspect paths: together the
two paths must find every rectangle, degenerate configurations must show the
constant-aspect / constant-slope split, and non-degenerate ones a single
curve with injective slope.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from itertools import chain, product

from .configuration import NormalizedConfig, classify
from .errors import PreconditionError
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


def _parameter_points(p: int):
    """Duplicate-free representatives of the projective parameter plane over
    F_p as plain ints: (x_A, x_B, 1) first, then (x_A, 1, 0), then (1, 0, 0)."""
    return chain(
        product(range(p), range(p), (1,)), product(range(p), (1,), (0,)), ((1, 0, 0),)
    )


def _residues(*values):
    return tuple(v.value for v in values)


def enumerate_rectangles(cfg: NormalizedConfig):
    """The set of all rectangles in the configuration space over F_p.

    Each parameter point is completed to a parallelogram on ints mod p, with
    x_C = k_A x_A + k_B x_B + k_w w from one inverse of m_D - m_C.  The
    rectangle condition is homogeneous, so it is tested on the unscaled
    coordinates; only the hits are scaled to their canonical form.
    """
    field = cfg.field
    if not field.char:
        raise PreconditionError("census enumeration needs a prime field")
    p = field.char
    m_a, m_b, m_c, m_d, b_a = _residues(cfg.m_a, cfg.m_b, cfg.m_c, cfg.m_d, cfg.b_a)
    inv = pow(m_d - m_c, -1, p)
    k_a, k_b, k_w = (m_a - m_d) * inv % p, (m_d - m_b) * inv % p, (b_a - 1) * inv % p
    found = set()
    for x_a, x_b, w in _parameter_points(p):
        x_c = (k_a * x_a + k_b * x_b + k_w * w) % p
        y_a = m_a * x_a + b_a * w
        y_b = m_b * x_b + w
        y_c = m_c * x_c
        if ((x_c - x_b) * (x_b - x_a) + (y_c - y_b) * (y_b - y_a)) % p:
            continue
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
    """Zeros of the rectangle quadric over the parameter plane (cross-check)."""
    p = cfg.field.char
    if not p:
        raise PreconditionError("census enumeration needs a prime field")
    h = quadric_h(cfg)
    aa, ab, bb, aw, bw, ww = _residues(h.aa, h.ab, h.bb, h.aw, h.bw, h.ww)
    return sum(
        1
        for x_a, x_b, w in _parameter_points(p)
        if not (x_a * (aa * x_a + ab * x_b + aw * w) + x_b * (bb * x_b + bw * w) + ww * w * w) % p
    )


def random_normalized_config(field, rng):
    """A uniformly random valid normalized configuration over F_p.

    Samples (m_A, m_B, m_C, m_D, b_A) with rejection on parallel C, D; the
    rejection count is returned alongside the configuration.  B = D and the
    all-concurrent case cannot occur in normalized form.
    """
    rejections = 0
    while True:
        values = [field.from_int(rng.randrange(field.char)) for _ in range(5)]
        if values[2] == values[3]:
            rejections += 1
            continue
        return NormalizedConfig.make(field, *values), rejections
