"""The integer locus sweep of ``render`` against the exact Fraction sweep, and the
outputs' blindness to the scale of the plane map's matrix."""

import dataclasses
import os
import random
from fractions import Fraction

import pytest

from quadriline import (
    QQ,
    ConfigurationInput,
    InputLine,
    QuadrilineError,
    Ratio,
    classify,
    normalize,
)
from quadriline import hpoly
from quadriline.cli import load_config
from quadriline.errors import AtInfinityError
from quadriline.locus import centers_paths
from quadriline.paths import aspect_path_eval, slope_path_eval
from quadriline.svgfig import _SWEEP, _swept_centers
from conftest import rat


def fraction_sweep(center_map, plane_map):
    """Reference: each swept center in Fractions, mapped back exactly, then rounded."""
    points = []
    for s, t in _SWEEP:
        try:
            center = center_map.at(Ratio.of(Fraction(s), Fraction(t)))
        except AtInfinityError:
            points.append(None)
            continue
        x, y = plane_map.original_point(*center, 1)
        points.append((float(x), float(y)))
    return points


def center_map_of(lines):
    """(center map, plane map) of four lines A, C, B, D, or None when the locus is no conic."""
    a, c, b, d = (InputLine(*(QQ.parse(str(v)) for v in line)) for line in lines)
    try:
        cfg, pm = normalize(ConfigurationInput(QQ, (a, c), (b, d)))
    except QuadrilineError:
        return None
    if classify(cfg).degenerate:
        return None
    return centers_paths(cfg).center_map, pm


def random_line(rng, vertical):
    q = lambda: Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
    while True:
        a, b = q(), (0 if vertical else q())
        if a or b:
            return a, b, q()


def test_integer_sweep_matches_fraction_sweep():
    rng = random.Random(20)
    checked = 0
    while checked < 12:
        vertical = rng.randrange(4) if checked % 2 else None
        maps = center_map_of([random_line(rng, i == vertical) for i in range(4)])
        if maps is None:
            continue
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(_swept_centers(*maps)) == repr(fraction_sweep(*maps))
        checked += 1


def test_zero_coordinate_over_negative_denominator():
    cm, pm = center_map_of([(-4, -3, 1), (-1, 3, 5), (-4, 3, 1), (-1, -4, Fraction(5, 2))])
    reference = fraction_sweep(cm, pm)
    # The case the sign normalization is for: an exact 0 reached as 0 / (negative).
    assert any(
        pt is not None and 0.0 in pt and hpoly.eval_at(cm.den, Fraction(s), Fraction(t)) < 0
        for (s, t), pt in zip(_SWEEP, reference)
    )
    assert repr(_swept_centers(cm, pm)) == repr(reference)


@pytest.mark.parametrize(
    "name",
    ["cfg1.json", "vertical.json", "relabeled.json", "corner.json", "cfg1_f11.json",
     "vertical_f1009.json"],
)
def test_matrix_scale_is_invisible(name):
    """N is defined up to a nonzero factor: scaled by λ it maps the same keys to the same
    points and the same lines back, and sweeps the same floats, so no output byte,
    SVG included, depends on the scale normalize gives it."""
    cfg, pm = normalize(load_config(os.path.join(os.path.dirname(__file__), "..", "configs", name)))
    field, p = cfg.field, cfg.field.char
    rects = [
        path_eval(cfg, rat(field, s, 1))
        for path_eval in (slope_path_eval, aspect_path_eval)
        for s in range(-3, 4)
    ]
    keys = [rect.key for rect in rects if not rect.at_infinity]
    report = centers_paths(cfg)
    lines = list(cfg.lines().values()) + [
        desc for desc in (report.slope_centers, report.aspect_centers, report.single_line) if desc
    ]
    assert keys and lines
    for lam in (-3, 7, p + 2):
        scaled = dataclasses.replace(pm, matrix=tuple(tuple(lam * n for n in row) for row in pm.matrix))
        for key in keys:
            assert scaled.original_points(key) == pm.original_points(key)
        for line in lines:
            assert scaled.original_line(line) == pm.original_line(line)
        if not p and report.center_map is not None:
            assert repr(_swept_centers(report.center_map, scaled)) == repr(
                _swept_centers(report.center_map, pm)
            )
