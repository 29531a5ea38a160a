"""The integer locus sweep of ``render`` against the exact Fraction sweep, and the
outputs' blindness to the scale of the plane map's matrix and of a clipped line."""

import math
import os
import random
from fractions import Fraction

import pytest

from quadriline import (
    QQ,
    ConfigurationInput,
    InputLine,
    QuadrilineError,
    classify,
    normalize,
)
from quadriline import hpoly, svgfig
from quadriline.cli import load_config
from quadriline.locus import centers_paths
from quadriline.paths import aspect_path_eval, slope_path_eval
from quadriline.svgfig import _clip_line, _swept_centers, render
from conftest import center_at, rat
from membership import standing_line

# The ratios of the render's conic sweep: j/32 for |j| <= 512, then 1/0.
SWEEP = [(j, 32) for j in range(-512, 513)] + [(1, 0)]


RATIONAL_CONFIGS = ["cfg1.json", "cfg2.json", "cfg3.json", "vertical.json", "relabeled.json",
                    "corner.json"]


def fraction_sweep(center_map, plane_map):
    """Reference: each swept center in Fractions, mapped back exactly, then rounded."""
    points = []
    for st in SWEEP:
        center = center_at(center_map, st)
        if center is None:
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
        for (s, t), pt in zip(SWEEP, reference)
    )
    assert repr(_swept_centers(cm, pm)) == repr(reference)


@pytest.mark.parametrize("name", RATIONAL_CONFIGS + ["cfg1_f11.json", "vertical_f1009.json"])
def test_matrix_scale_is_invisible(tmp_path, name):
    """N is defined up to a nonzero factor: scaled by λ it maps the same keys to the same
    points and the same lines back, and sweeps the same floats, so no output byte,
    SVG included, depends on the scale normalize gives it."""
    cfg_input = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", name))
    cfg, pm = normalize(cfg_input)
    field, p = cfg.field, cfg.field.char
    rects = [
        path_eval(cfg, rat(field, s, 1))
        for path_eval in (slope_path_eval, aspect_path_eval)
        for s in range(-3, 4)
    ]
    keys = [rect.key for rect in rects if not rect.at_infinity]
    report = centers_paths(cfg)
    lines = [standing_line(cfg, role) for role in "ABCD"] + [
        desc for desc in (report.slope_centers, report.aspect_centers, report.single_line) if desc
    ]
    assert keys and lines
    if not p:
        render(cfg_input, cfg, pm, tmp_path / "n.svg", diagonals=True)
    for lam in (-3, 7, p + 2):
        scaled = type(pm)(**{**vars(pm), "matrix": tuple(tuple(lam * n for n in row) for row in pm.matrix)})
        for key in keys:
            assert scaled.original_points(key) == pm.original_points(key)
        for line in lines:
            assert scaled.original_line(line).same_line(pm.original_line(line))
        if not p:
            render(cfg_input, cfg, scaled, tmp_path / "scaled.svg", diagonals=True)
            assert (tmp_path / "scaled.svg").read_bytes() == (tmp_path / "n.svg").read_bytes()
            if report.center_map is not None:
                assert repr(_swept_centers(report.center_map, scaled)) == repr(
                    _swept_centers(report.center_map, pm)
                )


@pytest.mark.parametrize("name", RATIONAL_CONFIGS)
def test_clip_is_blind_to_the_line_scale(tmp_path, monkeypatch, name):
    """Every line ``render`` clips gives the same segment scaled by -3, 7 and 1/1009.  On
    corner.json a diagonal runs corner to corner of the viewport, where a float clip
    followed the rounding of the line's scale."""
    calls = []

    def recording(line, box):
        calls.append((line, box))
        return _clip_line(line, box)

    monkeypatch.setattr(svgfig, "_clip_line", recording)
    cfg_input = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", name))
    render(cfg_input, *normalize(cfg_input), tmp_path / "out.svg", diagonals=True)
    assert calls
    corner_to_corner = False
    for line, box in calls:
        segment = _clip_line(line, box)
        for lam in (Fraction(-3), Fraction(7), Fraction(1, 1009)):
            assert _clip_line(InputLine(lam * line.a, lam * line.b, lam * line.c), box) == segment
        x0, y0, w, h = box
        corners = [(x, y) for x in (x0, x0 + w) for y in (y0, y0 + h)]
        corner_to_corner |= segment is not None and all(
            any(math.isclose(x, cx) and math.isclose(y, cy) for cx, cy in corners)
            for x, y in segment
        )
    assert corner_to_corner or name != "corner.json"


def test_polyline_prints_each_point_as_fmt_did():
    """A point prints as float(x), float(-y) to 12 significant digits: a float y of 0.0
    prints -0, an exact 0 prints 0, and a number that is not finite raises OverflowError."""
    points = [(0.5, 0.0), (Fraction(1, 3), Fraction(0)), (-2, Fraction(-7, 2))]
    assert 'points="0.5,-0 0.333333333333,0 -2,3.5"' in svgfig._polyline(points, "")
    assert svgfig._polyline(points, "") == (
        '<polyline fill="none" points="'
        + " ".join(f"{svgfig._fmt(x)},{svgfig._fmt(-y)}" for x, y in points)
        + '" />'
    )
    for bad in (math.inf, -math.inf, math.nan):
        for point in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(OverflowError):
                svgfig._polyline([(1.0, 2.0), point], "")
