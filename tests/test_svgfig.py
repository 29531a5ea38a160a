"""The integer locus sweep and clip of ``render`` against exact Fraction references,
the outputs' blindness to the scale of the plane map's matrix and of a clipped line,
the Fractions a render builds: none, and the SVG numbers that print -0: none."""

import math
import os
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quadriline import (
    QQ,
    ConfigurationInput,
    QuadrilineError,
    classify,
    normalize,
)
from quadriline import hpoly, svgfig
from quadriline.configuration import cross
from quadriline.cli import load_config, rectangle_json
from quadriline.locus import center_forms, centers_paths
from quadriline.paths import aspect_path_eval, slope_path_eval, slope_path_polys
from quadriline.svgfig import _clip_line, _swept_centers, render
from conftest import center_at, covec, fraction_count, input_line, rat, same_line
from membership import Line, parse, standing_line

# The ratios of the render's conic sweep: j/32 for |j| <= 512, then 1/0.
SWEEP = [(j, 32) for j in range(-512, 513)] + [(1, 0)]


RATIONAL_CONFIGS = ["cfg1.json", "cfg2.json", "cfg3.json", "vertical.json", "relabeled.json",
                    "corner.json"]
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
# Every shipped configuration over the rationals that draws: the four parallel lines of
# parallel.json have no plane map, so they exit before render.
RENDERED_JSON = sorted(
    name for name in os.listdir(CONFIGS)
    if name != "parallel.json" and load_config(os.path.join(CONFIGS, name)).field == QQ
)


def fraction_sweep(forms, plane_map):
    """Reference: each swept center in Fractions, mapped back exactly, then rounded."""
    points = []
    for st in SWEEP:
        center = center_at(QQ, forms, st)
        if center is None:
            points.append(None)
            continue
        x, y, w = (n0 * center[0] + n1 * center[1] + n2 for n0, n1, n2 in plane_map.matrix)
        points.append((float(x / w), float(y / w)))
    return points


def config_input(lines) -> ConfigurationInput:
    """The rational configuration of four lines (a, b, c), a x + b y = c, in the order A, C, B, D."""
    a, c, b, d = (input_line(QQ, Line(*(parse(QQ, str(v)) for v in line))) for line in lines)
    return ConfigurationInput(QQ, (a, c), (b, d))


def center_map_of(lines):
    """(slope-path center forms, plane map) of four lines A, C, B, D, or None when the
    locus is no conic."""
    try:
        cfg, pm = normalize(config_input(lines))
    except QuadrilineError:
        return None
    if classify(cfg).degenerate:
        return None
    return center_forms(slope_path_polys(cfg)), pm


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
        pt is not None and 0.0 in pt and hpoly.eval_at(cm[2], Fraction(s), Fraction(t)) < 0
        for (s, t), pt in zip(SWEEP, reference)
    )
    assert repr(_swept_centers(cm, pm)) == repr(reference)


@pytest.mark.parametrize("name", RATIONAL_CONFIGS + ["cfg1_f11.json", "vertical_f1009.json"])
def test_matrix_scale_is_invisible(tmp_path, name):
    """N is defined up to a nonzero factor: scaled by λ it gives each rectangle the same
    report and maps the same lines back, and sweeps the same floats, so no output byte,
    SVG included, depends on the scale normalize gives it."""
    cfg_input = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", name))
    cfg, pm = normalize(cfg_input)
    field, p = cfg.field, cfg.field.char
    rects = [
        path_eval(cfg, rat(field, s, 1))
        for path_eval in (slope_path_eval, aspect_path_eval)
        for s in range(-3, 4)
    ]
    affine = [rect for rect in rects if not rect.at_infinity]
    report = centers_paths(cfg)
    descs = (report.slope_centers, report.aspect_centers, report.single_line)
    lines = [covec(field, standing_line(cfg, role)) for role in "ABCD"]
    lines += [desc.normal for desc in descs if desc]
    assert affine and lines
    if not p:
        render(cfg_input, cfg, pm, tmp_path / "n.svg", diagonals=True)
    for lam in (-3, 7, p + 2):
        scaled = type(pm)(**{**vars(pm), "matrix": tuple(tuple(lam * n for n in row) for row in pm.matrix)})
        for rect in affine:
            assert rectangle_json(rect, scaled) == rectangle_json(rect, pm)
        for line in lines:
            assert same_line(field, scaled.original_line(line), pm.original_line(line))
        if not p:
            render(cfg_input, cfg, scaled, tmp_path / "scaled.svg", diagonals=True)
            assert (tmp_path / "scaled.svg").read_bytes() == (tmp_path / "n.svg").read_bytes()
            if not classify(cfg).degenerate:
                forms = center_forms(slope_path_polys(cfg))
                assert repr(_swept_centers(forms, scaled)) == repr(_swept_centers(forms, pm))


@pytest.mark.parametrize("name", RATIONAL_CONFIGS)
def test_clip_is_blind_to_the_line_scale(tmp_path, monkeypatch, name):
    """Every line ``render`` clips gives the same segment with its int covector scaled by
    -3, 7 and 1009, and divided by the gcd of its entries.  On corner.json a diagonal
    runs corner to corner of the viewport, where a float clip followed the rounding of
    the line's scale."""
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
        primitive = tuple(c // math.gcd(*line) for c in line)
        for multiple in [tuple(lam * c for c in line) for lam in (-3, 7, 1009)] + [primitive]:
            assert _clip_line(multiple, box) == segment
        x0, y0, w, h = box
        corners = [(x, y) for x in (x0, x0 + w) for y in (y0, y0 + h)]
        corner_to_corner |= segment is not None and all(
            any(math.isclose(x, cx) and math.isclose(y, cy) for cx, cy in corners)
            for x, y in segment
        )
    assert corner_to_corner or name != "corner.json"


def test_polyline_prints_each_point_as_fmt_did():
    """A point prints as x, 0.0 - y to 12 significant digits: a float y of 0.0 or -0.0
    prints 0, and a number that is not finite raises OverflowError."""
    points = [(0.5, 0.0), (1 / 3, -0.0), (-2.0, -3.5), (0.0, 7.25)]
    assert 'points="0.5,0 0.333333333333,0 -2,3.5 0,-7.25"' in svgfig._polyline(points, "")
    assert svgfig._polyline(points, "") == (
        '<polyline fill="none" points="'
        + " ".join(f"{svgfig._fmt(x)},{svgfig._fmt(0.0 - y)}" for x, y in points)
        + '" />'
    )
    for bad in (math.inf, -math.inf, math.nan):
        for point in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(OverflowError):
                svgfig._polyline([(1.0, 2.0), point], "")


@pytest.mark.parametrize("name", RATIONAL_CONFIGS + ["square.json"])
def test_render_builds_fractions_only_to_clip(tmp_path, name):
    """A render with --diagonals builds no Fraction, the parsing of its literals
    included, in ``_clip_line``'s box tests or anywhere else: the literals, anchors,
    rectangles, locus lines and point, diagonals and clipped segments are ints, int
    points and covectors until each becomes a float."""
    with fraction_count() as built:
        cfg_input = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", name))
        cfg, pm = normalize(cfg_input)
        render(cfg_input, cfg, pm, tmp_path / "out.svg", diagonals=True)
    assert built[0] == 0


def fraction_clip(u, box):
    """Reference: the clip of the line with int covector u on exact Fractions, each meet
    with a side tested against the box corners, duplicates dropped in side order."""
    x0, y0, w, h = box
    sides = [(d, 0, -n) for n, d in map(float.as_integer_ratio, (x0, x0 + w))]
    sides += [(0, d, -n) for n, d in map(float.as_integer_ratio, (y0, y0 + h))]
    pts = [(Fraction(X, Z), Fraction(Y, Z)) for X, Y, Z in (cross(u, s) for s in sides) if Z]
    x0, y0, x1, y1 = Fraction(x0), Fraction(y0), Fraction(x0 + w), Fraction(y0 + h)
    inside = list(dict.fromkeys(pt for pt in pts if x0 <= pt[0] <= x1 and y0 <= pt[1] <= y1))
    if len(inside) < 2:
        return None
    return [(float(x), float(y)) for x, y in inside[:2]]


COORDINATES = st.integers(-4, 4).map(float) | st.floats(-50, 50, allow_subnormal=False)
SPANS = st.sampled_from([0.5, 1.0, 3.0]) | st.floats(1e-3, 100)


def exact_point(x, y) -> tuple:
    """The int point (X : Y : Z) of two floats."""
    (n, d), (m, e) = x.as_integer_ratio(), y.as_integer_ratio()
    return n * e, m * d, d * e


@st.composite
def lines_and_boxes(draw):
    """A float box and an int covector: a random line, or the line through two points each
    a box corner, a point on a side or any point, so meets fall on sides and corners and a
    corner is met twice; the covector comes at a random nonzero scale."""
    x0, y0, w, h = draw(COORDINATES), draw(COORDINATES), draw(SPANS), draw(SPANS)
    xs, ys = (x0, x0 + w), (y0, y0 + h)
    point = st.one_of(
        st.tuples(st.sampled_from(xs), st.sampled_from(ys)),  # a corner
        st.tuples(st.sampled_from(xs), COORDINATES),  # on a vertical side's line
        st.tuples(COORDINATES, st.sampled_from(ys)),  # on a horizontal side's line
        st.tuples(COORDINATES, COORDINATES),
    )
    if draw(st.booleans()):
        u = cross(exact_point(*draw(point)), exact_point(*draw(point)))
    else:
        u = tuple(draw(st.integers(-30, 30)) for _ in range(3))
    assume(u[0] or u[1])
    lam = draw(st.sampled_from([1, -1, 7]) | st.integers(-10**6, 10**6).filter(bool))
    return tuple(lam * c for c in u), (x0, y0, w, h)


@settings(max_examples=1000, deadline=None)
@given(lines_and_boxes())
@example(((-1, 1, 0), (0.0, 0.0, 1.0, 1.0)))  # the diagonal: a corner at each end, met twice
@example(((0, 1, 0), (0.0, 0.0, 1.0, 1.0)))  # along a side: two corners, one side never met
@example(((1, 1, -2), (0.0, 0.0, 1.0, 1.0)))  # through the corner (1, 1) alone
@example(((1, 1, -3), (0.0, 0.0, 1.0, 1.0)))  # missing the box
def test_clip_matches_fraction_clip(drawn):
    u, box = drawn
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(_clip_line(u, box)) == repr(fraction_clip(u, box))


# A number in SVG text: the digits of a color such as "#3b6ea5" read as positive numbers.
NUMBER = re.compile(r"-?\d[\d.]*(?:e[-+]?\d+)?")


def negative_zeros(svg_path) -> list:
    """The numbers of a written SVG that print as -0."""
    return [n for n in NUMBER.findall(svg_path.read_text()) if n.startswith("-") and not float(n)]


@pytest.mark.parametrize("diagonals", [False, True], ids=["plain", "diagonals"])
@pytest.mark.parametrize("name", RENDERED_JSON)
def test_no_svg_number_is_negative_zero(tmp_path, name, diagonals):
    """Every printed y is 0.0 - y, so a y of zero prints 0 on a clipped line, a conic
    branch, a vertex, the dot and the viewport alike."""
    cfg_input = load_config(os.path.join(CONFIGS, name))
    render(cfg_input, *normalize(cfg_input), tmp_path / "out.svg", diagonals=diagonals)
    assert negative_zeros(tmp_path / "out.svg") == []


def test_no_svg_number_is_negative_zero_with_horizontal_lines(tmp_path):
    """Random rational configurations where each line is, with probability one half,
    y = c with c often 0: a clipped line y = 0 and the zero ys it meets print 0."""
    rng = random.Random(29)
    rendered = 0
    while rendered < 40:
        lines = [
            (0, rng.choice((1, 2, -3)), rng.choice((0, 0, 1, -2))) if rng.randrange(2)
            else random_line(rng, False)
            for _ in range(4)
        ]
        try:
            cfg_input = config_input(lines)
            cfg, pm = normalize(cfg_input)
        except QuadrilineError:
            continue
        for diagonals in (False, True):
            render(cfg_input, cfg, pm, tmp_path / "out.svg", samples=3, diagonals=diagonals)
            assert negative_zeros(tmp_path / "out.svg") == [], lines
        rendered += 1
