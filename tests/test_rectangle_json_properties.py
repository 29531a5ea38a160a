"""The text leaves of ``cli.rectangle_json`` against the report as it was built from
field values: a ``Ratio`` per projective coordinate over the pivot, ``slope_of`` and
``aspect_of``, and the vertices and the center as field quotients through the plane
map's matrix N."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from quadriline import QQ, ConfigurationInput, PrimeField, QuadrilineError, Ratio, normalize
from quadriline.cli import rectangle_json
from quadriline.configuration import ROLES
from quadriline.paths import aspect_path_eval, slope_path_eval
from quadriline.rectangles import ProjectiveRectangle, aspect_of, slope_of
from conftest import input_line
from membership import Line, from_int, quotient, zero_of

PRIMES = [3, 5, 7, 11, 13, 101, 1009, 10**9 + 7]


def reference_json(rect, pm) -> dict:
    """The report of ``rect`` built from Ratios and field elements, then printed."""
    field, key = rect.field, rect.key
    pivot = 1 if field.char else next(c for c in reversed(key) if c)
    slope, aspect = slope_of(rect), aspect_of(rect)  # a Ratio, or the marker INDETERMINATE
    out = {
        "projective": [str(Ratio(field, c, pivot)) for c in key],
        "at_infinity": rect.at_infinity,
        "slope": str(slope) if isinstance(slope, Ratio) else slope.value,
        "aspect": str(aspect) if isinstance(aspect, Ratio) else aspect.value,
        "sequence": [pm.role_to_input[r] for r in ROLES],
        "vertices": None,
        "center": None,
    }
    if not rect.at_infinity:
        xa, ya, xb, yb, xc, yc, xd, yd, w = key
        points = [(xa, ya, w), (xb, yb, w), (xc, yc, w), (xd, yd, w), (xa + xc, ya + yc, 2 * w)]
        # Fraction(X, W) over the rationals, the FpElement X / W over F_p.
        *vertices, center = [
            [str(quotient(field, X, W)), str(quotient(field, Y, W))] for X, Y, W in pm.original(points)
        ]
        out["vertices"] = {pm.role_to_input[r]: v for r, v in zip(ROLES, vertices)}
        out["center"] = center
    return out


@st.composite
def fields_and_scalars(draw):
    """ℚ with small fractions, or F_p for p from tiny to 10^9 + 7 with any residue."""
    p = draw(st.none() | st.sampled_from(PRIMES))
    if p is None:
        return QQ, st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 7]))
    field = PrimeField(p)
    return field, (st.integers(-3, 3) | st.integers(0, p - 1)).map(lambda n: from_int(field, n))


@st.composite
def plane_maps(draw):
    """A field, a strategy for its elements and the plane map of four random lines,
    vertical ones included."""
    field, scalars = draw(fields_and_scalars())
    lines = []
    for _ in range(4):
        a, b = draw(scalars), draw(st.just(zero_of(field)) | scalars)
        assume(a or b)
        lines.append(input_line(field, Line(a, b, draw(scalars))))
    try:
        cfg, pm = normalize(ConfigurationInput(field, tuple(lines[:2]), tuple(lines[2:])))
    except QuadrilineError:
        assume(False)
    return field, cfg, pm


def ints(field):
    return st.integers(-40, 40) | st.integers(0, field.char - 1 if field.char else 10**30)


@st.composite
def rectangles(draw, field, cfg):
    """A path rectangle at a random ratio (1/0 included), or any canonical point with the
    A, B and C vertices often equal (an indeterminate slope or aspect) and w often 0."""
    if draw(st.booleans()):
        s, t = draw(ints(field)), draw(st.sampled_from([0, 1]) | ints(field))
        assume(s % field.char or t % field.char if field.char else s or t)
        path_eval = draw(st.sampled_from([slope_path_eval, aspect_path_eval]))
        return path_eval(cfg, Ratio(field, s, t))
    coords = [draw(st.sampled_from([0, 1, -1]) | ints(field)) for _ in range(9)]
    if draw(st.booleans()):
        coords[2:4] = coords[0:2]
    if draw(st.booleans()):
        coords[4:6] = coords[2:4]
    if draw(st.booleans()):
        coords[8] = 0
    assume(any(c % field.char if field.char else c for c in coords))
    return ProjectiveRectangle.canonical(field, coords)


@settings(max_examples=400, deadline=None)
@given(plane_maps(), st.data())
def test_leaves_match_the_field_value_report(drawn, data):
    field, cfg, pm = drawn
    rect = data.draw(rectangles(field, cfg))
    assert rectangle_json(rect, pm) == reference_json(rect, pm)


def test_strategy_reaches_every_kind_of_leaf():
    """The property sees both fields, rectangles at infinity, affine ones, and slopes
    and aspects that are 1/0 or indeterminate."""
    seen = set()

    @settings(max_examples=400, deadline=None)
    @given(plane_maps(), st.data())
    def collect(drawn, data):
        field, cfg, pm = drawn
        report = rectangle_json(data.draw(rectangles(field, cfg)), pm)
        seen.add(("prime" if field.char else "rational", report["at_infinity"]))
        seen.update(report[k] for k in ("slope", "aspect") if report[k] in ("1/0", "indeterminate"))

    collect()
    assert seen >= {("prime", True), ("prime", False), ("rational", True), ("rational", False),
                    "1/0", "indeterminate"}
