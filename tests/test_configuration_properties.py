"""Property test: normalize's PlaneMap matrix carries the input lines to the standing form and back."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from quadriline import (
    QQ,
    ConfigurationInput,
    InputLine,
    PrimeField,
    QuadrilineError,
    normalize,
)
from conftest import normalized_point

PRIMES = [n for n in range(3, 400) if all(n % d for d in range(2, n))]

small_q = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


@st.composite
def fields_and_scalars(draw):
    """A field, ℚ or F_p for a random odd prime p < 400, and a strategy for its elements."""
    p = draw(st.none() | st.sampled_from(PRIMES))
    if p is None:
        return QQ, small_q
    field = PrimeField(p)
    return field, st.integers(0, p - 1).map(field.from_int)


@st.composite
def normalized_inputs(draw):
    """Four arbitrary input lines A, C, B, D, vertical ones included, and their normalization."""
    field, scalars = draw(fields_and_scalars())
    lines = []
    for _ in range(4):
        a = draw(scalars)
        b = draw(st.just(field.zero()) | scalars)
        assume(a or b)
        lines.append(InputLine(a, b, draw(scalars)))
    cfg_input = ConfigurationInput(field, tuple(lines[:2]), tuple(lines[2:]))
    try:
        cfg, pm = normalize(cfg_input)
    except QuadrilineError:
        assume(False)
    return cfg_input, cfg, pm, scalars


def original_point(pm, point):
    """pm.original_point of an affine point given in field elements."""
    if pm.field.char:
        point = tuple(c.value for c in point)
    return pm.original_point(*point, 1)


@settings(max_examples=200, deadline=None)
@given(normalized_inputs(), st.data())
def test_plane_map_round_trip(normalized, data):
    cfg_input, cfg, pm, scalars = normalized
    by_label = cfg_input.lines_by_label()
    for role, label in pm.role_to_input.items():
        original = by_label[label]
        assert pm.normalized_line(original).same_line(cfg.line(role))
        assert pm.original_line(cfg.line(role)).same_line(original)
        assert pm.original_line(pm.normalized_line(original)).same_line(original)
        # A point of the original line lands on the normalized line and comes back.
        if original.b:
            x = data.draw(scalars)
            point = (x, (original.c - original.a * x) / original.b)
        else:
            y = data.draw(scalars)
            point = (original.c / original.a, y)
        image = normalized_point(pm, point)
        assert cfg.line(role).contains(image)
        assert original_point(pm, image) == point
    point = (data.draw(scalars), data.draw(scalars))
    assert normalized_point(pm, original_point(pm, point)) == point
