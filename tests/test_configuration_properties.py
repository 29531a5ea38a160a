"""Property tests of normalize: its PlaneMap matrix carries the input lines to the standing form and
back, and it agrees with the field-element reference normalization."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from quadriline import (
    QQ,
    ConfigurationInput,
    PrimeField,
    QuadrilineError,
    normalize,
)
import membership
from conftest import (
    affine_point, contains, covec, input_line, int_point, normalized_point, plane_map_values,
    same_line,
)
from membership import Line, field_line, from_int, zero_of

PRIMES = [n for n in range(3, 400) if all(n % d for d in range(2, n))]

small_q = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


@st.composite
def fields_and_scalars(draw):
    """A field, ℚ or F_p for a random odd prime p < 400, and a strategy for its elements."""
    p = draw(st.none() | st.sampled_from(PRIMES))
    if p is None:
        return QQ, small_q
    field = PrimeField(p)
    return field, st.integers(0, p - 1).map(lambda n: from_int(field, n))


@st.composite
def normalized_inputs(draw):
    """Four arbitrary input lines A, C, B, D, vertical ones included, and their normalization."""
    field, scalars = draw(fields_and_scalars())
    lines = []
    for _ in range(4):
        a = draw(scalars)
        b = draw(st.just(zero_of(field)) | scalars)
        assume(a or b)
        lines.append(input_line(field, Line(a, b, draw(scalars))))
    cfg_input = ConfigurationInput(field, tuple(lines[:2]), tuple(lines[2:]))
    try:
        cfg, pm = normalize(cfg_input)
    except QuadrilineError:
        assume(False)
    return cfg_input, cfg, pm, scalars


@settings(max_examples=200, deadline=None)
@given(normalized_inputs(), st.data())
def test_plane_map_round_trip(normalized, data):
    cfg_input, cfg, pm, scalars = normalized
    field = cfg.field
    by_label = cfg_input.lines_by_label()
    for role, label in pm.role_to_input.items():
        original = field_line(field, by_label[label])
        u, standing = covec(field, original), covec(field, membership.standing_line(cfg, role))
        assert same_line(field, pm.normalized_line(u), standing)
        assert same_line(field, pm.original_line(standing), u)
        assert same_line(field, pm.original_line(pm.normalized_line(u)), u)
        # A point of the original line lands on the normalized line and comes back.
        if original.b:
            x = data.draw(scalars)
            point = (x, (original.c - original.a * x) / original.b)
        else:
            y = data.draw(scalars)
            point = (original.c / original.a, y)
        image = normalized_point(pm, int_point(field, point))
        assert contains(field, standing, affine_point(field, image))
        assert affine_point(field, pm.original([image])[0]) == point
    point = int_point(field, (data.draw(scalars), data.draw(scalars)))
    back = normalized_point(pm, pm.original([point])[0])
    assert affine_point(field, back) == affine_point(field, point)


REFERENCE_PRIMES = [3, 5, 7, 13, 1009, 10**9 + 7]  # t = 2 and t = 5 give 1 + t^2 = 0 at p = 5 and 13


@st.composite
def line_quads(draw):
    """Four input lines over ℚ or a prime of REFERENCE_PRIMES, in a random order of the
    input slots A, C, B, D, and the kind of configuration drawn: arbitrary lines
    (vertical ones frequent), B = D up to a factor, B through C∩D, all parallel,
    or all through one point."""
    p = draw(st.none() | st.sampled_from(REFERENCE_PRIMES))
    if p is None:
        field, scalars = QQ, small_q
    else:
        field = PrimeField(p)
        scalars = (st.integers(-6, 6) | st.integers(0, p - 1)).map(lambda n: from_int(field, n))
    nonzero = scalars.filter(bool)
    zero = st.just(zero_of(field))

    def line(a=None, b=None):
        a = draw(zero | scalars) if a is None else a
        b = draw(zero | scalars) if b is None else b
        assume(a or b)
        return Line(a, b, draw(scalars))

    kind = draw(st.sampled_from(["lines", "b=d", "b through c∩d", "all parallel", "concurrent"]))
    if kind == "lines":
        lines = [line() for _ in range(4)]
    elif kind == "b=d":
        d, k = line(), draw(nonzero)
        lines = [line(), line(), Line(k * d.a, k * d.b, k * d.c), d]
    elif kind == "b through c∩d":
        c, d = line(), line()
        k, m = draw(nonzero), draw(nonzero)
        a, b = k * c.a + m * d.a, k * c.b + m * d.b
        assume(a or b)
        lines = [line(), c, Line(a, b, k * c.c + m * d.c), d]
    elif kind == "all parallel":
        a, b = draw(scalars), draw(scalars)
        assume(a or b)
        lines = [line(a, b) for _ in range(4)]
    else:
        x, y = draw(scalars), draw(scalars)
        lines = []
        for _ in range(4):
            ln = line()
            lines.append(Line(ln.a, ln.b, ln.a * x + ln.b * y))
    a, c, b, d = (input_line(field, ln) for ln in draw(st.permutations(lines)))
    return kind, ConfigurationInput(field, (a, c), (b, d))


def normalize_outcome(normalize_fn, cfg_input):
    """normalize_fn's (cfg, plane map), or the type and message of the error it raised."""
    try:
        return normalize_fn(cfg_input)
    except QuadrilineError as exc:
        return type(exc), str(exc)


def projectively_equal(field, m, n) -> bool:
    """Whether the 3×3 int matrices m and n are nonzero multiples of each other in the field."""
    x = [v for row in m for v in row]
    y = [v for row in n for v in row]
    zero = (lambda v: not v % field.char) if field.char else (lambda v: not v)
    return (
        not all(zero(v) for v in x)
        and not all(zero(v) for v in y)
        and all(zero(x[i] * y[j] - x[j] * y[i]) for i in range(9) for j in range(i))
    )


@settings(max_examples=250, deadline=None)
@given(line_quads())
def test_normalize_matches_reference(drawn):
    """The integer-covector normalize against the field-element reference in tests/membership.py:
    equal constants and plane-map fields, N up to a nonzero factor, or the same error."""
    _, cfg_input = drawn
    expected = normalize_outcome(membership.normalize, cfg_input)
    got = normalize_outcome(normalize, cfg_input)
    if isinstance(expected[0], type):
        assert got == expected
        return
    (cfg, pm), (ref_cfg, ref_pm) = got, expected
    assert cfg == ref_cfg
    for name in ("field", "swaps", "role_to_input"):
        assert getattr(pm, name) == getattr(ref_pm, name), name
    assert plane_map_values(pm) == (ref_pm.translation, ref_pm.reflection_t, ref_pm.scale)
    assert projectively_equal(cfg.field, pm.matrix, ref_pm.matrix)


def test_reference_strategy_reaches_every_outcome():
    """The drawn quadruples reach each error of normalize, a reflection, a relabeling, and
    each kind of quadruple normalizes somewhere."""
    seen = set()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(line_quads())
    def collect(drawn):
        kind, cfg_input = drawn
        out = normalize_outcome(normalize, cfg_input)
        if isinstance(out[0], type):
            seen.add(out[0].__name__)
            return
        seen.add(("normalized", kind))
        _, pm = out
        if pm.t is not None:
            seen.add("reflection")
        if pm.field.char in (5, 13) and pm.t is not None:
            seen.add("reflection at p = 5 or 13")
        if any(pm.swaps):
            seen.add("relabeled")

    collect()
    kinds = {"lines", "b=d", "b through c∩d"}
    assert seen >= {
        "AllParallelError",
        "ConcurrentLinesError",
        "ReflectionUnavailableError",
        "reflection",
        "reflection at p = 5 or 13",
        "relabeled",
        *(("normalized", kind) for kind in kinds),
    }
