"""Property tests of normalize: its PlaneMap matrix carries the input lines to the standing form and
back, it agrees with the field-element reference normalization, and the reports that do not
depend on the frame are the same for lines and their image under a similarity."""

import pathlib
import tempfile
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
from quadriline.cli import build_parser
from quadriline.errors import InternalCheckError
from quadriline.rectangles import ALL_RATIOS
import membership
from conftest import (
    affine_point, contains, covec, input_line, int_point, normalized_point, plane_map_values,
    same_line, write_config,
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
def line_quads(draw, primes=REFERENCE_PRIMES):
    """Four input lines over ℚ or a prime of ``primes``, in a random order of the
    input slots A, C, B, D, and the kind of configuration drawn: arbitrary lines
    (vertical ones frequent), B = D up to a factor, B through C∩D, all parallel,
    or all through one point."""
    p = draw(st.none() | st.sampled_from(primes))
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


@st.composite
def similarities(draw, p):
    """An exact similarity x ↦ λ R x + τ of the plane over ℚ (p = 0) or F_p, as the int
    matrix q R of R, which is the rotation or the reflection of
    (a, b) = ((1 - u²) / q, 2u / q), q = 1 + u², with q itself, λ != 0 and τ: ints."""
    u = draw(st.integers(-6, 6) | st.integers(0, p - 1)) if p else draw(st.integers(-6, 6))
    lam = draw(st.integers(-5, 5).filter(bool))
    tau = (draw(st.integers(-6, 6)), draw(st.integers(-6, 6)))
    q, a, b = 1 + u * u, 1 - u * u, 2 * u
    assume(q % p and lam % p if p else True)
    rotation = draw(st.booleans())
    r = ((a, -b), (b, a)) if rotation else ((a, b), (b, -a))
    return r, q, lam, tau


def moved(line: InputLine, similarity, p) -> InputLine:
    """The image of the line a x + b y = c under the similarity: its covector (n, -c) goes to
    (q R n, q λ (-c) - (q R n) · τ), which is q times (R n, λ (-c) - (R n) · τ)."""
    (r0, r1), q, lam, (tx, ty) = similarity
    n = (line.a, line.b)
    a, b = sum(map(int.__mul__, r0, n)), sum(map(int.__mul__, r1, n))
    c = q * lam * line.c + a * tx + b * ty
    return InputLine(*((v % p for v in (a, b, c)) if p else (a, b, c)))


def outcome(directory, name, field, lines, command, *flags):
    """The report of ``command`` with ``flags`` on the lines A, C, B, D, as ``main`` runs it:
    (0, the report), or (3 or 2, the class of the error raised)."""
    pairs = [[(ln.a, ln.b, ln.c) for ln in pair] for pair in (lines[:2], lines[2:])]
    tag = {"prime": field.char} if field.char else "rational"
    path = write_config(pathlib.Path(directory), name, tag, pairs)
    args = build_parser().parse_args([command, "--input", path, *flags])
    try:
        return 0, args.fn(args)
    except InternalCheckError as exc:
        return 3, type(exc)
    except QuadrilineError as exc:
        return 2, type(exc)


def frame_free(command, result):
    """The part of a command's outcome that no similarity moves: the exit and error class;
    the class fields and the count of at-infinity slopes and aspects (or ``all``); the locus
    shape; the census totals, coverage, failures and quadric points."""
    code, report = result
    if code:
        return code, report
    if "all_parallel" in report:
        return report["all_parallel"]["midline_shared"]
    if command == "classify":
        counts = ("all" if v is ALL_RATIOS else len(v) for v in report["at_infinity"].values())
        return report["class"], tuple(counts)
    if command == "locus":
        return report["shape"]
    keys = ("total", "at_infinity", "union_covered", "quadric_points")
    return tuple(report[k] for k in keys) + (report["failures"] == [],)


@settings(max_examples=200, deadline=None)
@given(line_quads(primes=[101, 1009, 10**9 + 7]), st.data())
def test_frame_free_reports_are_blind_to_a_similarity(drawn, data):
    """A similarity S maps inscribed rectangles to inscribed rectangles, so the reports that
    see no frame are the same for the lines and for S(lines): ``classify`` and ``locus``
    over ℚ and every prime, ``census`` where p <= 1009."""
    _, cfg_input = drawn
    field, p = cfg_input.field, cfg_input.field.char
    similarity = data.draw(similarities(p))
    lines = list(cfg_input.lines_by_label().values())
    images = [moved(line, similarity, p) for line in lines]
    commands = ["classify", "locus"] + (["census"] if p and p <= 1009 else [])
    with tempfile.TemporaryDirectory() as directory:
        for command in commands:
            before = outcome(directory, "lines.json", field, lines, command)
            after = outcome(directory, "images.json", field, images, command)
            assert frame_free(command, after) == frame_free(command, before), command


SMALL_PRIMES = [7, 11, 13, 17]
TWO_LINES = (-4, -1, 0, 2, 3)  # m_A, m_B, m_C, m_D, b_A of a TwoLines standing form


def standing_lines(ints) -> list:
    """The lines A, C, B, D of the standing form (m_A, m_B, m_C, m_D, b_A) as InputLines."""
    m_a, m_b, m_c, m_d, b_a = ints
    return [InputLine(-m_a, 1, b_a), InputLine(-m_c, 1, 0), InputLine(-m_b, 1, 1),
            InputLine(-m_d, 1, 0)]


@st.composite
def small_prime_lines(draw):
    """A prime p of SMALL_PRIMES and four lines A, C, B, D over F_p: arbitrary ones, or the
    TWO_LINES form moved by a similarity, so that special rectangles occur."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    if draw(st.booleans()):
        similarity = draw(similarities(p))
        return p, [moved(line, similarity, p) for line in standing_lines(TWO_LINES)]
    residues = st.integers(0, p - 1)
    normals = st.tuples(residues, residues).filter(any)
    return p, [InputLine(*draw(normals), draw(residues)) for _ in range(4)]


def affine_points(rect, p, similarity=None) -> tuple:
    """The vertices of a rectangle report, in input-label order A, B, C, D, then its center,
    as int pairs mod p; each moved by the similarity x ↦ λ (q R / q) x + τ when one is given."""
    points = [tuple(map(int, rect["vertices"][label])) for label in "ABCD"]
    points.append(tuple(map(int, rect["center"])))
    if similarity is None:
        return tuple(points)
    (r0, r1), q, lam, (tx, ty) = similarity
    k = lam * pow(q, -1, p)
    return tuple(
        ((k * (r0[0] * x + r0[1] * y) + tx) % p, (k * (r1[0] * x + r1[1] * y) + ty) % p)
        for x, y in points
    )


def assert_outputs_map(p, lines, similarity) -> bool:
    """The whole slope and aspect paths of S(lines) over F_p (``path --samples p+1``) are S
    applied to those of the lines, as sets of affine points keyed by input label, with as
    many rectangles at infinity; and the special rectangles of ``locus`` map by S whenever
    both reports have them, which is returned."""
    field = PrimeField(p)
    images = [moved(line, similarity, p) for line in lines]
    with tempfile.TemporaryDirectory() as directory:
        def both(*argv):
            return [
                outcome(directory, name, field, quad, *argv)
                for name, quad in (("lines.json", lines), ("images.json", images))
            ]

        for kind in ("slope", "aspect"):
            before, after = both("path", "--kind", kind, "--samples", str(p + 1))
            if before[0]:  # an error exit: the same for S(lines)
                assert after == before, kind
                continue
            rects = before[1]["rectangles"], after[1]["rectangles"]
            assert {affine_points(r, p) for r in rects[1] if r["vertices"]} == {
                affine_points(r, p, similarity) for r in rects[0] if r["vertices"]
            }, kind
            at_infinity = [sum(r["vertices"] is None for r in rs) for rs in rects]
            assert at_infinity[0] == at_infinity[1], kind
        special = [report.get("special_rectangles") if not code else None
                   for code, report in both("locus")]
    if not all(special):
        return False
    for key in ("center", "centroid"):
        moved_special = affine_points(special[0][key], p, similarity)
        assert affine_points(special[1][key], p) == moved_special, key
    return True


@settings(max_examples=200, deadline=None)
@given(small_prime_lines(), st.data())
def test_prime_field_outputs_map_by_a_similarity(drawn, data):
    """A similarity S maps inscribed rectangles to inscribed rectangles: over F_p at small p,
    the full path sets and the special rectangles of S(lines) are those of the lines moved by S."""
    p, lines = drawn
    assert_outputs_map(p, lines, data.draw(similarities(p)))


def test_two_lines_form_has_special_rectangles_that_map():
    """The TWO_LINES form reaches the special rectangles of ``assert_outputs_map``."""
    similarity = (((-3, -4), (4, -3)), 5, 3, (1, -2))  # u = 2, a rotation
    lines = standing_lines(TWO_LINES)
    assert [p for p in SMALL_PRIMES if assert_outputs_map(p, lines, similarity)]
