"""Shared fixtures: the three reference configurations and random generators."""

import contextlib
import json
import pathlib
import random
from fractions import Fraction

import pytest

from quadriline import (
    ConfigurationInput,
    InputLine,
    NormalizedConfig,
    QQ,
    Ratio,
)
from quadriline.cli import load_config
from quadriline.configuration import adjugate, covector, cross, normalize
from quadriline.errors import PreconditionError
from quadriline.locus import AffineLineDescription, center_of
from quadriline import hpoly, paths
from quadriline.paths import ratio_samples
import membership
from membership import (
    elements,
    from_int,
    integer_forms,
    one_of,
    quotient,
    ratio_of,
    solve_quadratic,
    value,
    zero_of,
)

CFG1_INTS = (2, 3, 0, 1, 1)  # non-degenerate
CFG2_INTS = (-4, -1, 0, 2, 3)  # degenerate, no parallel lines
CFG3_INTS = (1, 0, 0, 1, 1)  # twin pairs (A parallel D, B parallel C)


@pytest.fixture
def cfg1():
    return NormalizedConfig.from_ints(QQ, *CFG1_INTS)


@pytest.fixture
def cfg2():
    return NormalizedConfig.from_ints(QQ, *CFG2_INTS)


@pytest.fixture
def cfg3():
    return NormalizedConfig.from_ints(QQ, *CFG3_INTS)


def rat(field, s, t):
    return ratio_of(from_int(field, s), from_int(field, t))


def make_config(field, m_a, m_b, m_c, m_d, b_a) -> NormalizedConfig:
    """The configuration of five standing constants in field elements, cleared
    to the standing ints with ``membership.integer_forms``, one lcm as ``normalize`` takes."""
    standing = (m_a, m_b, m_c, m_d, b_a, one_of(field))
    return NormalizedConfig.make(field, integer_forms(field, [standing])[0])


def line_slope(line: AffineLineDescription) -> Ratio:
    """The slope of a rational locus line n0 x + n1 y + n2 = 0 as the projective ratio
    [dy : dx] = [-n0 : n1]."""
    return Ratio(QQ, -line.normal[0], line.normal[1])


def covec(field, line) -> tuple:
    """The int covector (a, b, -c) of a line a x + b y = c, up to a nonzero factor: a locus
    line's normal, an InputLine's ints, a ``membership.Line`` of field elements cleared
    by ``membership.covector``, or an int covector as it is."""
    if isinstance(line, AffineLineDescription):
        return line.normal
    if isinstance(line, InputLine):
        return covector(line)
    if isinstance(line, membership.Line):
        return membership.covector(field, line)
    return line


def input_line(field, line) -> InputLine:
    """The int InputLine of a ``membership.Line`` of field elements, cleared by
    ``membership.covector``."""
    a, b, c = membership.covector(field, line)
    return InputLine(a, b, -c)


def plane_map_values(pm) -> tuple:
    """The translation, reflection parameter and scale of a plane map in field elements,
    read off its matrix's last column, its t and its s with the reference quotient."""
    field = pm.field
    (_, _, x), (_, _, y), (_, _, z) = pm.matrix
    t = None if pm.t is None else from_int(field, pm.t)
    return (quotient(field, -x, z), quotient(field, -y, z)), t, quotient(field, *pm.s)


def same_line(field, u, v) -> bool:
    """Whether two lines are one: their int covectors crossed are zero in the field."""
    return hpoly.is_zero(cross(covec(field, u), covec(field, v)), field.char)


def contains(field, line, point) -> bool:
    """Whether the affine point (x, y) of field elements, ints or Ratios lies on the line."""
    n0, n1, n2 = covec(field, line)
    x, y = (value(c) if isinstance(c, Ratio) else c for c in point)
    return not (zero_of(field) + n0 * x + n1 * y + n2)  # the field's zero first: a field element


def center_values(rect) -> tuple:
    """The center of a rectangle, ``locus.center_of``'s two Ratios, as field elements."""
    return tuple(map(value, center_of(rect)))


def affine_point(field, point) -> tuple:
    """The point (X / Z, Y / Z) of the int point (X : Y : Z), Z nonzero, in field elements."""
    x, y, z = point
    return quotient(field, x, z), quotient(field, y, z)


def int_point(field, point) -> tuple:
    """An int point (X : Y : Z) of the affine point (x, y) of field elements."""
    x, y = point
    if field.char:
        return x.value, y.value, 1
    return x.numerator * y.denominator, y.numerator * x.denominator, x.denominator * y.denominator


def qq(n, d=1):
    return Fraction(n, d)


def all_ratios(field):
    """Every point of the projective line over a prime field: (v : 1), then (1 : 0).

    The order of ``paths.path_keys``.
    """
    one = one_of(field)
    out = [ratio_of(v, one) for v in elements(field)]
    out.append(ratio_of(one, zero_of(field)))
    return out


def random_rational_config(rng: random.Random) -> NormalizedConfig:
    """A random valid normalized configuration with small rational constants."""
    while True:
        vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(5)]
        if vals[2] != vals[3]:
            return make_config(QQ, *vals)


def random_degenerate_config(rng: random.Random) -> NormalizedConfig:
    """A random degenerate configuration, built by solving for the intercept."""
    while True:
        ms = [Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(4)]
        if ms[2] == ms[3]:
            continue
        roots = degenerating_intercepts(QQ, *ms)
        if roots is ALL_INTERCEPTS:
            b_a = Fraction(rng.randint(-4, 4))
            return make_config(QQ, *ms, b_a)
        if roots:
            return make_config(QQ, *ms, roots[0])


def random_normalized_config(field, rng):
    """A uniformly random valid normalized configuration over F_p.

    Samples (m_A, m_B, m_C, m_D, b_A) with rejection on parallel C, D; the
    rejection count is returned alongside the configuration.  B = D and the
    all-concurrent case cannot occur in normalized form.
    """
    rejections = 0
    while True:
        values = [from_int(field, rng.randrange(field.char)) for _ in range(5)]
        if values[2] == values[3]:
            rejections += 1
            continue
        return make_config(field, *values), rejections


ALL_INTERCEPTS = object()  # marker: every b_A gives a degenerate configuration


def degenerating_intercepts(field, m_a, m_b, m_c, m_d):
    """Values of b_A that make (m_a, m_b, m_c, m_d, b_A) degenerate.

    These are the roots of

        (m_B - m_C)(m_B m_D + 1) X^2 - delta X + (m_A - m_D)(m_A m_C + 1)

    with delta = (m_A m_C + 1)(m_B - m_D) + (m_B m_D + 1)(m_A - m_C).  When
    the quadratic vanishes identically (twin or dual slope patterns) every
    intercept degenerates and :data:`ALL_INTERCEPTS` is returned.
    """
    if m_c == m_d:
        raise PreconditionError("C and D must not be parallel")
    one = one_of(field)
    lead = (m_b - m_c) * (m_b * m_d + one)
    const = (m_a - m_d) * (m_a * m_c + one)
    delta = (m_a * m_c + one) * (m_b - m_d) + (m_b * m_d + one) * (m_a - m_c)
    if not lead and not delta and not const:
        return ALL_INTERCEPTS
    return solve_quadratic(field, lead, -delta, const)


def bounded_ratio_samples(field, count):
    """ratio_samples(field, count), with the int pairs its walk tries counted.

    Over F_p the walk stops once it holds all p + 1 ratios: it tries at most
    2 min(count, p + 1) pairs of ``paths._coprime_pairs`` (2 count over the
    rationals), where walking every height up to p + 1 would try about p^2.
    The counter raises AssertionError at once past that bound.
    """
    bound = 2 * (min(count, field.char + 1) if field.char else count)
    pairs = paths._coprime_pairs

    def counted():
        for tried, pair in enumerate(pairs(), 1):
            if tried > bound:
                raise AssertionError(f"more than {bound} pairs tried for {count} samples")
            yield pair

    paths._coprime_pairs = counted
    try:
        return ratio_samples(field, count)
    finally:
        paths._coprime_pairs = pairs


def sample_ratios(field, count):
    """The first count ratios of ``ratio_samples`` as Ratios."""
    return [Ratio(field, *st) for st in ratio_samples(field, count)]


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def shipped_config(name: str):
    """The normalized configuration of the file ``configs/<name>``."""
    return normalize(load_config(str(CONFIGS / name)))[0]


def shipped_plane_map(name: str):
    """The plane map of the file ``configs/<name>``."""
    return normalize(load_config(str(CONFIGS / name)))[1]


@contextlib.contextmanager
def fraction_count():
    """Count the Fractions built inside the block.

    Fraction.__new__ is wrapped while the block runs; the yielded list holds
    one int, the number built so far.  On Python 3.11, Fraction arithmetic
    builds every result through the constructor, so results count too.
    """
    built = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = counted
    try:
        yield built
    finally:
        Fraction.__new__ = new


def center_at(cmap, st):
    """The center of a ``CenterMap`` at the ratio s : t of the ints st = (s, t), or
    None at a root of its denominator."""
    s, t = st
    d = hpoly.eval_at(cmap.den, s, t)
    if not hpoly.mod(d, cmap.field.char):
        return None
    return tuple(quotient(cmap.field, hpoly.eval_at(f, s, t), d) for f in (cmap.x_num, cmap.y_num))


def slope_intercept_line(m, k) -> InputLine:
    """The line y = m x + k for ints m and k."""
    return InputLine(-m, 1, k)


def normalized_point(pm, point) -> tuple:
    """An original int point (X : Y : W) in normalized coordinates: adj(N) (X, Y, W), as ints."""
    return tuple(sum(n * c for n, c in zip(row, point)) for row in adjugate(pm.matrix))


def standing_input(field, m_a, m_b, m_c, m_d, b_a) -> ConfigurationInput:
    """A ConfigurationInput already in standing form."""
    mk = slope_intercept_line
    return ConfigurationInput(
        field, (mk(m_a, b_a), mk(m_c, 0)), (mk(m_b, 1), mk(m_d, 0))
    )


def write_config(tmp_path, name, field_tag, pairs):
    """Write a CLI configuration file; pairs is [[(a,b,c) x2], [(a,b,c) x2]]."""
    doc = {
        "field": field_tag,
        "pairs": [
            [{"a": str(a), "b": str(b), "c": str(c)} for a, b, c in pair]
            for pair in pairs
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# Standing-form (a, b, c) triples for the reference configurations, with
# lines written as a*x + b*y = c.
CFG1_PAIRS = [[(-2, 1, 1), (0, 1, 0)], [(-3, 1, 1), (-1, 1, 0)]]
CFG2_PAIRS = [[(4, 1, 3), (0, 1, 0)], [(1, 1, 1), (-2, 1, 0)]]
CFG3_PAIRS = [[(-1, 1, 1), (0, 1, 0)], [(0, 1, 1), (-1, 1, 0)]]
