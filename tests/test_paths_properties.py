"""Property tests: the integer path kernel against the field-element reference,
and the homography between the two paths."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from quadriline import (
    QQ,
    NormalizedConfig,
    PrimeField,
    Ratio,
    homography,
)
from quadriline.errors import PreconditionError
from quadriline.paths import (
    PathCase,
    aspect_path_polys,
    eval_path,
    slope_path_polys,
)
from conftest import ALL_INTERCEPTS, degenerating_intercepts
from test_paths import reference_eval_path

PRIMES = [3] + [n for n in range(5, 400) if all(n % d for d in range(2, n))] + [1_000_000_007]
KINDS = ("random", "degenerate", "slope-both-zero", "aspect-both-zero")


@st.composite
def fields(draw):
    return draw(st.just(QQ) | st.sampled_from(PRIMES).map(PrimeField))


def scalars(field):
    """Small rationals over QQ, any residue over F_p."""
    if field.char:
        return st.integers(0, field.char - 1).map(field.from_int)
    return st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


@st.composite
def configs(draw):
    """A normalized configuration drawn to hit every PathCase on both paths.

    degenerate solves for a b_A with e1 f1 + e2 f2 = 0 (ORTHOGONAL forms);
    slope-both-zero sets A = B (e1 = e2 = 0); aspect-both-zero sets b_A = 1
    and m_B m_D = m_A m_C (f1 = e2 = 0).
    """
    field = draw(fields())
    kind = draw(st.sampled_from(KINDS))
    m_a, m_b, m_c, m_d, b_a = (draw(scalars(field)) for _ in range(5))
    assume(m_c != m_d)
    if kind == "degenerate":
        roots = degenerating_intercepts(field, m_a, m_b, m_c, m_d)
        if roots is not ALL_INTERCEPTS:
            assume(roots)
            b_a = roots[draw(st.integers(0, len(roots) - 1))]
    elif kind == "slope-both-zero":
        m_b, b_a = m_a, field.one()
    elif kind == "aspect-both-zero":
        assume(m_d)
        m_b, b_a = m_a * m_c / m_d, field.one()
    try:
        return NormalizedConfig.make(field, m_a, m_b, m_c, m_d, b_a)
    except PreconditionError:
        assume(False)


def ratios(field):
    """1/0, small ratios and, over QQ, ratios of large height."""
    infinity = st.just(Ratio.of(field.one(), field.zero()))
    if field.char:
        finite = st.integers(0, field.char - 1)
        return infinity | finite.map(lambda n: Ratio.of(field.from_int(n), field.one()))
    small = st.integers(-6, 6)
    large = st.integers(-(10**60), 10**60)
    height = st.builds(Fraction, small | large, st.integers(1, 6) | st.integers(1, 10**60))
    return infinity | height.map(lambda q: Ratio.of(q, field.one()))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_matches_field_reference(data):
    cfg = data.draw(configs())
    r = data.draw(ratios(cfg.field))
    for pp in (slope_path_polys(cfg), aspect_path_polys(cfg)):
        assert eval_path(cfg, pp, r) == reference_eval_path(cfg, pp, r)


@st.composite
def nondegenerate_configs(draw):
    """A normalized configuration with e1 f1 + e2 f2 != 0, over QQ or F_p.

    configs() does not serve here: three of its four kinds are degenerate.
    The large prime gets a share of its own.
    """
    field = draw(fields() | st.just(PrimeField(PRIMES[-1])))
    m_a, m_b, m_c, b_a = (draw(scalars(field)) for _ in range(4))
    m_d = m_c + draw(scalars(field).filter(bool))
    cfg = NormalizedConfig.make(field, m_a, m_b, m_c, m_d, b_a)
    assume(cfg.ef_sum)
    return cfg


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_homography_round_trip(data):
    """On a non-degenerate configuration the two maps are inverse bijections."""
    cfg = data.draw(nondegenerate_configs())
    h = homography(cfg)
    r = data.draw(ratios(cfg.field))
    assert h.aspect_to_slope(h.slope_to_aspect(r)) == r
    assert h.slope_to_aspect(h.aspect_to_slope(r)) == r


def test_strategy_reaches_every_case():
    """The configuration strategy yields each PathCase on each path."""
    seen = set()

    @settings(max_examples=100, deadline=None, database=None)
    @given(configs())
    def collect(cfg):
        seen.add(("slope", slope_path_polys(cfg).case))
        seen.add(("aspect", aspect_path_polys(cfg).case))

    collect()
    assert seen == {(kind, case) for kind in ("slope", "aspect") for case in PathCase}
