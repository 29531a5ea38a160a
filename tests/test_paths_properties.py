"""Property tests: the integer path forms, the integer path kernel and the
forward-difference replay against field-element references, and the
homography between the two paths."""

import itertools
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

from quadriline import (
    QQ,
    NormalizedConfig,
    PrimeField,
    homography,
)
from quadriline import hpoly
from quadriline.errors import PreconditionError
from quadriline.locus import centers_paths
from quadriline.rectangles import (
    ALL_RATIOS,
    aspect_infinity_form,
    aspects_at_infinity,
    slope_infinity_form,
    slopes_at_infinity,
)
from quadriline.paths import (
    aspect_path_polys,
    eval_path,
    path_keys,
    slope_path_polys,
)
from conftest import (
    ALL_INTERCEPTS,
    CFG1_INTS,
    CFG2_INTS,
    CFG3_INTS,
    all_ratios,
    degenerating_intercepts,
    make_config,
)
from test_locus import printed
from test_paths import reference_eval_path, reference_paths
import membership
from membership import (
    den,
    from_int,
    num,
    one_multiple,
    one_of,
    path_case,
    quotient,
    ratio_of,
    zero_of,
)

PRIMES = [3] + [n for n in range(5, 400) if all(n % d for d in range(2, n))] + [1_000_000_007]
KINDS = ("random", "degenerate", "twin-pair", "slope-both-zero", "aspect-both-zero")


@st.composite
def fields(draw):
    return draw(st.just(QQ) | st.sampled_from(PRIMES).map(PrimeField))


# The odd primes below 400: a replay tabulates every ratio of the field.
small_prime_fields = st.sampled_from(PRIMES[:-1]).map(PrimeField)


def scalars(field):
    """Small rationals over QQ, any residue over F_p."""
    if field.char:
        return st.integers(0, field.char - 1).map(lambda n: from_int(field, n))
    return st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


@st.composite
def configs(draw, field_strategy=fields()):
    """A normalized configuration drawn to hit every path case on both paths.

    degenerate solves for a b_A with e1 f1 + e2 f2 = 0 (constant forms);
    twin-pair sets A parallel to D and B to C, as in CFG3_INTS, where every
    b_A degenerates; slope-both-zero sets A = B (e1 = e2 = 0);
    aspect-both-zero sets b_A = 1 and m_B m_D = m_A m_C (f1 = e2 = 0).
    """
    field = draw(field_strategy)
    kind = draw(st.sampled_from(KINDS))
    m_a, m_b, m_c, m_d, b_a = (draw(scalars(field)) for _ in range(5))
    if kind == "twin-pair":
        m_b, m_d = m_c, m_a
    assume(m_c != m_d)
    if kind == "degenerate":
        roots = degenerating_intercepts(field, m_a, m_b, m_c, m_d)
        if roots is not ALL_INTERCEPTS:
            assume(roots)
            b_a = roots[draw(st.integers(0, len(roots) - 1))]
    elif kind == "slope-both-zero":
        m_b, b_a = m_a, one_of(field)
    elif kind == "aspect-both-zero":
        assume(m_d)
        m_b, b_a = m_a * m_c / m_d, one_of(field)
    try:
        return make_config(field, m_a, m_b, m_c, m_d, b_a)
    except PreconditionError:
        assume(False)


# The fields of the form property: the rationals, the smallest primes, and two large ones.
form_fields = st.sampled_from([3, 5, 1009, 1_000_000_007]).map(PrimeField) | st.just(QQ)


@settings(max_examples=200, deadline=None)
@given(configs(form_fields))
def test_forms_are_one_multiple_of_the_reference(cfg):
    """The int forms built on the standing ints against the field-element
    reference: each path's nine forms are one nonzero multiple of the
    reference's, and so are first and second, in the same case
    (:func:`reference_paths`); e1, ..., f2 are the reference's; and so is the
    locus conic."""
    reference_paths(cfg)
    assert membership.constants(cfg)[5:] == membership.diagonal_constants(cfg)
    assert printed(cfg.field, centers_paths(cfg))[0] == membership.locus_conic(cfg)


@settings(max_examples=200, deadline=None)
@given(configs(form_fields))
def test_infinity_forms_are_one_multiple_of_the_reference(cfg):
    """The at-infinity int forms on the standing ints are one nonzero multiple of
    the field-element forms, and the roots found on them are roots of those."""
    for form, reference, roots in (
        (slope_infinity_form, membership.slope_infinity_form, slopes_at_infinity),
        (aspect_infinity_form, membership.aspect_infinity_form, aspects_at_infinity),
    ):
        want = reference(cfg)
        assert one_multiple(cfg.field, [form(cfg)], [want])
        got = roots(cfg)
        if got is ALL_RATIOS:
            assert not any(want)
        else:
            assert all(not hpoly.eval_at(want, num(r), den(r)) for r in got)


# The rationals, two small primes, where discriminants often vanish, and two large ones.
root_fields = st.sampled_from([5, 13, 1009, 1_000_000_007]).map(PrimeField) | st.just(QQ)


@settings(max_examples=200, deadline=None)
@given(configs(root_fields))
@example(NormalizedConfig.from_ints(PrimeField(5), 0, 1, 0, 2, 1))  # a double root on both forms
def test_int_roots_and_corners_match_the_field_reference(cfg):
    """The at-infinity roots on ints are the field-element reference's, in order,
    and each int corner (X : Y : Z) is the field-element meet of its lines: the
    affine point (X / Z, Y / Z) when Z is nonzero, and no point (parallel lines)
    when Z is zero."""
    field = cfg.field
    for roots, reference in (
        (slopes_at_infinity, membership.slope_infinity_form),
        (aspects_at_infinity, membership.aspect_infinity_form),
    ):
        assert roots(cfg) == membership.projective_quadratic_roots(field, reference(cfg))
    for r1, r2 in itertools.combinations("ABCD", 2):
        x, y, z = cfg.corner(r1, r2)
        lines = [membership.standing_line(cfg, role) for role in (r1, r2)]
        meet = membership.intersection(*lines)
        assert meet == ((quotient(field, x, z), quotient(field, y, z)) if z else None)


def ratios(field):
    """1/0, small ratios and, over QQ, ratios of large height."""
    infinity = st.just(ratio_of(one_of(field), zero_of(field)))
    if field.char:
        finite = st.integers(0, field.char - 1)
        return infinity | finite.map(lambda n: ratio_of(from_int(field, n), one_of(field)))
    small = st.integers(-6, 6)
    large = st.integers(-(10**60), 10**60)
    height = st.builds(Fraction, small | large, st.integers(1, 6) | st.integers(1, 10**60))
    return infinity | height.map(lambda q: ratio_of(q, one_of(field)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_matches_field_reference(data):
    cfg = data.draw(configs())
    r = data.draw(ratios(cfg.field))
    for pp in (slope_path_polys(cfg), aspect_path_polys(cfg)):
        assert eval_path(cfg, pp, (r.s, r.t)) == reference_eval_path(cfg, pp, r)


@st.composite
def nondegenerate_configs(draw):
    """A normalized configuration with e1 f1 + e2 f2 != 0, over QQ or F_p.

    configs() does not serve here: three of its four kinds are degenerate.
    The large prime gets a share of its own.
    """
    field = draw(fields() | st.just(PrimeField(PRIMES[-1])))
    m_a, m_b, m_c, b_a = (draw(scalars(field)) for _ in range(4))
    m_d = m_c + draw(scalars(field).filter(bool))
    cfg = make_config(field, m_a, m_b, m_c, m_d, b_a)
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


def replay_example(*ints):
    return NormalizedConfig.from_ints(PrimeField(10_007), *ints)


@settings(max_examples=150, deadline=None)
@given(configs(small_prime_fields))
@example(replay_example(*CFG1_INTS))  # generic on both paths
@example(replay_example(*CFG2_INTS))  # degenerate: orthogonal on both paths
@example(replay_example(*CFG3_INTS))  # twin pairs: the aspect path is both-zero
@example(replay_example(2, 2, 0, 1, 1))  # A = B: the slope path is both-zero
def test_replay_matches_eval_path(cfg):
    """The forward-difference replay is eval_path at every ratio, in all_ratios order."""
    for pp in (slope_path_polys(cfg), aspect_path_polys(cfg)):
        expected = [eval_path(cfg, pp, (r.s, r.t)).key for r in all_ratios(cfg.field)]
        assert path_keys(cfg, pp) == expected


def cases_reached(field_strategy):
    """The (path kind, path case) pairs of 100 configurations drawn over field_strategy."""
    seen = set()

    @settings(max_examples=100, deadline=None, database=None)
    @given(configs(field_strategy))
    def collect(cfg):
        seen.add(("slope", path_case(slope_path_polys(cfg))))
        seen.add(("aspect", path_case(aspect_path_polys(cfg))))

    collect()
    return seen


EVERY_CASE = {
    (kind, case) for kind in ("slope", "aspect") for case in ("both-zero", "generic", "orthogonal")
}


def test_strategy_reaches_every_case():
    """The configuration strategy yields each path case on each path."""
    assert cases_reached(fields()) == EVERY_CASE


def test_replay_strategy_reaches_every_case():
    """So does its restriction to the small primes of the replay test."""
    assert cases_reached(small_prime_fields) == EVERY_CASE


def test_form_strategy_reaches_every_case():
    """And its restriction to the fields of the form property."""
    assert cases_reached(form_fields) == EVERY_CASE
