"""Property tests: the integer census kernel at random primes and constants,
and the slope, aspect and center read off residues against field elements."""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

import membership
from quadriline import NormalizedConfig, PrimeField, verify_against_paths
from quadriline.census import enumerate_rectangles
from quadriline.errors import AtInfinityError
from quadriline.locus import center_of
from quadriline.rectangles import (
    INDETERMINATE,
    ProjectiveRectangle,
    aspect_of,
    aspect_residue,
    ratio_text,
    residue_text,
    slope_of,
    slope_residue,
)
from test_census import assert_matches_reference

ODD_PRIMES = [n for n in range(3, 62) if all(n % d for d in range(2, n))]


@st.composite
def normalized_configs(draw):
    p = draw(st.sampled_from(ODD_PRIMES))
    residue = st.integers(0, p - 1)
    m_a, m_b, m_c, b_a = draw(residue), draw(residue), draw(residue), draw(residue)
    m_d = (m_c + draw(st.integers(1, p - 1))) % p  # C and D never parallel
    return NormalizedConfig.from_ints(PrimeField(p), m_a, m_b, m_c, m_d, b_a)


@settings(max_examples=30, deadline=None)
@given(normalized_configs())
def test_kernel_matches_reference_and_paths(cfg):
    assert_matches_reference(cfg)
    report = verify_against_paths(cfg)
    assert report.ok, report.failures


def center_or_at_infinity(center, rect):
    try:
        return center(rect)
    except AtInfinityError:
        return "at infinity"


def assert_reads_match_reference(rect):
    """slope_of, aspect_of and center_of agree with the field-element reference,
    and the census's residue reads print as the reference ratio does."""
    field, p = rect.field, rect.field.char
    slope, aspect = membership.slope_of(rect), membership.aspect_of(rect)
    assert slope_of(rect) == slope, rect
    assert aspect_of(rect) == aspect, rect
    assert residue_text(p, slope_residue(p, rect.key)) == ratio_text(field, slope), rect
    assert residue_text(p, aspect_residue(p, rect.key)) == ratio_text(field, aspect), rect
    assert center_or_at_infinity(center_of, rect) == center_or_at_infinity(
        membership.center_of, rect
    ), rect


@settings(max_examples=40, deadline=None)
@given(normalized_configs())
def test_residue_reads_match_reference_on_census(cfg):
    for rect in enumerate_rectangles(cfg):
        assert_reads_match_reference(rect)


@st.composite
def points(draw):
    """Any point of projective 8-space over a small prime field.

    A vertex repeats an earlier one half the time and coordinates favour 0
    and 1, so coincident vertices (the second branch and INDETERMINATE) and
    w = 0 come up often.  No point need lie on any configuration.
    """
    p = draw(st.sampled_from(ODD_PRIMES))
    coordinate = st.sampled_from((0, 1)) | st.integers(0, p - 1)
    vertices = [draw(st.tuples(coordinate, coordinate))]
    for _ in range(3):
        vertices.append(draw(st.sampled_from(vertices) | st.tuples(coordinate, coordinate)))
    coords = [c for vertex in vertices for c in vertex] + [draw(coordinate)]
    assume(any(coords))
    return ProjectiveRectangle.canonical(PrimeField(p), coords)


@settings(max_examples=300, deadline=None)
@given(points())
def test_residue_reads_match_reference_on_any_point(rect):
    assert_reads_match_reference(rect)


def test_residue_reads_match_reference_on_every_point_over_f3():
    """Every point of P^8(F_3): each branch, INDETERMINATE and w = 0 included."""
    field = PrimeField(3)
    indeterminate = at_infinity = 0
    for coords in itertools.product(range(3), repeat=9):
        if any(coords):
            rect = ProjectiveRectangle.canonical(field, coords)
            assert_reads_match_reference(rect)
            indeterminate += aspect_of(rect) is INDETERMINATE
            at_infinity += rect.at_infinity
    assert indeterminate and at_infinity
