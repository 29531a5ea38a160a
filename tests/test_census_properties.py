"""Property tests: the integer census kernel at random primes and constants,
the slope, aspect and center read off residues against field elements, and the
rational reads reduced mod p against the F_p ones."""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

import membership
from quadriline import QQ, NormalizedConfig, PrimeField, Ratio, verify_against_paths
from quadriline.census import MAX_CENSUS_PRIME
from quadriline.cli import json_text
from quadriline.errors import AtInfinityError, PreconditionError
from quadriline.locus import center_of
from quadriline.rectangles import (
    INDETERMINATE,
    ProjectiveRectangle,
    aspect_of,
    aspect_residues,
    residue_text,
    slope_of,
    slope_residues,
)
from conftest import census_rectangles
from test_census import assert_matches_reference
from membership import value

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
    assert report.failures == []


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
    [slope_residue] = slope_residues(field, [rect.key])
    [aspect_residue] = aspect_residues(field, [rect.key])
    assert json_text(residue_text(p, slope_residue)) == json_text(slope), rect
    assert json_text(residue_text(p, aspect_residue)) == json_text(aspect), rect
    center = center_or_at_infinity(center_of, rect)
    if center != "at infinity":
        center = tuple(map(value, center))
    assert center == center_or_at_infinity(membership.center_of, rect), rect


@settings(max_examples=40, deadline=None)
@given(normalized_configs())
def test_residue_reads_match_reference_on_census(cfg):
    for rect in census_rectangles(cfg):
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


def reduce_mod(p, q: Ratio):
    """The residue of the affine rational Ratio q at p, which does not divide its t."""
    return q.s * pow(q.t, -1, p) % p


def residue_of(p, ratio):
    """A ratio over F_p as slope_residues gives it; None for INDETERMINATE."""
    if ratio is INDETERMINATE:
        return None
    return ratio.s if ratio.t else p


@st.composite
def integer_points(draw):
    """A prime p and an integer point of projective 8-space whose rational canonical key
    reduces mod p: p divides neither its last nonzero coordinate (so no denominator of
    the key), nor w, nor any nonzero key difference the slope and aspect read."""
    p = draw(st.sampled_from([3, 5, 1009, 10**9 + 7]))
    coordinate = st.sampled_from((0, 1)) | st.integers(-30, 30)
    coords = [draw(coordinate) for _ in range(9)]
    if draw(st.booleans()):  # A = B
        coords[2:4] = coords[0:2]
    if draw(st.booleans()):  # B = C
        coords[4:6] = coords[2:4]
    pivots = [c for c in coords if c]
    assume(pivots and pivots[-1] % p)
    xa, ya, xb, yb, xc, yc = ProjectiveRectangle.canonical(QQ, coords).key[:6]
    for q in (xb - xa, yb - ya, xc - xb, yc - yb, coords[8]):
        assume(not q or q % p)
    return p, coords


@settings(max_examples=300, deadline=None)
@given(integer_points())
def test_rational_reads_reduce_to_prime_reads(point):
    """slope_of, aspect_of and center_of over the rationals reduce mod p to the same
    readers over F_p, and slope_residues / aspect_residues agree with those at the
    census primes."""
    p, coords = point
    rational = ProjectiveRectangle.canonical(QQ, coords)
    prime = ProjectiveRectangle.canonical(PrimeField(p), coords)
    for read, residues in ((slope_of, slope_residues), (aspect_of, aspect_residues)):
        want = residue_of(p, read(prime))
        if p > MAX_CENSUS_PRIME:  # past the census primes the field builds no inverse table
            with pytest.raises(PreconditionError):
                residues(prime.field, [prime.key])
        else:
            assert residues(prime.field, [prime.key]) == [want]
        got = read(rational)
        if got is INDETERMINATE:
            assert want is None
        else:
            assert want == (reduce_mod(p, got) if got.t else p)
    if rational.at_infinity:
        assert prime.at_infinity
    else:
        center = center_of(prime)
        assert [reduce_mod(p, c) for c in center_of(rational)] == [c.s for c in center]
