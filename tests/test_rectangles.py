"""Configuration-space points, the rectangle quadric, at-infinity structure."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from quadriline import (
    NormalizedConfig,
    PrimeField,
    QQ,
    aspect_of,
    classify,
    slope_of,
)
from quadriline import hpoly
from quadriline.rectangles import (
    ALL_RATIOS,
    ProjectiveRectangle,
    aspect_infinity_form,
    canonical_key,
    canonical_keys,
    aspects_at_infinity,
    slope_infinity_form,
    slopes_at_infinity,
)
from quadriline.census import quadric_h
from quadriline.cli import rectangle_json
from quadriline.configuration import ROLES
from quadriline.errors import PreconditionError
from conftest import (
    CFG1_INTS,
    CFG3_INTS,
    all_ratios,
    elements,
    make_config,
    random_normalized_config,
    random_rational_config,
    center_values,
    rat,
    shipped_plane_map,
)
import membership
from membership import (
    aspect_system,
    complete_parallelogram,
    constants,
    den,
    evaluate,
    from_int,
    has_aspect,
    has_slope,
    integer_forms,
    is_parallelogram,
    is_rectangle,
    num,
    one_of,
    ratio_of,
    rectangle_from_aspect,
    rectangle_from_slope,
    satisfies_membership,
    slope_system,
    value,
    vertex,
    w_of,
    zero_of,
)


F1009 = PrimeField(1009)


def cleared(coords) -> tuple:
    """Rational coordinates as ints, all scaled by the lcm of their denominators."""
    return integer_forms(QQ, [coords])[0]


def proj_eq(p, coords):
    """Projective equality of a point against rational coordinates."""
    return p == ProjectiveRectangle.canonical(QQ, cleared(coords))


class TestCompleteParallelogram:
    def test_degenerate_on_e(self, cfg1):
        p = complete_parallelogram(cfg1, Fraction(0), Fraction(0), Fraction(1))
        zero, one = rat(QQ, 0, 1), rat(QQ, 1, 1)
        assert p.affine_vertices() == {
            "A": (zero, one),
            "B": (zero, one),
            "C": (zero, zero),
            "D": (zero, zero),
        }

    def test_at_infinity_parallelogram(self, cfg1):
        p = complete_parallelogram(cfg1, Fraction(1), Fraction(1), Fraction(0))
        assert proj_eq(p, (1, 2, 1, 3, -1, 0, -1, -1, 0))
        assert p.at_infinity

    def test_diagonal_parameters_always_parallelograms(self):
        rng = random.Random(47)
        for _ in range(25):
            cfg = random_rational_config(rng)
            x = Fraction(rng.randint(1, 9))
            p = complete_parallelogram(cfg, x, x, Fraction(0))
            assert is_parallelogram(p)
            assert satisfies_membership(p, cfg)

    def test_membership_always_holds(self):
        rng = random.Random(53)
        for _ in range(25):
            cfg = random_rational_config(rng)
            p = complete_parallelogram(
                cfg,
                Fraction(rng.randint(-5, 5)),
                Fraction(rng.randint(-5, 5)),
                Fraction(rng.randint(-2, 2)),
            )
            assert satisfies_membership(p, cfg)
            assert is_parallelogram(p)


class TestIsRectangle:
    def test_worked_rectangle(self, cfg1):
        # The vertices (-1/3, 1/3), (-1/3, 0), (1/3, 0), (1/3, 1/3) at w = 1, times 3.
        p = ProjectiveRectangle.canonical(QQ, (-1, 1, -1, 0, 1, 0, 1, 1, 3))
        assert is_rectangle(p)
        assert satisfies_membership(p, cfg1)

    def test_matches_quadric(self):
        cfg = NormalizedConfig.from_ints(F1009, *CFG1_INTS)
        one, zero = one_of(F1009), zero_of(F1009)
        p = complete_parallelogram(cfg, one, zero, one)
        assert is_rectangle(p) == (not evaluate(quadric_h(cfg), one, zero, one))

    def test_point_pair_degenerate_rectangle(self, cfg1):
        p = complete_parallelogram(cfg1, Fraction(0), Fraction(0), Fraction(1))
        assert is_rectangle(p)


class TestQuadricH:
    """The census quadric, on the standing residues over F_p."""

    def test_equivalence_with_rectangle_predicate(self):
        rng = random.Random(59)
        for _ in range(20):
            cfg, _ = random_normalized_config(F1009, rng)
            h = quadric_h(cfg)
            for _ in range(15):
                x_a, x_b, w = (from_int(F1009, rng.randrange(-4, 5)) for _ in range(3))
                if not x_a and not x_b and not w:
                    continue
                p = complete_parallelogram(cfg, x_a, x_b, w)
                assert is_rectangle(p) == (not evaluate(h, x_a, x_b, w))

    def test_twin_pairs_vanish_at_infinity(self):
        aa, ab, bb = quadric_h(NormalizedConfig.from_ints(F1009, *CFG3_INTS))[:3]
        assert (aa, ab, bb) == (0, 0, 0)

    def test_cfg1_infinity_restriction_formula(self):
        # m_CD * h(X_A, X_B, 0) has the closed form
        # m_AD (m_A m_C + 1) X_A^2 - delta X_A X_B + m_BC (m_B m_D + 1) X_B^2
        # with delta = m_BD (m_A m_C + 1) + m_AC (m_B m_D + 1).
        cfg = NormalizedConfig.from_ints(F1009, *CFG1_INTS)
        m_a, m_b, m_c, m_d = constants(cfg)[:4]
        m_cd = m_c - m_d
        aa, ab, bb = quadric_h(cfg)[:3]
        delta = (m_b - m_d) * (m_a * m_c + 1) + (m_a - m_c) * (m_b * m_d + 1)
        assert m_cd * aa == (m_a - m_d) * (m_a * m_c + 1)
        assert m_cd * ab == -delta
        assert m_cd * bb == (m_b - m_c) * (m_b * m_d + 1)

    def test_worked_parameters_are_a_zero(self):
        h = quadric_h(NormalizedConfig.from_ints(F1009, *CFG1_INTS))
        assert not evaluate(h, *(from_int(F1009, n) for n in (-1, -1, 3)))


class TestSlopeAspectOf:
    def _worked(self, cfg1):
        return rectangle_from_slope(cfg1, rat(QQ, 1, 0), Fraction(3)).rectangles[0]

    def test_worked_rectangle_slope(self, cfg1):
        assert slope_of(self._worked(cfg1)) == rat(QQ, 1, 0)

    def test_degenerate_rectangle_on_e_slope(self, cfg1):
        p = complete_parallelogram(cfg1, Fraction(0), Fraction(0), Fraction(1))
        assert slope_of(p) == rat(QQ, 0, 1)

    def test_raw_unit_square_slope(self):
        p = ProjectiveRectangle.canonical(QQ, (0, 1, 0, 0, 1, 0, 1, 1, 1))
        assert slope_of(p) == rat(QQ, 1, 0)

    def test_worked_rectangle_aspect(self, cfg1):
        assert aspect_of(self._worked(cfg1)) == ratio_of(Fraction(-1), Fraction(2))

    def test_degenerate_on_e_aspect(self, cfg1):
        p = complete_parallelogram(cfg1, Fraction(0), Fraction(0), Fraction(1))
        assert aspect_of(p) == rat(QQ, 0, 1)

    def test_degenerate_on_f_aspect(self, cfg1):
        fiber = rectangle_from_aspect(cfg1, rat(QQ, 1, 0), Fraction(1))
        assert len(fiber.rectangles) == 1
        p = fiber.rectangles[0]
        assert aspect_of(p) == rat(QQ, 1, 0)
        # B and C vertices coincide at B∩C, A and D at A∩D.
        assert vertex(p, "B") == vertex(p, "C")
        assert vertex(p, "A") == vertex(p, "D")


class TestAtInfinityForms:
    def test_cfg1_slope_form(self, cfg1):
        assert slope_infinity_form(cfg1) == (-3, 4, 3)

    def test_cfg1_no_rational_slopes_at_infinity(self, cfg1):
        assert slopes_at_infinity(cfg1) == []

    def test_cfg3_all_slopes(self, cfg3):
        assert slopes_at_infinity(cfg3) is ALL_RATIOS

    def test_cfg1_double_root_mod_13(self):
        f13 = PrimeField(13)
        cfg = NormalizedConfig.from_ints(f13, 2, 3, 0, 1, 1)
        roots = slopes_at_infinity(cfg)
        assert len(roots) == 1
        form = slope_infinity_form(cfg)
        s, t = num(roots[0]), den(roots[0])
        assert not hpoly.eval_at(form, s, t)
        # Brute force over the whole projective line.
        brute = [
            r
            for r in [ratio_of(v, one_of(f13)) for v in elements(f13)]
            + [ratio_of(one_of(f13), zero_of(f13))]
            if not hpoly.eval_at(form, num(r), den(r))
        ]
        assert brute == roots

    def test_brute_force_agreement_over_primes(self):
        rng = random.Random(61)
        for p in (5, 7, 11):
            field = PrimeField(p)
            proj_line = [ratio_of(v, one_of(field)) for v in elements(field)]
            proj_line.append(ratio_of(one_of(field), zero_of(field)))
            for _ in range(15):
                vals = [from_int(field, rng.randrange(p)) for _ in range(5)]
                if vals[2] == vals[3]:
                    continue
                cfg = make_config(field, *vals)
                for form, roots in (
                    (slope_infinity_form(cfg), slopes_at_infinity(cfg)),
                    (aspect_infinity_form(cfg), aspects_at_infinity(cfg)),
                ):
                    brute = {
                        (num(r), den(r))
                        for r in proj_line
                        if not hpoly.eval_at(form, num(r), den(r))
                    }
                    if roots is ALL_RATIOS:
                        assert len(brute) == p + 1
                    else:
                        assert {(num(r), den(r)) for r in roots} == brute

    def test_orthogonality_closure(self):
        # If s/t is a slope at infinity then so is -t/s.
        rng = random.Random(67)
        for p in (11, 13):
            field = PrimeField(p)
            for _ in range(25):
                vals = [from_int(field, rng.randrange(p)) for _ in range(5)]
                if vals[2] == vals[3]:
                    continue
                cfg = make_config(field, *vals)
                roots = slopes_at_infinity(cfg)
                if roots is ALL_RATIOS:
                    continue
                root_set = {(num(r), den(r)) for r in roots}
                for r in roots:
                    o = ratio_of(-den(r), num(r))
                    assert (num(o), den(o)) in root_set

    def test_three_parallel_lines_give_zero_and_infinity_aspects(self):
        cfg = NormalizedConfig.from_ints(QQ, 2, 2, 2, 0, 5)
        roots = aspects_at_infinity(cfg)
        assert {(num(r), den(r)) for r in roots} == {(0, 1), (1, 0)}

    def test_aspect_pairing(self):
        # If u/v occurs then so does (m_AB m_CD v) / (m_BC m_AD u).
        f17 = PrimeField(17)
        cfg = NormalizedConfig.from_ints(f17, 2, 3, 0, 1, 1)
        roots = aspects_at_infinity(cfg)
        assert len(roots) == 2
        m_a, m_b, m_c, m_d = constants(cfg)[:4]
        m_ab, m_cd, m_bc, m_ad = m_a - m_b, m_c - m_d, m_b - m_c, m_a - m_d
        root_set = {(num(r), den(r)) for r in roots}
        for r in roots:
            partner = ratio_of(m_ab * m_cd * den(r), m_bc * m_ad * num(r))
            assert (num(partner), den(partner)) in root_set

    def test_cfg3_aspect_root_matches_kernel(self, cfg3):
        roots = aspects_at_infinity(cfg3)
        assert roots == [rat(QQ, 1, 0)]
        m, _ = aspect_system(cfg3, roots[0])
        assert m[0] * m[3] - m[1] * m[2] == 0
        fiber = rectangle_from_aspect(cfg3, roots[0], Fraction(0))
        assert fiber.rectangles and all(p.at_infinity for p in fiber.rectangles)

    def test_form_vanishing_matches_classification(self):
        rng = random.Random(71)
        for p in (5, 13):
            field = PrimeField(p)
            for _ in range(40):
                vals = [from_int(field, rng.randrange(p)) for _ in range(5)]
                if vals[2] == vals[3]:
                    continue
                cfg = make_config(field, *vals)
                cls = classify(cfg)
                assert (slopes_at_infinity(cfg) is ALL_RATIOS) == cls.twin_pairs
                assert (aspects_at_infinity(cfg) is ALL_RATIOS) == cls.dual_pairs


class TestDeterminants:
    def test_system_determinants_match_forms(self):
        rng = random.Random(73)
        for _ in range(30):
            cfg = random_rational_config(rng)
            r = ratio_of(
                Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)) or Fraction(1)
            )
            m, _ = slope_system(cfg, r)
            det = m[0] * m[3] - m[1] * m[2]
            assert det == hpoly.eval_at(membership.slope_infinity_form(cfg), num(r), den(r))
            m, _ = aspect_system(cfg, r)
            det = m[0] * m[3] - m[1] * m[2]
            m_cd = constants(cfg).m_c - constants(cfg).m_d
            assert det == m_cd * hpoly.eval_at(membership.aspect_infinity_form(cfg), num(r), den(r))


class TestFactorizationIdentity:
    def test_coefficientwise(self):
        # (S^2 + T^2) * sigma = prod(T + m S)(S - m T) alternating - mirror.
        rng = random.Random(79)
        one, zero = Fraction(1), Fraction(0)
        for _ in range(40):
            cfg = random_rational_config(rng)
            sigma = membership.slope_infinity_form(cfg)
            lhs = hpoly.mul((one, zero, one), sigma)
            m_a, m_b, m_c, m_d = constants(cfg)[:4]
            first = hpoly.mul(
                hpoly.mul((m_a, one), (one, -m_b)), hpoly.mul((m_c, one), (one, -m_d))
            )
            second = hpoly.mul(
                hpoly.mul((one, -m_a), (m_b, one)), hpoly.mul((one, -m_c), (m_d, one))
            )
            assert lhs == hpoly.sub(first, second)


class TestRectangleFromSlope:
    def test_worked_example(self, cfg1):
        fiber = rectangle_from_slope(cfg1, rat(QQ, 1, 0), Fraction(3))
        assert fiber.exhaustive and len(fiber.rectangles) == 1
        p = fiber.rectangles[0]
        third, zero = rat(QQ, 1, 3), rat(QQ, 0, 1)
        assert p.affine_vertices() == {
            "A": (rat(QQ, -1, 3), third),
            "B": (rat(QQ, -1, 3), zero),
            "C": (third, zero),
            "D": (third, third),
        }

    def test_slope_zero_gives_degenerate_rectangle(self, cfg1):
        fiber = rectangle_from_slope(cfg1, rat(QQ, 0, 1), Fraction(1))
        (p,) = fiber.rectangles
        zero, one = rat(QQ, 0, 1), rat(QQ, 1, 1)
        assert p.affine_vertices() == {
            "A": (zero, one),
            "B": (zero, one),
            "C": (zero, zero),
            "D": (zero, zero),
        }

    def test_twin_pairs_kernel_any_slope(self, cfg3):
        rng = random.Random(83)
        for _ in range(10):
            s, t = rng.randint(-5, 5), rng.randint(-5, 5)
            if not s and not t:
                continue
            r = ratio_of(Fraction(s), Fraction(t))
            fiber = rectangle_from_slope(cfg3, r, Fraction(0))
            assert fiber.rectangles
            for p in fiber.rectangles:
                assert p.at_infinity and has_slope(p, r)

    def test_results_satisfy_definitions(self):
        rng = random.Random(89)
        for _ in range(20):
            cfg = random_rational_config(rng)
            s, t = rng.randint(-4, 4), rng.randint(-4, 4)
            if not s and not t:
                continue
            r = ratio_of(Fraction(s), Fraction(t))
            w = Fraction(rng.randint(0, 2))
            try:
                fiber = rectangle_from_slope(cfg, r, w)
            except Exception:
                continue
            for p in fiber.rectangles:
                assert satisfies_membership(p, cfg)
                assert is_parallelogram(p)
                assert is_rectangle(p)
                assert has_slope(p, r)


class TestRectangleFromAspect:
    def test_worked_example_via_aspect(self, cfg1):
        fiber = rectangle_from_aspect(cfg1, ratio_of(Fraction(-1), Fraction(2)), Fraction(3))
        slope_route = rectangle_from_slope(cfg1, rat(QQ, 1, 0), Fraction(3))
        assert fiber.rectangles == slope_route.rectangles

    def test_aspect_zero_collapses_on_e(self, cfg1):
        fiber = rectangle_from_aspect(cfg1, rat(QQ, 0, 1), Fraction(1))
        (p,) = fiber.rectangles
        assert vertex(p, "A") == vertex(p, "B")
        assert vertex(p, "C") == vertex(p, "D")
        # vertices sit at A∩B and C∩D
        verts = p.affine_vertices()
        assert verts["A"] == (rat(QQ, 0, 1), rat(QQ, 1, 1)) and verts["C"] == (rat(QQ, 0, 1),) * 2

    def test_results_satisfy_definitions(self):
        rng = random.Random(97)
        for _ in range(20):
            cfg = random_rational_config(rng)
            u, v = rng.randint(-4, 4), rng.randint(-4, 4)
            if not u and not v:
                continue
            r = ratio_of(Fraction(u), Fraction(v))
            w = Fraction(rng.randint(0, 2))
            try:
                fiber = rectangle_from_aspect(cfg, r, w)
            except Exception:
                continue
            for p in fiber.rectangles:
                assert satisfies_membership(p, cfg)
                assert is_rectangle(p)
                assert has_aspect(p, r)


ODD_PRIMES = [n for n in range(3, 10_001, 2) if all(n % d for d in range(3, int(n**0.5) + 1, 2))]
INTS = st.integers(-(10**6), 10**6)
COORDS = st.lists(INTS, min_size=9, max_size=9)
FIELDS = st.just(QQ) | st.sampled_from(ODD_PRIMES).map(PrimeField)


def nonzero(field, coords):
    return any(c % field.char for c in coords) if field.char else any(coords)


class TestRectangleIdentity:
    """A point is its canonical key: residues over F_p, the primitive integer
    vector over the rationals."""

    @settings(max_examples=200, deadline=None)
    @given(FIELDS, COORDS, INTS, st.integers(1, 50))
    def test_canonical_is_invariant_under_scaling(self, field, coords, num, den):
        assume(nonzero(field, coords))
        if field.char:
            assume(num % field.char)
            scaled = [num * c for c in coords]
        else:
            assume(num)
            scaled = cleared([Fraction(num, den) * c for c in coords])
        p = ProjectiveRectangle.canonical(field, coords)
        q = ProjectiveRectangle.canonical(field, scaled)
        assert p == q and hash(p) == hash(q)
        assert p.key == q.key

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(ODD_PRIMES),
        st.sampled_from(ODD_PRIMES),
        st.lists(st.integers(0, 2), min_size=7, max_size=7),
    )
    def test_points_over_different_fields_are_unequal(self, p, q, middle):
        """Points whose keys are equal numbers still differ by their field."""
        assume(p != q)
        coords = [1, *middle, 1]  # canonical as it stands over QQ and every F_p
        over_p = ProjectiveRectangle.canonical(PrimeField(p), coords)
        over_q = ProjectiveRectangle.canonical(PrimeField(q), coords)
        over_qq = ProjectiveRectangle.canonical(QQ, coords)
        assert over_p.key == over_q.key == over_qq.key == tuple(coords)
        assert over_p != over_q and not over_p == over_q
        assert over_p != over_qq and over_qq != over_q
        assert len({over_p, over_q, over_qq}) == 3

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ODD_PRIMES), COORDS)
    def test_vertex_and_w_are_field_elements_of_the_key(self, prime, coords):
        field = PrimeField(prime)
        assume(nonzero(field, coords))
        p = ProjectiveRectangle.canonical(field, coords)
        assert all(0 <= v < prime for v in p.key)
        assert next(v for v in p.key if v) == 1
        pivot = from_int(field, next(c for c in coords if c % prime))
        elements = tuple(from_int(field, c) / pivot for c in coords)
        assert vertex(p, "B") == elements[2:4] and w_of(p) == elements[8]
        assert p.at_infinity == (not elements[8])
        if elements[8]:
            b = p.affine_vertices()["B"]
            assert tuple(map(value, b)) == tuple(c / elements[8] for c in elements[2:4])

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(ODD_PRIMES))
    def test_all_ratios_are_canonical(self, prime):
        field = PrimeField(prime)
        expected = [ratio_of(v, one_of(field)) for v in elements(field)]
        expected.append(ratio_of(one_of(field), zero_of(field)))
        assert all_ratios(field) == expected


@st.composite
def key_rows(draw):
    """A prime field and up to a dozen rows of nine ints, none of them zero mod p.  A
    row is random, or has a first coordinate that is 0 mod p, or is 0 mod p up to a
    late coordinate."""
    p = draw(st.sampled_from((3, 5, 7)) | st.sampled_from(ODD_PRIMES))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = draw(COORDS)
        zeros = draw(st.sampled_from((0, 1)) | st.integers(0, 8))
        row[:zeros] = [p * draw(st.integers(-3, 3)) for _ in range(zeros)]
        assume(any(c % p for c in row))
        rows.append(row)
    return PrimeField(p), rows


class TestCanonicalKeys:
    """canonical_keys, the column form of the key rule that the census reads, gives
    canonical_key row by row."""

    @settings(max_examples=300, deadline=None)
    @given(key_rows())
    def test_rows_match_canonical_key(self, field_rows):
        field, rows = field_rows
        columns = [list(column) for column in zip(*rows)] or [[] for _ in range(9)]
        assert canonical_keys(field, columns) == [canonical_key(field, row) for row in rows]

    def test_zero_row_is_a_precondition_error(self):
        field = PrimeField(7)
        rows = [[1] * 9, [7, 0, 0, 0, -14, 0, 0, 0, 0]]
        with pytest.raises(PreconditionError):
            canonical_key(field, rows[1])
        with pytest.raises(PreconditionError):
            canonical_keys(field, [list(column) for column in zip(*rows)])


RATIONALS = INTS | st.builds(Fraction, INTS, st.integers(1, 10**6))
NONZERO = INTS.filter(bool) | st.builds(Fraction, INTS.filter(bool), st.integers(1, 10**6))
PLANE_MAPS = {name: shipped_plane_map(name) for name in ("cfg1.json", "vertical.json", "relabeled.json")}


@st.composite
def rational_points(draw):
    """Nine small ints or Fractions, not all zero, with A = B and B = C often forced."""
    coordinate = st.sampled_from((0, 1, -1)) | st.integers(-30, 30) | RATIONALS
    coords = [draw(coordinate) for _ in range(9)]
    if draw(st.booleans()):  # A = B
        coords[2:4] = coords[0:2]
    if draw(st.booleans()):  # B = C
        coords[4:6] = coords[2:4]
    assume(any(coords))
    return coords


class TestRationalKey:
    """Over the rationals the key is the primitive integer vector of the point, and
    every reader gives what the nine-Fraction key (``membership.fraction_key``) gives:
    the slope and aspect read through its field elements, as ``membership`` reads them."""

    @settings(max_examples=300, deadline=None)
    @given(rational_points(), NONZERO)
    def test_key_is_primitive_and_blind_to_scale(self, coords, scale):
        key = canonical_key(QQ, cleared(coords))
        assert all(type(c) is int for c in key)
        assert math.gcd(*key) == 1
        assert next(c for c in reversed(key) if c) > 0
        assert membership.fraction_key(key) == membership.fraction_key(coords)
        assert canonical_key(QQ, cleared([scale * c for c in coords])) == key

    @settings(max_examples=300, deadline=None)
    @given(rational_points(), st.sampled_from(sorted(PLANE_MAPS)))
    def test_readers_match_the_fraction_key(self, coords, name):
        point = ProjectiveRectangle.canonical(QQ, cleared(coords))
        reference = ProjectiveRectangle(QQ, membership.fraction_key(coords))
        assert slope_of(point) == membership.slope_of(reference)
        assert aspect_of(point) == membership.aspect_of(reference)
        assert vertex(point, "C") == vertex(reference, "C") and w_of(point) == w_of(reference)
        assert point.at_infinity == reference.at_infinity
        if point.at_infinity:
            return
        assert center_values(point) == membership.center_of(reference)
        w = w_of(reference)
        assert {role: tuple(map(value, v)) for role, v in point.affine_vertices().items()} == {
            role: tuple(c / w for c in vertex(reference, role)) for role in ROLES
        }
        # The report of the Fraction key cleared to ints, as membership.integer_forms clears it.
        pm = PLANE_MAPS[name]
        rebuilt = ProjectiveRectangle(QQ, cleared(reference.key))
        assert rectangle_json(point, pm) == rectangle_json(rebuilt, pm)
