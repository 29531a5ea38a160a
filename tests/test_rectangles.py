"""Configuration-space points, the rectangle quadric, at-infinity structure."""

import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from quadriline import (
    NormalizedConfig,
    PrimeField,
    QQ,
    Ratio,
    aspect_of,
    classify,
    slope_of,
)
from quadriline import hpoly
from quadriline.rectangles import (
    ALL_RATIOS,
    ProjectiveRectangle,
    aspect_infinity_form,
    aspects_at_infinity,
    quadric_h,
    slope_infinity_form,
    slopes_at_infinity,
)
from quadriline.scalars import FpElement
from conftest import all_ratios, random_rational_config, rat
from membership import (
    aspect_system,
    complete_parallelogram,
    evaluate,
    has_aspect,
    has_slope,
    is_parallelogram,
    is_rectangle,
    rectangle_from_aspect,
    rectangle_from_slope,
    satisfies_membership,
    slope_system,
)


def proj_eq(field, p, coords):
    """Projective equality of a point against raw coordinates."""
    return p == ProjectiveRectangle.canonical(field, tuple(map(Fraction, coords)))


class TestCompleteParallelogram:
    def test_degenerate_on_e(self, cfg1):
        p = complete_parallelogram(cfg1, Fraction(0), Fraction(0), Fraction(1))
        assert p.affine_vertices() == {
            "A": (0, 1),
            "B": (0, 1),
            "C": (0, 0),
            "D": (0, 0),
        }

    def test_at_infinity_parallelogram(self, cfg1):
        p = complete_parallelogram(cfg1, Fraction(1), Fraction(1), Fraction(0))
        assert proj_eq(QQ, p, (1, 2, 1, 3, -1, 0, -1, -1, 0))
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
        p = ProjectiveRectangle.canonical(
            QQ,
            tuple(
                Fraction(v)
                for v in (
                    Fraction(-1, 3),
                    Fraction(1, 3),
                    Fraction(-1, 3),
                    0,
                    Fraction(1, 3),
                    0,
                    Fraction(1, 3),
                    Fraction(1, 3),
                    1,
                )
            ),
        )
        assert is_rectangle(p)
        assert satisfies_membership(p, cfg1)

    def test_matches_quadric(self, cfg1):
        h = quadric_h(cfg1)
        p = complete_parallelogram(cfg1, Fraction(1), Fraction(0), Fraction(1))
        assert is_rectangle(p) == (not evaluate(h, Fraction(1), Fraction(0), Fraction(1)))

    def test_point_pair_degenerate_rectangle(self, cfg1):
        p = complete_parallelogram(cfg1, Fraction(0), Fraction(0), Fraction(1))
        assert is_rectangle(p)


class TestQuadricH:
    def test_equivalence_with_rectangle_predicate(self):
        rng = random.Random(59)
        for _ in range(20):
            cfg = random_rational_config(rng)
            h = quadric_h(cfg)
            for _ in range(15):
                x_a = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                x_b = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                w = Fraction(rng.randint(-2, 2))
                if not x_a and not x_b and not w:
                    continue
                p = complete_parallelogram(cfg, x_a, x_b, w)
                assert is_rectangle(p) == (not evaluate(h, x_a, x_b, w))

    def test_twin_pairs_vanish_at_infinity(self, cfg3):
        h = quadric_h(cfg3)
        assert all(not c for c in (h.aa, h.ab, h.bb))

    def test_cfg1_infinity_restriction_formula(self, cfg1):
        # m_CD * h(X_A, X_B, 0) has the closed form
        # m_AD (m_A m_C + 1) X_A^2 - delta X_A X_B + m_BC (m_B m_D + 1) X_B^2
        # with delta = m_BD (m_A m_C + 1) + m_AC (m_B m_D + 1).
        m_a, m_b, m_c, m_d = cfg1.m_a, cfg1.m_b, cfg1.m_c, cfg1.m_d
        m_cd = m_c - m_d
        h = quadric_h(cfg1)
        aa, ab, bb = h.aa, h.ab, h.bb
        delta = (m_b - m_d) * (m_a * m_c + 1) + (m_a - m_c) * (m_b * m_d + 1)
        assert m_cd * aa == (m_a - m_d) * (m_a * m_c + 1)
        assert m_cd * ab == -delta
        assert m_cd * bb == (m_b - m_c) * (m_b * m_d + 1)

    def test_worked_parameters_are_a_zero(self, cfg1):
        h = quadric_h(cfg1)
        assert not evaluate(h, Fraction(-1), Fraction(-1), Fraction(3))


class TestSlopeAspectOf:
    def _worked(self, cfg1):
        return rectangle_from_slope(cfg1, rat(QQ, 1, 0), Fraction(3)).rectangles[0]

    def test_worked_rectangle_slope(self, cfg1):
        assert slope_of(self._worked(cfg1)) == rat(QQ, 1, 0)

    def test_degenerate_rectangle_on_e_slope(self, cfg1):
        p = complete_parallelogram(cfg1, Fraction(0), Fraction(0), Fraction(1))
        assert slope_of(p) == rat(QQ, 0, 1)

    def test_raw_unit_square_slope(self):
        coords = tuple(map(Fraction, (0, 1, 0, 0, 1, 0, 1, 1, 1)))
        p = ProjectiveRectangle.canonical(QQ, coords)
        assert slope_of(p) == rat(QQ, 1, 0)

    def test_worked_rectangle_aspect(self, cfg1):
        assert aspect_of(self._worked(cfg1)) == Ratio.of(Fraction(-1), Fraction(2))

    def test_degenerate_on_e_aspect(self, cfg1):
        p = complete_parallelogram(cfg1, Fraction(0), Fraction(0), Fraction(1))
        assert aspect_of(p) == rat(QQ, 0, 1)

    def test_degenerate_on_f_aspect(self, cfg1):
        fiber = rectangle_from_aspect(cfg1, rat(QQ, 1, 0), Fraction(1))
        assert len(fiber.rectangles) == 1
        p = fiber.rectangles[0]
        assert aspect_of(p) == rat(QQ, 1, 0)
        # B and C vertices coincide at B∩C, A and D at A∩D.
        assert p.vertex("B") == p.vertex("C")
        assert p.vertex("A") == p.vertex("D")


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
        s, t = roots[0].num, roots[0].den
        assert not hpoly.eval_at(form, s, t)
        # Brute force over the whole projective line.
        brute = [
            r
            for r in [Ratio.of(v, f13.one()) for v in f13.elements()]
            + [Ratio.of(f13.one(), f13.zero())]
            if not hpoly.eval_at(form, r.num, r.den)
        ]
        assert brute == roots

    def test_brute_force_agreement_over_primes(self):
        rng = random.Random(61)
        for p in (5, 7, 11):
            field = PrimeField(p)
            proj_line = [Ratio.of(v, field.one()) for v in field.elements()]
            proj_line.append(Ratio.of(field.one(), field.zero()))
            for _ in range(15):
                vals = [field.from_int(rng.randrange(p)) for _ in range(5)]
                if vals[2] == vals[3]:
                    continue
                cfg = NormalizedConfig.make(field, *vals)
                for form, roots in (
                    (slope_infinity_form(cfg), slopes_at_infinity(cfg)),
                    (aspect_infinity_form(cfg), aspects_at_infinity(cfg)),
                ):
                    brute = {
                        (r.num, r.den)
                        for r in proj_line
                        if not hpoly.eval_at(form, r.num, r.den)
                    }
                    if roots is ALL_RATIOS:
                        assert len(brute) == p + 1
                    else:
                        assert {(r.num, r.den) for r in roots} == brute

    def test_orthogonality_closure(self):
        # If s/t is a slope at infinity then so is -t/s.
        rng = random.Random(67)
        for p in (11, 13):
            field = PrimeField(p)
            for _ in range(25):
                vals = [field.from_int(rng.randrange(p)) for _ in range(5)]
                if vals[2] == vals[3]:
                    continue
                cfg = NormalizedConfig.make(field, *vals)
                roots = slopes_at_infinity(cfg)
                if roots is ALL_RATIOS:
                    continue
                root_set = {(r.num, r.den) for r in roots}
                for r in roots:
                    o = Ratio.of(-r.den, r.num)
                    assert (o.num, o.den) in root_set

    def test_three_parallel_lines_give_zero_and_infinity_aspects(self):
        cfg = NormalizedConfig.from_ints(QQ, 2, 2, 2, 0, 5)
        roots = aspects_at_infinity(cfg)
        assert {(r.num, r.den) for r in roots} == {(0, 1), (1, 0)}

    def test_aspect_pairing(self):
        # If u/v occurs then so does (m_AB m_CD v) / (m_BC m_AD u).
        f17 = PrimeField(17)
        cfg = NormalizedConfig.from_ints(f17, 2, 3, 0, 1, 1)
        roots = aspects_at_infinity(cfg)
        assert len(roots) == 2
        m_ab = cfg.m_a - cfg.m_b
        m_cd = cfg.m_c - cfg.m_d
        m_bc = cfg.m_b - cfg.m_c
        m_ad = cfg.m_a - cfg.m_d
        root_set = {(r.num, r.den) for r in roots}
        for r in roots:
            partner = Ratio.of(m_ab * m_cd * r.den, m_bc * m_ad * r.num)
            assert (partner.num, partner.den) in root_set

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
                vals = [field.from_int(rng.randrange(p)) for _ in range(5)]
                if vals[2] == vals[3]:
                    continue
                cfg = NormalizedConfig.make(field, *vals)
                cls = classify(cfg)
                assert (slopes_at_infinity(cfg) is ALL_RATIOS) == cls.twin_pairs
                assert (aspects_at_infinity(cfg) is ALL_RATIOS) == cls.dual_pairs


class TestDeterminants:
    def test_system_determinants_match_forms(self):
        rng = random.Random(73)
        for _ in range(30):
            cfg = random_rational_config(rng)
            r = Ratio.of(
                Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)) or Fraction(1)
            )
            m, _ = slope_system(cfg, r)
            det = m[0] * m[3] - m[1] * m[2]
            assert det == hpoly.eval_at(slope_infinity_form(cfg), r.num, r.den)
            m, _ = aspect_system(cfg, r)
            det = m[0] * m[3] - m[1] * m[2]
            m_cd = cfg.m_c - cfg.m_d
            assert det == m_cd * hpoly.eval_at(aspect_infinity_form(cfg), r.num, r.den)


class TestFactorizationIdentity:
    def test_coefficientwise(self):
        # (S^2 + T^2) * sigma = prod(T + m S)(S - m T) alternating - mirror.
        rng = random.Random(79)
        one, zero = Fraction(1), Fraction(0)
        for _ in range(40):
            cfg = random_rational_config(rng)
            sigma = slope_infinity_form(cfg)
            lhs = hpoly.mul((one, zero, one), sigma)
            m_a, m_b, m_c, m_d = cfg.m_a, cfg.m_b, cfg.m_c, cfg.m_d
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
        assert p.affine_vertices() == {
            "A": (Fraction(-1, 3), Fraction(1, 3)),
            "B": (Fraction(-1, 3), 0),
            "C": (Fraction(1, 3), 0),
            "D": (Fraction(1, 3), Fraction(1, 3)),
        }

    def test_slope_zero_gives_degenerate_rectangle(self, cfg1):
        fiber = rectangle_from_slope(cfg1, rat(QQ, 0, 1), Fraction(1))
        (p,) = fiber.rectangles
        assert p.affine_vertices() == {
            "A": (0, 1),
            "B": (0, 1),
            "C": (0, 0),
            "D": (0, 0),
        }

    def test_twin_pairs_kernel_any_slope(self, cfg3):
        rng = random.Random(83)
        for _ in range(10):
            s, t = rng.randint(-5, 5), rng.randint(-5, 5)
            if not s and not t:
                continue
            r = Ratio.of(Fraction(s), Fraction(t))
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
            r = Ratio.of(Fraction(s), Fraction(t))
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
        fiber = rectangle_from_aspect(cfg1, Ratio.of(Fraction(-1), Fraction(2)), Fraction(3))
        slope_route = rectangle_from_slope(cfg1, rat(QQ, 1, 0), Fraction(3))
        assert fiber.rectangles == slope_route.rectangles

    def test_aspect_zero_collapses_on_e(self, cfg1):
        fiber = rectangle_from_aspect(cfg1, rat(QQ, 0, 1), Fraction(1))
        (p,) = fiber.rectangles
        assert p.vertex("A") == p.vertex("B")
        assert p.vertex("C") == p.vertex("D")
        # vertices sit at A∩B and C∩D
        verts = p.affine_vertices()
        assert verts["A"] == (0, 1) and verts["C"] == (0, 0)

    def test_results_satisfy_definitions(self):
        rng = random.Random(97)
        for _ in range(20):
            cfg = random_rational_config(rng)
            u, v = rng.randint(-4, 4), rng.randint(-4, 4)
            if not u and not v:
                continue
            r = Ratio.of(Fraction(u), Fraction(v))
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
    """A point is its canonical key: residues over F_p, Fractions over the rationals."""

    @settings(max_examples=200, deadline=None)
    @given(FIELDS, COORDS, INTS, st.integers(1, 50))
    def test_canonical_is_invariant_under_scaling(self, field, coords, num, den):
        assume(nonzero(field, coords))
        if field.char:
            assume(num % field.char)
            scaled = [num * c for c in coords]
        else:
            assume(num)
            scaled = [Fraction(num, den) * c for c in coords]
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
        pivot = field.from_int(next(c for c in coords if c % prime))
        elements = tuple(field.from_int(c) / pivot for c in coords)
        assert p.vertex("B") == elements[2:4] and p.w == elements[8]
        assert p.at_infinity == (not elements[8])

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(ODD_PRIMES))
    def test_all_ratios_are_canonical(self, prime):
        field = PrimeField(prime)
        expected = [Ratio.of(v, field.one()) for v in field.elements()]
        expected.append(Ratio.of(field.one(), field.zero()))
        assert all_ratios(field) == expected
