"""Path polynomials: identities, evaluation, degeneracy, the homography."""

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple, Optional

import pytest

from quadriline import (
    NormalizedConfig,
    PrimeField,
    QQ,
    Ratio,
    aspect_of,
    aspect_path_eval,
    homography,
    slope_of,
    slope_path_eval,
)
from quadriline import hpoly
from quadriline.errors import DegenerateConfigError, InternalCheckError, PreconditionError
from quadriline.paths import (
    PathPolynomials,
    aspect_path_polys,
    eval_path,
    ratio_samples,
    slope_path_polys,
)
from quadriline.rectangles import ProjectiveRectangle, slope_infinity_form
from conftest import (
    CFG1_INTS,
    all_ratios,
    contains,
    bounded_ratio_samples,
    fraction_count,
    shipped_config,
    random_degenerate_config,
    random_rational_config,
    rat,
    role_forms,
    sample_ratios,
)
import membership
from membership import (
    constants,
    den,
    from_int,
    has_aspect,
    has_slope,
    integer_forms,
    is_parallelogram,
    is_rectangle,
    num,
    one_multiple,
    path_case,
    ratio_of,
    satisfies_membership,
    vertex,
)


def reference_eval_path(cfg, pp, r):
    """The path rectangle at r from field-element arithmetic: evaluate the
    nine forms at (num(r), den(r)) in the field, then divide by the pivot."""
    s, t = num(r), den(r)
    coords = [hpoly.eval_at(f, s, t) for f in pp.forms]
    if all(not c for c in coords):
        raise InternalCheckError("path polynomials share a projective zero")
    return ProjectiveRectangle.canonical(cfg.field, integer_forms(cfg.field, [coords])[0])


class TestSlopePathPolynomials:
    def test_cfg1_exact_expansion(self, cfg1):
        pp = slope_path_polys(cfg1)
        assert path_case(pp) == "generic"
        assert pp.first == (-1, 0)  # M_CD (e1 S + e2 T) = -S
        assert pp.second == (2, -3)  # δ (f2 S - f1 T) = 2S - 3T
        x, _, w = role_forms(pp)
        assert x["A"] == (1, -3, 0)  # S^2 - 3 S T
        assert x["B"] == (1, -2, 0)
        assert x["C"] == (-1, 1, 0)
        assert x["D"] == (-1, 0, 0)
        assert w == (-3, 4, 3)
        assert w == slope_infinity_form(cfg1)

    def test_cfg3_is_a_line_with_zero_w(self, cfg3):
        pp = slope_path_polys(cfg3)
        assert path_case(pp) == "orthogonal"
        _, _, w = role_forms(pp)
        assert len(w) - 1 == 1
        assert hpoly.is_zero(w)  # the whole path lies at infinity

    def test_a_equals_b_case(self):
        cfg = NormalizedConfig.from_ints(QQ, 3, 3, 0, 1, 1)
        pp = slope_path_polys(cfg)
        assert path_case(pp) == "both-zero"
        assert pp.first == (0,) and pp.second == (1,)

    def test_degenerate_coordinates_have_degree_one(self, cfg2):
        pp = slope_path_polys(cfg2)
        assert path_case(pp) == "orthogonal"
        assert len(role_forms(pp)[2]) - 1 == 1
        ap = aspect_path_polys(cfg2)
        assert len(role_forms(ap)[2]) - 1 == 1


def reference_paths(cfg):
    """The field-element forms of both paths, after checking that the
    library's int forms are one nonzero multiple of them, with the case-split
    pair (first, second) another one, which puts them in the same case."""
    out = []
    for build, reference in (
        (slope_path_polys, membership.slope_path_polys),
        (aspect_path_polys, membership.aspect_path_polys),
    ):
        pp, ref = build(cfg), reference(cfg)
        assert one_multiple(cfg.field, pp.forms, ref.forms)
        assert one_multiple(cfg.field, [pp.first, pp.second], [ref.first, ref.second])
        out.append(ref)
    return out


def _identity_checks(cfg):
    """The displacement identities, closures and the rectangle identity, on
    the reference forms that the library's forms are one multiple of."""
    zero, one = Fraction(0), Fraction(1)
    m_cd = constants(cfg).m_c - constants(cfg).m_d
    m_dc = -m_cd
    s_only, t_only = (one, zero), (zero, one)

    pp, ap = reference_paths(cfg)
    x, y, _ = role_forms(pp)
    # The slope path's first is M_CD e, so its displacements carry no m_CD of their own.
    assert hpoly.sub(y["A"], y["B"]) == hpoly.mul(s_only, pp.first)
    assert hpoly.sub(x["A"], x["B"]) == hpoly.mul(t_only, pp.first)
    assert hpoly.sub(y["B"], y["C"]) == hpoly.mul(hpoly.scale(-one, t_only), pp.second)
    assert hpoly.sub(x["B"], x["C"]) == hpoly.mul(s_only, pp.second)
    # parallelogram closure and the rectangle identity, coefficientwise
    assert hpoly.add(x["A"], x["C"]) == hpoly.add(x["B"], x["D"])
    assert hpoly.add(y["A"], y["C"]) == hpoly.add(y["B"], y["D"])
    lhs = hpoly.mul(hpoly.sub(x["A"], x["B"]), hpoly.sub(x["B"], x["C"]))
    rhs = hpoly.mul(hpoly.sub(y["A"], y["B"]), hpoly.sub(y["B"], y["C"]))
    assert lhs == hpoly.scale(-one, rhs)

    m_form, n_form = ap.first, ap.second
    x, y, _ = role_forms(ap)
    assert hpoly.sub(x["A"], x["B"]) == hpoly.mul(hpoly.scale(m_dc, s_only), n_form)
    assert hpoly.sub(y["A"], y["B"]) == hpoly.mul(hpoly.scale(m_dc, s_only), m_form)
    assert hpoly.sub(y["B"], y["C"]) == hpoly.mul(hpoly.scale(m_cd, t_only), n_form)
    assert hpoly.sub(x["B"], x["C"]) == hpoly.mul(hpoly.scale(m_dc, t_only), m_form)
    assert hpoly.add(x["A"], x["C"]) == hpoly.add(x["B"], x["D"])
    assert hpoly.add(y["A"], y["C"]) == hpoly.add(y["B"], y["D"])
    lhs = hpoly.mul(hpoly.sub(x["A"], x["B"]), hpoly.sub(x["B"], x["C"]))
    rhs = hpoly.mul(hpoly.sub(y["A"], y["B"]), hpoly.sub(y["B"], y["C"]))
    assert lhs == hpoly.scale(-one, rhs)


def divides(f, g) -> bool:
    """Exact divisibility of homogeneous forms: does f divide g in k[S,T]?"""
    if hpoly.is_zero(f):
        return hpoly.is_zero(g)
    if hpoly.is_zero(g):
        return True
    if len(g) < len(f):
        return False
    # Leading zero coefficients are powers of T; strip and compare valuations.
    fi = next(i for i, c in enumerate(f) if c)
    gi = next(i for i, c in enumerate(g) if c)
    if fi > gi:
        return False
    fc, gc = list(f[fi:]), list(g[gi:])
    # Now fc has an invertible leading coefficient; ordinary long division.
    while len(gc) >= len(fc):
        q = gc[0] / fc[0]
        for i, c in enumerate(fc):
            gc[i] = gc[i] - q * c
        gc.pop(0)  # cancelled by construction
    return all(not c for c in gc)


def _divisibility_checks(cfg):
    """The w forms against the at-infinity forms, on the reference forms that
    the library's forms are one multiple of."""
    pp, ap = reference_paths(cfg)
    pw, aw = role_forms(pp)[2], role_forms(ap)[2]
    sigma = membership.slope_infinity_form(cfg)
    assert divides(pw, sigma)
    alpha = membership.aspect_infinity_form(cfg)
    m_cd_alpha = hpoly.scale(constants(cfg).m_c - constants(cfg).m_d, alpha)
    assert divides(aw, m_cd_alpha)
    if cfg.ef_sum:
        assert pw == sigma
        # The aspect-side equality holds after normalizing away the unit
        # factor m_CD: the homogenizing polynomial equals the aspect form
        # itself (checked coefficientwise).
        assert aw == alpha
    else:
        # Strictly smaller degree unless both sides vanish identically
        # (twin/dual pairs annihilate the quadratic too).
        if not hpoly.is_zero(sigma):
            assert len(pw) < len(sigma)
        else:
            assert hpoly.is_zero(pw)
        if not hpoly.is_zero(m_cd_alpha):
            assert len(aw) < len(m_cd_alpha)
        else:
            assert hpoly.is_zero(aw)


class TestPolynomialIdentities:
    def test_displacement_identities_random(self):
        rng = random.Random(101)
        for _ in range(30):
            _identity_checks(random_rational_config(rng))

    def test_displacement_identities_degenerate(self):
        rng = random.Random(103)
        for _ in range(15):
            _identity_checks(random_degenerate_config(rng))

    def test_divisibility_random(self):
        rng = random.Random(107)
        for _ in range(30):
            _divisibility_checks(random_rational_config(rng))
        for _ in range(15):
            _divisibility_checks(random_degenerate_config(rng))
        _divisibility_checks(NormalizedConfig.from_ints(QQ, 1, 0, 0, 1, 1))

    def test_no_common_projective_zero(self):
        rng = random.Random(109)
        for _ in range(15):
            cfg = random_rational_config(rng)
            for pp in (slope_path_polys(cfg), aspect_path_polys(cfg)):
                if path_case(pp) == "generic":
                    e1, e2 = pp.first
                    f2, mf1 = pp.second
                    assert e1 * mf1 - e2 * f2  # the two forms are independent
                for s, t in ratio_samples(QQ, 20):
                    x, _, w = role_forms(pp)
                    values = [hpoly.eval_at(x[role], s, t) for role in "ABCD"]
                    values.append(hpoly.eval_at(w, s, t))
                    assert any(values)


class TestSlopePathEval:
    def test_cfg1_worked_point(self, cfg1):
        rect = slope_path_eval(cfg1, rat(QQ, 1, 0))
        expected = ProjectiveRectangle.canonical(QQ, (1, -1, 1, 0, -1, 0, -1, -1, -3))
        assert rect == expected

    def test_cfg1_zero_slope_point(self, cfg1):
        rect = slope_path_eval(cfg1, rat(QQ, 0, 1))
        expected = ProjectiveRectangle.canonical(QQ, (0, 3, 0, 3, 0, 0, 0, 0, 3))
        assert rect == expected

    def test_e_slope_affine_for_cfg1_infinite_for_cfg2(self, cfg1, cfg2):
        e1 = ratio_of(*constants(cfg1)[5:7])
        assert not slope_path_eval(cfg1, e1).at_infinity
        e2 = ratio_of(*constants(cfg2)[5:7])
        assert e2 == rat(QQ, 1, 2)
        assert slope_path_eval(cfg2, e2).at_infinity

    def test_path_points_are_rectangles_with_stated_invariants(self):
        rng = random.Random(113)
        for _ in range(12):
            cfg = random_rational_config(rng)
            pp = slope_path_polys(cfg)
            for st in ratio_samples(QQ, 12):
                rect = eval_path(cfg, pp, st)
                assert satisfies_membership(rect, cfg)
                assert is_parallelogram(rect)
                assert is_rectangle(rect)
                assert has_slope(rect, Ratio(QQ, *st))
                expected_aspect = Ratio(
                    QQ, hpoly.eval_at(pp.first, *st), hpoly.eval_at(pp.second, *st)
                )
                assert has_aspect(rect, expected_aspect)

    def test_aspect_path_points(self):
        rng = random.Random(127)
        for _ in range(12):
            cfg = random_rational_config(rng)
            ap = aspect_path_polys(cfg)
            for st in ratio_samples(QQ, 12):
                rect = eval_path(cfg, ap, st)
                assert satisfies_membership(rect, cfg)
                assert is_rectangle(rect)
                assert has_aspect(rect, Ratio(QQ, *st))
                expected_slope = Ratio(
                    QQ, hpoly.eval_at(ap.first, *st), hpoly.eval_at(ap.second, *st)
                )
                assert has_slope(rect, expected_slope)


@pytest.mark.parametrize("name", ["cfg1.json", "cfg2.json", "cfg3.json"])
def test_path_forms_build_no_fractions(name):
    """Both paths are built on the integer standing form, not in Fractions."""
    cfg = shipped_config(name)
    with fraction_count() as built:
        slope_path_polys(cfg)
        aspect_path_polys(cfg)
    assert built == [0]


class TestIntegerKernel:
    """eval_path on integer forms against the field-element reference."""

    def test_matches_reference_over_q(self):
        rng = random.Random(139)
        configs = [random_rational_config(rng) for _ in range(10)]
        configs += [random_degenerate_config(rng) for _ in range(10)]
        configs += [NormalizedConfig.from_ints(QQ, 3, 3, 0, 1, 1)]  # slope path both-zero
        ratios = sample_ratios(QQ, 30) + [ratio_of(Fraction(-(10**40) + 7, 3**50), Fraction(1))]
        for cfg in configs:
            for pp in (slope_path_polys(cfg), aspect_path_polys(cfg)):
                for r in ratios:
                    assert eval_path(cfg, pp, (r.s, r.t)) == reference_eval_path(cfg, pp, r)

    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_reference_on_every_config_and_ratio(self, p):
        field = PrimeField(p)
        for ints in itertools.product(range(p), repeat=5):
            if ints[2] == ints[3]:
                continue
            try:
                cfg = NormalizedConfig.from_ints(field, *ints)
            except PreconditionError:
                continue
            for pp in (slope_path_polys(cfg), aspect_path_polys(cfg)):
                for r in all_ratios(field):
                    assert eval_path(cfg, pp, (r.s, r.t)) == reference_eval_path(cfg, pp, r)

    @pytest.mark.parametrize("field", [QQ, PrimeField(13)], ids=["QQ", "F13"])
    def test_shared_root_raises(self, field):
        """Nine int forms that all vanish at 1/1: no point of P^8 there."""
        root = (1, -1)  # S - T
        xs = [hpoly.scale(k, root) for k in range(1, 5)]
        forms = (*[f for x in xs for f in (x, hpoly.scale(5, x))], hpoly.scale(7, root))
        pp = PathPolynomials(first=(1,), second=(1,), forms=forms)
        cfg = NormalizedConfig.from_ints(field, *CFG1_INTS)
        with pytest.raises(InternalCheckError, match="share a projective zero"):
            eval_path(cfg, pp, (1, 1))
        with pytest.raises(InternalCheckError, match="share a projective zero"):
            reference_eval_path(cfg, pp, rat(field, 1, 1))
        for r in (rat(field, 1, 0), rat(field, 0, 1), rat(field, 2, 1)):
            assert eval_path(cfg, pp, (r.s, r.t)) == reference_eval_path(cfg, pp, r)


class SlopeQueryResult(NamedTuple):
    """Outcome of a slope query: affine vertices or a rectangle at infinity."""

    at_infinity: bool
    vertices: Optional[dict]
    rectangle: ProjectiveRectangle


def affine_vertices_for_slope(cfg: NormalizedConfig, r: Ratio) -> SlopeQueryResult:
    """Vertices of the slope-path rectangle at r, or the at-infinity point.

    When the homogenizing polynomial is nonzero at r the four vertices are
    affine and each is verified to lie on its line.
    """
    pp = slope_path_polys(cfg)
    rect = eval_path(cfg, pp, (r.s, r.t))
    if rect.at_infinity:
        return SlopeQueryResult(True, None, rect)
    vertices = rect.affine_vertices()
    for role, (x, y) in vertices.items():
        if not contains(cfg.field, membership.standing_line(cfg, role), (x, y)):
            raise InternalCheckError(f"vertex for {role} left its line")
    return SlopeQueryResult(False, vertices, rect)


class TestAffineVertices:
    def test_cfg1_vertical(self, cfg1):
        res = affine_vertices_for_slope(cfg1, rat(QQ, 1, 0))
        assert not res.at_infinity
        third, zero = rat(QQ, 1, 3), rat(QQ, 0, 1)
        assert res.vertices == {
            "A": (rat(QQ, -1, 3), third),
            "B": (rat(QQ, -1, 3), zero),
            "C": (third, zero),
            "D": (third, third),
        }

    def test_cfg1_unit_slope_lies_on_lines(self, cfg1):
        res = affine_vertices_for_slope(cfg1, rat(QQ, 1, 1))
        assert not res.at_infinity
        for role, point in res.vertices.items():
            assert contains(QQ, membership.standing_line(cfg1, role), point)

    def test_cfg2_e_slope_at_infinity(self, cfg2):
        res = affine_vertices_for_slope(cfg2, rat(QQ, 1, 2))
        assert res.at_infinity
        assert res.rectangle.at_infinity


class TestAspectPathEval:
    def test_cfg1_worked_aspect(self, cfg1):
        rect = aspect_path_eval(cfg1, ratio_of(Fraction(-1), Fraction(2)))
        assert rect == slope_path_eval(cfg1, rat(QQ, 1, 0))

    def test_cfg1_zero_aspect_degenerate_on_e(self, cfg1):
        rect = aspect_path_eval(cfg1, rat(QQ, 0, 1))
        assert vertex(rect, "A") == vertex(rect, "B")

    def test_cfg2_constant_slope(self, cfg2):
        r1 = aspect_path_eval(cfg2, rat(QQ, 1, 1))
        r2 = aspect_path_eval(cfg2, rat(QQ, 5, 1))
        assert r1 != r2
        f_slope = ratio_of(*constants(cfg2)[7:])
        assert slope_of(r1) == f_slope == slope_of(r2)
        assert f_slope == ratio_of(Fraction(-2), Fraction(1))


class TestDegeneracyCharacterization:
    def test_sampled_equivalences(self):
        rng = random.Random(131)
        configs = [random_rational_config(rng) for _ in range(10)]
        configs += [random_degenerate_config(rng) for _ in range(10)]
        for cfg in configs:
            degenerate = not cfg.ef_sum
            pp, ap = slope_path_polys(cfg), aspect_path_polys(cfg)
            assert (len(role_forms(pp)[2]) - 1 == 1) == degenerate
            assert (len(role_forms(ap)[2]) - 1 == 1) == degenerate
            aspects = set()
            slopes = set()
            for r in ratio_samples(QQ, 20):
                a = aspect_of(eval_path(cfg, pp, r))
                s = slope_of(eval_path(cfg, ap, r))
                aspects.add((num(a), den(a)))
                slopes.add((num(s), den(s)))
            assert (len(aspects) == 1) == degenerate
            assert (len(slopes) == 1) == degenerate

    def test_nondegenerate_images_coincide_under_homography(self):
        rng = random.Random(137)
        count = 0
        while count < 10:
            cfg = random_rational_config(rng)
            if not cfg.ef_sum:
                continue
            count += 1
            h = homography(cfg)
            for r in sample_ratios(QQ, 20):
                assert slope_path_eval(cfg, r) == aspect_path_eval(
                    cfg, h.slope_to_aspect(r)
                )


class TestHomography:
    def test_cfg1_values(self, cfg1):
        h = homography(cfg1)
        assert h.slope_to_aspect(rat(QQ, 1, 0)) == ratio_of(Fraction(-1), Fraction(2))
        assert h.aspect_to_slope(ratio_of(Fraction(-1), Fraction(2))) == rat(QQ, 1, 0)

    def test_round_trip(self, cfg1):
        h = homography(cfg1)
        for r in sample_ratios(QQ, 50):
            assert h.aspect_to_slope(h.slope_to_aspect(r)) == r
            assert h.slope_to_aspect(h.aspect_to_slope(r)) == r

    def test_degenerate_rejected(self, cfg2):
        with pytest.raises(DegenerateConfigError):
            homography(cfg2)


class TestCachedPaths:
    """``NormalizedConfig.slope_path`` and ``aspect_path`` build each path once, at the
    first read, and leave the configuration's value alone."""

    def test_each_path_is_its_builders(self, cfg2, path_builds):
        for _ in range(3):
            assert cfg2.slope_path == slope_path_polys(cfg2)
            assert cfg2.aspect_path == aspect_path_polys(cfg2)
        assert path_builds == {"slope": 1, "aspect": 1}

    def test_twenty_evaluations_build_the_path_once(self, cfg1, path_builds):
        for r in sample_ratios(QQ, 20):
            slope_path_eval(cfg1, r)
        assert path_builds == {"slope": 1}

    def test_value_is_unchanged_by_reading_the_paths(self):
        for field in (QQ, PrimeField(7)):
            cfg = NormalizedConfig.from_ints(field, *CFG1_INTS)
            fresh = NormalizedConfig(cfg.field, cfg.standing)
            assert cfg.slope_path != cfg.aspect_path
            assert list(vars(cfg)) == ["field", "standing", "slope_path", "aspect_path"]
            assert cfg == fresh and fresh == cfg
            assert hash(cfg) == hash(fresh)
            assert repr(cfg) == repr(fresh)

    def test_paths_cannot_be_assigned(self, cfg1):
        pp = cfg1.slope_path
        for name in ("slope_path", "aspect_path"):
            with pytest.raises(AttributeError):
                setattr(cfg1, name, pp)
        assert cfg1.slope_path is pp


class TestRatioSamples:
    def test_leading_sequence(self):
        assert ratio_samples(QQ, 5) == [(0, 1), (1, 0), (1, 1), (-1, 1), (2, 1)]

    def test_distinct_and_deterministic(self):
        a = ratio_samples(QQ, 40)
        b = ratio_samples(QQ, 40)
        assert a == b
        assert len(set(a)) == 40

    def test_pairs_are_canonical(self):
        for s, t in ratio_samples(QQ, 300):
            assert (s, t) == (1, 0) or (t > 0 and math.gcd(s, t) == 1)
        for p in (3, 5, 13):
            pairs = ratio_samples(PrimeField(p), p + 1)
            assert sorted(pairs) == sorted([(1, 0)] + [(v, 1) for v in range(p)])

    @pytest.mark.parametrize("p", [3, 5, 13, 101])
    def test_prime_pairs_reduce_the_rational_walk(self, p):
        """Over F_p the walk is the rational one mapped into the field, repeats skipped."""
        field = PrimeField(p)
        ratios = (ratio_of(from_int(field, s), from_int(field, t)) for s, t in ratio_samples(QQ, 20 * p))
        reduced = ((r.s, r.t) for r in ratios)
        assert ratio_samples(field, p + 1) == list(dict.fromkeys(reduced))[: p + 1]

    def test_exhausts_small_prime_field(self):
        f5 = PrimeField(5)
        samples = ratio_samples(f5, 100)
        assert len(samples) == 6  # p + 1 points on the projective line

    @pytest.mark.parametrize("n", [1, 100, 10_007, 10_008, 10_009, 10**6])
    def test_work_is_linear_in_the_points_returned(self, n):
        """The walk builds at most 2 min(n, p + 1) ratios (:func:`bounded_ratio_samples`)."""
        field = PrimeField(10_007)
        samples = bounded_ratio_samples(field, n)
        assert len(samples) == len(set(samples)) == min(n, field.char + 1)
