"""Normalization, plane maps, diagonals, classification, degeneration."""

import glob
import os
import random
from fractions import Fraction

import pytest

from quadriline import (
    ConfigurationInput,
    InputLine,
    NormalizedConfig,
    PrimeField,
    QQ,
    classify,
    normalize,
)
from quadriline.cli import load_config
from quadriline.configuration import DiagonalMarker, LocusShape, diagonal_slopes
from quadriline.errors import AllParallelError, ConcurrentLinesError, PreconditionError
from conftest import (
    ALL_INTERCEPTS,
    CFG1_INTS,
    affine_point,
    covec,
    degenerating_intercepts,
    input_line,
    make_config,
    int_point,
    normalized_point,
    plane_map_values,
    random_rational_config,
    same_line,
    slope_intercept_line,
    standing_input,
)
from membership import constants, from_int, ratio_of, standing_line


def affine(point):
    """The affine point (X / Z, Y / Z) of a rational int point (X : Y : Z), or None at Z = 0."""
    x, y, z = point
    return (Fraction(x, z), Fraction(y, z)) if z else None


def _line(m, k):
    return slope_intercept_line(m, k)


class TestNormalize:
    def test_standing_form_is_identity(self):
        ci = standing_input(QQ, *CFG1_INTS)
        cfg, pm = normalize(ci)
        assert cfg.standing[:6] == (2, 3, 0, 1, 1, 1)
        assert pm.swaps == (False, False, False)
        # N is a nonzero multiple of the identity.
        n = pm.matrix[0][0]
        assert n and pm.matrix == ((n, 0, 0), (0, n, 0), (0, 0, n))

    def test_translation_only(self):
        ci = ConfigurationInput(
            QQ, (_line(2, 3), _line(0, 2)), (_line(3, 3), _line(1, 2))
        )
        cfg, pm = normalize(ci)
        assert cfg.standing[:6] == (2, 3, 0, 1, 1, 1)
        assert plane_map_values(pm) == ((0, -2), None, 1)
        assert pm.t is None and Fraction(*pm.s) == 1

    def test_vertical_line_forces_reflection(self):
        vertical = InputLine(1, 0, 0)  # x = 0
        ci = ConfigurationInput(QQ, (vertical, _line(0, 0)), (_line(3, 1), _line(1, 0)))
        cfg, pm = normalize(ci)
        assert pm.t is not None
        assert pm.t != 0
        # No normalized line is vertical.
        for role in "ABCD":
            assert standing_line(cfg, role).b
        # The map reproduces the normalized lines from the original ones.
        by_label = ci.lines_by_label()
        for role in "ABCD":
            image = pm.normalized_line(covec(QQ, by_label[pm.role_to_input[role]]))
            assert same_line(QQ, image, standing_line(cfg, role))

    def test_all_parallel_routed(self):
        ci = ConfigurationInput(QQ, (_line(1, 0), _line(1, 1)), (_line(1, 2), _line(1, 3)))
        with pytest.raises(AllParallelError):
            normalize(ci)

    def test_all_concurrent_rejected(self):
        ci = ConfigurationInput(QQ, (_line(1, 0), _line(2, 0)), (_line(3, 0), _line(4, 0)))
        with pytest.raises(ConcurrentLinesError):
            normalize(ci)

    def test_tiny_field_reflection_can_fail(self):
        # Over F_3 the reflection y = t x maps horizontals to verticals for
        # both available t, so a config mixing a vertical and a horizontal
        # line cannot be de-verticalized; the failure is reported, not hidden.
        from quadriline.errors import ReflectionUnavailableError

        f3 = PrimeField(3)
        vertical = InputLine(1, 0, 0)
        horizontal = InputLine(0, 1, 0)
        b_line = InputLine(-1, 1, 1)  # y = x + 1
        d_line = InputLine(1, 1, 0)  # y = 2x
        ci = ConfigurationInput(f3, (vertical, horizontal), (b_line, d_line))
        with pytest.raises(ReflectionUnavailableError):
            normalize(ci)

    def test_tiny_field_reflection_can_succeed(self):
        # Without a horizontal line, F_3 still normalizes.
        f3 = PrimeField(3)
        vertical = InputLine(1, 0, 0)
        ci = ConfigurationInput(
            f3,
            (vertical, InputLine(-1, 1, 0)),
            (
                InputLine(-2, 1, 1),
                InputLine(-1, 1, 1),
            ),
        )
        cfg, pm = normalize(ci)
        assert pm.t is not None
        for role in "ABCD":
            assert standing_line(cfg, role).b

    def test_normalize_uses_no_line_methods(self):
        """normalize runs on integer covectors: InputLine holds the ints a, b, c and
        has no method, and every configs/*.json normalizes (the all-parallel one to
        AllParallelError)."""
        methods = [name for name, value in vars(InputLine).items() if callable(value)]
        assert methods == []
        paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))
        assert len(paths) >= 9
        for path in paths:
            cfg_input = load_config(path)
            if os.path.basename(path) == "parallel.json":
                with pytest.raises(AllParallelError):
                    normalize(cfg_input)
            else:
                normalize(cfg_input)

    def test_b_through_origin_triggers_role_swap(self):
        # Pair1's lines are mutually parallel, so C and D must straddle the
        # pairs; every no-swap labeling leaves B through C∩D, forcing the
        # role swap on the second labeling tried.
        ci = ConfigurationInput(QQ, (_line(2, 1), _line(2, 0)), (_line(3, 0), _line(1, 0)))
        cfg, pm = normalize(ci)
        assert pm.swaps == (False, False, True)
        assert pm.role_to_input == {"A": "B", "C": "D", "B": "A", "D": "C"}
        assert standing_line(cfg, "B").c == 1

    def test_roundtrip_reproduces_original_lines(self):
        rng = random.Random(23)
        produced = 0
        while produced < 40:
            try:
                lines = [
                    InputLine(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
                    for _ in range(4)
                ]
                ci = ConfigurationInput(QQ, (lines[0], lines[1]), (lines[2], lines[3]))
                cfg, pm = normalize(ci)
            except Exception:
                continue
            produced += 1
            by_label = ci.lines_by_label()
            for role in "ABCD":
                original = covec(QQ, by_label[pm.role_to_input[role]])
                standing = covec(QQ, standing_line(cfg, role))
                # forward: original -> normalized line
                assert same_line(QQ, pm.normalized_line(original), standing)
                # inverse: normalized -> original line
                assert same_line(QQ, pm.original_line(standing), original)

    def test_point_roundtrip(self):
        rng = random.Random(29)
        vertical = InputLine(1, 0, 2)
        ci = ConfigurationInput(QQ, (vertical, _line(1, 3)), (_line(0, 1), _line(2, 0)))
        cfg, pm = normalize(ci)
        for _ in range(25):
            p = (Fraction(rng.randint(-9, 9), 2), Fraction(rng.randint(-9, 9), 3))
            v = int_point(QQ, p)
            assert affine_point(QQ, pm.original([normalized_point(pm, v)])[0]) == p
            assert affine_point(QQ, normalized_point(pm, pm.original([v])[0])) == p

    def test_degenerate_flag_invariant_under_relabelings(self):
        rng = random.Random(31)
        checked = 0
        while checked < 12:
            base = random_rational_config(rng)
            lines = {role: input_line(QQ, standing_line(base, role)) for role in "ABCD"}
            arrangements = []
            for s1 in (False, True):
                for s2 in (False, True):
                    for sr in (False, True):
                        p1 = (lines["A"], lines["C"]) if not s1 else (lines["C"], lines["A"])
                        p2 = (lines["B"], lines["D"]) if not s2 else (lines["D"], lines["B"])
                        if sr:
                            p1, p2 = p2, p1
                        arrangements.append(ConfigurationInput(QQ, p1, p2))
            flags = set()
            for ci in arrangements:
                cfg, _ = normalize(ci)
                flags.add(classify(cfg).degenerate)
            assert len(flags) == 1
            checked += 1


def test_records_are_values():
    """A Record compares and hashes by its type and field values, lists its fields
    through vars, and takes no new attribute values."""
    from quadriline.locus import SpecialRectangles
    from quadriline.paths import PathHomography

    line = InputLine(1, 0, 1)
    assert line == InputLine(1, 0, 1) and hash(line) == hash(InputLine(1, 0, 1))
    assert line != InputLine(1, 0, 0)
    assert SpecialRectangles((1, 2), (3, 4)) != PathHomography((1, 2), (3, 4))
    assert PathHomography((1, 2), (3, 4)) == PathHomography((1, 2), (3, 4))
    assert list(vars(line)) == ["a", "b", "c"]
    with pytest.raises(AttributeError):
        line.a = 0


ZERO_NORMAL_CASES = [(QQ, (0, 0, 1)), (PrimeField(5), (5, 10, 1)), (PrimeField(5), (-5, 0, 3))]


@pytest.mark.parametrize("field, ints", ZERO_NORMAL_CASES, ids=["QQ", "F5", "F5-negative"])
@pytest.mark.parametrize("slot", range(4))
def test_zero_normal_is_a_precondition_error(field, ints, slot):
    """A line whose (a, b) vanishes in the field is a PreconditionError that names its
    slot, raised when the ConfigurationInput is built: never a report, never an
    InternalCheckError.  Over F_5 the ints (5, 10) are nonzero but vanish mod 5."""
    lines = [_line(2, 3), _line(0, 2), _line(3, 3), _line(1, 2)]
    lines[slot] = InputLine(*ints)
    i, j = divmod(slot, 2)
    with pytest.raises(PreconditionError) as exc:
        ConfigurationInput(field, tuple(lines[:2]), tuple(lines[2:]))
    assert type(exc.value) is PreconditionError
    assert str(exc.value) == f"pairs[{i}][{j}]: line needs (a, b) != (0, 0)"


F7 = PrimeField(7)
NON_INT_CASES = [(QQ, Fraction(1, 2)), (F7, 1.5), (QQ, "1"), (F7, Fraction(3))]
NON_INT_IDS = ["QQ-Fraction", "F7-float", "QQ-str", "F7-whole-Fraction"]


@pytest.mark.parametrize("field, bad", NON_INT_CASES, ids=NON_INT_IDS)
@pytest.mark.parametrize("coefficient", range(3))
@pytest.mark.parametrize("slot", range(4))
def test_non_int_coefficient_is_a_precondition_error(field, bad, coefficient, slot):
    """A library InputLine whose a, b or c is not an int is a PreconditionError that
    names its slot, raised when the ConfigurationInput is built, not a TypeError from
    the arithmetic past it; a whole Fraction is refused too."""
    lines = [_line(2, 3), _line(0, 2), _line(3, 3), _line(1, 2)]
    ints = list(vars(lines[slot]).values())
    ints[coefficient] = bad
    lines[slot] = InputLine(*ints)
    i, j = divmod(slot, 2)
    with pytest.raises(PreconditionError) as exc:
        ConfigurationInput(field, tuple(lines[:2]), tuple(lines[2:]))
    assert type(exc.value) is PreconditionError
    assert str(exc.value) == f"pairs[{i}][{j}]: a, b and c must be ints: {lines[slot]}"


class TestMake:
    """make takes the six standing ints, residues over F_p, and checks them mod p;
    from_ints reduces its arguments first."""

    def test_fields_are_the_field_and_the_standing_ints(self):
        assert list(vars(NormalizedConfig.from_ints(QQ, 2, 3, 0, 1, 1))) == ["field", "standing"]

    def test_parallel_c_d_is_checked_mod_p(self):
        # M_C = 0 and M_D = 5 differ as ints but are one residue mod 5.
        with pytest.raises(PreconditionError):
            NormalizedConfig.from_ints(PrimeField(5), 0, 1, 0, 5, 1)
        with pytest.raises(PreconditionError):
            NormalizedConfig.make(PrimeField(5), (0, 1, 0, 5, 1, 1))

    def test_from_ints_stores_residues(self):
        f7 = PrimeField(7)
        cfg = NormalizedConfig.from_ints(f7, 9, -4, 14, 22, -1)
        assert cfg.standing[:6] == (2, 3, 0, 1, 6, 1)
        assert all(0 <= v < 7 for v in cfg.standing)
        assert cfg == NormalizedConfig.from_ints(f7, 2, 3, 0, 1, 6)


class TestDiagonals:
    def test_cfg1(self, cfg1):
        e, f = diagonal_slopes(cfg1)
        assert e == ratio_of(Fraction(1), Fraction(0))
        assert f == ratio_of(Fraction(3), Fraction(2))

    def test_cfg2_orthogonal(self, cfg2):
        e, f = diagonal_slopes(cfg2)
        assert e == ratio_of(Fraction(1), Fraction(2))
        assert f == ratio_of(Fraction(-2), Fraction(1))
        # orthogonality: s1 s2 + t1 t2 = 0
        assert e.s * f.s + e.t * f.t == 0

    def test_cfg3_f_at_infinity(self, cfg3):
        e, f = diagonal_slopes(cfg3)
        assert e == ratio_of(Fraction(1), Fraction(0))
        assert f is DiagonalMarker.AT_INFINITY

    def test_a_equals_b_marker(self):
        cfg = NormalizedConfig.from_ints(QQ, 3, 3, 0, 1, 1)
        e, _ = diagonal_slopes(cfg)
        assert e is DiagonalMarker.LINES_A_B_EQUAL

    def test_a_equals_d_marker(self):
        cfg = NormalizedConfig.from_ints(QQ, 1, 0, 0, 1, 0)  # b_A = 0, m_A = m_D... f1=f2=0?
        # m_A = m_D = 1, b_A = 0 makes A and D the same line.
        assert cfg.standing[8:] == (0, 0)
        _, f = diagonal_slopes(cfg)
        assert f is DiagonalMarker.LINES_A_D_EQUAL

    def test_geometric_oracle(self):
        # The slope of the line through A∩B and C∩D equals e1/e2 whenever both
        # intersections exist and differ; same for F through A∩D and B∩C.
        rng = random.Random(37)
        checked_e = checked_f = 0
        while checked_e < 30 or checked_f < 30:
            cfg = random_rational_config(rng)
            k = constants(cfg)
            p_ab = affine(cfg.corner("A", "B"))
            p_cd = (Fraction(0), Fraction(0))
            if p_ab is not None and p_ab != p_cd:
                slope = ratio_of(p_ab[1] - p_cd[1], p_ab[0] - p_cd[0])
                assert slope == ratio_of(k.e1, k.e2)
                checked_e += 1
            p_ad = affine(cfg.corner("A", "D"))
            p_bc = affine(cfg.corner("B", "C"))
            if p_ad is not None and p_bc is not None and p_ad != p_bc:
                slope = ratio_of(p_ad[1] - p_bc[1], p_ad[0] - p_bc[0])
                assert slope == ratio_of(k.f1, k.f2)
                checked_f += 1


class TestClassify:
    def test_cfg1(self, cfg1):
        cls = classify(cfg1)
        assert not cls.degenerate
        assert cls.locus_shape is LocusShape.NONDEGENERATE_CONIC

    def test_cfg2(self, cfg2):
        cls = classify(cfg2)
        assert cls.degenerate
        assert not cls.twin_pairs and not cls.dual_pairs
        assert cls.locus_shape is LocusShape.TWO_LINES
        assert cfg2.ef_sum == 0

    def test_cfg3(self, cfg3):
        cls = classify(cfg3)
        assert cls.degenerate and cls.twin_pairs
        assert cls.slope_path_at_infinity
        assert not cls.aspect_path_at_infinity
        assert cls.locus_shape is LocusShape.LINE_PLUS_INFINITY

    def test_orthogonal_twin_pairs(self):
        # A perp C and B perp D: slopes (2, 3, -1/2, -1/3).
        cfg = make_config(
            QQ, Fraction(2), Fraction(3), Fraction(-1, 2), Fraction(-1, 3), Fraction(5)
        )
        cls = classify(cfg)
        assert cls.twin_pairs and cls.degenerate and cls.slope_path_at_infinity

    def test_equal_lines_degenerate(self):
        # A = B forces degeneracy.
        cfg = NormalizedConfig.from_ints(QQ, 3, 3, 0, 1, 1)
        assert classify(cfg).degenerate

    def test_dual_pairs_over_f5(self):
        f5 = PrimeField(5)
        # 2^2 = 4 = -1 in F_5 and A, B, C share the slope 2.
        cfg = NormalizedConfig.from_ints(f5, 2, 2, 2, 0, 1)
        cls = classify(cfg)
        assert cls.dual_pairs and cls.degenerate
        assert cls.aspect_path_at_infinity and not cls.slope_path_at_infinity

    def test_dual_pairs_impossible_over_q(self):
        rng = random.Random(41)
        for _ in range(50):
            cfg = random_rational_config(rng)
            assert not classify(cfg).dual_pairs


class TestDegeneratingIntercepts:
    def test_twin_slopes_always_degenerate(self):
        assert degenerating_intercepts(QQ, *map(Fraction, (1, 0, 0, 1))) is ALL_INTERCEPTS

    def test_cfg2_intercept_is_a_root(self):
        roots = degenerating_intercepts(QQ, *map(Fraction, (-4, -1, 0, 2)))
        assert Fraction(3) in roots
        for b in roots:
            cfg = make_config(QQ, *map(Fraction, (-4, -1, 0, 2)), b)
            assert cfg.ef_sum == 0

    def test_cfg1_slopes_over_f13(self):
        # Over the rationals the discriminant (52) is not a square, so the
        # root list is empty; over F_13 it vanishes and yields a double root.
        assert degenerating_intercepts(QQ, *map(Fraction, (2, 3, 0, 1))) == []
        f13 = PrimeField(13)
        ms = [from_int(f13, v) for v in (2, 3, 0, 1)]
        roots = degenerating_intercepts(f13, *ms)
        assert len(roots) == 1
        cfg = make_config(f13, *ms, roots[0])
        assert not cfg.ef_sum

    def test_every_root_degenerates(self):
        rng = random.Random(43)
        for p in (5, 7, 11, 13):
            field = PrimeField(p)
            for _ in range(20):
                ms = [from_int(field, rng.randrange(p)) for _ in range(4)]
                if ms[2] == ms[3]:
                    continue
                roots = degenerating_intercepts(field, *ms)
                if roots is ALL_INTERCEPTS:
                    b = from_int(field, rng.randrange(p))
                    assert not make_config(field, *ms, b).ef_sum
                    continue
                for b in roots:
                    assert not make_config(field, *ms, b).ef_sum
