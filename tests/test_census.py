"""Brute-force finite-field oracle versus the path parameterizations."""

import hashlib
import itertools
import json
import os
import random

import pytest

from quadriline import (
    NormalizedConfig,
    PrimeField,
    classify,
    verify_against_paths,
)
from quadriline.census import enumerate_rectangles, quadric_h, quadric_point_count
from quadriline.cli import main
from quadriline.errors import PreconditionError
from quadriline.paths import (
    aspect_path_polys,
    eval_path,
    slope_path_polys,
)
from quadriline.rectangles import ProjectiveRectangle
from conftest import all_ratios, elements, random_normalized_config
from membership import (
    complete_parallelogram,
    evaluate,
    from_int,
    has_aspect,
    has_slope,
    is_parallelogram,
    is_rectangle,
    one_of,
    rectangle_from_aspect,
    rectangle_from_slope,
    satisfies_membership,
    zero_of,
)


def cfg_over(p, ints):
    return NormalizedConfig.from_ints(PrimeField(p), *ints)


def reference_parameter_points(field):
    """The parameter plane as FpElements: (x_A, x_B, 1), (x_A, 1, 0), then (1, 0, 0)."""
    zero, one = zero_of(field), one_of(field)
    for x_a in elements(field):
        for x_b in elements(field):
            yield x_a, x_b, one
    for x_a in elements(field):
        yield x_a, one, zero
    yield one, zero, zero


def reference_rectangles(cfg):
    """Reference census: complete and test every parameter point in FpElements."""
    found = set()
    for x_a, x_b, w in reference_parameter_points(cfg.field):
        p = complete_parallelogram(cfg, x_a, x_b, w)
        if is_rectangle(p):
            found.add(p)
    return found


def form_point_count(field, form):
    """Reference count: the zeros of a quadric (aa, ab, bb, aw, bw, ww) among all
    parameter points."""
    return sum(1 for point in reference_parameter_points(field) if not evaluate(form, *point))


def reference_quadric_count(cfg):
    return form_point_count(cfg.field, quadric_h(cfg))


def assert_matches_reference(cfg):
    census = enumerate_rectangles(cfg)
    assert census == reference_rectangles(cfg), cfg
    assert quadric_point_count(cfg) == reference_quadric_count(cfg) == len(census), cfg


class TestKernelAgainstReference:
    def test_every_config_over_f3(self):
        count = 0
        for m_a, m_b, m_c, m_d, b_a in itertools.product(range(3), repeat=5):
            if m_c != m_d:
                assert_matches_reference(cfg_over(3, (m_a, m_b, m_c, m_d, b_a)))
                count += 1
        assert count == 3**5 - 3**4

    def test_every_config_over_f5(self):
        count = 0
        for ints in itertools.product(range(5), repeat=5):
            if ints[2] != ints[3]:
                assert_matches_reference(cfg_over(5, ints))
                count += 1
        assert count == 5**5 - 5**4

    def test_seeded_sample(self):
        rng = random.Random(181)
        for p, samples in ((5, 20), (7, 20), (31, 6)):
            field = PrimeField(p)
            for _ in range(samples):
                cfg, _ = random_normalized_config(field, rng)
                assert_matches_reference(cfg)

    def test_kernel_uses_no_path_code(self, monkeypatch):
        import quadriline.census as census_module

        for name in ("aspect_path_polys", "path_keys", "slope_path_polys"):
            monkeypatch.setattr(census_module, name, None)
        assert_matches_reference(cfg_over(11, (2, 3, 0, 1, 1)))


def row_coefficients(cfg, x_a):
    """(a, b, c) of the quadratic in x_B that the quadric cuts on the row (x_A, x_B, 1)."""
    aa, ab, bb, aw, bw, ww = quadric_h(cfg)
    return bb, ab * x_a + bw, (aa * x_a + aw) * x_a + ww


class TestRowBranches:
    """Configurations whose rows reach each branch of the row solver."""

    def test_whole_row(self):
        # Twin pairs over F_7 (A parallel to D, B to C): the row x_A = 3 lies in the quadric.
        cfg = cfg_over(7, (0, 1, 1, 0, 4))
        field = cfg.field
        x_a = from_int(field, 3)
        assert not any(row_coefficients(cfg, x_a))
        census = enumerate_rectangles(cfg)
        for x_b in elements(field):
            assert complete_parallelogram(cfg, x_a, x_b, one_of(field)) in census
        assert_matches_reference(cfg)

    def test_linear_and_empty_rows(self):
        # Three horizontal lines over F_7: no row is quadratic; x_A = 1 has no root.
        cfg = cfg_over(7, (0, 0, 0, 1, 2))
        field = cfg.field
        kinds = []
        for x_a in elements(field):
            a, b, c = row_coefficients(cfg, x_a)
            assert not a
            kinds.append("linear" if b else "empty" if c else "whole")
        assert kinds == ["linear", "empty"] + ["linear"] * 5
        assert_matches_reference(cfg)

    def test_quadratic_rows_with_and_without_roots(self):
        cfg = cfg_over(7, (0, 0, 1, 0, 3))
        field = cfg.field
        discriminants = set()
        for x_a in elements(field):
            a, b, c = row_coefficients(cfg, x_a)
            assert a
            d = b * b - 4 * a * c
            square = field.sqrt(d.value) is not None
            discriminants.add("zero" if not d else "square" if square else "non-square")
        assert discriminants == {"zero", "square", "non-square"}
        assert_matches_reference(cfg)


class TestQuadricCountByTheorem:
    """Each rank of the theorem.  Every normalized configuration at p = 3, 5
    and 7 gives rank 3 or a split rank 2, so the other branches are reached
    through hand-built forms."""

    @pytest.mark.parametrize(
        "coefficients, count",
        [
            ((1, 0, 1, 0, 0, 1), 8),  # x_A^2 + x_B^2 + w^2: rank 3
            ((0, 1, 0, 0, 0, 0), 15),  # x_A x_B: rank 2, two lines
            ((1, 0, 1, 0, 0, 0), 1),  # x_A^2 + x_B^2, -1 not a square mod 7: rank 2, one point
            ((1, 2, 1, 0, 0, 0), 8),  # (x_A + x_B)^2: rank 1, a double line
            ((0, 0, 0, 0, 0, 0), 57),  # rank 0: the whole plane
            ((0, 0, 0, 1, 3, 0), 15),  # w (x_A + 3 x_B): rank 2, no square term
        ],
    )
    def test_hand_built_forms_over_f7(self, monkeypatch, coefficients, count):
        import quadriline.census as census_module

        monkeypatch.setattr(census_module, "quadric_h", lambda cfg: coefficients)
        assert quadric_point_count(cfg_over(7, (2, 3, 0, 1, 1))) == count
        assert form_point_count(PrimeField(7), coefficients) == count

    def test_rank_three_configuration(self):
        assert quadric_point_count(cfg_over(11, (2, 3, 0, 1, 1))) == 12

    def test_rank_two_split_configuration(self):
        cfg = cfg_over(11, (-4, -1, 0, 2, 3))  # degenerate: two lines of rectangles
        assert quadric_point_count(cfg) == 23 == reference_quadric_count(cfg)


class TestEnumerate:
    def test_cfg1_f5_respects_degree_bound(self):
        cfg = cfg_over(5, (2, 3, 0, 1, 1))
        census = enumerate_rectangles(cfg)
        assert len(census) <= 2 * 5 + 1  # degree-2 plane curve bound
        assert len(census) == quadric_point_count(cfg)

    def test_cfg3_f7_contains_at_infinity_line(self):
        cfg = cfg_over(7, (1, 0, 0, 1, 1))
        census = enumerate_rectangles(cfg)
        at_inf = {p for p in census if p.at_infinity}
        assert len(at_inf) == 8  # the whole line at infinity

    def test_every_point_is_a_member_parallelogram(self):
        cfg = cfg_over(11, (-4, -1, 0, 2, 3))
        for p in enumerate_rectangles(cfg):
            assert satisfies_membership(p, cfg)
            assert is_parallelogram(p)

    def test_rational_field_rejected(self, cfg1):
        with pytest.raises(PreconditionError):
            enumerate_rectangles(cfg1)
        with pytest.raises(PreconditionError):
            quadric_point_count(cfg1)

    def test_cardinality_matches_quadric_everywhere(self):
        rng = random.Random(163)
        for p in (5, 7):
            field = PrimeField(p)
            for _ in range(10):
                cfg, _ = random_normalized_config(field, rng)
                assert len(enumerate_rectangles(cfg)) == quadric_point_count(cfg)


class TestVerify:
    def test_cfg1_f11_f13(self):
        for p in (11, 13):
            report = verify_against_paths(cfg_over(p, (2, 3, 0, 1, 1)))
            assert report.union_covered
            assert report.failures == []

    def test_cfg2_f11_two_line_structure(self):
        cfg = cfg_over(11, (-4, -1, 0, 2, 3))
        report = verify_against_paths(cfg)
        assert report.failures == []
        field = cfg.field
        spp, app = slope_path_polys(cfg), aspect_path_polys(cfg)
        slope_image = {eval_path(cfg, spp, (r.s, r.t)) for r in all_ratios(field)}
        aspect_image = {eval_path(cfg, app, (r.s, r.t)) for r in all_ratios(field)}
        assert len(slope_image) == 12 and len(aspect_image) == 12
        assert len(slope_image & aspect_image) == 1  # two lines meet once
        assert report.total == 23

    def test_cfg3_f7_slope_path_is_infinity_line(self):
        cfg = cfg_over(7, (1, 0, 0, 1, 1))
        report = verify_against_paths(cfg)
        assert report.failures == []
        spp = slope_path_polys(cfg)
        image = {eval_path(cfg, spp, (r.s, r.t)) for r in all_ratios(cfg.field)}
        assert all(p.at_infinity for p in image)
        assert len(image) == 8

    def test_dual_pairs_f5(self):
        cfg = cfg_over(5, (2, 2, 2, 0, 1))
        assert classify(cfg).dual_pairs
        report = verify_against_paths(cfg)
        assert report.failures == []
        app = aspect_path_polys(cfg)
        image = {eval_path(cfg, app, (r.s, r.t)) for r in all_ratios(cfg.field)}
        assert all(p.at_infinity for p in image)

    def test_failure_witnesses_print_residues(self, monkeypatch):
        import quadriline.census as census_module

        cfg = cfg_over(7, (2, 3, 0, 1, 1))
        stray = ProjectiveRectangle.canonical(cfg.field, (0, 0, 0, 0, 0, 0, 0, 0, 8))
        found = enumerate_rectangles(cfg)
        assert stray not in found
        monkeypatch.setattr(census_module, "enumerate_rectangles", lambda cfg: found | {stray})
        report = verify_against_paths(cfg)
        assert not report.union_covered
        assert report.failures[0] == "union mismatch (census-only): (0, 0, 0, 0, 0, 0, 0, 0, 1)"

    def test_degenerate_failures_name_their_ratio(self, monkeypatch):
        import quadriline.census as census_module

        cfg = cfg_over(11, (-4, -1, 0, 2, 3))
        monkeypatch.setattr(census_module, "aspect_residue", lambda p, key: None)
        monkeypatch.setattr(census_module, "slope_residue", lambda p, key: None)
        report = verify_against_paths(cfg)
        assert not report.degenerate_consistency_ok
        assert report.by_slope == report.by_aspect == {"indeterminate": report.total}
        for kind, pp in (("slope path aspect", slope_path_polys(cfg)),
                         ("aspect path slope", aspect_path_polys(cfg))):
            expected = [
                f"{kind} varies at {r}: {eval_path(cfg, pp, (r.s, r.t)).key}"
                for r in all_ratios(cfg.field)
            ]
            assert [f for f in report.failures if f.startswith(kind)] == expected

    def test_random_sweep_small(self):
        rng = random.Random(167)
        for p in (5, 7, 11, 13):
            field = PrimeField(p)
            for _ in range(6):
                cfg, _ = random_normalized_config(field, rng)
                report = verify_against_paths(cfg)
                assert report.failures == [], p


class TestFiberAgainstCensus:
    def test_slope_fibers_match_census_filter(self):
        rng = random.Random(173)
        for p in (5, 7, 11):
            field = PrimeField(p)
            one = one_of(field)
            for _ in range(4):
                cfg, _ = random_normalized_config(field, rng)
                census = enumerate_rectangles(cfg)
                for r in all_ratios(field):
                    fiber = rectangle_from_slope(cfg, r, one)
                    assert fiber.exhaustive
                    expected = {
                        rect for rect in census if not rect.at_infinity and has_slope(rect, r)
                    }
                    assert set(fiber.rectangles) == expected

    def test_aspect_fibers_match_census_filter(self):
        rng = random.Random(179)
        field = PrimeField(7)
        one = one_of(field)
        for _ in range(4):
            cfg, _ = random_normalized_config(field, rng)
            census = enumerate_rectangles(cfg)
            for r in all_ratios(field):
                fiber = rectangle_from_aspect(cfg, r, one)
                assert fiber.exhaustive
                expected = {
                    rect for rect in census if not rect.at_infinity and has_aspect(rect, r)
                }
                assert set(fiber.rectangles) == expected

    def test_at_infinity_fibers(self):
        field = PrimeField(11)
        cfg = NormalizedConfig.from_ints(field, -4, -1, 0, 2, 3)
        census = enumerate_rectangles(cfg)
        zero = zero_of(field)
        for r in all_ratios(field):
            fiber = rectangle_from_slope(cfg, r, zero)
            expected = {
                rect for rect in census if rect.at_infinity and has_slope(rect, r)
            }
            assert set(fiber.rectangles) == expected


def write_census_input(tmp_path, name, p):
    """The lines of configs/<name> over F_p, written to a file in tmp_path."""
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", name)) as f:
        doc = json.load(f)
    doc["field"] = {"prime": p}
    path = tmp_path / f"{p}_{name}"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", ["cfg1.json", "cfg2.json"])
def test_census_replay_horner_passes_do_not_grow_with_p(tmp_path, capsys, monkeypatch, name):
    """The paths are replayed by forward differences: a census makes as many
    hpoly.eval_at calls at p = 1009 as at p = 101, and fewer than 100."""
    from quadriline import hpoly

    calls = []
    eval_at = hpoly.eval_at

    def counted(f, s, t):
        calls.append(None)
        return eval_at(f, s, t)

    monkeypatch.setattr(hpoly, "eval_at", counted)
    counts = []
    for p in (101, 1009):
        calls.clear()
        assert main(["census", "--input", write_census_input(tmp_path, name, p)]) == 0
        counts.append(len(calls))
    capsys.readouterr()
    assert counts[0] == counts[1] < 100, counts


@pytest.mark.parametrize("name", ["cfg1.json", "cfg2.json"])
def test_census_ratio_count_does_not_grow_with_p(tmp_path, capsys, monkeypatch, name):
    """The census tallies and checks residues: a census builds as many Ratios
    at p = 1009 as at p = 101, and fewer than 20."""
    from quadriline import scalars

    calls = []
    init = scalars.Ratio.__init__

    def counted(self, *args):
        calls.append(None)
        init(self, *args)

    monkeypatch.setattr(scalars.Ratio, "__init__", counted)
    counts = []
    for p in (101, 1009):
        calls.clear()
        assert main(["census", "--input", write_census_input(tmp_path, name, p)]) == 0
        counts.append(len(calls))
    capsys.readouterr()
    assert counts[0] == counts[1] < 20, counts


@pytest.mark.parametrize(
    "name, digest",
    [
        ("cfg1.json", "269d941a2462bdea17ef64fcb2310a9c70e3b96385b47b5d38cd892bb3054fde"),
        # Degenerate: the consistency loops read the path rectangles' coordinates.
        ("cfg2.json", "7e5fc89cb3490ed0468d79084850088323d817dbeadc136267c9109d1edf8a26"),
    ],
)
def test_census_bytes_at_p_1009(tmp_path, capsys, name, digest):
    """The census of the example lines over F_1009 prints the same report, byte for byte."""
    assert main(["census", "--input", write_census_input(tmp_path, name, 1009)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest
