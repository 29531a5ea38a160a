"""Acceptance suite: one test per criterion, printed pass/fail, exact checks.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every comparison is exact (zero tolerance); the stated runtime
budgets are asserted where the criterion sets one.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from quadriline import (
    InputLine,
    PrimeField,
    QQ,
    Ratio,
    all_parallel_analysis,
    center_of,
    classify,
    homography,
    slope_path_eval,
    aspect_path_eval,
    verify_against_paths,
)
from quadriline import hpoly
from quadriline.cli import main
from quadriline.locus import centers_paths, diagonal_g, gauss_newton_line
from quadriline.paths import slope_path_polys
from quadriline.rectangles import ALL_RATIOS, slope_infinity_form, slopes_at_infinity
from conftest import (
    CFG1_PAIRS,
    contains,
    line_slope,
    random_normalized_config,
    random_rational_config,
    role_forms,
    same_line,
    sample_ratios,
    write_config,
)
import membership
from membership import constants
from test_paths import _divisibility_checks, _identity_checks


@contextmanager
def criterion(num, name, limit_seconds=None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if limit_seconds is not None and elapsed >= limit_seconds:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {limit_seconds}s budget"
            )
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS ({elapsed:.3f}s)")


def test_criterion_1_worked_rectangle(tmp_path, capsys):
    with criterion(1, "worked rectangle", limit_seconds=1.0):
        path = write_config(tmp_path, "cfg1.json", "rational", CFG1_PAIRS)
        assert main(["rect", "--input", path, "--slope", "1/0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertices"] == {
            "A": ["-1/3", "1/3"],
            "B": ["-1/3", "0"],
            "C": ["1/3", "0"],
            "D": ["1/3", "1/3"],
        }
        assert doc["aspect"] == "-1/2"
        assert doc["center"] == ["0", "1/6"]


def test_criterion_2_homography_round_trip(cfg1):
    with criterion(2, "homography round trip", limit_seconds=1.0):
        h = homography(cfg1)
        samples = sample_ratios(QQ, 50)
        assert len(samples) == 50
        for r in samples:
            image = h.slope_to_aspect(r)
            assert slope_path_eval(cfg1, r) == aspect_path_eval(cfg1, image)
            assert h.aspect_to_slope(image) == r


def test_criterion_3_degenerate_geometry(cfg2):
    with criterion(3, "degenerate geometry"):
        k = constants(cfg2)
        assert k.e1 * k.f1 + k.e2 * k.f2 == 0
        assert classify(cfg2).degenerate
        report = centers_paths(cfg2)
        gn = gauss_newton_line(cfg2)
        assert same_line(QQ, report.aspect_centers, gn)
        assert line_slope(gn) == Ratio(QQ, 4, 5)
        g = diagonal_g(cfg2)
        assert line_slope(report.slope_centers) == line_slope(g)
        assert line_slope(g) == Ratio(QQ, -8, 5)
        # Sampled centers really lie on those lines.
        for r in sample_ratios(QQ, 10):
            rect = aspect_path_eval(cfg2, r)
            if not rect.at_infinity:
                assert contains(QQ, report.aspect_centers, center_of(rect))
            rect = slope_path_eval(cfg2, r)
            if not rect.at_infinity:
                assert contains(QQ, report.slope_centers, center_of(rect))


def test_criterion_4_identity_suite():
    with criterion(4, "identity suite", limit_seconds=10.0):
        rng = random.Random(2024)
        one, zero = Fraction(1), Fraction(0)
        for _ in range(100):
            cfg = random_rational_config(rng)
            # factorization identity (coefficientwise, degree 4)
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
            # displacement identities, closures, rectangle identity
            _identity_checks(cfg)
            # divisibility identities
            _divisibility_checks(cfg)


def test_criterion_5_census_equivalence():
    with criterion(5, "census equivalence", limit_seconds=60.0):
        rejection_log = {}
        for p in (5, 7, 11, 13):
            field = PrimeField(p)
            rng = random.Random(1000 + p)
            rejected = 0
            for _ in range(20):
                cfg, r = random_normalized_config(field, rng)
                rejected += r
                report = verify_against_paths(cfg)
                assert report.union_covered, report.failures
                assert report.at_infinity_bound_ok, report.failures
                assert report.degenerate_consistency_ok, report.failures
            rejection_log[p] = rejected
        print(f"  census sampling rejections by field: {rejection_log}")


def test_criterion_6_twin_pair_behavior(cfg3):
    with criterion(6, "twin pair behavior"):
        assert all(not c for c in slope_infinity_form(cfg3))
        assert slopes_at_infinity(cfg3) is ALL_RATIOS
        # The slope path is the line at infinity: its homogenizing polynomial
        # vanishes identically and every evaluation lands at w = 0.
        pp = slope_path_polys(cfg3)
        _, _, w = role_forms(pp)
        assert hpoly.is_zero(w)
        seen = set()
        for r in sample_ratios(QQ, 20):
            rect = slope_path_eval(cfg3, r)
            assert rect.at_infinity
            seen.add(rect)
        assert len(seen) == 20
        # A single affine line of centers.
        report = centers_paths(cfg3)
        line = report.single_line
        assert line is not None
        assert contains(QQ, line, (Fraction(0), Fraction(1, 2)))
        assert contains(QQ, line, (Fraction(7), Fraction(1, 2)))


def test_criterion_7_all_parallel_handling():
    with criterion(7, "all-parallel handling"):
        def horizontal(field, k):
            return InputLine(0, 1, k)

        shared = all_parallel_analysis(QQ, [horizontal(QQ, k) for k in (1, 2, -1, -2)])
        assert shared.midline_shared
        assert same_line(QQ, shared.midline, InputLine(0, 1, 0))

        missed = all_parallel_analysis(QQ, [horizontal(QQ, k) for k in (1, 3, -1, 0)])
        assert not missed.midline_shared and missed.midline is None

        f7 = PrimeField(7)
        wrapped = all_parallel_analysis(f7, [horizontal(f7, k) for k in (1, 2, 6, 5)])
        assert wrapped.midline_shared
        assert same_line(f7, wrapped.midline, InputLine(0, 1, 0))
