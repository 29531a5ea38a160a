"""CLI surface: config parsing, JSON reports, round-trips, SVG output."""

import argparse
import gc
import hashlib
import io
import itertools
import json
import operator
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import quadriline
from quadriline import QQ, PrimeField, Ratio, aspect_path_eval, cli, normalize, slope_path_eval
from quadriline.cli import main
from quadriline.errors import InternalCheckError
from quadriline.locus import LocusReport
from quadriline.rectangles import ProjectiveRectangle
from quadriline.scalars import ratio_parse
from conftest import CFG1_PAIRS, CFG2_PAIRS, CFG3_PAIRS, fraction_count, write_config
from membership import integer_forms, one_of, parse, zero_of


def parse_rectangle_json(field, data) -> ProjectiveRectangle:
    """Round-trip: rebuild the canonical projective point from a report."""
    coords = tuple(parse(field, text) for text in data["projective"])
    return ProjectiveRectangle.canonical(field, integer_forms(field, [coords])[0])


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
LOCUS_LINES = ("slope_centers", "aspect_centers", "gauss_newton", "diagonal_g", "single_line")


def assert_one_scale(doc):
    """Each line (a, b, c) and the conic of a locus report has 1 as its last nonzero value."""
    rows = [[doc[key][k] for k in "abc"] for key in LOCUS_LINES if doc[key] is not None]
    rows += [doc["conic"]] if doc["conic"] is not None else []
    for row in rows:
        assert [v for v in row if v != "0"][-1] == "1", row


def normalized_frame(field, plane_map):
    """The point map of a classify report's plane map: translate, reflect about
    y = t x when t is set, then scale."""
    tx, ty = (parse(field, v) for v in plane_map["translation"])
    t = None if plane_map["reflection_t"] is None else parse(field, plane_map["reflection_t"])
    s, one = parse(field, plane_map["scale"]), one_of(field)

    def point(x, y):
        x, y = x + tx, y + ty
        if t is not None:
            d = one + t * t
            x, y = ((one - t * t) * x + 2 * t * y) / d, (2 * t * x + (t * t - one) * y) / d
        return s * x, s * y

    return point


class TestClassify:
    def test_cfg1(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg1.json", "rational", CFG1_PAIRS)
        doc = run_json(capsys, "classify", "--input", path)
        assert doc["class"]["degenerate"] is False
        assert doc["diagonals"] == {"E": "1/0", "F": "3/2"}
        assert doc["normalized"]["b_A"] == "1"
        assert doc["at_infinity"]["slopes"] == []

    def test_cfg3_twin_pairs(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg3.json", "rational", CFG3_PAIRS)
        doc = run_json(capsys, "classify", "--input", path)
        assert doc["class"]["twin_pairs"] is True
        assert doc["class"]["slope_path_at_infinity"] is True
        assert doc["diagonals"]["F"] == "at-infinity"
        assert doc["at_infinity"]["slopes"] == "all"

    def test_all_parallel_routed(self, tmp_path, capsys):
        pairs = [[(0, 1, 1), (0, 1, -1)], [(0, 1, 2), (0, 1, -2)]]
        path = write_config(tmp_path, "par.json", "rational", pairs)
        doc = run_json(capsys, "classify", "--input", path)
        assert doc["all_parallel"]["midline_shared"] is True

    @pytest.mark.parametrize("command", ["classify", "locus"])
    def test_all_parallel_midline_at_one_scale(self, tmp_path, capsys, command):
        """The shared midline 0x + 2y = 0 of (A, C) = (2y = 2, 4y = -4) and (B, D) =
        (6y = 12, y = -2) prints at the scale of every printed line, its last nonzero
        coefficient 1, not at the scale of A's literals (0, 2, 0)."""
        pairs = [[(0, 2, 2), (0, 4, -4)], [(0, 6, 12), (0, 1, -2)]]
        path = write_config(tmp_path, "par.json", "rational", pairs)
        doc = run_json(capsys, command, "--input", path)
        report = doc["all_parallel"] if command == "classify" else doc
        assert report["midline_shared"] is True
        assert report["midline"] == {"a": "0", "b": "1", "c": "0"}

    def test_prime_field(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg1p.json", {"prime": 11}, CFG1_PAIRS)
        doc = run_json(capsys, "classify", "--input", path)
        assert doc["field"] == {"prime": 11}
        # 52 = 8 mod 11 is not a square, so still no slopes at infinity.
        assert doc["at_infinity"]["slopes"] == []


class TestRect:
    def test_worked_example(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg1.json", "rational", CFG1_PAIRS)
        doc = run_json(capsys, "rect", "--input", path, "--slope", "1/0")
        assert doc["vertices"] == {
            "A": ["-1/3", "1/3"],
            "B": ["-1/3", "0"],
            "C": ["1/3", "0"],
            "D": ["1/3", "1/3"],
        }
        assert doc["aspect"] == "-1/2"
        assert doc["center"] == ["0", "1/6"]

    def test_same_rectangle_via_aspect(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg1.json", "rational", CFG1_PAIRS)
        by_slope = run_json(capsys, "rect", "--input", path, "--slope", "1/0")
        by_aspect = run_json(capsys, "rect", "--input", path, "--aspect=-1/2")
        assert by_slope["projective"] == by_aspect["projective"]

    def test_cfg2_at_infinity(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg2.json", "rational", CFG2_PAIRS)
        doc = run_json(capsys, "rect", "--input", path, "--slope", "1/2")
        assert doc["at_infinity"] is True
        assert doc["vertices"] is None
        assert doc["projective"][-1] == "0"

    def test_round_trip(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg1.json", "rational", CFG1_PAIRS)
        doc = run_json(capsys, "rect", "--input", path, "--slope", "3/5")
        rect = parse_rectangle_json(QQ, doc)
        # The key is the primitive integer vector; the report prints it over its last nonzero entry.
        pivot = next(c for c in reversed(rect.key) if c)
        assert [str(Fraction(c, pivot)) for c in rect.key] == doc["projective"]

    def test_transformed_config_vertices_on_original_lines(self, tmp_path, capsys):
        # x = 0 forces a reflection; vertices must satisfy the ORIGINAL
        # line equations exactly.
        pairs = [[(1, 0, 0), (0, 1, 0)], [(-3, 1, 1), (-1, 1, 0)]]
        path = write_config(tmp_path, "refl.json", "rational", pairs)
        doc = run_json(capsys, "rect", "--input", path, "--slope", "2/1")
        assert doc["at_infinity"] is False
        originals = {
            label: tuple(Fraction(v) for v in triple)
            for label, triple in zip("ACBD", [t for pair in pairs for t in pair])
        }
        for label, (x, y) in doc["vertices"].items():
            a, b, c = originals[label]
            assert a * Fraction(x) + b * Fraction(y) == c


class TestPathLocusCensus:
    def test_path_samples(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg1.json", "rational", CFG1_PAIRS)
        doc = run_json(capsys, "path", "--input", path, "--kind", "aspect", "--samples", "5")
        assert len(doc["rectangles"]) == 5
        assert doc["rectangles"][0]["ratio"] == "0"

    def test_locus_cfg2(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg2.json", "rational", CFG2_PAIRS)
        doc = run_json(capsys, "locus", "--input", path)
        assert doc["shape"] == "TwoLines"
        gn = doc["gauss_newton"]
        # slope of a x + b y = c is -a/b: expect 4/5 and -8/5.
        assert Fraction(gn["a"]) / Fraction(gn["b"]) == Fraction(-4, 5)
        sc = doc["slope_centers"]
        assert Fraction(sc["a"]) / Fraction(sc["b"]) == Fraction(8, 5)
        assert doc["special_rectangles"] is not None

    def test_locus_cfg1_conic(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg1.json", "rational", CFG1_PAIRS)
        doc = run_json(capsys, "locus", "--input", path)
        assert doc["shape"] == "NonDegenerateConic"
        conic = [Fraction(c) for c in doc["conic"]]
        x, y = Fraction(0), Fraction(1, 6)  # the worked rectangle's center
        assert (
            conic[0] * x * x
            + conic[1] * x * y
            + conic[2] * y * y
            + conic[3] * x
            + conic[4] * y
            + conic[5]
            == 0
        )

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("cfg1.json", "f399eae7f15d84ad0d9997e0bd9e249a9df961146af37ff0a29b484c573f5892"),
            ("cfg1_f11.json", "5ebb157afde7d62bfe96a504c7ba9b26fed86ef1319bc20a58f8928546c30d65"),
            ("cfg2.json", "d303ca398030d15706b273eced6e01623341e490ebfbfd4eebc94c67bbdd67b6"),
            ("cfg3.json", "d9974add41541566e890042b300ac8b14071842848a2a7d2c5015cfde531aa6a"),
            ("parallel.json", "a3700e3db86fe31c6707f8bbde730b9d944c0c8737cd5240014006a8f30ef537"),
            ("vertical.json", "afa580c35c104792ee9d05d1b50b931ee5183b2552866c01cc3cd95f0109b4ce"),
            ("vertical_f1009.json", "5e1bfb7025a74edf9956511c56f9008435175e1f5f2313ea8747551d87b0e558"),
            ("relabeled.json", "c080d2f2631fa94b373e125446f4638abbbc4a921965ead5e9e5b8f349ac7301"),
            # A = C over F_3: a rank-2 center map with a single affine center.
            ("coincident_f3.json", "9dd0cb7e27d78af79513a1c949c2da83f8e117babf167581aa3c74eebdaba5b6"),
            # TwoLines over F_5 whose centroid is read off the aspect path's y equation.
            ("degenerate_f5.json", "58d616ba921efe14154d5df9236ba1c3f59a67d0fcbe37950c19c29265693235"),
            ("double_root_f5.json", "bf73ed5e8e690d1d8ffafa6258a877dd0b3ba76d17dc76bfd815a3739ebfd8e4"),
            # A = C is the isotropic line y = 2x over F_5: the two "points".
            ("two_points_f5.json", "2b23e68851196c7fe4baaef90924f74d08afcc73bc33bea05ca51f8a6284cd10"),
            # TwoLines over F_5 whose two locus lines are parallel: no special rectangles.
            ("parallel_centers_f5.json", "188ca98a5feb698ef96b1182f038f7ee4aec49225aeee47c46031aa161f08900"),
            # A = B, and A = D over F_7: TwoLines with one diagonal a marker.
            ("a_equals_b.json", "d3ecfd884cf70ff19cc821325633a3f808c6c15ec03d0702f910546fb8d90283"),
            ("a_equals_d_f7.json", "4b45bfbcb69080691b7e2fa8f94af617258c17ddbd66fb33c37f7d02490217ad"),
            ("literals.json", "16694e2cafa780086e55d19ddf50f2e9ef4878b33139ca630bf04c4c251cd91c"),
            ("literals_f101.json", "a3165c2472f55ac1b66b387f7c735e236bafff624d19e7fcd3309379cc7d5abf"),
        ],
    )
    def test_locus_bytes(self, capsys, name, digest):
        """The locus report of each shipped configuration, byte for byte."""
        path = os.path.join(os.path.dirname(__file__), "..", "configs", name)
        code, out, err = run_cli(capsys, "locus", "--input", path)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
    def test_path_centers_lie_on_the_locus_in_the_normalized_frame(self, capsys, name):
        """Each ``path`` center, moved into the normalized frame by the plane map
        that ``classify`` prints, lies on the printed ``locus``: on the conic,
        the line of its path or the single line, at the point, or at its path's
        entry of the points (slope first).  The locus is printed in the
        normalized frame, path centers in the input frame.  Every printed line
        and conic is at the one scale."""
        path = os.path.join(CONFIGS, name)
        locus = run_json(capsys, "locus", "--input", path)
        if locus["shape"] == "AllParallel":
            assert run_cli(capsys, "path", "--input", path, "--kind", "slope")[0] == 2
            return
        assert_one_scale(locus)
        classify = run_json(capsys, "classify", "--input", path)
        field = QQ if classify["field"] == "rational" else PrimeField(classify["field"]["prime"])
        to_normalized = normalized_frame(field, classify["plane_map"])
        read = lambda values: [parse(field, v) for v in values]
        checked = 0
        for index, kind in enumerate(("slope", "aspect")):
            report = run_json(capsys, "path", "--input", path, "--kind", kind, "--samples", "12")
            for rect in report["rectangles"]:
                if rect["center"] is None:
                    continue
                x, y = to_normalized(*read(rect["center"]))
                on = []
                if locus["conic"] is not None:
                    k = read(locus["conic"])
                    monomials = (x * x, x * y, y * y, x, y, one_of(field))
                    on.append(not sum(map(operator.mul, k, monomials), zero_of(field)))
                for key in (f"{kind}_centers", "single_line"):
                    if locus[key] is not None:
                        a, b, c = read(locus[key][k] for k in "abc")
                        on.append(a * x + b * y == c)
                if locus["point"] is not None:
                    on.append([x, y] == read(locus["point"]))
                if "points" in locus:
                    on.append([x, y] == read(locus["points"][index]))
                assert on and all(on), (kind, rect["ratio"])
                checked += 1
        assert checked

    def test_locus_report_holds_only_what_locus_prints(self, capsys):
        """Every field of ``LocusReport`` is a key that ``locus`` writes for some
        shipped configuration: the report carries nothing for other readers."""
        written = set()
        for name in sorted(os.listdir(CONFIGS)):
            written.update(run_json(capsys, "locus", "--input", os.path.join(CONFIGS, name)))
        assert set(LocusReport._fields) <= written, set(LocusReport._fields) - written

    def test_locus_two_points_over_f5(self, tmp_path, capsys):
        """A = C is the isotropic line y = 2x: two centers, not a line of them."""
        pairs = [[(-2, 1, 0), (-2, 1, 0)], [(0, 1, 1), (-1, 1, 0)]]
        path = write_config(tmp_path, "two.json", {"prime": 5}, pairs)
        doc = run_json(capsys, "locus", "--input", path)
        assert doc["shape"] == "TwoLines"
        assert doc["single_line"] is None and doc["point"] is None
        assert doc["points"] == [["1", "2"], ["4", "3"]]
        assert list(doc)[-2:] == ["points", "special_rectangles"]

    def test_locus_every_normalized_config_over_f5(self, tmp_path, capsys):
        """Every configuration exits 0 with the same report, each line and conic
        at the one scale.  In 16 TwoLines cases the two locus lines are
        parallel: no center rectangle."""
        p = 5
        digest = hashlib.sha256()
        parallel = 0
        for m_a, m_b, m_c, m_d, b_a in itertools.product(range(p), repeat=5):
            if m_c == m_d:
                continue
            pairs = [[(-m_a, 1, b_a), (-m_c, 1, 0)], [(-m_b, 1, 1), (-m_d, 1, 0)]]
            path = write_config(tmp_path, "f5.json", {"prime": p}, pairs)
            code, out, err = run_cli(capsys, "locus", "--input", path)
            assert code == 0, err
            digest.update(out.encode())
            doc = json.loads(out)
            assert_one_scale(doc)
            if doc["shape"] == "TwoLines" and doc["gauss_newton"] is not None:
                parallel += doc["special_rectangles"] is None
        assert parallel == 16
        assert digest.hexdigest() == "ce255421cf405c904a7c7f34ddb200acb4285417343c5f8dc21b879c584a59c8"

    def test_census_every_normalized_config_over_f5(self, tmp_path, capsys):
        """Every configuration exits 0 with the same census: degenerate,
        twin-pair, rank-2 and whole-line quadrics included."""
        p = 5
        digest = hashlib.sha256()
        for m_a, m_b, m_c, m_d, b_a in itertools.product(range(p), repeat=5):
            if m_c == m_d:
                continue
            pairs = [[(-m_a, 1, b_a), (-m_c, 1, 0)], [(-m_b, 1, 1), (-m_d, 1, 0)]]
            path = write_config(tmp_path, "f5.json", {"prime": p}, pairs)
            code, out, err = run_cli(capsys, "census", "--input", path)
            assert code == 0, err
            digest.update(out.encode())
        assert digest.hexdigest() == "aaab8a943fc23224b6cf1fcd7d1dcfe26f9db5f85820ab40079a244673a74f3c"

    def test_locus_internal_check_exits_3(self, capsys, monkeypatch):
        def broken(cfg, report):
            raise InternalCheckError("center rectangle misses the locus intersection")

        monkeypatch.setattr(cli, "special_rectangles", broken)
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "cfg2.json")
        code, out, err = run_cli(capsys, "locus", "--input", path)
        assert code == 3 and not out
        assert err == "internal assertion failed: center rectangle misses the locus intersection\n"

    @pytest.mark.parametrize(
        "name, argv, code, digest",
        [
            ("cfg1.json", "rect --slope 1/0", 0, "aab2f76cc6b5ff9accff7e616821b3923d4b3d721fb273317ee73236a7d3a88d"),
            ("cfg1.json", "rect --aspect=-1/2", 0, "aab2f76cc6b5ff9accff7e616821b3923d4b3d721fb273317ee73236a7d3a88d"),
            ("cfg1.json", "path --kind slope", 0, "049e4d1e87ce61ab9e86af823497cbaa31e0751c8569c99187e9901730532ac8"),
            ("cfg1.json", "path --kind aspect", 0, "03626047ca5391c28fbc4f39a22ae46a8577653cbae99e889387ed4dd785c1aa"),
            ("cfg1_f11.json", "rect --slope 1/0", 0, "2b62b1b7dfdadcd13d47e3cf7311974ebc7cb8760b3f314566a905d97d0113a0"),
            ("cfg1_f11.json", "rect --aspect=-1/2", 0, "2b62b1b7dfdadcd13d47e3cf7311974ebc7cb8760b3f314566a905d97d0113a0"),
            ("cfg1_f11.json", "path --kind slope", 0, "6e0b413814726ac85307a9c1b15ee44f32160bbb4e8587c9842ee8d6ffb2a8cd"),
            ("cfg1_f11.json", "path --kind aspect", 0, "2fe6d38fdae85b3a7cf47db74fa4787df16f81a3a95b224bda5b17efd2779bed"),
            ("cfg1_f11.json", "census", 0, "b04fbf0048d721ab9d74104b0410ce0c7b1c15b80f5fbfbf8f52247f29f91b00"),
            ("cfg2.json", "rect --slope 1/0", 0, "15856350e9dcfa435d619f17596810c0bc6caf2d2759114e27ec8f9202f46278"),
            ("cfg2.json", "rect --aspect=-1/2", 0, "175125541d081b68d95a80d43c6cc876b66e0dc41f03cf60c9e66fa77d246c56"),
            ("cfg2.json", "path --kind slope", 0, "a56c21217e505bfbbe38dbd8ed32bb56addd549e75097e43f2c9b455669d8eb5"),
            ("cfg2.json", "path --kind aspect", 0, "2da6f8ac9f54136c9cae5478d4386afb0849e8b06e97d973f38f9c56e7d7c59b"),
            ("cfg3.json", "rect --slope 1/0", 0, "c07748db6edeed54ba364fb7bf362f9440dbacdc06af1031f08dc0d97a240683"),
            ("cfg3.json", "rect --aspect=-1/2", 0, "083d7b53ed8f8968ec3900dcacf3b85b08907848d10764f3961aef9a53500e11"),
            ("cfg3.json", "path --kind slope", 0, "d8aa81283a081b77cca4579fe87daa38bc5227d4758def5d9515a7b8a020f706"),
            ("cfg3.json", "path --kind aspect", 0, "4c105192b7951ea69b6894dbf87f9ba4f6e7a9e3864fde752a29d521c806749e"),
            # All four lines parallel: exit 2, nothing on stdout.
            ("parallel.json", "rect --slope 1/0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            ("parallel.json", "rect --aspect=-1/2", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            ("parallel.json", "path --kind slope", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            ("parallel.json", "path --kind aspect", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            # Inputs off standing form: a reflection over Q and F_p, and a
            # relabeled, translated and scaled TwoLines configuration.
            ("vertical.json", "rect --slope 1/0", 0, "e89ea50beddb631d6c988b080f8f4da41ce581131c22cf542616520f8ccd811a"),
            ("vertical.json", "rect --aspect=-1/2", 0, "3939663ef83ab5a2ae19ec7ea5498d807fd2a783a694110327a4c5bbff316d6c"),
            ("vertical.json", "path --kind slope", 0, "3bbed4a8aef1e484495dfbab70954b29b3a339b9f129045c04acee103a8ad49d"),
            ("vertical.json", "path --kind aspect", 0, "dde5f1d19fc1a6cfdd5ce0828f5f57d068cf7b7306c23f19edfeb36d3e0b4256"),
            ("vertical.json", "classify", 0, "a74aa7c044a2bbb719cbd068c2bcf736d1d6a09b8ae2b952a8f4c95e95706be6"),
            ("vertical_f1009.json", "rect --slope 1/0", 0, "0c8fed1739064f00ae640a48ec212e03ebdcef4e6f19088d097f9f90f9423303"),
            ("vertical_f1009.json", "rect --aspect=-1/2", 0, "407d0eab4c3c058af111d01ada7d1864842c72319c340ddff2340f01d71e0eeb"),
            ("vertical_f1009.json", "path --kind slope", 0, "66565accb56eb144b115364dbf05dc1d72509a879e9bba09666a05df458ada99"),
            ("vertical_f1009.json", "path --kind aspect", 0, "91b90fc219d3f5d0e06eead6d44aaa6c0e1c0357908e75610af4326ab06be7f6"),
            ("vertical_f1009.json", "classify", 0, "54e1743985e9387a5580d65a3a4394de07b10ffa5c96f39f581f42c0e27412f0"),
            ("relabeled.json", "rect --slope 1/0", 0, "905558bc269653f7c682f2cf57629bbaad43f91b84ea6b06b594510c04d2e07d"),
            ("relabeled.json", "rect --aspect=-1/2", 0, "8012d172c6bf781d1a3f41c0dc68e2a476f7cd9d7c3d576d3e6f84c39d673cf6"),
            ("relabeled.json", "path --kind slope", 0, "e75f697308b0a1cbe36849d7962f859c2c80f40f911935e16f16120b8a018ef8"),
            ("relabeled.json", "path --kind aspect", 0, "9c631631b50880e542055e62098e1185ad225f1d43bf46b8fb850722d4399660"),
            ("relabeled.json", "classify", 0, "b87e5caecbc115bdcd5e0533385805d4333aa8060f8be6afb7557681ff991720"),
            # Every classify report: normalized constants, diagonals and their
            # markers, the class, the ratios at infinity ("all" for twin pairs)
            # and the all-parallel report.
            ("cfg1.json", "classify", 0, "dd4cf7153607e471ba0c742f253d5f535051aea7ef2e6df4289d658e39e3f1f9"),
            ("cfg1_f11.json", "classify", 0, "1dec66647d626c6bbb5f32d56f633cecd7cee40b304f7a1551adba5fac9e1a3b"),
            ("cfg2.json", "classify", 0, "ed6673baaa07150244b7e23fd2e49fc9e22acd8107304bf58792fc4c96af6029"),
            ("cfg3.json", "classify", 0, "b8631b28eaed997ad0c2812691e7dedfa83510ee6b69f7ed6d8a94fb8740ae3c"),
            ("parallel.json", "classify", 0, "6149b4f139fcd8b5c58d68f6950fd64a56612bf9030a097e78dc0d483753fdc1"),
            ("corner.json", "classify", 0, "99940fc377812a4aee941efeb426200679d416ef3e20c78aea274e1c41e4c0d6"),
            ("corner.json", "rect --slope 1/0", 0, "7c9577cabf795893894acb5459e69c576905e2317d0249534a9bf00e70916cde"),
            ("corner.json", "rect --aspect=-1/2", 0, "2904b8594f79f092ac30c3acc151427fb7eda2ca1709265ce9833101d402cf89"),
            ("corner.json", "path --kind slope", 0, "cf087c318b1b49515398fa49eafda68a1f2de1f23d7c7340761088e948e502f1"),
            ("corner.json", "path --kind aspect", 0, "8da67eb762cd0201024f8720453fadee79154d7f7cc20251e9e72ef23b5a177f"),
            ("corner.json", "locus", 0, "6f1c5781deba27940b282d196f9cc834097766094d19e290b7b677a90e2c075c"),
            # A zero discriminant on both at-infinity forms: one slope "3" and one aspect "2".
            ("double_root_f5.json", "classify", 0, "36658d207616ccd00f6f3849801ef04adb7b6b03ef7116b4ef03c268d0a58bfb"),
            ("two_points_f5.json", "classify", 0, "a720bf1455522f38a9f61d3e15004a85ae64890b88599767c300c72c9796886a"),
            # The diagonal markers: E is "A=B" (e1 = e2 = 0), and F is "A=D" over F_7 (f1 = f2 = 0, b_A = 0).
            ("a_equals_b.json", "classify", 0, "e05e3d3df0bf1cf0aaec228c50f8ea18eeb760ad65b1371e35a22c7b2d7abb5c"),
            ("a_equals_d_f7.json", "classify", 0, "ddcbb3d0e09fcd0cf8d100e41204079bc369972f8d36bb41670847278167a790"),
            # The literal grammar: signs, leading zeros, -0/5, spaces, a vertical line and a
            # 40-digit denominator over Q; -12 and +0007 over F_101.
            ("literals.json", "classify", 0, "72e26e9fc4684de65fbd8fa9312f5f699dbede4cb14bd60985441d6bb63249cb"),
            ("literals.json", "rect --slope 1/0", 0, "f549d8490664d2f53d388ff687a93f7ee8a2df5b5afd507f68385ef5d4069b59"),
            ("literals.json", "rect --aspect=-1/2", 0, "70ba6569fd0185e54a450efad3a37344f0fc470aeaa204f90a1389f00383e290"),
            ("literals.json", "path --kind slope", 0, "54214439e844f855a218883b78df359c6969922612e1b7f93b5d6622ef486d5d"),
            ("literals.json", "path --kind aspect", 0, "0bbd099a27b799f72e1a8752f37cf55d7e54f20fb6c539cbff0baa2f489686aa"),
            ("literals_f101.json", "classify", 0, "5957eaaa62fdaf47fe93fd107eca5b993ed9485acb17da49f4e312a823716a53"),
            ("literals_f101.json", "rect --slope 1/0", 0, "200e4879839578d40015e016f73fd9e24104ac8cb8f99302fd50700759c8b411"),
            ("literals_f101.json", "rect --aspect=-1/2", 0, "9261dca3735a9f6202ac44873f0fd60bd4242b873a00d519b43902a1ae18aa47"),
            ("literals_f101.json", "path --kind slope", 0, "ec1b822d233adaf281ff974e457fc0289e90e3edab748f5b9f602c9111d141ee"),
            ("literals_f101.json", "path --kind aspect", 0, "315379086e101b1635c5ff35285c0d94206117cd5cddf91eafab0203db37f580"),
            ("literals_f101.json", "census", 0, "bc209a39ca32c521becb93c7bd85eb6eeef6375586109e0f7e2d1cac248b7670"),
        ],
    )
    def test_path_kernel_bytes(self, capsys, name, argv, code, digest):
        """The integer path kernel prints what field-element evaluation printed."""
        path = os.path.join(os.path.dirname(__file__), "..", "configs", name)
        command, *flags = argv.split()
        got, out, err = run_cli(capsys, command, "--input", path, *flags)
        assert got == code, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_census_cfg1_f11(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg1p.json", {"prime": 11}, CFG1_PAIRS)
        doc = run_json(capsys, "census", "--input", path)
        assert doc["union_covered"] is True
        assert doc["at_infinity_bound_ok"] is True
        assert doc["degenerate_consistency_ok"] is True
        assert doc["total"] == doc["quadric_points"]
        assert doc["failures"] == []

    def test_report_is_one_write(self, monkeypatch):
        """main hands stdout the whole report at once, not token by token."""
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return len(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "cfg1_f11.json")
        assert main(["census", "--input", path]) == 0
        assert len(writes) == 1 and writes[0].endswith("}\n")

    def test_report_leaves_no_reference_cycles(self, capsys):
        """Writing a report leaves no garbage for the cyclic collector, so peak memory
        does not follow the collector's timing."""
        argv = ["census", "--input", os.path.join(os.path.dirname(__file__), "..", "configs", "cfg1_f11.json")]
        assert main(argv) == 0  # first calls fill caches
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
        capsys.readouterr()

    def test_census_requires_prime_field(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg1.json", "rational", CFG1_PAIRS)
        code, _, err = run_cli(capsys, "census", "--input", path)
        assert code == 2
        assert "prime" in err

    @pytest.mark.parametrize("p", [60013, 10**9 + 7])
    def test_census_above_the_bound_exits_at_once(self, tmp_path, capsys, p):
        from quadriline.census import MAX_CENSUS_PRIME

        assert p > MAX_CENSUS_PRIME  # 60013 is the least prime above it
        path = write_config(tmp_path, "big.json", {"prime": p}, CFG1_PAIRS)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "census", "--input", path)
        assert time.perf_counter() - start < 1.0  # a census at the bound takes seconds
        assert code == 2 and not out
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(p) in err and str(MAX_CENSUS_PRIME) in err


class TestPathBuilds:
    """A call builds each path at most once, and only a path it reads."""

    # The builds of locus and render on the three reference configurations.
    EXPECTED = {
        ("cfg1.json", "locus"): {"slope": 1},
        ("cfg2.json", "locus"): {"slope": 1, "aspect": 1},
        ("cfg3.json", "locus"): {"aspect": 1},
        ("cfg1.json", "render"): {"slope": 1},
        ("cfg2.json", "render"): {"slope": 1, "aspect": 1},
        ("cfg3.json", "render"): {"slope": 1, "aspect": 1},
    }

    def test_each_digest_call_builds_each_path_at_most_once(self, tmp_path, path_builds):
        """Every command of ``cli_digests.COMMANDS`` on every config, and ``classify`` on
        each loader input; ``classify`` builds no path."""
        import cli_digests

        seen = set()
        for label, argv, svg in cli_digests.calls([], str(tmp_path)):
            path_builds.clear()
            cli_digests.run(label, argv, svg)
            assert max(path_builds.values(), default=0) <= 1, label
            if argv[0] == "classify":
                assert not path_builds, label
            key = (os.path.basename(argv[2]), argv[0])
            if key in self.EXPECTED:
                assert path_builds == self.EXPECTED[key], label
                seen.add(key)
        assert seen == set(self.EXPECTED)


class TestLargePrime:
    """Every non-census command costs time polynomial in log p."""

    P = 10**18 + 3

    @pytest.mark.parametrize(
        "argv",
        [["classify"], ["rect", "--slope=3/7"], ["rect", "--aspect=-1/2"], ["path"], ["locus"]],
        ids=" ".join,
    )
    def test_commands_finish(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, "big.json", {"prime": self.P}, CFG1_PAIRS)
        run_json(capsys, *argv, "--input", path)

    def test_slopes_at_infinity_give_rectangles_at_infinity(self, tmp_path, capsys):
        # 52 is a square mod P, so classify needs a square root in F_P.
        path = write_config(tmp_path, "big.json", {"prime": self.P}, CFG1_PAIRS)
        slopes = run_json(capsys, "classify", "--input", path)["at_infinity"]["slopes"]
        assert len(slopes) == 2
        for s in slopes:
            assert run_json(capsys, "rect", "--input", path, f"--slope={s}")["at_infinity"]

    def test_modulus_beyond_primality_proof_rejected(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "huge.json", {"prime": "3317044064679887385961981"}, CFG1_PAIRS
        )
        code, out, err = run_cli(capsys, "classify", "--input", path)
        assert code == 2 and not out
        assert err.count("\n") == 1 and "too large" in err and "Traceback" not in err


class TestRender:
    def test_cfg2_two_dotted_lines(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg2.json", "rational", CFG2_PAIRS)
        out = tmp_path / "cfg2.svg"
        code, _, err = run_cli(capsys, "render", "--input", path, "--out", str(out))
        assert code == 0, err
        svg = out.read_text()
        assert svg.startswith("<?xml")
        assert svg.count("stroke-dasharray") >= 2

    def test_cfg1_conic_locus(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg1.json", "rational", CFG1_PAIRS)
        out = tmp_path / "cfg1.svg"
        code, _, _ = run_cli(
            capsys, "render", "--input", path, "--out", str(out), "--diagonals"
        )
        assert code == 0
        svg = out.read_text()
        dotted = [ln for ln in svg.splitlines() if "stroke-dasharray" in ln]
        assert dotted
        # The conic branch polylines carry many sample points.
        assert any(len(re.findall(r"[-0-9.e]+,[-0-9.e]+", ln)) > 20 for ln in dotted)

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("cfg1.json", "2dd4f3cbbad2e6ee4333730d678870032f1cae3eec00ceff7a5f37a2653e1696"),
            ("vertical.json", "28eabb486a669f6c20c9e85abfa9a350e1e3e3c8c023026b5632c2936acfa0cb"),
            ("relabeled.json", "dee5bdad933ebf7863df5daef4d8374281802187d75a147af046cc9cfa403ec8"),
            # A diagonal runs corner to corner of the viewport: both corners are
            # crossings of two sides, and the exact clip keeps them in side order.
            ("corner.json", "76ed145cb14bde090f67925d200360b5ca92aa69029d636105f1ef1a8e2121d7"),
            # A square: both center maps are constant, and the locus is one point.
            ("square.json", "3214161be49bb4eea23829da5fdd2be68c05979584c0127662cd6e0c21048d17"),
        ],
    )
    def test_cfg1_diagonals_bytes(self, tmp_path, capsys, name, digest):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", name)
        out = tmp_path / "out.svg"
        code, _, err = run_cli(
            capsys, "render", "--input", path, "--out", str(out), "--diagonals"
        )
        assert code == 0, err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_square_locus_point(self, tmp_path, capsys):
        """The locus of the square is its center (0, 1/2), drawn as one dot."""
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "square.json")
        assert run_json(capsys, "locus", "--input", path)["point"] == ["0", "1/2"]
        out = tmp_path / "out.svg"
        assert run_cli(capsys, "render", "--input", path, "--out", str(out))[0] == 0
        assert out.read_text().count('<circle cx="0" cy="-0.5"') == 1

    def test_samples_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg2.json", "rational", CFG2_PAIRS)
        out = tmp_path / "plain.svg"
        code, _, _ = run_cli(
            capsys, "render", "--input", path, "--out", str(out), "--samples", "0"
        )
        assert code == 0
        svg = out.read_text()
        assert "<polyline" in svg and "</svg>" in svg

    @pytest.mark.parametrize(
        "command, digits, code, message",
        [
            ("render", 150, 0, None),
            ("render", 154, 0, None),
            ("render", 160, 0, None),
            ("render", 306, 0, None),
            ("render", 310, 2, "error: the drawing does not fit in floats\n"),
            ("render", 2200, 2, "error: the drawing does not fit in floats\n"),
            ("locus", 160, 0, None),
            ("locus", 2200, 2, "error: a report value past 4300 digits cannot be written\n"),
        ],
        ids=[
            "render-150", "render-154", "render-160", "render-306", "render-310", "render-2200",
            "locus-160", "locus-2200",
        ],
    )
    def test_long_coefficient(self, tmp_path, capsys, command, digits, code, message):
        """The cfg1 lines with A written as -2x + y = 77...7: the SVG holds only
        finite numbers, and a drawing past the float range or a report value
        past the int-to-str digit limit exits 2 with one line and no SVG."""
        pairs = [[(-2, 1, "7" * digits), CFG1_PAIRS[0][1]], CFG1_PAIRS[1]]
        path = write_config(tmp_path, "long.json", "rational", pairs)
        out = tmp_path / "out.svg"
        argv = ["--out", str(out), "--diagonals"] if command == "render" else []
        got, stdout, err = run_cli(capsys, command, "--input", path, *argv)
        assert got == code, err
        if code:
            assert not stdout and err == message and not out.exists()
        elif command == "render":
            assert not re.search(r"inf|nan", out.read_text(), re.IGNORECASE)

    @pytest.mark.parametrize(
        "argv",
        [["rect", "--slope=1/2"], ["path", "--samples", "2"], ["classify"]],
        ids=["rect", "path", "classify"],
    )
    def test_report_value_past_the_digit_limit(self, tmp_path, capsys, argv):
        """Lines with 2200-digit coefficients whose report values pass the int-to-str
        digit limit: the command exits 2 with one line and prints nothing, whether the
        text is written in the report (rect, path) or by json_text (classify)."""
        threes, sevens = int("3" * 2200), int("7" * 2200)
        pairs = [[(-2, threes, sevens), (0, 1, 0)], [(sevens, 1, 1), (-1, threes, 0)]]
        path = write_config(tmp_path, "long.json", "rational", pairs)
        code, stdout, err = run_cli(capsys, argv[0], "--input", path, *argv[1:])
        assert (code, stdout) == (2, "")
        assert err == "error: a report value past 4300 digits cannot be written\n"

    def test_prime_field_render_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, "p.json", {"prime": 11}, CFG1_PAIRS)
        code, _, err = run_cli(
            capsys, "render", "--input", path, "--out", str(tmp_path / "x.svg")
        )
        assert code == 2


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--input", "/nonexistent.json")
        assert code == 2

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "classify", "--input", str(path))
        assert code == 2
        assert "JSON" in err

    def test_bad_literal_reports_location(self, tmp_path, capsys):
        doc = {
            "field": "rational",
            "pairs": [
                [{"a": "1.5", "b": "1", "c": "0"}, {"a": "0", "b": "1", "c": "0"}],
                [{"a": "1", "b": "1", "c": "1"}, {"a": "2", "b": "1", "c": "0"}],
            ],
        }
        path = tmp_path / "lit.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "classify", "--input", str(path))
        assert code == 2
        assert "pairs[0][0].a" in err

    @pytest.mark.parametrize("field_tag", ["rational", {"prime": 11}], ids=["QQ", "F11"])
    @pytest.mark.parametrize("literal", ["\u0663", "\uff13", "\u00b3", "1_0"], ids=ascii)
    def test_literal_digits_are_ascii(self, tmp_path, capsys, field_tag, literal):
        """A coefficient or a --slope written with other digits exits 2 with one line."""
        kind = "a rational" if field_tag == "rational" else "an integer"
        pairs = [[(literal, 1, 0), CFG1_PAIRS[0][1]], CFG1_PAIRS[1]]
        path = write_config(tmp_path, "digits.json", field_tag, pairs)
        code, out, err = run_cli(capsys, "classify", "--input", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: pairs[0][0].a: not {kind} literal: {literal!r}\n"
        path = write_config(tmp_path, "cfg1.json", field_tag, CFG1_PAIRS)
        code, out, err = run_cli(capsys, "rect", "--input", path, f"--slope={literal}/2")
        assert (code, out, err) == (2, "", f"error: not a ratio literal: {literal + '/2'!r}\n")

    @pytest.mark.parametrize(
        "field_tag, line, slot",
        [({"prime": 5}, ("5", "10", "1"), (0, 0)), ({"prime": 5}, ("-5", "+0", "3"), (1, 1)),
         ("rational", ("0/7", "-0", "1"), (0, 1))],
        ids=["F5", "F5-last-slot", "QQ"],
    )
    @pytest.mark.parametrize("command", ["classify", "locus", "census"])
    def test_zero_normal_exits_2(self, tmp_path, capsys, field_tag, line, slot, command):
        """A line whose (a, b) vanishes in the field exits 2 with the slot and no stdout:
        over F_5 the literals 5 and 10 are nonzero ints that vanish mod 5."""
        pairs = [list(pair) for pair in CFG1_PAIRS]
        i, j = slot
        pairs[i][j] = line
        path = write_config(tmp_path, "zero.json", field_tag, pairs)
        code, out, err = run_cli(capsys, command, "--input", path)
        want = f"error: {path}: pairs[{i}][{j}]: line needs (a, b) != (0, 0)\n"
        assert (code, out, err) == (2, "", want)

    def test_even_modulus_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, "c2.json", {"prime": 2}, CFG1_PAIRS)
        code, _, err = run_cli(capsys, "classify", "--input", str(path))
        assert code == 2
        assert "characteristic 2" in err

    @pytest.mark.parametrize("prime", [7.9, True, "7.9", "-7", " 7", None, [7]], ids=repr)
    def test_prime_must_be_an_integer(self, tmp_path, capsys, prime):
        path = write_config(tmp_path, "p.json", {"prime": prime}, CFG1_PAIRS)
        code, out, err = run_cli(capsys, "classify", "--input", path)
        assert code == 2 and not out
        assert err.count("\n") == 1 and "prime must be an integer" in err

    def test_prime_as_digit_string(self, tmp_path, capsys):
        as_int = write_config(tmp_path, "int.json", {"prime": 11}, CFG1_PAIRS)
        as_text = write_config(tmp_path, "text.json", {"prime": "11"}, CFG1_PAIRS)
        assert run_json(capsys, "classify", "--input", as_text) == run_json(
            capsys, "classify", "--input", as_int
        )

    @pytest.mark.parametrize("as_text", [False, True], ids=["json-integer", "digit-string"])
    def test_prime_beyond_int_digit_limit(self, tmp_path, capsys, as_text):
        digits = "9" * 5000
        path = write_config(tmp_path, "long.json", {"prime": "PRIME"}, CFG1_PAIRS)
        doc = tmp_path / "long.json"
        doc.write_text(doc.read_text().replace('"PRIME"', f'"{digits}"' if as_text else digits))
        code, out, err = run_cli(capsys, "classify", "--input", path)
        assert code == 2 and not out
        assert err.count("\n") == 1 and path in err and "field.prime" in err
        assert "3317044064679887385961981" in err and "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("field_tag", ["rational", {"prime": 11}], ids=["QQ", "F11"])
    @pytest.mark.parametrize("as_text", [False, True], ids=["json-integer", "digit-string"])
    def test_coefficient_beyond_int_digit_limit(self, tmp_path, capsys, field_tag, as_text):
        digits = "9" * 5000
        path = write_config(tmp_path, "long.json", field_tag, CFG1_PAIRS)
        doc = tmp_path / "long.json"
        first_a = '"a": "-2"'
        assert first_a in doc.read_text()
        doc.write_text(
            doc.read_text().replace(first_a, f'"a": "{digits}"' if as_text else f'"a": {digits}', 1)
        )
        code, out, err = run_cli(capsys, "classify", "--input", path)
        assert code == 2 and not out
        assert err.count("\n") == 1 and f"{path}: pairs[0][0].a: " in err
        assert "5000 digits" in err and "set_int_max_str_digits" not in err

    @pytest.mark.parametrize(
        "ratio",
        ["9" * 5000, "9" * 5000 + "/7", "7/" + "9" * 5000],
        ids=["integer", "numerator", "denominator"],
    )
    def test_ratio_beyond_int_digit_limit(self, tmp_path, capsys, ratio):
        path = write_config(tmp_path, "cfg1.json", "rational", CFG1_PAIRS)
        code, out, err = run_cli(capsys, "rect", "--input", path, f"--slope={ratio}")
        assert code == 2 and not out
        assert err == "error: a number of 5000 digits: at most 4300 are supported\n"

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "classify", "--input", str(path))
        assert code == 2 and not out
        assert err.count("\n") == 1 and str(path) in err and "nested too deeply" in err

    def test_top_level_array(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        code, out, err = run_cli(capsys, "classify", "--input", str(path))
        assert code == 2 and not out
        assert err.count("\n") == 1 and "JSON object" in err

    @pytest.mark.parametrize("command, samples", [("path", "0"), ("path", "-3"), ("render", "-3")])
    def test_samples_out_of_range(self, tmp_path, capsys, command, samples):
        path = write_config(tmp_path, "cfg1.json", "rational", CFG1_PAIRS)
        svg = tmp_path / "never.svg"
        extra = ["--out", str(svg)] if command == "render" else []
        code, out, err = run_cli(capsys, command, "--input", path, *extra, "--samples", samples)
        assert code == 2 and not out
        assert err.count("\n") == 1 and "--samples" in err
        assert not svg.exists()

    @pytest.mark.parametrize("command", ["path", "render"])
    @pytest.mark.parametrize("samples, count", [
        ("\u0663", None), ("1_0", None), (" 2", 2), ("+3", 3), ("-1", None)
    ], ids=ascii)
    def test_samples_is_an_ascii_integer(self, tmp_path, capsys, command, samples, count):
        """--samples is read as an F_p literal is: a sign and ASCII digits, with spaces
        around them.  Other digits and _, which int() takes, are usage errors."""
        path = write_config(tmp_path, "cfg1.json", "rational", CFG1_PAIRS)
        svg = tmp_path / "out.svg"
        extra = ["--out", str(svg)] if command == "render" else []
        code, out, err = run_cli(capsys, command, "--input", path, *extra, f"--samples={samples}")
        if count is not None:
            assert (code, err) == (0, "")
            if command == "path":
                assert len(json.loads(out)["rectangles"]) == count
            else:  # each sampled rectangle is one thin polyline
                assert svg.read_text().count('stroke="#3b6ea5"') == count
            return
        assert (code, out) == (2, "") and not svg.exists()
        if samples == "-1":
            bound = "be at least 1" if command == "path" else "not be negative"
            assert err == f"error: --samples must {bound}\n"
        else:
            assert err == f"error: argument --samples: invalid int value: {samples!r}\n"


def test_shared_parser_keeps_no_state(tmp_path, capsys):
    """In-process calls through the one parser print what fresh processes print."""
    path = write_config(tmp_path, "cfg1.json", "rational", CFG1_PAIRS)
    calls = [
        ["rect", "--input", path, "--slope", "1/0"],
        ["rect", "--input", path, "--aspect=-1/2"],
        ["path", "--input", path, "--samples", "3"],
        ["path", "--input", path],
    ]
    in_process = [run_cli(capsys, *argv) for argv in calls]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quadriline.__file__)))
    for argv, got in zip(calls, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "quadriline.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert len(json.loads(in_process[3][1])["rectangles"]) == 8


NUMBER = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


def printed_values(value) -> int:
    """The exact values a report prints: each text leaf that is a number ("-3", "3/2",
    "1/0"), not a label or a marker."""
    if isinstance(value, dict):
        return sum(map(printed_values, value.values()))
    if isinstance(value, list):
        return sum(map(printed_values, value))
    return isinstance(value, str) and NUMBER.match(value) is not None


def ratio_count(monkeypatch) -> list:
    """A one-int list counting the Ratios built from here on."""
    built, init = [0], Ratio.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Ratio, "__init__", counted)
    return built


CFG1 = os.path.join(os.path.dirname(__file__), "..", "configs", "cfg1.json")


@pytest.mark.parametrize("ratio", ["1/0", "3/7", "0", "-1/2"])
def test_rect_builds_only_the_fractions_it_prints(monkeypatch, ratio):
    """A rational rect builds no Fraction, the parsing of its input included, and past
    its flag no Ratio: the literals, the key, the plane map and the path are ints, and
    each of the 21 printed values is written as text straight from them."""
    with fraction_count() as built:
        cfg, pm = normalize(cli.load_config(CFG1))
        flag = ratio_parse(ratio, QQ)
        ratios = ratio_count(monkeypatch)
        for path_eval in (slope_path_eval, aspect_path_eval):
            report = cli.rectangle_json(path_eval(cfg, flag), pm)
            assert ratios[0] == 0 < printed_values(report) == 21
    assert built[0] == 0


@pytest.mark.parametrize("kind", ["slope", "aspect"])
def test_path_builds_only_the_fractions_it_prints(monkeypatch, kind):
    """``path --samples 8`` on cfg1.json builds no Fraction, loading included, and past
    loading and normalizing no Ratio: the sample walk runs on int pairs, and each
    printed value is written as text from ints."""
    with fraction_count() as built:
        cfg_input = cli.load_config(CFG1)
        normalized = normalize(cfg_input)
        monkeypatch.setattr(cli, "load_config", lambda path: cfg_input)
        monkeypatch.setattr(cli, "normalize", lambda cfg_input: normalized)
        ratios = ratio_count(monkeypatch)
        report = cli.cmd_path(argparse.Namespace(input=CFG1, kind=kind, samples=8))
    assert len(report["rectangles"]) == 8
    assert built[0] == ratios[0] == 0 < printed_values(report)


EVERY_COMMAND = (
    ["classify"], ["rect", "--slope", "3/7"], ["rect", "--aspect=-1/2"], ["path", "--kind", "slope"],
    ["path", "--kind", "aspect", "--samples", "5"], ["locus"], ["census"], ["render", "--diagonals"],
)


@pytest.mark.parametrize("config", ["cfg1.json", "literals.json", "cfg1_f11.json", "literals_f101.json"])
@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_no_command_builds_a_fraction(tmp_path, capsys, config, argv):
    """A whole CLI call, the parsing of its literals included, builds no Fraction:
    every value from the literal to the text is an int or a Ratio of two ints."""
    argv = [*argv, "--input", os.path.join(CONFIGS, config)]
    if argv[0] == "render":
        argv += ["--out", str(tmp_path / "fig.svg")]
    with fraction_count() as built:
        code = main(argv)
    out, err = capsys.readouterr()
    over_q = "_f" not in config
    # census needs a prime field and render the rationals: each exits 2 on the other field.
    refused = (argv[0] == "census" and over_q) or (argv[0] == "render" and not over_q)
    assert (code, bool(out), err.startswith("error: ")) == ((2, False, True) if refused else (0, True, False))
    assert built[0] == 0
