"""Self-tests of the benchmark: generator, checker and tracer.

    python3 bench/selftest.py

Outputs to corrupt come from real CLI calls on generated inputs, so the
checker is shown to accept the program's output and to reject each planted
fault.
"""

from __future__ import annotations

import copy
import filecmp
import json
import os
import shutil
import sys
import unittest
from fractions import Fraction

from checker import check
from run import END_TO_END, PER_LAYER, SRC, call
from tracing import ROOT, Tracer
from workloads import make_round, write_cases

sys.path.insert(0, SRC)
from quadriline import cli  # noqa: E402

WORK = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work", "selftest")


def setUpModule():
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


def _bump(text):
    return str(Fraction(text) + 1)


def _run(op, directory):
    code, _, out, err = call(cli.main, op.argv(directory))
    return code, out, err


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_files(self):
        for workload in ("rational-mix", "prime-census", "large-prime"):
            dirs = []
            for tag in ("a", "b"):
                cases, _ = make_round(workload, 7, 1)
                dirs.append(os.path.join(WORK, f"{workload}-{tag}"))
                write_cases(cases, dirs[-1])
            names = sorted(os.listdir(dirs[0]))
            self.assertEqual(names, sorted(os.listdir(dirs[1])))
            match, mismatch, errors = filecmp.cmpfiles(*dirs, names, shallow=False)
            self.assertEqual((mismatch, errors), ([], []), workload)

    def test_other_seed_gives_other_inputs(self):
        for workload in ("rational-mix", "prime-census", "large-prime"):
            docs = [[c.doc for c in make_round(workload, seed, 0)[0]] for seed in (1, 2)]
            self.assertNotEqual(docs[0], docs[1], workload)

    def test_round_shape(self):
        _, ops = make_round("rational-mix", 3, 0)
        self.assertEqual(sum(op.command == "render" for op in ops), 6)
        self.assertEqual(len({op.case.name for op in ops}), 24)


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dir = os.path.join(WORK, "checker")
        cases, cls.ops = make_round("rational-mix", 11, 0)
        write_cases(cases, cls.dir)

    def _ops_of(self, kind):
        case = next(op.case for op in self.ops if op.case.kind == kind)
        return [op for op in self.ops if op.case is case]

    def test_accepts_the_program_output(self):
        for op in self.ops:
            self.assertEqual(check(op, *_run(op, self.dir)), [], op.argv(self.dir))

    def test_rejects_a_bad_rectangle(self):
        ops = self._ops_of("random")
        for op in ops[:2]:  # classify first: its plane map feeds the rect check
            code, out, err = _run(op, self.dir)
            self.assertEqual(check(op, code, out, err), [])
        rect = ops[1]
        self.assertEqual(rect.command, "rect")
        code, out, err = _run(rect, self.dir)
        good = json.loads(out)
        self.assertIsNotNone(good["vertices"], "pick a seed with an affine rectangle")
        bad = copy.deepcopy(good)
        vertex = bad["vertices"][good["sequence"][1]]
        vertex[1] = _bump(vertex[1])
        self.assertNotEqual(check(rect, code, json.dumps(bad), err), [])
        bad = copy.deepcopy(good)
        bad["projective"][1] = _bump(bad["projective"][1])
        self.assertNotEqual(check(rect, code, json.dumps(bad), err), [])

    def test_rejects_a_wrong_exit_code(self):
        op = self._ops_of("random")[0]
        self.assertNotEqual(check(op, 2, "", "error: not really\n"), [])
        concurrent = self._ops_of("concurrent")[0]
        code, out, err = _run(concurrent, self.dir)
        self.assertEqual((code, check(concurrent, code, out, err)), (2, []))
        self.assertNotEqual(check(concurrent, 0, "{}", ""), [])

    def test_rejects_a_flipped_census_flag(self):
        cases, ops = make_round("prime-census", 5, 0)
        small = min(cases, key=lambda c: c.prime)
        directory = os.path.join(WORK, "census")
        write_cases([small], directory)
        op = next(op for op in ops if op.case is small)
        code, out, err = _run(op, directory)
        self.assertEqual(check(op, code, out, err), [])
        for flag in ("union_covered", "at_infinity_bound_ok", "degenerate_consistency_ok"):
            bad = json.loads(out)
            bad[flag] = False
            self.assertNotEqual(check(op, code, json.dumps(bad), err), [], flag)
        bad = json.loads(out)
        bad["total"] += 1
        self.assertNotEqual(check(op, code, json.dumps(bad), err), [])


class TracerTest(unittest.TestCase):
    def test_census_points_and_restore(self):
        cases, ops = make_round("prime-census", 5, 0)
        small = min(cases, key=lambda c: c.prime)
        directory = os.path.join(WORK, "trace")
        write_cases([small], directory)
        op = next(op for op in ops if op.case is small)
        original = cli.verify_against_paths
        tracer = Tracer()
        tracer.install()
        try:
            code, _, out, err = call(tracer.wrap(ROOT, cli.main), op.argv(directory))
        finally:
            tracer.uninstall()
        self.assertIs(cli.verify_against_paths, original)
        self.assertEqual(tracer.missing, [])
        self.assertEqual(check(op, code, out, err), [])
        calls, self_ms, points, _ = tracer.layer_metrics()
        p = small.prime
        self.assertEqual(points, p * p + p + 1)
        self.assertEqual(calls[ROOT], 1)
        self.assertEqual(calls["census.verify"], 1)
        self.assertGreater(self_ms["rectangles.complete_parallelogram"], 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match(self):
        root = os.path.dirname(SRC)
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], ["rational-mix", "prime-census", "large-prime"])


if __name__ == "__main__":
    unittest.main()
