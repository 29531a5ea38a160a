"""quadriline benchmark: drives ``quadriline.cli.main(argv)`` in-process.

    python3 bench/run.py --workload rational-mix --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  One
closed-loop client in one process calls one subcommand at a time on input
files generated from ``--seed`` (see ``workloads.py``), captures stdout and
stderr, and checks them with ``checker.py``.  Rounds of inputs run until the
next round would overrun ``--seconds``.

``--trace 0`` reports the end-to-end metrics, with every op and cold start
scaled to reference speed by the probe of ``speed.py``, because the shared
machine's own speed drifts by up to 2x.  ``--trace 1`` replays the
first cases of round 0 alternately untraced and with the spans of
``tracing.py`` installed, and reports the per-layer metrics; its per-command
latencies come from the untraced passes.  Every metric is printed as
``name value unit`` and the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.

Exit 2 without a result when ``src/quadriline`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from checker import check
from speed import Probe
from tracing import ROOT, Tracer
from workloads import WORKLOADS, make_round, write_cases

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
COMMANDS = ("classify", "rect", "path", "locus", "render", "census")

# name -> unit; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "max_rss_mb": "MB",
}
PER_LAYER = {
    **{f"cmd.{c}.ms_p50": "ms" for c in COMMANDS},
    "cli.self_ms": "ms",
    "cli.load_config.calls": "count",
    "cli.load_config.self_ms": "ms",
    "configuration.normalize.self_ms": "ms",
    "configuration.classify.calls": "count",
    "configuration.classify.self_ms": "ms",
    "scalars.PrimeField.sqrt.calls": "count",
    "scalars.PrimeField.sqrt.self_ms": "ms",
    "scalars.PrimeField.init.self_ms": "ms",
    "scalars.solve_quadratic.calls": "count",
    "hpoly.eval_at.calls": "count",
    "hpoly.eval_at.self_ms": "ms",
    "linalg.nullspace.calls": "count",
    "linalg.nullspace.self_ms": "ms",
    "rectangles.complete_parallelogram.calls": "count",
    "rectangles.complete_parallelogram.self_ms": "ms",
    "rectangles.is_rectangle.self_ms": "ms",
    "rectangles.canonical.calls": "count",
    "rectangles.canonical.self_ms": "ms",
    "rectangles.at_infinity.self_ms": "ms",
    "paths.polys.calls": "count",
    "paths.polys.self_ms": "ms",
    "paths.eval_path.calls": "count",
    "paths.eval_path.self_ms": "ms",
    "paths.polys_per_eval": "ratio",
    "locus.centers_paths.calls": "count",
    "locus.centers_paths.self_ms": "ms",
    "locus.special_rectangles.self_ms": "ms",
    "locus.samples_per_call": "ratio",
    "census.enumerate.self_ms": "ms",
    "census.verify.self_ms": "ms",
    "census.quadric_count.self_ms": "ms",
    "census.points_visited": "count",
    "census.hit_ratio": "ratio",
    "svgfig.render.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
# Lines printed before the result that are not benchmark metrics.
NOTE_UNITS = {
    "rounds": "count",
    "passes": "count",
    "ops": "count",
    "fail_ratio": "ratio",
    "probe.chunk_ms": "ms",
    "wall.ops_per_s": "1/s",
    "wall.op_ms_p50": "ms",
}
# Cases of round 0 replayed by a traced run: whole rounds, except 7 of the 21
# censuses so that one untraced and one traced pass fit in a run.
TRACE_CASES = {"rational-mix": 24, "prime-census": 7, "large-prime": 19}
# Cold starts timed before and again after the measured rounds; setup_s is
# the median of all of them, so one slow moment of the machine counts less.
SETUP_STARTS = 5
# Cold start: a fresh interpreter imports the CLI and loads the inputs.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import quadriline.cli as cli\n"
    "for path in sys.argv[2:]: cli.load_config(path)"
)


def call(main, argv):
    """Run one subcommand in-process; returns (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed op, not a benchmark crash
            traceback.print_exc()
            code = 1
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


class Tally:
    """Latencies per command plus the outcome of every check."""

    def __init__(self, work):
        self.work = work
        self.latency = {c: [] for c in COMMANDS}
        self.wall = []
        self.attempted = self.failed = 0

    def run(self, main, ops, directory, on_output=None, probe=None):
        """Run ``ops`` in order and check each; returns the summed op time.

        With a ``probe`` the recorded latencies are scaled to reference speed
        (see ``speed.py``); the returned sum is wall time either way.
        """
        total = 0.0
        for op in ops:
            code, elapsed, out, err = call(main, op.argv(directory))
            total += elapsed
            self.wall.append(elapsed)
            self.latency[op.command].append(probe.scale(elapsed) if probe else elapsed)
            self.attempted += 1
            problems = check(op, code, out, err)
            if problems:
                self.fail(op, directory, problems)
            elif on_output:
                on_output(op, out)
        return total

    def fail(self, op, directory, problems):
        self.failed += 1
        keep = os.path.join(self.work, "failures")
        os.makedirs(keep, exist_ok=True)
        shutil.copy(os.path.join(directory, op.case.name + ".json"), keep)
        if self.failed <= 20:
            print(f"FAIL {' '.join(op.argv(keep))}", file=sys.stderr)
            for line in problems[:5]:
                print(f"  {line}", file=sys.stderr)

    def all_latencies(self):
        return [x for values in self.latency.values() for x in values]


def cold_starts(files, count, probe=None):
    """Times of fresh interpreters importing the CLI and loading the files.

    With a ``probe`` each time is scaled to reference speed.
    """
    argv = [sys.executable, "-c", SETUP_PROBE, SRC, *files]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        elapsed = time.perf_counter() - start
        times.append(probe.scale(elapsed) if probe else elapsed)
    return times


def measure(cli, workload, seed, seconds, work):
    """Untraced rounds until the next one would overrun; end-to-end metrics."""
    tally = Tally(work)
    directory = os.path.join(work, "round")
    cases, ops = make_round(workload, seed, 0)
    write_cases(cases, directory)
    setup_dir = os.path.join(work, "setup")
    write_cases(cases, setup_dir)
    files = [os.path.join(setup_dir, c.name + ".json") for c in cases]
    probe = Probe()
    cold_starts(files, 1)  # writes the bytecode caches
    setup = cold_starts(files, SETUP_STARTS, probe)
    start = time.perf_counter()
    index = 0
    while True:
        round_start = time.perf_counter()
        tally.run(cli.main, ops, directory, probe=probe)
        index += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
        shutil.rmtree(directory)
        cases, ops = make_round(workload, seed, index)
        write_cases(cases, directory)
    setup += cold_starts(files, SETUP_STARTS, probe)  # a second sample, 'seconds' later
    lat = tally.all_latencies()
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": statistics.quantiles(lat, n=10)[8] * 1e3,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "rounds": index,
        "ops": len(lat),
        "probe.chunk_ms": probe.chunk_ms(),
        "wall.ops_per_s": len(tally.wall) / sum(tally.wall),
        "wall.op_ms_p50": statistics.median(tally.wall) * 1e3,
        "fail_ratio": tally.failed / tally.attempted,
        **{f"cmd.{c}.ms_p50": statistics.median(v) * 1e3 for c, v in tally.latency.items() if v},
    }
    return tally, metrics, notes


def trace(cli, workload, seed, seconds, work):
    """Alternate untraced and traced passes over the trace cases; per-layer metrics."""
    tally = Tally(work)
    directory = os.path.join(work, "round")
    cases, ops = make_round(workload, seed, 0)
    cases = cases[: TRACE_CASES[workload]]
    ops = [op for op in ops if op.case in cases]
    write_cases(cases, directory)
    tracer = Tracer()
    traced_main = tracer.wrap(ROOT, cli.main)
    census_total = 0

    def count_census(op, out):
        nonlocal census_total
        if op.command == "census":
            census_total += json.loads(out)["total"]

    untraced_s = traced_s = 0.0
    self_ms = {}
    first = None
    passes = 0
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        untraced_s += tally.run(cli.main, ops, directory)
        tracer.clear()
        tracer.install()
        try:
            for index, op in enumerate(ops):
                tracer.op = index
                traced_s += tally.run(traced_main, [op], directory, count_census if first is None else None)
        finally:
            tracer.uninstall()
        calls, pass_ms, points, samples = tracer.layer_metrics()
        if first is None:
            first = calls, points, samples
            tracer.write(os.path.join(work, "spans.tsv"))
        elif (calls, points, samples) != first:
            print("warning: call counts differ between traced passes", file=sys.stderr)
        for name, value in pass_ms.items():
            self_ms[name] = self_ms.get(name, 0.0) + value
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    for name in tracer.missing:
        print(f"warning: {name} not found; its spans are missing", file=sys.stderr)
    calls, points, samples = first
    ms = {name: value / passes for name, value in self_ms.items()}
    metrics = {
        f"cmd.{c}.ms_p50": statistics.median(v) * 1e3 if v else 0.0
        for c, v in tally.latency.items()
    }
    for name in PER_LAYER:
        if name in metrics:
            continue
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = calls.get(layer, 0)
        elif kind == "self_ms":
            metrics[name] = ms.get(layer, 0.0)
    metrics["paths.polys_per_eval"] = _ratio(calls["paths.polys"], calls["paths.eval_path"])
    metrics["locus.samples_per_call"] = _ratio(samples, calls["locus.centers_paths"])
    metrics["census.points_visited"] = points
    metrics["census.hit_ratio"] = _ratio(census_total, points)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    notes = {"passes": passes, "ops": len(ops), "fail_ratio": tally.failed / tally.attempted}
    return tally, metrics, notes


def _ratio(num, den):
    return num / den if den else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quadriline", "cli.py")):
        print(f"error: no program to measure: {SRC}/quadriline/cli.py is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from quadriline import cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "quadriline"):
        print(f"error: quadriline was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(HERE, ".work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = trace if args.trace else measure
    tally, metrics, notes = run(cli, args.workload, args.seed, args.seconds, work)
    unit_of = {**NOTE_UNITS, **PER_LAYER, **END_TO_END}
    for name, value in {**notes, **metrics}.items():
        print(f"{name:44s} {value:.6g} {unit_of[name]}")
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
