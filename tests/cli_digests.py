"""Byte digests of CLI calls, to compare two checkouts of quadriline.

    python tests/cli_digests.py [--seeds 5 9] [--work DIR] > digests.txt

Each call runs ``quadriline.cli.main(argv)`` in-process from this checkout's
``src/`` and prints one line: its label, its exit code (or its ``SystemExit``
code), and the sha256 digests of stdout, stderr and the SVG it wrote ("-" for
none).  The calls are 13 commands on each ``configs/*.json``, ``classify`` on
each of ``LOADER_INPUTS`` (the exits of the config loader), each of
``USAGE_COMMANDS``, then every op of rounds 0-1 of each given seed of each
workload of ``bench/workloads.py`` (imported, never changed).  Run it once in
each checkout with the same arguments and ``diff`` the two outputs.

Every path a call sees is the same in both checkouts: the configs are copied
to DIR/configs and the loader inputs written there, and each (workload, seed)
writes its inputs to a directory of its own under DIR, because round file
names repeat across workloads.  The ``--out`` paths are fixed too: ``render``
prints its path, so a fresh temp directory would make every render differ.
Not collected by pytest (it is not a ``test_*.py`` file); standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from quadriline.cli import main  # noqa: E402
from workloads import WORKLOADS, make_round, write_cases  # noqa: E402

COMMANDS = (
    ["classify"],
    ["rect", "--slope", "1/0"],
    ["rect", "--slope=3/7"],
    ["rect", "--slope", "3"],  # a single scalar: the ratio 3 : 1
    ["rect", "--aspect=-1/2"],
    ["rect", "--aspect", "-1/2"],  # a usage error: argparse reads -1/2 as a flag
    ["path", "--kind", "slope"],
    ["path", "--kind", "aspect", "--samples", "5"],
    ["path", "--kind", "aspect", "--samples", "40"],  # past the first heights; all of a small F_p
    ["locus"],
    ["census"],
    ["render", "--samples", "3"],
    ["render", "--diagonals"],
)
# Usage errors that a command raises before it reads its input: that file is never written.
USAGE_COMMANDS = (
    ["path", "--samples", "0"],
    ["render", "--samples=-1"],
)


GOOD_PAIRS = [
    [{"a": "-2", "b": "1", "c": "1"}, {"a": "0", "b": "1", "c": "0"}],
    [{"a": "-3", "b": "1", "c": "1"}, {"a": "-1", "b": "1", "c": "0"}],
]
# Inputs that reach each exit of ``cli.load_config`` and its modulus reader past the
# shipped configs, by name: all but one are errors.  ``classify`` runs on each.
LOADER_INPUTS = {
    "invalid_json": '{"field": "rational", "pairs": [',
    "nested_json": "[" * 100_000 + "]" * 100_000,
    "non_object": json.dumps([GOOD_PAIRS]),
    "bad_field_tag": json.dumps({"field": "complex", "pairs": GOOD_PAIRS}),
    "long_modulus": json.dumps({"field": {"prime": "1" + "0" * 40}, "pairs": GOOD_PAIRS}),
    "non_prime_modulus": json.dumps({"field": {"prime": 15}, "pairs": GOOD_PAIRS}),
    "float_modulus": json.dumps({"field": {"prime": 7.0}, "pairs": GOOD_PAIRS}),
    "string_modulus": json.dumps({"field": {"prime": "0011"}, "pairs": GOOD_PAIRS}),  # exit 0
    "three_pairs": json.dumps({"field": "rational", "pairs": GOOD_PAIRS * 3}),
    "one_line_pair": json.dumps({"field": "rational", "pairs": [GOOD_PAIRS[0], GOOD_PAIRS[1][:1]]}),
    "missing_key": json.dumps(
        {"field": "rational", "pairs": [GOOD_PAIRS[0], [{"a": "1", "b": "1"}, GOOD_PAIRS[1][1]]]}
    ),
    "bad_literal": json.dumps(
        {"field": {"prime": 7}, "pairs": [GOOD_PAIRS[0], [{"a": "1/2", "b": "1", "c": "0"}] * 2]}
    ),
    "zero_normal": json.dumps(
        {"field": "rational", "pairs": [GOOD_PAIRS[0], [{"a": "0", "b": "0", "c": "1"}] * 2]}
    ),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(label: str, argv: list, svg: str) -> str:
    """One call as a line: label, exit code, digests of stdout, stderr and the SVG."""
    if os.path.exists(svg):
        os.remove(svg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    svg_digest = "-"
    if os.path.exists(svg):
        with open(svg, "rb") as fh:
            svg_digest = _digest(fh.read())
    streams = [_digest(stream.getvalue().encode()) for stream in (out, err)]
    return " ".join([label, str(code), *streams, svg_digest])


def _argv(command, path, svg) -> list:
    """The argv of a command of COMMANDS on the input at path; ``render`` writes svg."""
    argv = [command[0], "--input", path, *command[1:]]
    return argv + ["--out", svg] if command[0] == "render" else argv


def calls(seeds, work):
    """(label, argv, svg path) of every call, configs first."""
    directory = os.path.join(work, "configs")
    os.makedirs(directory, exist_ok=True)
    svg = os.path.join(directory, "render.svg")
    for source in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        name = os.path.basename(source)
        path = os.path.join(directory, name)  # the same path in every checkout
        shutil.copyfile(source, path)
        for command in COMMANDS:
            yield f"configs/{name}:{'_'.join(command)}", _argv(command, path, svg), svg
    for name, text in LOADER_INPUTS.items():
        path = os.path.join(directory, f"loader_{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        yield f"loader/{name}:classify", ["classify", "--input", path], svg
    path = os.path.join(directory, "unread.json")
    for command in USAGE_COMMANDS:
        yield f"usage:{'_'.join(command)}", _argv(command, path, svg), svg
    for seed in seeds:
        for workload in WORKLOADS:
            directory = os.path.join(work, f"{workload}-{seed}")
            svg = os.path.join(directory, "render.svg")  # where Op.argv sends render
            for index in range(2):
                cases, ops = make_round(workload, seed, index)
                write_cases(cases, directory)
                for k, op in enumerate(ops):
                    label = f"{workload}:{seed}:{index}:{k}:{op.case.name}:{op.command}"
                    yield label, op.argv(directory), svg


def main_digests(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[5, 9])
    parser.add_argument(
        "--work",
        default=os.path.join(tempfile.gettempdir(), "quadriline-digests"),
        help="input and SVG directory, the same for both checkouts",
    )
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    for label, call_argv, svg in calls(args.seeds, args.work):
        print(run(label, call_argv, svg), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
