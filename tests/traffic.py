"""The statements of quadriline that no CLI call of tests/cli_digests.py executes.

    python tests/traffic.py [--seeds 5 9] [--work DIR]

Runs every call of ``cli_digests.calls(seeds, work)`` (imported, not copied)
in-process under the standard ``trace`` module, then prints, for each module
of ``src/quadriline``, the statements inside function bodies that no call
executed, one per line as ``module:line: text``, and last a count per module.
Module-level statements and class-body declarations run at import and are
left out; so are docstrings, which run never.  A statement counts as executed
when any line of it ran (for a compound statement, any line of its header).

A member whose every statement is listed is code that the CLI never reaches;
whether a test still needs it is for ``tests/test_surface.py`` to say.  Not
collected by pytest (it is not a ``test_*.py`` file); standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tempfile
import trace

from cli_digests import ROOT, calls, run

PACKAGE = os.path.join(ROOT, "src", "quadriline")


def _header_end(node: ast.stmt) -> int:
    """The last line of a statement, or of its header when it holds a body."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return max(node.lineno, body[0].lineno - 1)
    return node.end_lineno


def function_statements(tree: ast.Module) -> list:
    """(first line, last line) of every statement inside a function body, docstrings left out."""
    spans = []

    def visit(statements, in_function):
        for i, node in enumerate(statements):
            docstring = (
                i == 0
                and isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            )
            if in_function and not docstring:
                spans.append((node.lineno, _header_end(node)))
            inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner)
            for case in getattr(node, "cases", []):
                visit(case.body, inner)

    visit(tree.body, False)
    return spans


def unexecuted(counts) -> dict:
    """For each module file name, the (line, text) of every statement that did not run."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        ran = {line for (filename, line) in counts if filename == path}
        out[name] = [
            (first, lines[first - 1].strip())
            for first, last in function_statements(ast.parse(source))
            if not ran.intersection(range(first, last + 1))
        ]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[5, 9])
    parser.add_argument(
        "--work",
        default=os.path.join(tempfile.gettempdir(), "quadriline-traffic"),
        help="input and SVG directory",
    )
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])

    def run_all():
        return [run(*call) for call in calls(args.seeds, args.work)]

    total = len(tracer.runfunc(run_all))
    missed = unexecuted(tracer.results().counts)
    for name, statements in missed.items():
        for line, text in statements:
            print(f"{name}:{line}: {text}")
    counts = ", ".join(f"{name} {len(statements)}" for name, statements in missed.items())
    print(f"# {total} calls; statements not executed: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
