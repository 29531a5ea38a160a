"""The public surface: the README library example, the exported names, and no
module-level definition, class member or import in the package that nothing uses."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import quadriline
from quadriline import QQ, Ratio

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quadriline"

API = [
    "ConfigurationInput",
    "InputLine",
    "NormalizedConfig",
    "PlaneMap",
    "classify",
    "normalize",
    "QQ",
    "PrimeField",
    "Ratio",
    "slope_path_eval",
    "aspect_path_eval",
    "slope_of",
    "aspect_of",
    "homography",
    "center_of",
    "all_parallel_analysis",
    "verify_against_paths",
    "QuadrilineError",
]

# The value each commented expression of the README library block stands for.
LIBRARY_VALUES = {
    "rect.affine_vertices()": {
        "A": (Ratio(QQ, -1, 3), Ratio(QQ, 1, 3)),
        "B": (Ratio(QQ, -1, 3), Ratio(QQ, 0, 1)),
        "C": (Ratio(QQ, 1, 3), Ratio(QQ, 0, 1)),
        "D": (Ratio(QQ, 1, 3), Ratio(QQ, 1, 3)),
    },
    "q.aspect_of(rect)": Ratio(QQ, -1, 2),
    "q.center_of(rect)": (Ratio(QQ, 0, 1), Ratio(QQ, 1, 6)),
    "q.classify(cfg).degenerate": False,
    "q.homography(cfg).slope_to_aspect(q.Ratio(q.QQ, 1, 0))": Ratio(QQ, -1, 2),
    "report.union_covered": True,
}


def library_block():
    """The Python block under the README's "Library" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_runs_as_commented():
    block = library_block()
    namespace = {}
    values = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(block, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values == LIBRARY_VALUES


def exported_names():
    """The public names of the package that are not its submodules."""
    return {
        name
        for name, value in vars(quadriline).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }


def test_exports_are_the_documented_api():
    assert exported_names() == set(API)


def package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def names_read(trees):
    """Every name, attribute and imported name that the given trees mention."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_definition_is_used_or_exported():
    """A module-level function or class is referenced in another place in the
    package, or it is part of the documented API."""
    trees = package_trees()
    used = names_read(tree for name, tree in trees.items() if name != "__init__.py")
    unused = [
        f"{name}: {node.name}"
        for name, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used
        and node.name not in exported_names()
    ]
    assert unused == []


def test_every_module_import_is_used():
    """A name a module imports at module level is used in that module (the package's
    ``__init__`` re-exports, so it is left out)."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []


# Members that nothing in the package or the README library block reads, kept
# as the reference a test checks the package against.
ORACLES = {
    "PlaneMap.normalized_line": "the forward map that tests check original_line against",
    "PathHomography.aspect_to_slope": "the inverse map that acceptance criterion 2 reads",
}


def attributes_loaded(trees):
    """Every member read as ``x.member`` in the given trees.  A bare name, a store
    (``self.member = ...``) and an option of the CLI's argparse namespace
    (``args.member``) are not reads of a class member, so they do not count."""
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id == "args")
    }


def test_every_member_is_read():
    """A method or property of a package class is read as an attribute somewhere
    in the package or in the README library block (:func:`attributes_loaded`).
    Dunders, overrides of a base-class method and the ORACLES are exempt;
    dataclass and NamedTuple fields are not methods, and reports print them
    through ``vars``."""
    trees = package_trees()
    used = attributes_loaded([*trees.values(), ast.parse(library_block())])
    unread = []
    for name, tree in sorted(trees.items()):
        module = importlib.import_module(f"quadriline.{name[:-3]}")
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = getattr(module, node.name).__mro__[1:]
            for member in node.body:
                if not isinstance(member, ast.FunctionDef) or member.name in used:
                    continue
                qualified = f"{node.name}.{member.name}"
                if (
                    not member.name.startswith("__")
                    and not any(hasattr(base, member.name) for base in bases)
                    and qualified not in ORACLES
                ):
                    unread.append(f"{name}: {qualified}")
    assert unread == [], unread


def modules_loaded_by_cli_import(names) -> tuple:
    """(exit code, stdout, stderr) of a fresh interpreter (``-S``: no site hooks)
    that imports the CLI and prints which of the given modules it has loaded."""
    code = f"import sys, quadriline.cli; print(sorted({set(names)!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    return run.returncode, run.stdout, run.stderr


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """No class of the package is generated at import."""
    assert modules_loaded_by_cli_import({"dataclasses", "inspect"}) == (0, "[]\n", "")


def test_cli_import_loads_no_fractions():
    """No value of the package is a Fraction, so the CLI loads neither ``fractions``
    nor the ``decimal`` and ``numbers`` that it imports."""
    assert modules_loaded_by_cli_import({"fractions", "decimal", "numbers"}) == (0, "[]\n", "")
