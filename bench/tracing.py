"""Spans around the calls into each quadriline module, recorded from outside.

``Tracer.install()`` replaces the public functions listed in ``SPANS`` with
timing wrappers in every quadriline module namespace that holds them (``cli``
and ``census`` import ``eval_path`` and friends by name, so patching only the
defining module would miss those calls); ``uninstall()`` puts the originals
back.  The program's source is not touched.

Each call records (id, parent id, op, name, start ns, end ns).  Ids are given
out when a call starts, so a parent's id is lower than its children's.  Spans
stay in memory in flat arrays until ``layer_metrics`` folds them into
per-layer counts and self times (a span's duration minus its direct
children's); ``write`` dumps them as TSV.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute path).  Two functions may share a span name.
SPANS = (
    ("cli.load_config", "cli", "load_config"),
    ("configuration.normalize", "configuration", "normalize"),
    ("configuration.classify", "configuration", "classify"),
    ("scalars.PrimeField.init", "scalars", "PrimeField.__init__"),
    ("scalars.PrimeField.sqrt", "scalars", "PrimeField.sqrt"),
    ("scalars.solve_quadratic", "scalars", "solve_quadratic"),
    ("hpoly.eval_at", "hpoly", "eval_at"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("rectangles.complete_parallelogram", "rectangles", "complete_parallelogram"),
    ("rectangles.is_rectangle", "rectangles", "is_rectangle"),
    ("rectangles.canonical", "rectangles", "ProjectiveRectangle.canonical"),
    ("rectangles.at_infinity", "rectangles", "slopes_at_infinity"),
    ("rectangles.at_infinity", "rectangles", "aspects_at_infinity"),
    ("paths.polys", "paths", "slope_path_polys"),
    ("paths.polys", "paths", "aspect_path_polys"),
    ("paths.eval_path", "paths", "eval_path"),
    ("locus.centers_paths", "locus", "centers_paths"),
    ("locus.special_rectangles", "locus", "special_rectangles"),
    ("census.enumerate", "census", "enumerate_rectangles"),
    ("census.verify", "census", "verify_against_paths"),
    ("census.quadric_count", "census", "quadric_point_count"),
    ("svgfig.render", "svgfig", "render"),
)
ROOT = "cli"  # the span around one whole cli.main call
NAMES = (ROOT,) + tuple(dict.fromkeys(name for name, _, _ in SPANS))


class Tracer:
    def __init__(self):
        self._index = {name: i for i, name in enumerate(NAMES)}
        self.ids, self.parents, self.ops, self.names = array("q"), array("q"), array("q"), array("B")
        self.starts, self.ends = array("q"), array("q")
        self._stack = [0]
        self._next = 1
        self.op = 0
        self._patched = []
        self.missing = []

    def wrap(self, name, fn):
        code = self._index[name]
        stack, clock = self._stack, time.perf_counter_ns
        ids, parents, ops, names, starts, ends = (
            self.ids, self.parents, self.ops, self.names, self.starts, self.ends
        )

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ids.append(sid)
                parents.append(parent)
                ops.append(self.op)
                names.append(code)
                starts.append(start)
                ends.append(end)

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key.startswith("quadriline")]
        self.missing = []
        for name, module, path in SPANS:
            owner = sys.modules.get("quadriline." + module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                self.missing.append(f"quadriline.{module}.{path}")
                continue
            if isinstance(raw, staticmethod):
                self._patch(owner, attr, staticmethod(self.wrap(name, raw.__func__)))
                continue
            wrapped = self.wrap(name, raw)
            if outer:  # a method: patch the class only
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def clear(self):
        for arr in (self.ids, self.parents, self.ops, self.names, self.starts, self.ends):
            del arr[:]
        self._next = 1

    def layer_metrics(self):
        """Per-layer calls and self time (ms) of the spans recorded since ``clear``.

        Also returns the parallelogram completions made inside a census
        enumeration and the path evaluations made inside ``centers_paths``.
        """
        n = len(self.ids)
        if sorted(self.ids) != list(range(1, n + 1)):
            raise RuntimeError("a traced call did not record its span")
        row = array("q", bytes(8 * (n + 1)))  # span id -> array index
        child_ns = array("q", bytes(8 * (n + 1)))
        for i, sid in enumerate(self.ids):
            row[sid] = i
            child_ns[self.parents[i]] += self.ends[i] - self.starts[i]
        enumerate_code = self._index["census.enumerate"]
        centers_code = self._index["locus.centers_paths"]
        inside = bytearray(n + 1)  # bit 1: under an enumeration, bit 2: under centers_paths
        calls, self_ns = Counter(), Counter()
        census_points = locus_samples = 0
        for sid in range(1, n + 1):  # parents come before their children
            i = row[sid]
            name = NAMES[self.names[i]]
            calls[name] += 1
            self_ns[name] += self.ends[i] - self.starts[i] - child_ns[sid]
            parent = self.parents[i]
            flags = inside[parent]
            if parent:
                parent_code = self.names[row[parent]]
                flags |= (parent_code == enumerate_code) | (parent_code == centers_code) << 1
            inside[sid] = flags
            if flags & 1 and name == "rectangles.complete_parallelogram":
                census_points += 1
            elif flags & 2 and name == "paths.eval_path":
                locus_samples += 1
        return calls, {k: v / 1e6 for k, v in self_ns.items()}, census_points, locus_samples

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.ids)):
                fh.write(
                    f"{self.ids[i]}\t{self.parents[i]}\t{self.ops[i]}\t{NAMES[self.names[i]]}\t"
                    f"{self.starts[i]}\t{self.ends[i]}\n"
                )
