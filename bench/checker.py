"""Independent checker of quadriline CLI output.

Uses only ``Fraction`` and ``int`` mod p and never imports ``quadriline``, so
a bug in the program cannot hide in a shared helper.  ``check(op, code, out,
err)`` returns a list of problems (empty when the output is right).  Checks
of later commands on a configuration use what earlier ones reported (the
classify plane map, the path centers); that state lives on ``op.case.state``.

What is checked:

* every op: the exit code is the expected one; exit 0 prints one JSON
  document and nothing on stderr, exit 2 prints nothing on stdout and a
  one-line ``error:`` message.
* classify: the e/f constants follow from the reported m's and b_A;
  ``degenerate`` iff e1*f1 + e2*f2 = 0; the at-infinity slopes and aspects
  are all the distinct roots of the forms built from the reported m's; the
  plane map carries each input line onto its standing-form line; similarity
  images keep the class of their standing form; all-parallel inputs report
  the midline verdict computed from the input.
* rect, path and the special rectangles of locus: the projective point is a
  parallelogram and a rectangle on the standing-form lines with the reported
  slope and aspect; affine vertices lie on the input lines in the reported
  sequence, form a rectangle, map onto the projective point through the
  plane map, and the center is the midpoint of the first and third vertex;
  requested and sampled ratios are the reported slope or aspect.
* locus: the reported conic, lines or point vanish at the path centers
  mapped through the plane map; the shape matches classify.
* census: every ok flag holds, ``failures`` is empty, the ``by_slope`` and
  ``by_aspect`` counts sum to ``total``, and ``quadric_points == total``.
* render: the output file is an SVG document with at least one polyline.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

from workloads import IMAGE_CLASSES

ROLES = ("A", "B", "C", "D")


class Arith:
    """Exact scalars: ``Fraction`` over Q, plain ``int`` reduced mod p."""

    def __init__(self, p=None):
        self.p = p

    def parse(self, text):
        return int(text) % self.p if self.p else Fraction(text)

    def zero(self, x) -> bool:
        return x % self.p == 0 if self.p else x == 0

    def eq(self, x, y) -> bool:
        return self.zero(x - y)

    def div(self, x, y):
        if self.zero(y):
            raise ZeroDivisionError("division by zero")
        return x * pow(y, -1, self.p) % self.p if self.p else x / y

    def is_square(self, x) -> bool:
        if self.p:
            return x % self.p == 0 or pow(x, (self.p - 1) // 2, self.p) == 1
        if x < 0:
            return False
        return all(math.isqrt(n) ** 2 == n for n in (x.numerator, x.denominator))

    def ratio(self, text):
        """A reported ratio as a projective pair; None for 'indeterminate'."""
        if text == "indeterminate":
            return None
        if text == "1/0":
            return (1, 0)
        return (self.parse(text), 1)

    def same_ratio(self, r1, r2) -> bool:
        return self.zero(r1[0] * r2[1] - r1[1] * r2[0])


def _input_lines(ar, doc):
    """Input lines keyed by file label: pairs[0] = (A, C), pairs[1] = (B, D)."""
    (a, c), (b, d) = doc["pairs"]
    return {
        label: tuple(ar.parse(entry[k]) for k in "abc")
        for label, entry in (("A", a), ("C", c), ("B", b), ("D", d))
    }


def _arg_ratio(ar, text):
    s, t = text.split("=", 1)[1].split("/")
    return (ar.parse(s), ar.parse(t))


# --- the plane map and the standing form ------------------------------------


class PlaneMap:
    """Translate, reflect about y = t x when t is set, then scale."""

    def __init__(self, ar, rep):
        self.ar = ar
        self.role_to_input = rep["role_to_input"]
        self.tx, self.ty = (ar.parse(v) for v in rep["translation"])
        t = rep["reflection_t"]
        self.t = None if t is None else ar.parse(t)
        self.scale = ar.parse(rep["scale"])

    def line(self, a, b, c):
        c = c + a * self.tx + b * self.ty
        t = self.t
        if t is not None:
            a, b = (1 - t * t) * a + 2 * t * b, 2 * t * a + (t * t - 1) * b
            c = (1 + t * t) * c
        return a, b, self.scale * c

    def point(self, x, y):
        x, y = x + self.tx, y + self.ty
        t = self.t
        if t is not None:
            d = 1 + t * t
            x, y = (
                self.ar.div((1 - t * t) * x + 2 * t * y, d),
                self.ar.div(2 * t * x + (t * t - 1) * y, d),
            )
        return self.scale * x, self.scale * y


def _standing(ar, normalized):
    """Standing-form (slope, intercept) per role from a classify report."""
    m = {r: ar.parse(normalized["m_" + r]) for r in ROLES}
    k = {"A": ar.parse(normalized["b_A"]), "B": 1, "C": 0, "D": 0}
    return {r: (m[r], k[r]) for r in ROLES}


def _form_roots_ok(ar, form, reported, what):
    """Reported ratios are exactly the distinct roots of c0 S^2 + c1 S T + c2 T^2."""
    c0, c1, c2 = form
    if reported == "all":
        ok = ar.zero(c0) and ar.zero(c1) and ar.zero(c2)
        return [] if ok else [f"{what}: 'all' but the form is nonzero"]
    if ar.zero(c0) and ar.zero(c1) and ar.zero(c2):
        return [f"{what}: the form vanishes but 'all' was not reported"]
    if not ar.zero(c0):
        disc = c1 * c1 - 4 * c0 * c2
        expected = 1 if ar.zero(disc) else (2 if ar.is_square(disc) else 0)
    else:
        expected = 2 if not ar.zero(c1) else 1
    problems = []
    ratios = [ar.ratio(text) for text in reported]
    if len(ratios) != expected:
        problems.append(f"{what}: {len(ratios)} roots reported, {expected} exist")
    for i, (s, t) in enumerate(ratios):
        if not ar.zero(c0 * s * s + c1 * s * t + c2 * t * t):
            problems.append(f"{what}: {reported[i]} is not a root")
        if any(ar.same_ratio((s, t), ratios[j]) for j in range(i)):
            problems.append(f"{what}: {reported[i]} repeated")
    return problems


def _check_classify(ar, op, rep):
    case = op.case
    lines = _input_lines(ar, case.doc)
    if case.kind == "all-parallel" or "all_parallel" in rep:
        return _check_all_parallel(ar, case, lines, rep.get("all_parallel"))
    problems = []
    std = _standing(ar, rep["normalized"])
    (m_a, b_a), (m_b, _), (m_c, _), (m_d, _) = (std[r] for r in ROLES)
    e1, e2, f1, f2 = (ar.parse(rep["constants"][k]) for k in ("e1", "e2", "f1", "f2"))
    expected = (
        b_a * m_b - m_a,
        b_a - 1,
        b_a * (m_b - m_c) * m_d + (m_d - m_a) * m_c,
        (m_d - m_a) + b_a * (m_b - m_c),
    )
    if not all(ar.eq(x, y) for x, y in zip((e1, e2, f1, f2), expected)):
        problems.append("classify: e/f constants do not follow from the normalized slopes")
    cls = rep["class"]
    if cls["degenerate"] != ar.zero(e1 * f1 + e2 * f2):
        problems.append("classify: degenerate flag disagrees with e1*f1 + e2*f2")
    lead = m_a * m_c - m_b * m_d
    beta = (m_a * m_c + 1) * (m_b + m_d) - (m_b * m_d + 1) * (m_a + m_c)
    problems += _form_roots_ok(ar, (lead, -beta, -lead), rep["at_infinity"]["slopes"], "slopes at infinity")
    gamma = (m_a * m_c - 1) * (m_b + m_d) - (m_b * m_d - 1) * (m_a + m_c)
    aspect_form = ((m_b - m_c) * (m_a - m_d), -gamma, (m_a - m_b) * (m_c - m_d))
    problems += _form_roots_ok(ar, aspect_form, rep["at_infinity"]["aspects"], "aspects at infinity")
    pm = PlaneMap(ar, rep["plane_map"])
    if sorted(pm.role_to_input) != list(ROLES) or sorted(pm.role_to_input.values()) != list(ROLES):
        problems.append("classify: role_to_input is not a relabelling")
        return problems
    for role in ROLES:
        a, b, c = pm.line(*lines[pm.role_to_input[role]])
        m, k = std[role]
        if ar.zero(b) or not ar.zero(a + m * b) or not ar.zero(c - k * b):
            problems.append(f"classify: plane map does not carry input line to standing line {role}")
    want = IMAGE_CLASSES.get(case.kind)
    if want and any(cls[key] != value for key, value in want.items()):
        problems.append(f"classify: {case.kind} image lost its class: {cls}")
    case.state.update(std=std, pm=pm, shape=cls["locus_shape"])
    return problems


def _check_all_parallel(ar, case, lines, rep):
    if case.kind != "all-parallel" or rep is None:
        return [f"{case.kind} input reported as all-parallel={rep is not None}"]
    ref = lines["A"]

    def offset(line):
        factor = ar.div(line[0], ref[0]) if not ar.zero(ref[0]) else ar.div(line[1], ref[1])
        return ar.div(line[2], factor)

    mid_ac = ar.div(offset(lines["A"]) + offset(lines["C"]), 2)
    mid_bd = ar.div(offset(lines["B"]) + offset(lines["D"]), 2)
    shared = ar.eq(mid_ac, mid_bd)
    if rep["midline_shared"] != shared:
        return [f"all-parallel: midline_shared={rep['midline_shared']}, input says {shared}"]
    if shared:
        a, b, c = (ar.parse(rep["midline"][k]) for k in "abc")
        if not (ar.zero(a * ref[1] - b * ref[0]) and ar.zero(c * ref[0] - a * mid_ac) and ar.zero(c * ref[1] - b * mid_ac)):
            return ["all-parallel: reported midline is not the shared midline"]
    elif rep["midline"] is not None:
        return ["all-parallel: midline reported without a shared midline"]
    return []


# --- rectangles ----------------------------------------------------------------


def _check_rectangle(ar, case, rep, what):
    """Check one rectangle report; returns (problems, center or None)."""
    problems = []
    coords = [ar.parse(v) for v in rep["projective"]]
    if len(coords) != 9 or all(ar.zero(c) for c in coords):
        return [f"{what}: projective point malformed"], None
    xa, ya, xb, yb, xc, yc, xd, yd, w = coords
    if rep["at_infinity"] != ar.zero(w):
        problems.append(f"{what}: at_infinity flag disagrees with w")
    if not (ar.eq(xa - xb, xd - xc) and ar.eq(ya - yb, yd - yc)):
        problems.append(f"{what}: not a parallelogram")
    if not ar.zero((xc - xb) * (xb - xa) + (yc - yb) * (yb - ya)):
        problems.append(f"{what}: not a rectangle")
    std = case.state.get("std")
    if std:
        for i, role in enumerate(ROLES):
            m, k = std[role]
            if not ar.eq(coords[2 * i + 1], m * coords[2 * i] + k * w):
                problems.append(f"{what}: vertex {role} is off its standing-form line")
    slope = ar.ratio(rep["slope"])
    slope_rows = ((xb - xa, -(yb - ya)), (yc - yb, xc - xb))
    aspect = ar.ratio(rep["aspect"])
    aspect_rows = ((xb - xc, -(ya - yb)), (yb - yc, xa - xb))
    for name, ratio, rows in (("slope", slope, slope_rows), ("aspect", aspect, aspect_rows)):
        if ratio is None:
            ok = all(ar.zero(x) for row in rows for x in row)
        else:
            ok = all(ar.zero(row[0] * ratio[0] + row[1] * ratio[1]) for row in rows)
        if not ok:
            problems.append(f"{what}: reported {name} {rep[name]} does not fit the rectangle")
    if rep["at_infinity"]:
        if rep["vertices"] is not None or rep["center"] is not None:
            problems.append(f"{what}: rectangle at infinity with affine vertices")
        return problems, None
    seq = rep["sequence"]
    if sorted(seq) != list(ROLES) or {seq[0], seq[2]} not in ({"A", "C"}, {"B", "D"}):
        return problems + [f"{what}: sequence {seq} breaks the pair structure"], None
    lines = _input_lines(ar, case.doc)
    pts = [tuple(ar.parse(v) for v in rep["vertices"][label]) for label in seq]
    for label, (x, y) in zip(seq, pts):
        a, b, c = lines[label]
        if not ar.eq(a * x + b * y, c):
            problems.append(f"{what}: vertex {label} is off input line {label}")
    p0, p1, p2, p3 = pts
    if not (ar.eq(p0[0] - p1[0], p3[0] - p2[0]) and ar.eq(p0[1] - p1[1], p3[1] - p2[1])):
        problems.append(f"{what}: affine vertices are not a parallelogram")
    if not ar.zero((p2[0] - p1[0]) * (p1[0] - p0[0]) + (p2[1] - p1[1]) * (p1[1] - p0[1])):
        problems.append(f"{what}: affine vertices are not a rectangle")
    center = tuple(ar.parse(v) for v in rep["center"])
    if not (ar.eq(2 * center[0], p0[0] + p2[0]) and ar.eq(2 * center[1], p0[1] + p2[1])):
        problems.append(f"{what}: center is not the midpoint of the diagonal")
    pm = case.state.get("pm")
    if pm:
        if [pm.role_to_input[r] for r in ROLES] != seq:
            problems.append(f"{what}: sequence disagrees with the classify plane map")
        for i, (x, y) in enumerate(pts):
            u, v = pm.point(x, y)
            if not (ar.eq(u * w, coords[2 * i]) and ar.eq(v * w, coords[2 * i + 1])):
                problems.append(f"{what}: vertex {seq[i]} does not map onto the projective point")
    return problems, center


def _check_rect(ar, op, rep):
    problems, _ = _check_rectangle(ar, op.case, rep, "rect")
    kind, _, _ = op.args[0].partition("=")
    name = kind.lstrip("-")
    got = ar.ratio(rep[name])
    if got is not None and not ar.same_ratio(got, _arg_ratio(ar, op.args[0])):
        problems.append(f"rect: asked {op.args[0]}, got {name} {rep[name]}")
    return problems


def _check_path(ar, op, rep):
    kind = op.args[op.args.index("--kind") + 1]
    samples = int(op.args[op.args.index("--samples") + 1])
    rects = rep["rectangles"]
    problems = []
    if rep["kind"] != kind:
        problems.append(f"path: kind {rep['kind']} != {kind}")
    if len(rects) != samples and not ar.p:
        problems.append(f"path: {len(rects)} samples, asked {samples}")
    centers = op.case.state.setdefault("centers", {})[kind] = []
    seen = []
    for i, rect in enumerate(rects):
        sub, center = _check_rectangle(ar, op.case, rect, f"path[{i}]")
        problems += sub
        ratio = ar.ratio(rect["ratio"])
        if any(ar.same_ratio(ratio, r) for r in seen):
            problems.append(f"path[{i}]: ratio {rect['ratio']} repeated")
        seen.append(ratio)
        got = ar.ratio(rect[kind])
        if got is not None and not ar.same_ratio(got, ratio):
            problems.append(f"path[{i}]: sampled {rect['ratio']}, rectangle has {kind} {rect[kind]}")
        if center is not None:
            centers.append(center)
    return problems


def _check_locus(ar, op, rep):
    case = op.case
    if case.kind == "all-parallel" or rep.get("shape") == "AllParallel":
        return _check_all_parallel(ar, case, _input_lines(ar, case.doc), rep if rep.get("shape") == "AllParallel" else None)
    problems = []
    if "shape" in case.state and rep["shape"] != case.state["shape"]:
        problems.append(f"locus: shape {rep['shape']} != classify {case.state['shape']}")
    want = IMAGE_CLASSES.get(case.kind)
    if want and rep["shape"] != want["locus_shape"]:
        problems.append(f"locus: {case.kind} image has shape {rep['shape']}")
    pm = case.state.get("pm")
    centers = case.state.get("centers", {})
    if pm is None or not centers:
        return problems + ["locus: no classify plane map or path centers to check against"]
    mapped = {kind: [pm.point(*c) for c in pts] for kind, pts in centers.items()}
    every = mapped.get("slope", []) + mapped.get("aspect", [])

    def on_line(desc, pts, name):
        a, b, c = (ar.parse(desc[k]) for k in "abc")
        if any(not ar.eq(a * x + b * y, c) for x, y in pts):
            problems.append(f"locus: a path center is off the {name} line")

    checked = False
    if rep["conic"] is not None:
        k = [ar.parse(v) for v in rep["conic"]]
        for x, y in every:
            if not ar.zero(k[0] * x * x + k[1] * x * y + k[2] * y * y + k[3] * x + k[4] * y + k[5]):
                problems.append("locus: a path center is off the conic")
                break
        checked = True
    for key, pts in (("single_line", every), ("slope_centers", mapped.get("slope", [])), ("aspect_centers", mapped.get("aspect", []))):
        if rep[key] is not None:
            on_line(rep[key], pts, key)
            checked = True
    if rep["point"] is not None:
        point = tuple(ar.parse(v) for v in rep["point"])
        if any(not (ar.eq(x, point[0]) and ar.eq(y, point[1])) for x, y in every):
            problems.append("locus: a path center differs from the reported point")
        checked = True
    if not checked:
        problems.append("locus: no conic, line or point reported")
    special = rep["special_rectangles"]
    if special is not None:
        for name in ("center", "centroid"):
            problems += _check_rectangle(ar, case, special[name], f"locus {name} rectangle")[0]
    return problems


def _check_census(ar, op, rep):
    problems = []
    if rep["p"] != op.case.prime:
        problems.append(f"census: p={rep['p']}, input has {op.case.prime}")
    for flag in ("union_covered", "at_infinity_bound_ok", "degenerate_consistency_ok"):
        if rep[flag] is not True:
            problems.append(f"census: {flag} is {rep[flag]}")
    if rep["failures"]:
        problems.append(f"census: failures {rep['failures'][:3]}")
    for key in ("by_slope", "by_aspect"):
        if sum(rep[key].values()) != rep["total"]:
            problems.append(f"census: {key} counts do not sum to total")
    if rep["quadric_points"] != rep["total"]:
        problems.append("census: quadric_points != total")
    return problems


_SVG = "{http://www.w3.org/2000/svg}"


def _check_render(ar, op, rep):
    try:
        root = ET.parse(rep["written"]).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"render: unreadable SVG: {exc}"]
    if not root.tag.endswith("svg") or next(root.iter(_SVG + "polyline"), None) is None:
        return ["render: output is not an SVG drawing with a polyline"]
    return []


_CHECKS = {
    "classify": _check_classify,
    "rect": _check_rect,
    "path": _check_path,
    "locus": _check_locus,
    "census": _check_census,
    "render": _check_render,
}


def check(op, code, out: str, err: str):
    """Problems with one op's exit code and output; empty when correct."""
    if code != op.exit:
        return [f"{op.command}: exit {code}, expected {op.exit}: {err.strip()[:200]}"]
    if code != 0:
        lines = err.splitlines()
        if out or len(lines) != 1 or not lines[0].startswith("error: "):
            return [f"{op.command}: exit {code} without a one-line error message"]
        return []
    if err:
        return [f"{op.command}: unexpected stderr: {err.strip()[:200]}"]
    try:
        rep = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"{op.command}: stdout is not JSON: {exc}"]
    ar = Arith(op.case.prime)
    try:
        return _CHECKS[op.command](ar, op, rep)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, IndexError) as exc:
        return [f"{op.command}: malformed report ({type(exc).__name__}: {exc})"]
