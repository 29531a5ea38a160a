"""Standalone SVG figures: the four lines, sampled rectangles, dotted locus.

Geometry stays exact until the final coordinate formatting; SVG path data is
the one place decimal expansions (12 significant digits) are allowed.  The
locus conic is swept in integers: each point is one correctly rounded
division X / D of exact integer forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import hypot, isfinite

from . import hpoly
from .configuration import InputLine, covector, cross
from .errors import ParallelPairError, PreconditionError
from .locus import centers_paths, diagonal_g, gauss_newton_line
from .paths import eval_path, ratio_samples, slope_path_polys
from .scalars import QQ


def _fmt(v) -> str:
    v = float(v)
    if not isfinite(v):
        raise OverflowError("an SVG number is not finite")
    return f"{v:.12g}"


class _Canvas:
    def __init__(self):
        self.min_x = self.max_x = self.min_y = self.max_y = None
        self.elements = []

    def require(self, x, y):
        x, y = float(x), float(y)
        if self.min_x is None:
            self.min_x = self.max_x = x
            self.min_y = self.max_y = y
        else:
            self.min_x, self.max_x = min(self.min_x, x), max(self.max_x, x)
            self.min_y, self.max_y = min(self.min_y, y), max(self.max_y, y)

    def bbox(self, margin=0.10):
        if self.min_x is None:
            return (-1.0, -1.0, 2.0, 2.0)
        w = self.max_x - self.min_x or 1.0
        h = self.max_y - self.min_y or 1.0
        return (
            self.min_x - margin * w,
            self.min_y - margin * h,
            w * (1 + 2 * margin),
            h * (1 + 2 * margin),
        )


def _clip_line(line: InputLine, box):
    """Float endpoints of the segment of the exact line inside the box, or None.

    The meets with the sides x = x0, x1 and y = y0, y1 of the float box are
    exact cross products of integer covectors; duplicates (a meet at a corner)
    are dropped and the first two points kept in side order, so the endpoints
    do not depend on the scale of the line's (a, b, c).
    """
    x0, y0, w, h = box
    u = covector(QQ, line)
    sides = [(d, 0, -n) for n, d in map(float.as_integer_ratio, (x0, x0 + w))]
    sides += [(0, d, -n) for n, d in map(float.as_integer_ratio, (y0, y0 + h))]
    pts = [(Fraction(X, Z), Fraction(Y, Z)) for X, Y, Z in (cross(u, s) for s in sides) if Z]
    x0, y0, x1, y1 = Fraction(x0), Fraction(y0), Fraction(x0 + w), Fraction(y0 + h)
    inside = list(dict.fromkeys(pt for pt in pts if x0 <= pt[0] <= x1 and y0 <= pt[1] <= y1))
    if len(inside) < 2:
        return None
    return [(float(x), float(y)) for x, y in inside[:2]]


def _swept_centers(center_map, plane_map):
    """The locus center at the ratios j/32 for |j| <= 512, then 1/0, as a float point in
    original coordinates, or None where the center map is undefined.

    The plane map's matrix N takes the center map's int forms (x_num, y_num, den) to
    three int forms (X, Y, D), tabulated at (j : 32) by forward differences and read at
    (1 : 0) off their first coefficients; the point is (X / D, Y / D).
    """
    cm = center_map
    forms = [
        hpoly.add(hpoly.add(hpoly.scale(n0, cm.x_num), hpoly.scale(n1, cm.y_num)), hpoly.scale(n2, cm.den))
        for n0, n1, n2 in plane_map.matrix
    ]
    columns = [hpoly.tabulate(f, 1025, -512, 32) for f in forms]
    points = []
    for x, y, d in [*zip(*columns), tuple(f[0] for f in forms)]:
        if not d:
            points.append(None)
            continue
        if d < 0:  # as in a Fraction, so that a zero coordinate is 0.0, never -0.0
            x, y, d = -x, -y, -d
        points.append((x / d, y / d))  # int / int rounds correctly, as float(Fraction) does
    return points


def _polyline(points, style):
    coords = " ".join([f"{float(x):.12g},{float(-y):.12g}" for x, y in points])
    if "n" in coords:  # "inf" or "nan": no finite number prints an "n"
        raise OverflowError("an SVG number is not finite")
    return f'<polyline fill="none" points="{coords}" {style}/>'


def render(cfg_input, cfg, plane_map, out_path, samples=12, diagonals=False):
    """Write an SVG of the configuration in its original coordinates.  A number
    past the float range raises OverflowError before the file is opened."""
    if cfg.field != QQ:
        raise PreconditionError("rendering requires the rational field")
    canvas = _Canvas()
    original_lines = list(cfg_input.all_lines())

    # Anchor the viewport on the pairwise intersections of the input lines.
    for i in range(4):
        for j in range(i + 1, 4):
            pt = original_lines[i].intersection(original_lines[j])
            if pt is not None:
                canvas.require(pt[0], pt[1])

    rect_polys = []
    collected = 0
    pp = slope_path_polys(cfg)
    for st in ratio_samples(cfg.field, samples * 3 + 8):
        if collected >= samples:
            break
        rect = eval_path(cfg, pp, st)
        if rect.at_infinity:
            continue
        quad = [plane_map.original_point(*rect.key[i : i + 2], rect.key[8]) for i in range(0, 8, 2)]
        for x, y in quad:
            canvas.require(x, y)
        rect_polys.append(quad)
        collected += 1

    report = centers_paths(cfg)
    locus_lines = []
    for desc in (report.slope_centers, report.aspect_centers, report.single_line):
        if desc is not None:
            locus_lines.append(plane_map.original_line(desc))
    locus_points = []
    if report.point is not None:
        locus_points.append(plane_map.original_point(*report.point, 1))
        canvas.require(*locus_points[0])
    conic_branches = []
    if report.conic is not None and report.center_map is not None:
        # Keep the viewport anchored on the lines and rectangles; clip the
        # locus sweep to a slightly larger window instead of letting far
        # hyperbola branches blow up the drawing.
        x0, y0, w0, h0 = canvas.bbox(margin=0.5)
        window = (x0, y0, x0 + w0, y0 + h0)
        branch = []
        prev = None
        for fpt in _swept_centers(report.center_map, plane_map):
            inside = (
                fpt is not None
                and window[0] <= fpt[0] <= window[2]
                and window[1] <= fpt[1] <= window[3]
            )
            if not inside:
                prev = None
                if branch:
                    conic_branches.append(branch)
                    branch = []
                continue
            if prev is not None and hypot(fpt[0] - prev[0], fpt[1] - prev[1]) > hypot(w0, h0) / 2:
                if branch:
                    conic_branches.append(branch)
                branch = []
            branch.append(fpt)
            prev = fpt
        if branch:
            conic_branches.append(branch)
        for branch in conic_branches:
            xs, ys = zip(*branch)
            canvas.require(min(xs), min(ys))
            canvas.require(max(xs), max(ys))

    diagonal_lines = []
    if diagonals:
        # E joins A∩B and C∩D (it is zero when A = B), F joins A∩D and B∩C.
        e = cross(cfg.corner("A", "B"), cfg.corner("C", "D"))
        if any(e):
            diagonal_lines.append(plane_map.original_line(InputLine(e[0], e[1], -e[2])))
        for builder in (gauss_newton_line, diagonal_g):
            try:
                desc = builder(cfg)
            except ParallelPairError:
                continue
            diagonal_lines.append(plane_map.original_line(desc))
        p_ad = cfg.corner("A", "D")
        if p_ad[2]:  # then F != 0: B∩C = A∩D would make the four lines concurrent
            f = cross(p_ad, cfg.corner("B", "C"))
            diagonal_lines.append(plane_map.original_line(InputLine(f[0], f[1], -f[2])))

    box = canvas.bbox()
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(box[0])} {_fmt(-(box[1] + box[3]))} {_fmt(box[2])} {_fmt(box[3])}" '
        f'width="640" height="640">',
        f'<rect x="{_fmt(box[0])}" y="{_fmt(-(box[1] + box[3]))}" '
        f'width="{_fmt(box[2])}" height="{_fmt(box[3])}" fill="white"/>',
    ]
    stroke_w = _fmt(box[2] / 320)
    dotted = f'stroke="#444444" stroke-width="{stroke_w}" stroke-dasharray="{_fmt(box[2] / 80)},{_fmt(box[2] / 80)}"'
    solid = f'stroke="#000000" stroke-width="{stroke_w}"'
    thin = f'stroke="#3b6ea5" stroke-width="{_fmt(box[2] / 640)}"'
    dashed = f'stroke="#999999" stroke-width="{_fmt(box[2] / 640)}" stroke-dasharray="{_fmt(box[2] / 40)},{_fmt(box[2] / 160)}"'

    for ln in original_lines:
        seg = _clip_line(ln, box)
        if seg:
            parts.append(_polyline(seg, solid))
    for ln in diagonal_lines:
        seg = _clip_line(ln, box)
        if seg:
            parts.append(_polyline(seg, dashed))
    for quad in rect_polys:
        pts = list(quad) + [quad[0]]
        parts.append(_polyline(pts, thin))
    for ln in locus_lines:
        seg = _clip_line(ln, box)
        if seg:
            parts.append(_polyline(seg, dotted))
    for branch in conic_branches:
        if len(branch) >= 2:
            parts.append(_polyline(branch, dotted))
    for x, y in locus_points:
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(-y)}" r="{_fmt(box[2] / 160)}" fill="#444444"/>'
        )
    parts.append("</svg>")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
