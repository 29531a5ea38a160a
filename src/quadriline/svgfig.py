"""Standalone SVG figures: the four lines, sampled rectangles, dotted locus.

Geometry stays exact until the final coordinate formatting; SVG path data is
the one place decimal expansions (12 significant digits) are allowed.  Lines
are int covectors and points int projective points (X : Y : Z) until then;
each drawn point is one correctly rounded division X / Z (:func:`_point`), the locus
conic is swept in integers the same way, and the clip is int sign tests: no ``Fraction``.
"""

from __future__ import annotations

from math import hypot, isfinite

from . import hpoly
from .configuration import covector, cross
from .errors import ParallelPairError, PreconditionError
from .locus import centers_paths, diagonal_g, gauss_newton_line
from .paths import eval_path, ratio_samples, slope_path_polys
from .scalars import QQ


def _fmt(v) -> str:
    if not isfinite(v):
        raise OverflowError("an SVG number is not finite")
    return "%.12g" % v


class _Canvas:
    def __init__(self):
        self.min_x = self.max_x = self.min_y = self.max_y = None
        self.elements = []

    def require(self, x, y):
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


def _point(x, y, z) -> tuple:
    """The float point (x / z, y / z) of the int point (x : y : z), z != 0: each coordinate
    one correctly rounded int division, as float(Fraction) rounds it.  The signs are
    flipped first so that z > 0, as in a Fraction, so a zero coordinate is 0.0, never -0.0."""
    if z < 0:
        x, y, z = -x, -y, -z
    return x / z, y / z


def _clip_line(u, box):
    """Float endpoints of the segment inside the box of the line with int covector u, or None.

    The meets (X : Y : Z), Z > 0, with the sides x = x0, x1 and y = y0, y1 of the
    float box are exact cross products of integer covectors, tested against the box
    by int cross-multiplications; duplicates (a meet at a corner) are dropped and the
    first two points kept in side order, so the endpoints do not depend on the scale of u.
    """
    x0, y0, w, h = box
    (n0, d0), (n1, d1), (m0, e0), (m1, e1) = map(float.as_integer_ratio, (x0, x0 + w, y0, y0 + h))
    inside = []
    for X, Y, Z in (cross(u, s) for s in ((d0, 0, -n0), (d1, 0, -n1), (0, e0, -m0), (0, e1, -m1))):
        X, Y, Z = (X, Y, Z) if Z > 0 else (-X, -Y, -Z)
        if (Z and n0 * Z <= X * d0 and X * d1 <= n1 * Z and m0 * Z <= Y * e0 and Y * e1 <= m1 * Z
                and not any(X * z == x * Z and Y * z == y * Z for x, y, z in inside)):
            inside.append((X, Y, Z))
    if len(inside) < 2:
        return None
    return [_point(*meet) for meet in inside[:2]]


def _swept_centers(center_map, plane_map):
    """The locus center at the ratios j/32 for |j| <= 512, then 1/0, as a float point in
    original coordinates, or None where the center map is undefined.

    The plane map's matrix N takes the center map's int forms (x_num, y_num, den) to
    three int forms (X, Y, D), tabulated at (j : 32) by forward differences and read at
    (1 : 0) off their first coefficients; the point is :func:`_point` of (X : Y : D).
    """
    cm = center_map
    forms = [
        hpoly.add(hpoly.add(hpoly.scale(n0, cm.x_num), hpoly.scale(n1, cm.y_num)), hpoly.scale(n2, cm.den))
        for n0, n1, n2 in plane_map.matrix
    ]
    columns = [hpoly.tabulate(f, 1025, -512, 32) for f in forms]
    points = [*zip(*columns), tuple(f[0] for f in forms)]
    return [_point(x, y, d) if d else None for x, y, d in points]


def _polyline(points, style):
    coords = " ".join(["%.12g,%.12g" % (x, -y) for x, y in points])
    if "n" in coords:  # "inf" or "nan": no finite number prints an "n"
        raise OverflowError("an SVG number is not finite")
    return f'<polyline fill="none" points="{coords}" {style}/>'


def render(cfg_input, cfg, plane_map, out_path, samples=12, diagonals=False):
    """Write an SVG of the configuration in its original coordinates.  A number
    past the float range raises OverflowError before the file is opened."""
    if cfg.field != QQ:
        raise PreconditionError("rendering requires the rational field")
    canvas = _Canvas()
    original_lines = [covector(QQ, line) for line in cfg_input.all_lines()]

    # Anchor the viewport on the pairwise intersections of the input lines.
    for i in range(4):
        for j in range(i + 1, 4):
            meet = cross(original_lines[i], original_lines[j])
            if meet[2]:
                canvas.require(*_point(*meet))

    rect_polys = []
    collected = 0
    pp = slope_path_polys(cfg)
    for st in ratio_samples(cfg.field, samples * 3 + 8):
        if collected >= samples:
            break
        rect = eval_path(cfg, pp, st)
        if rect.at_infinity:
            continue
        quad = plane_map.original([(*rect.key[i : i + 2], rect.key[8]) for i in range(0, 8, 2)])
        for vertex in quad:
            canvas.require(*_point(*vertex))
        rect_polys.append(quad)
        collected += 1

    report = centers_paths(cfg)
    locus_lines = [
        plane_map.original_line(desc.normal)
        for desc in (report.slope_centers, report.aspect_centers, report.single_line)
        if desc is not None
    ]
    locus_points = plane_map.original([report.point] if report.point is not None else [])
    for point in locus_points:
        canvas.require(*_point(*point))
    conic_branches = []
    if report.conic is not None and report.center_map is not None:
        # Keep the viewport anchored on the lines and rectangles; clip the
        # locus sweep to a slightly larger window instead of letting far
        # hyperbola branches blow up the drawing.
        x0, y0, w0, h0 = canvas.bbox(margin=0.5)
        window = (x0, y0, x0 + w0, y0 + h0)
        jump = hypot(w0, h0) / 2
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
            if prev is not None and hypot(fpt[0] - prev[0], fpt[1] - prev[1]) > jump:
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
            diagonal_lines.append(plane_map.original_line(e))
        for builder in (gauss_newton_line, diagonal_g):
            try:
                desc = builder(cfg)
            except ParallelPairError:
                continue
            diagonal_lines.append(plane_map.original_line(desc.normal))
        p_ad = cfg.corner("A", "D")
        if p_ad[2]:  # then F != 0: B∩C = A∩D would make the four lines concurrent
            diagonal_lines.append(plane_map.original_line(cross(p_ad, cfg.corner("B", "C"))))

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
        # _polyline prints -y: give it -((-Y) / W), so an exact zero prints 0, not -0.
        drawn = [(x, -y) for x, y in (_point(X, -Y, W) for X, Y, W in quad)]
        parts.append(_polyline(drawn + drawn[:1], thin))
    for ln in locus_lines:
        seg = _clip_line(ln, box)
        if seg:
            parts.append(_polyline(seg, dotted))
    for branch in conic_branches:
        if len(branch) >= 2:
            parts.append(_polyline(branch, dotted))
    for X, Y, W in locus_points:
        x, y = _point(X, -Y, W)  # the exact -Y / W, as for the rectangles
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(box[2] / 160)}" fill="#444444"/>'
        )
    parts.append("</svg>")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
