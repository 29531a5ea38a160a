"""Standalone SVG figures: the four lines, sampled rectangles, dotted locus.

Geometry stays exact until the final coordinate formatting; SVG path data is
the one place decimal expansions (12 significant digits) are allowed.  The
locus conic is swept in integers: each point is one correctly rounded
division X / D of exact integer forms.
"""

from __future__ import annotations

from . import hpoly
from .configuration import InputLine
from .errors import ParallelPairError, PreconditionError
from .locus import centers_paths, diagonal_g, gauss_newton_line
from .paths import eval_path, ratio_samples, slope_path_polys
from .scalars import QQ

# The conic sweep visits the ratios j/32 for |j| <= 512, then 1/0.
_SWEEP = [(j, 32) for j in range(-512, 513)] + [(1, 0)]


def _fmt(v) -> str:
    return f"{float(v):.12g}"


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


def _clip_line(a, b, c, box):
    """Endpoints of the segment of a x + b y = c inside the box, or None."""
    x0, y0, w, h = box
    x1, y1 = x0 + w, y0 + h
    pts = []

    def keep(x, y):
        eps = 1e-9 * (1 + abs(x1) + abs(y1))
        if x0 - eps <= x <= x1 + eps and y0 - eps <= y <= y1 + eps:
            pts.append((x, y))

    if b:
        keep(x0, (c - a * x0) / b)
        keep(x1, (c - a * x1) / b)
    if a:
        keep((c - b * y0) / a, y0)
        keep((c - b * y1) / a, y1)
    best = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2
            if best is None or d > best[0]:
                best = (d, pts[i], pts[j])
    if best is None or best[0] == 0:
        return None
    return best[1], best[2]


def _swept_centers(center_map, plane_map):
    """The locus center at each ratio of ``_SWEEP`` as a float point in
    original coordinates, or None where the center map is undefined.

    The plane map's matrix N takes the center map's forms (x_num, y_num, den)
    to three forms at once; a common factor then clears every denominator,
    leaving integer forms (X, Y, D) and the point (X / D, Y / D).
    """
    cm = center_map
    forms = [
        hpoly.add(hpoly.add(hpoly.scale(n0, cm.x_num), hpoly.scale(n1, cm.y_num)), hpoly.scale(n2, cm.den))
        for n0, n1, n2 in plane_map.matrix
    ]
    forms = hpoly.integer_forms(QQ, forms)
    points = []
    for s, t in _SWEEP:
        x, y, d = (hpoly.eval_at(f, s, t) for f in forms)
        if not d:
            points.append(None)
            continue
        if d < 0:  # as in a Fraction, so that a zero coordinate is 0.0, never -0.0
            x, y, d = -x, -y, -d
        points.append((x / d, y / d))  # int / int rounds correctly, as float(Fraction) does
    return points


def _polyline(points, style):
    coords = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in points)
    return f'<polyline fill="none" points="{coords}" {style}/>'


def render(cfg_input, cfg, plane_map, out_path, samples=12, diagonals=False):
    """Write an SVG of the configuration in its original coordinates."""
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
    for r in ratio_samples(cfg.field, samples * 3 + 8):
        if collected >= samples:
            break
        rect = eval_path(cfg, pp, r)
        if rect.at_infinity:
            continue
        quad = plane_map.original_points(rect.key)[:4]
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
            if prev is not None:
                jump = (fpt[0] - prev[0]) ** 2 + (fpt[1] - prev[1]) ** 2
                if jump > (w0 * w0 + h0 * h0) / 4:
                    if branch:
                        conic_branches.append(branch)
                    branch = []
            branch.append(fpt)
            prev = fpt
            canvas.require(*fpt)
        if branch:
            conic_branches.append(branch)

    diagonal_lines = []
    if diagonals:
        if cfg.e1 or cfg.e2:
            diagonal_lines.append(
                plane_map.original_line(InputLine(cfg.e1, -cfg.e2, cfg.field.zero()))
            )
        for builder in (gauss_newton_line, diagonal_g):
            try:
                desc = builder(cfg)
            except ParallelPairError:
                continue
            diagonal_lines.append(plane_map.original_line(desc))
        if cfg.f1 or cfg.f2:
            p_ad = cfg.corner("A", "D")
            if p_ad is not None:
                c = cfg.f1 * p_ad[0] - cfg.f2 * p_ad[1]
                diagonal_lines.append(plane_map.original_line(InputLine(cfg.f1, -cfg.f2, c)))

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
        seg = _clip_line(float(ln.a), float(ln.b), float(ln.c), box)
        if seg:
            parts.append(_polyline(seg, solid))
    for ln in diagonal_lines:
        seg = _clip_line(float(ln.a), float(ln.b), float(ln.c), box)
        if seg:
            parts.append(_polyline(seg, dashed))
    for quad in rect_polys:
        pts = list(quad) + [quad[0]]
        parts.append(_polyline(pts, thin))
    for ln in locus_lines:
        seg = _clip_line(float(ln.a), float(ln.b), float(ln.c), box)
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
