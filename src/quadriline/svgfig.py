"""Standalone SVG figures: the four lines, sampled rectangles, dotted locus.

Geometry stays exact until the final coordinate formatting; SVG path data is
the one place decimal expansions (12 significant digits) are allowed.  Lines
are int covectors and points int projective points (X : Y : Z) until then.
Each drawn point becomes floats once, in the input frame, by one correctly
rounded division X / Z (:func:`_point`): the viewport anchors, the rectangle
vertices, the locus dot, the swept centers of the locus conic and the clip
endpoints.  The clip is int sign tests, and no ``Fraction`` is built.  The
viewport is the box of the points other than the clip endpoints (:func:`_bbox`).
The SVG's y axis points down, so every printed y is ``0.0 - y``: a zero y,
0.0 or -0.0, prints ``0``, never ``-0``.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import hypot, isfinite

from . import hpoly
from .configuration import covector, cross
from .errors import ParallelPairError, PreconditionError
from .locus import center_forms, centers_paths, diagonal_g, gauss_newton_line
from .paths import eval_path, ratio_samples, slope_path_polys
from .scalars import QQ


def _fmt(v) -> str:
    if not isfinite(v):
        raise OverflowError("an SVG number is not finite")
    return "%.12g" % v


def _point(x, y, z) -> tuple:
    """The float point (x / z, y / z) in the input frame of the int point (x : y : z),
    z != 0: each coordinate one correctly rounded int division, as float(Fraction)
    rounds it.  The signs are flipped first so that z > 0, as in a Fraction, so a zero
    coordinate is 0.0, never -0.0.  Every point ``render`` draws goes through here once."""
    if z < 0:
        x, y, z = -x, -y, -z
    return x / z, y / z


def _bbox(points, margin):
    """(x, y, width, height) of the box of the float points, grown by margin times its
    width and height on each side; a zero extent counts as 1, and no point gives the box
    of (-1, -1) and (1, 1)."""
    if not points:
        return (-1.0, -1.0, 2.0, 2.0)
    xs, ys = zip(*points)
    x0, y0 = min(xs), min(ys)
    w = max(xs) - x0 or 1.0
    h = max(ys) - y0 or 1.0
    return (x0 - margin * w, y0 - margin * h, w * (1 + 2 * margin), h * (1 + 2 * margin))


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


def _swept_centers(forms, plane_map):
    """The locus center at the ratios j/32 for |j| <= 512, then 1/0, as a float point in
    original coordinates, or None where the center map is undefined.

    The plane map's matrix N takes the int center forms (x_num, y_num, den) of the slope
    path (``locus.center_forms``) to three int forms (X, Y, D), tabulated at (j : 32) by
    forward differences and read at (1 : 0) off their first coefficients; the point is
    :func:`_point` of (X : Y : D).
    """
    x_num, y_num, den = forms
    images = [
        hpoly.add(hpoly.add(hpoly.scale(n0, x_num), hpoly.scale(n1, y_num)), hpoly.scale(n2, den))
        for n0, n1, n2 in plane_map.matrix
    ]
    columns = [hpoly.tabulate(f, 1025, -512, 32) for f in images]
    points = [*zip(*columns), tuple(f[0] for f in images)]
    return [_point(x, y, d) if d else None for x, y, d in points]


def _polyline(points, style):
    coords = " ".join(["%.12g,%.12g" % (x, 0.0 - y) for x, y in points])
    if "n" in coords:  # "inf" or "nan": no finite number prints an "n"
        raise OverflowError("an SVG number is not finite")
    return f'<polyline fill="none" points="{coords}" {style}/>'


def render(cfg_input, cfg, plane_map, out_path, samples=12, diagonals=False):
    """Write an SVG of the configuration in its original coordinates.  A number
    past the float range raises OverflowError before the file is opened."""
    if cfg.field != QQ:
        raise PreconditionError("rendering requires the rational field")
    lines = [covector(line) for line in cfg_input.all_lines()]
    # The viewport is anchored on the pairwise meets of the input lines.
    points = [_point(*meet) for meet in (cross(u, v) for u, v in combinations(lines, 2)) if meet[2]]

    pp = slope_path_polys(cfg)
    rects = (eval_path(cfg, pp, st) for st in ratio_samples(cfg.field, samples * 3 + 8))
    quads = []
    for rect in islice((rect for rect in rects if not rect.at_infinity), samples):
        corners = [(*rect.key[i : i + 2], rect.key[8]) for i in range(0, 8, 2)]
        quads.append([_point(*vertex) for vertex in plane_map.original(corners)])
        points += quads[-1]

    report = centers_paths(cfg)
    locus_lines = [
        plane_map.original_line(desc.normal)
        for desc in (report.slope_centers, report.aspect_centers, report.single_line)
        if desc is not None
    ]
    dots = [_point(*plane_map.original([report.point])[0])] if report.point is not None else []
    points += dots
    branches = [[]]
    if report.conic is not None:
        # Sweep the conic only inside a window around the lines, rectangles and dot,
        # so far hyperbola branches do not blow up the drawing; split a branch where
        # consecutive centers jump.
        x0, y0, w0, h0 = _bbox(points, 0.5)
        x1, y1, jump = x0 + w0, y0 + h0, hypot(w0, h0) / 2
        for pt in _swept_centers(center_forms(pp), plane_map):
            last = branches[-1]
            if pt is None or not (x0 <= pt[0] <= x1 and y0 <= pt[1] <= y1):
                if last:
                    branches.append([])
            elif last and hypot(pt[0] - last[-1][0], pt[1] - last[-1][1]) > jump:
                branches.append([pt])
            else:
                last.append(pt)
        points += [pt for branch in branches for pt in branch]

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

    x, y, w, h = box = _bbox(points, 0.10)
    left, top, width, height = map(_fmt, (x, 0.0 - (y + h), w, h))
    stroke_w = _fmt(w / 320)
    dotted = f'stroke="#444444" stroke-width="{stroke_w}" stroke-dasharray="{_fmt(w / 80)},{_fmt(w / 80)}"'
    solid = f'stroke="#000000" stroke-width="{stroke_w}"'
    thin = f'stroke="#3b6ea5" stroke-width="{_fmt(w / 640)}"'
    dashed = f'stroke="#999999" stroke-width="{_fmt(w / 640)}" stroke-dasharray="{_fmt(w / 40)},{_fmt(w / 160)}"'
    polylines = [(_clip_line(u, box), solid) for u in lines]
    polylines += [(_clip_line(u, box), dashed) for u in diagonal_lines]
    polylines += [(quad + quad[:1], thin) for quad in quads]
    polylines += [(_clip_line(u, box), dotted) for u in locus_lines]
    polylines += [(branch, dotted) for branch in branches]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{left} {top} {width} {height}" width="640" height="640">',
        f'<rect x="{left}" y="{top}" width="{width}" height="{height}" fill="white"/>',
        *[_polyline(pts, style) for pts, style in polylines if pts and len(pts) > 1],
        *[f'<circle cx="{_fmt(dx)}" cy="{_fmt(0.0 - dy)}" r="{_fmt(w / 160)}" fill="#444444"/>'
          for dx, dy in dots],
        "</svg>",
    ]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
