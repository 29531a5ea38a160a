"""Rectangle centers: the Gauss-Newton line, the third diagonal, and loci.

Centers only make sense in odd characteristic; the scalar layer already
rejects characteristic 2.  For a degenerate configuration the centers fall on
two lines (the aspect-path centers on the Gauss-Newton line, the slope-path
centers on a parallel of the diagonal G); otherwise they trace a conic.  Each
locus is the image of an exact center map, read off its coefficients in
closed form on ints: a line is its int normal and a point its int projective
point.  Reports print each at one scale (:func:`scaled`).
"""

from __future__ import annotations

import functools
from typing import Optional

from . import hpoly
from .configuration import (
    LocusShape, NormalizedConfig, adjugate, classify, covector, cross,
)
from .errors import (
    AtInfinityError,
    InternalCheckError,
    ParallelPairError,
    PreconditionError,
)
from .rectangles import ProjectiveRectangle
from .paths import PathPolynomials, aspect_path_polys, eval_path, slope_path_polys
from .scalars import Ratio, Record


class AffineLineDescription(Record):
    """The line n0 x + n1 y + n2 = 0 of the int normal n = (n0, n1, n2) (its covector),
    together with where it came from.  Reports print it as a x + b y = c with
    (a, b, c) = (n0, n1, -n2) at the scale of :func:`scaled`."""

    normal: tuple
    source: str


def _center(p: ProjectiveRectangle) -> tuple:
    """The center (x_A + x_C : y_A + y_C : 2w) of an affine rectangle, as ints off its key."""
    if p.at_infinity:
        raise AtInfinityError("rectangle at infinity has no center")
    xa, ya, _, _, xc, yc, _, _, w = p.key
    return xa + xc, ya + yc, 2 * w


def center_of(p: ProjectiveRectangle) -> tuple:
    """The affine center ((x_A + x_C) / 2w, (y_A + y_C) / 2w) as two Ratios off the
    canonical key."""
    x, y, w = _center(p)
    return Ratio(p.field, x, w), Ratio(p.field, y, w)


def scaled(field, v) -> tuple:
    """The int vector v as Ratios over its last value nonzero in the field: the one
    scale of every printed conic, line and point."""
    last = next(k for k in reversed(v) if hpoly.mod(k, field.char))
    return tuple(Ratio(field, k, last) for k in v)


def _same(p: int, u, v) -> bool:
    """Whether two int points, or two int covectors, are one projectively: u × v = 0 mod p."""
    return hpoly.is_zero(cross(u, v), p)


def _parallel(p: int, u, v) -> bool:
    """Whether two int covectors meet at infinity: (u × v)[2] = 0 mod p."""
    return not hpoly.mod(cross(u, v)[2], p)


def _corner(cfg: NormalizedConfig, r1: str, r2: str) -> tuple:
    """The meet (X : Y : Z) of two of the lines, Z nonzero; parallel lines raise."""
    point = cfg.corner(r1, r2)
    if not point[2]:
        raise ParallelPairError((r1, r2))
    return point


def _mean(points) -> tuple:
    """The mean of n affine int points (X_i : Y_i : Z_i) as the int point
    (X : Y : n Z), with Z the product of the Z_i and X / Z the sum of the X_i / Z_i."""
    x, y, z = 0, 0, 1
    for X, Y, Z in points:
        x, y, z = x * Z + X * z, y * Z + Y * z, z * Z
    return x, y, len(points) * z


def gauss_newton_line(cfg: NormalizedConfig) -> AffineLineDescription:
    """The line through the midpoints of the three diagonals.

    Midpoints of (A∩B, C∩D), (A∩D, B∩C) and (A∩C, B∩D), on ints; the line
    joins the first two, and the third is verified to lie on it.
    """
    mids = [
        _mean([_corner(cfg, r1, r2), _corner(cfg, r3, r4)])
        for r1, r2, r3, r4 in (("A", "B", "C", "D"), ("A", "D", "B", "C"), ("A", "C", "B", "D"))
    ]
    normal = cross(mids[0], mids[1])
    if hpoly.mod(sum(n * c for n, c in zip(normal, mids[2])), cfg.field.char):
        raise InternalCheckError("Gauss-Newton midpoints are not collinear")
    return AffineLineDescription(normal, "gauss-newton")


def diagonal_g(cfg: NormalizedConfig) -> AffineLineDescription:
    """The diagonal through A∩C and B∩D."""
    normal = cross(_corner(cfg, "A", "C"), _corner(cfg, "B", "D"))
    return AffineLineDescription(normal, "diagonal-g")


class CenterMap(Record):
    """The center of a path rectangle as a function of the ratio.

    center(r) = (x_num(r) / den(r), y_num(r) / den(r)) with den twice the
    path's homogenizing polynomial: int forms, at the scale of the path's.
    """

    field: object
    x_num: tuple
    y_num: tuple
    den: tuple

    @staticmethod
    def of(cfg: NormalizedConfig, pp: PathPolynomials) -> "CenterMap":
        """The midpoint of the A and C vertices along a path."""
        return CenterMap(
            field=cfg.field,
            x_num=hpoly.add(pp.x["A"], pp.x["C"]),
            y_num=hpoly.add(pp.y["A"], pp.y["C"]),
            den=hpoly.scale(2, pp.w),
        )


class LocusReport(Record):
    """Exact description of the set of centers of affine inscribed rectangles.

    A conic, a line or a point holds exactly the affine centers, with one
    exception.  When the center map of a non-degenerate configuration has
    rank 2, ``single_line`` is the Zariski closure of the centers: a point of
    the line is a center only when its fiber, a binary quadratic, has a root
    in the field (over F_p, a square discriminant: about half of the line;
    over the reals, a segment or its complement).
    """

    shape: LocusShape
    slope_centers: Optional[AffineLineDescription] = None
    aspect_centers: Optional[AffineLineDescription] = None
    gauss_newton: Optional[AffineLineDescription] = None
    diagonal_g: Optional[AffineLineDescription] = None
    single_line: Optional[AffineLineDescription] = None
    conic: Optional[tuple] = None  # int coefficients of x^2, xy, y^2, x, y, 1
    point: Optional[tuple] = None  # an int point (X : Y : Z), Z nonzero
    points: Optional[tuple] = None  # TwoLines over F_p: two constant center maps at distinct points
    center_map: Optional[CenterMap] = None
    slope_path: Optional[PathPolynomials] = None  # TwoLines: both paths, for special_rectangles
    aspect_path: Optional[PathPolynomials] = None


# The conic's monomials x^2, xy, y^2, x, y, 1 as index pairs into (x, y, 1).
_MONOMIALS = ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))


def _require_zero(form, p: int, what: str):
    if not hpoly.is_zero(form, p):
        raise InternalCheckError(what)


def _image_conic(cmap: CenterMap, adj) -> tuple:
    """The int coefficients of b^2 - ac = 0 for (a, b, c) = adj(M)(x, y, 1).

    (x, y, 1) ~ M (s^2, st, t^2) gives adj(M)(x, y, 1) ~ (s^2, st, t^2).
    Checked on ints as an identity of forms: D^2 q(X/D, Y/D) = 0.
    """
    a, b, c = adj
    coeffs = []
    for i, j in _MONOMIALS:
        k = b[i] * b[j] - a[i] * c[j]
        coeffs.append(k if i == j else k + b[j] * b[i] - a[j] * c[i])
    x, y, d = cmap.x_num, cmap.y_num, cmap.den
    forms = [hpoly.mul(f, g) for f, g in ((x, x), (x, y), (y, y), (x, d), (y, d), (d, d))]
    total = functools.reduce(hpoly.add, map(hpoly.scale, coeffs, forms))
    _require_zero(total, cmap.field.char, "the locus conic does not vanish on the center map")
    return tuple(coeffs)


def _image(cmap: CenterMap, source: str):
    """The set of centers as (conic, line, point), exactly one of them set.

    The columns c_j = (x_num[j], y_num[j], den[j]) form the coefficient
    matrix M of the map.  Degree 2: adj(M) has the rows c1 x c2, c2 x c0,
    c0 x c1, so det M = c0 . (c1 x c2).  A nonzero det gives the conic; when
    det M = 0 each row n of adj(M) has n M = 0, the equation of a line, and
    with adj(M) = 0 (rank 1) the map is constant.  Degree 1: the single
    normal c0 x c1 decides between the line and the point.  All on ints, mod p over F_p.
    """
    p = cmap.field.char
    forms = (cmap.x_num, cmap.y_num, cmap.den)
    cols = tuple(zip(*forms))
    if len(cols) == 3:
        normals = adjugate(forms)
        if hpoly.mod(sum(n * c for n, c in zip(normals[0], cols[0])), p):
            return _image_conic(cmap, normals), None, None
    else:
        normals = (cross(cols[0], cols[1]),)
    normal = next((n for n in normals if not hpoly.is_zero(n, p)), None)
    if normal is not None:
        form = functools.reduce(hpoly.add, map(hpoly.scale, normal, forms))
        _require_zero(form, p, f"{source} left their line")
        return None, AffineLineDescription(normal, source), None
    x, y, d = next(c for c in cols if hpoly.mod(c[2], p))
    for num, value in ((cmap.x_num, x), (cmap.y_num, y)):
        constant = hpoly.sub(hpoly.scale(d, num), hpoly.scale(value, cmap.den))
        _require_zero(constant, p, "center map is not constant")
    return None, None, (x, y, d)


def centers_paths(cfg: NormalizedConfig) -> LocusReport:
    """Describe the rectangle locus, in closed form.

    The locus is the image of a center map (see :func:`_image`).  Degenerate
    configurations have maps of degree 1 and two lines of centers
    (cross-checked against the Gauss-Newton line and the diagonal G whenever
    no lines are parallel), or, when both maps are constant, one point or two
    points; twin or dual pairs leave a single affine line;
    otherwise the slope path's degree-2 map gives a conic, or, when its
    matrix is singular, a line or a point.
    """
    cls = classify(cfg)
    if cls.locus_shape is LocusShape.LINE_PLUS_INFINITY:
        pp = aspect_path_polys(cfg) if cls.twin_pairs else slope_path_polys(cfg)
        source = "aspect-centers" if cls.twin_pairs else "slope-centers"
        _, line, point = _image(CenterMap.of(cfg, pp), source)
        return LocusReport(shape=cls.locus_shape, single_line=line, point=point)

    if cls.degenerate:
        p = cfg.field.char
        spp, app = slope_path_polys(cfg), aspect_path_polys(cfg)
        _, slope_line, slope_point = _image(CenterMap.of(cfg, spp), "slope-centers")
        _, aspect_line, aspect_point = _image(CenterMap.of(cfg, app), "aspect-centers")
        point = points = None
        if slope_point is not None and aspect_point is not None:
            # Each path keeps one center: a shared one, or two where -1 is a square in F_p.
            if _same(p, slope_point, aspect_point):
                point = slope_point
            else:
                points = (slope_point, aspect_point)
        gn = g = None
        if len(set(cfg.standing[:4])) == 4:  # no two lines parallel
            gn = gauss_newton_line(cfg)
            g = diagonal_g(cfg)
            if aspect_line is not None and not _same(p, aspect_line.normal, gn.normal):
                raise InternalCheckError("aspect centers left the Gauss-Newton line")
            if slope_line is not None and not _parallel(p, slope_line.normal, g.normal):
                raise InternalCheckError("slope centers not parallel to diagonal G")
        return LocusReport(
            shape=cls.locus_shape,
            slope_centers=slope_line,
            aspect_centers=aspect_line,
            gauss_newton=gn,
            diagonal_g=g,
            point=point,
            points=points,
            slope_path=spp,
            aspect_path=app,
        )

    cmap = CenterMap.of(cfg, slope_path_polys(cfg))
    conic, line, point = _image(cmap, "slope-centers")
    return LocusReport(
        shape=cls.locus_shape, conic=conic, single_line=line, point=point, center_map=cmap
    )


class SpecialRectangles(Record):
    """The center and centroid rectangles of a degenerate configuration."""

    center_rectangle: ProjectiveRectangle
    centroid_rectangle: ProjectiveRectangle


def special_rectangles(cfg: NormalizedConfig, report: LocusReport) -> SpecialRectangles:
    """Center rectangle (centered on the locus-line intersection) and
    centroid rectangle (centered on the centroid of the four corner points).

    ``report`` is ``centers_paths(cfg)``.  Requires a degenerate
    configuration with no two lines parallel and at least one non-orthogonal
    pair: a TwoLines report, which then carries the Gauss-Newton line.  Over
    F_p the two locus lines can be parallel; there is then no center
    rectangle, and that is a precondition failure too.
    """
    if report.shape is not LocusShape.TWO_LINES or report.gauss_newton is None:
        raise PreconditionError("special rectangles need two locus lines and no parallel lines")
    sl, al = report.slope_centers, report.aspect_centers
    if sl is None or al is None:
        raise InternalCheckError("degenerate locus did not produce two lines")
    p = cfg.field.char
    if _parallel(p, sl.normal, al.normal):
        raise PreconditionError("the two locus lines are parallel: no center rectangle")
    meet = cross(sl.normal, al.normal)

    spp, app = report.slope_path, report.aspect_path
    _, _, m_c, m_d, _, d = cfg.standing[:6]
    # The slope path's shared aspect m_CD first[0] : second[0], on the standing ints.
    center_rect = eval_path(cfg, app, ((m_c - m_d) * spp.first[0], d * spp.second[0]))
    if not _same(p, _center(center_rect), meet):
        raise InternalCheckError("center rectangle misses the locus intersection")

    corners = [_corner(cfg, r1, r2) for r1, r2 in (("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"))]
    x, y, w = _mean(corners)
    amap = CenterMap.of(cfg, app)
    eq_x = hpoly.sub(hpoly.scale(w, amap.x_num), hpoly.scale(x, amap.den))
    eq_y = hpoly.sub(hpoly.scale(w, amap.y_num), hpoly.scale(y, amap.den))
    if not hpoly.is_zero(eq_x, p):
        st = (-eq_x[1], eq_x[0])
        if hpoly.mod(hpoly.eval_at(eq_y, *st), p):
            raise InternalCheckError("centroid is not on the aspect path of centers")
    elif not hpoly.is_zero(eq_y, p):
        st = (-eq_y[1], eq_y[0])
    else:
        raise InternalCheckError("centroid equations vanished identically")
    centroid_rect = eval_path(cfg, app, st)
    if not _same(p, _center(centroid_rect), (x, y, w)):
        raise InternalCheckError("centroid rectangle misses the centroid")
    return SpecialRectangles(center_rect, centroid_rect)


class AllParallelReport(Record):
    """Outcome of the all-parallel analysis; the midline is an int covector, as a locus
    line's normal."""

    midline_shared: bool
    midline: Optional[tuple]
    description: str


def all_parallel_analysis(field, lines) -> AllParallelReport:
    """Four parallel lines: rectangles exist exactly when the two pairs share
    a midline, and then the midline is the rectangle locus.

    ``lines`` is the sequence (A, B, C, D).  On the int covectors L of the lines
    (:func:`covector`), each line is L_k / A_k times A's normal (a, b) at A's
    pivot coordinate k (a, or b when a = 0 in the field), so it is A's normal
    with offset L_2 A_k / L_k.
    The midlines of (A, C) and (B, D) agree exactly when A_2 + C_2 A_k / C_k =
    (B_2 / B_k + D_2 / D_k) A_k, tested times B_k C_k D_k mod p, and the midline
    of (A, C) is 2 C_k A + (0, 0, C_2 A_k - A_2 C_k).  When the midlines agree,
    every choice of x_A != x_B gives a unique inscribed rectangle, so the family
    is two-dimensional rather than a curve.
    """
    p = field.char
    A, B, C, D = map(covector, lines)
    for other in (B, C, D):
        if not _parallel(p, A, other):
            raise PreconditionError("all four lines must be parallel")
    k = 0 if hpoly.mod(A[0], p) else 1
    a, b, c, d = A[k], B[k], C[k], D[k]
    if not hpoly.mod(a * b * c * d, p):
        raise PreconditionError("degenerate line normal")
    if hpoly.mod((A[2] * c + C[2] * a) * b * d - (B[2] * d + D[2] * b) * a * c, p):
        return AllParallelReport(
            False, None, "the pairs (A, C) and (B, D) have different midlines: no inscribed rectangles"
        )
    return AllParallelReport(
        True,
        (2 * c * A[0], 2 * c * A[1], A[2] * c + C[2] * a),
        "midlines coincide: the midline is the rectangle locus and every "
        "choice of x_A != x_B yields a unique inscribed rectangle",
    )
