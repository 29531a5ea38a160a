"""Centers, the Gauss-Newton line, diagonal G, loci, special rectangles."""

import itertools
import random
from fractions import Fraction

import pytest

from quadriline import hpoly
from quadriline import (
    InputLine,
    NormalizedConfig,
    PrimeField,
    QQ,
    Ratio,
    all_parallel_analysis,
    aspect_of,
    center_of,
    slope_of,
    slope_path_eval,
)
from quadriline.census import enumerate_rectangles
from quadriline.configuration import LocusShape
from quadriline.errors import AtInfinityError, ParallelPairError, PreconditionError
from quadriline.locus import (
    centers_paths,
    diagonal_g,
    gauss_newton_line,
    scaled,
    special_rectangles,
)
from quadriline.paths import (
    aspect_path_polys,
    eval_path,
    ratio_samples,
    slope_path_polys,
)
from membership import (
    constants,
    intersection,
    one_of,
    ratio_of,
    rectangle_from_slope,
    standing_line,
    value,
    vertex,
)
from conftest import (
    affine_point,
    center_at,
    center_values,
    contains,
    elements,
    fraction_count,
    line_slope,
    random_degenerate_config,
    random_rational_config,
    rat,
    same_line,
    sample_ratios,
    shipped_config,
)


def nullspace(rows):
    """Basis of the kernel of a matrix given as a list of equal-length rows (RREF)."""
    ncols = len(rows[0])
    mat = [list(r) for r in rows]
    pivots = []  # (row, col)
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][col]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append((r, col))
        r += 1
        if r == len(mat):
            break
    pivot_cols = [c for _, c in pivots]
    x = next(x for row in rows for x in row if x)
    zero, one = x - x, x / x
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_cols):
        vec = [zero] * ncols
        vec[fc] = one
        for row_idx, col in pivots:
            vec[col] = -mat[row_idx][fc]
        basis.append(tuple(vec))
    return basis


def reference_locus(cfg):
    """The sampled fit that the closed form replaced, for a non-degenerate configuration.

    Takes the first 26 affine slope-path centers in ratio_samples order.  Six
    distinct ones give the conic through them as an exact nullspace, which
    all 26 must satisfy; a kernel of dimension > 1 means the centers are
    collinear, and the line goes through the first two distinct ones.
    Returns (conic, line, point) as :func:`printed` reads a report: the conic's
    coefficients, the line's (a, b, c) with its source, each divided by its last
    nonzero one, and the point's (x, y); or None over a field too small for six
    distinct centers.
    """
    pp = slope_path_polys(cfg)
    centers = []
    for r in ratio_samples(cfg.field, 34):
        rect = eval_path(cfg, pp, r)
        if not rect.at_infinity:
            centers.append(center_values(rect))
        if len(centers) == 26:
            break
    distinct = []
    for c in centers:
        if c not in distinct:
            distinct.append(c)
    if len(distinct) == 1:
        return None, None, distinct[0]
    if len(distinct) < 6:
        return None
    one = one_of(cfg.field)
    basis = nullspace([[x * x, x * y, y * y, x, y, one] for x, y in distinct[:6]])
    if len(basis) == 1:
        k = basis[0]
        for x, y in centers:
            assert not (k[0] * x * x + k[1] * x * y + k[2] * y * y + k[3] * x + k[4] * y + k[5])
        return divided(k), None, None
    (x0, y0), (x1, y1) = distinct[:2]
    a, b = y0 - y1, x1 - x0
    return None, (divided((a, b, a * x0 + b * y0)), "slope-centers"), None


def divided(values) -> tuple:
    """Field values divided by the last nonzero one."""
    last = next(v for v in reversed(values) if v)
    return tuple(v / last for v in values)


def printed(field, report) -> tuple:
    """(conic, line, point) of a report as the field values it prints: the conic's
    coefficients, the single line's (a, b, c) at the one scale of ``locus.scaled``
    with its source, and the point's (x, y); None where the report has none."""

    def values(v):
        return None if v is None else tuple(map(value, scaled(field, v)))

    line = point = None
    if report.single_line is not None:
        n0, n1, n2 = report.single_line.normal
        line = values((n0, n1, -n2)), report.single_line.source
    if report.point is not None:
        point = values(report.point)[:2]
    return values(report.conic), line, point


def reported_centers(field, report) -> set:
    """The affine points of F_p^2 that a locus report claims as centers.

    The points of the conic, of each reported line and the reported point(s).
    A non-degenerate configuration whose center map has rank 2 reports the
    line that holds the centers (its Zariski closure); the centers on it are
    the points P whose fiber, the binary quadratic x_num - x_P den (or
    y_num - y_P den when that one vanishes identically), has a square
    discriminant.
    """
    values = list(elements(field))
    plane = [(x, y) for x in values for y in values]
    out = set()
    k = report.conic
    if k is not None:
        out.update(
            (x, y)
            for x, y in plane
            if not (k[0] * x * x + k[1] * x * y + k[2] * y * y + k[3] * x + k[4] * y + k[5])
        )
    for line in (report.slope_centers, report.aspect_centers, report.single_line):
        if line is None:
            continue
        on_line = [point for point in plane if contains(field, line, point)]
        if line is report.single_line and report.shape is LocusShape.NONDEGENERATE_CONIC:
            on_line = [point for point in on_line if has_square_fiber(report.center_map, point)]
        out.update(on_line)
    if report.point is not None:
        out.add(affine_point(field, report.point))
    out.update(affine_point(field, point) for point in report.points or ())
    return out


def has_square_fiber(cmap, point) -> bool:
    fiber = hpoly.sub(cmap.x_num, hpoly.scale(point[0], cmap.den))
    if hpoly.is_zero(fiber):
        fiber = hpoly.sub(cmap.y_num, hpoly.scale(point[1], cmap.den))
    field = point[0].field
    return field.sqrt((fiber[1] * fiber[1] - 4 * fiber[0] * fiber[2]).value) is not None


class TestCenterOf:
    def test_worked_rectangle(self, cfg1):
        p = rectangle_from_slope(cfg1, rat(QQ, 1, 0), Fraction(3)).rectangles[0]
        assert center_of(p) == (Ratio(QQ, 0, 1), Ratio(QQ, 1, 6))

    def test_degenerate_rectangle(self, cfg1):
        p = rectangle_from_slope(cfg1, rat(QQ, 0, 1), Fraction(1)).rectangles[0]
        assert center_of(p) == (Ratio(QQ, 0, 1), Ratio(QQ, 1, 2))

    def test_at_infinity_rejected(self, cfg3):
        p = slope_path_eval(cfg3, rat(QQ, 1, 1))
        assert p.at_infinity
        with pytest.raises(AtInfinityError):
            center_values(p)

    def test_both_vertex_averages_agree(self):
        rng = random.Random(139)
        for _ in range(15):
            cfg = random_rational_config(rng)
            for r in sample_ratios(QQ, 6):
                rect = slope_path_eval(cfg, r)
                if rect.at_infinity:
                    continue
                xa, ya = vertex(rect, "A")
                xc, yc = vertex(rect, "C")
                xb, yb = vertex(rect, "B")
                xd, yd = vertex(rect, "D")
                assert (xa + xc, ya + yc) == (xb + xd, yb + yd)


class TestGaussNewton:
    def test_cfg2_midpoints_and_slope(self, cfg2):
        line = gauss_newton_line(cfg2)
        for point in (
            (Fraction(1, 3), Fraction(1, 6)),
            (Fraction(3, 4), Fraction(1, 2)),
            (Fraction(13, 24), Fraction(1, 3)),
        ):
            assert contains(QQ, line, point)
        assert line_slope(line) == ratio_of(Fraction(4), Fraction(5))

    def test_cfg1_collinearity_holds(self, cfg1):
        # Construction already verifies the third midpoint lies on the line.
        line = gauss_newton_line(cfg1)
        assert line.source == "gauss-newton"

    def test_cfg3_parallel_pair_obstruction(self, cfg3):
        with pytest.raises(ParallelPairError) as err:
            gauss_newton_line(cfg3)
        assert err.value.pair in (("A", "D"), ("B", "C"))

    def test_random_collinearity(self):
        rng = random.Random(149)
        done = 0
        while done < 25:
            cfg = random_rational_config(rng)
            try:
                gauss_newton_line(cfg)
            except ParallelPairError:
                continue
            done += 1


class TestDiagonalG:
    def test_cfg2(self, cfg2):
        g = diagonal_g(cfg2)
        assert contains(QQ, g, (Fraction(3, 4), Fraction(0)))
        assert contains(QQ, g, (Fraction(1, 3), Fraction(2, 3)))
        assert line_slope(g) == ratio_of(Fraction(-8), Fraction(5))

    def test_cfg1_vertical(self, cfg1):
        g = diagonal_g(cfg1)
        assert contains(QQ, g, (Fraction(-1, 2), Fraction(0)))
        assert contains(QQ, g, (Fraction(-1, 2), Fraction(-1, 2)))
        assert line_slope(g) == rat(QQ, 1, 0)

    def test_parallel_pair_rejected(self):
        cfg = NormalizedConfig.from_ints(QQ, 2, 3, 2, 1, 1)  # A parallel to C
        with pytest.raises(ParallelPairError):
            diagonal_g(cfg)

    def test_closed_form_slope(self):
        # slope(G) = (m_C b_A m_DB + m_D m_AC) / (b_A m_DB + m_AC)
        rng = random.Random(151)
        done = 0
        while done < 20:
            cfg = random_rational_config(rng)
            try:
                g = diagonal_g(cfg)
            except ParallelPairError:
                continue
            m_a, m_b, m_c, m_d, b_a = constants(cfg)[:5]
            num = m_c * b_a * (m_d - m_b) + m_d * (m_a - m_c)
            den = b_a * (m_d - m_b) + (m_a - m_c)
            if num or den:
                assert line_slope(g) == ratio_of(num, den)
            done += 1


class TestCentersPaths:
    def test_cfg2_two_lines(self, cfg2):
        report = centers_paths(cfg2)
        assert report.shape is LocusShape.TWO_LINES
        assert line_slope(report.aspect_centers) == ratio_of(Fraction(4), Fraction(5))
        assert line_slope(report.slope_centers) == ratio_of(Fraction(-8), Fraction(5))
        assert line_slope(report.slope_centers) == line_slope(report.diagonal_g)
        assert same_line(QQ, report.aspect_centers, report.gauss_newton)

    def test_cfg2_sampled_centers_on_lines(self, cfg2):
        report = centers_paths(cfg2)
        spp, app = slope_path_polys(cfg2), aspect_path_polys(cfg2)
        for r in ratio_samples(QQ, 12):
            rect = eval_path(cfg2, spp, r)
            if not rect.at_infinity:
                assert contains(QQ, report.slope_centers, center_values(rect))
            rect = eval_path(cfg2, app, r)
            if not rect.at_infinity:
                assert contains(QQ, report.aspect_centers, center_values(rect))

    def test_cfg1_conic(self, cfg1):
        report = centers_paths(cfg1)
        assert report.shape is LocusShape.NONDEGENERATE_CONIC
        assert report.conic is not None
        c = report.conic
        # Every sampled center satisfies the fitted equation exactly.
        for r in sample_ratios(QQ, 30):
            rect = slope_path_eval(cfg1, r)
            if rect.at_infinity:
                continue
            x, y = center_values(rect)
            assert c[0] * x * x + c[1] * x * y + c[2] * y * y + c[3] * x + c[4] * y + c[5] == 0
        # And the parametric map agrees with direct evaluation.
        assert center_at(report.center_map, (1, 0)) == (0, Fraction(1, 6))

    def test_cfg3_single_line(self, cfg3):
        report = centers_paths(cfg3)
        assert report.shape is LocusShape.LINE_PLUS_INFINITY
        line = report.single_line
        assert line is not None
        assert contains(QQ, line, (Fraction(0), Fraction(1, 2)))
        assert line_slope(line) == rat(QQ, 0, 1)  # the affine centers lie on y = 1/2

    def test_point_locus_when_both_pairs_parallel(self):
        # A parallel to C and B parallel to D (a non-degenerate configuration):
        # all rectangles share one center.
        cfg = NormalizedConfig.from_ints(QQ, 1, 2, 1, 2, 5)
        assert cfg.ef_sum != 0
        report = centers_paths(cfg)
        assert report.shape is LocusShape.NONDEGENERATE_CONIC
        assert report.point is not None
        for r in sample_ratios(QQ, 8):
            rect = slope_path_eval(cfg, r)
            if not rect.at_infinity:
                assert center_values(rect) == affine_point(QQ, report.point)

    def test_point_locus_of_a_square_of_lines(self):
        # y = x + 1, y = -x + 1, y = x, y = -x: degenerate, and both center maps are constant.
        cfg = NormalizedConfig.from_ints(QQ, 1, -1, 1, -1, 1)
        report = centers_paths(cfg)
        assert report.shape is LocusShape.TWO_LINES
        assert report.slope_centers is None and report.aspect_centers is None
        assert affine_point(QQ, report.point) == (0, Fraction(1, 2))
        for pp in (slope_path_polys(cfg), aspect_path_polys(cfg)):
            for r in ratio_samples(QQ, 8):
                rect = eval_path(cfg, pp, r)
                if not rect.at_infinity:
                    assert center_values(rect) == affine_point(QQ, report.point)

    def test_matches_sampled_fit_on_random_configs(self):
        rng = random.Random(163)
        checked = 0
        while checked < 25:
            cfg = random_rational_config(rng)
            if not cfg.ef_sum:
                continue
            report = centers_paths(cfg)
            assert printed(QQ, report) == reference_locus(cfg)
            checked += 1

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_census_centers_lie_on_the_report(self, p):
        """The affine centers the brute-force census finds are exactly the
        points of the reported locus: the affine points of the conic, of each
        line and the point(s); on the line of a rank-2 center map, the points
        with a square fiber discriminant.  Every normalized configuration at
        p = 3 and 5, a seeded sample of 300 at p = 7, 11 and 13."""
        field = PrimeField(p)
        configs = [
            ints for ints in itertools.product(range(p), repeat=5) if ints[2] != ints[3]
        ]
        if p > 5:
            configs = random.Random(p).sample(configs, 300)
        rank_two = 0
        for ints in configs:
            cfg = NormalizedConfig.from_ints(field, *ints)
            report = centers_paths(cfg)
            census = {center_values(r) for r in enumerate_rectangles(cfg) if not r.at_infinity}
            assert census == reported_centers(field, report), (p, ints)
            rank_two += report.shape is LocusShape.NONDEGENERATE_CONIC and bool(report.single_line)
        assert rank_two > 0

    @pytest.mark.parametrize("p, expected", [(5, 20), (13, 244)])
    def test_two_constant_centers_are_two_points(self, p, expected):
        """Both center maps constant at different points: the report gives
        the two points, which are exactly the affine census centers.

        At p = 5 every normalized configuration is scanned.  Every one found
        has A = C, an isotropic line (m_A^2 = -1) through the origin, so at
        p = 13 that family is scanned.
        """
        field = PrimeField(p)
        if p == 5:
            candidates = [
                ints for ints in itertools.product(range(p), repeat=5) if ints[2] != ints[3]
            ]
        else:
            roots = [i for i in range(p) if (i * i + 1) % p == 0]
            candidates = [
                (i, m_b, i, m_d, 0)
                for i in roots
                for m_b, m_d in itertools.product(range(p), repeat=2)
                if m_d != i
            ]
        found = []
        for ints in candidates:
            cfg = NormalizedConfig.from_ints(field, *ints)
            report = centers_paths(cfg)
            if report.points is None:
                continue
            found.append(ints)
            m_a, _, m_c, _, b_a = ints
            assert m_a == m_c and (m_a * m_a + 1) % p == 0 and b_a == 0, ints
            assert report.shape is LocusShape.TWO_LINES
            assert report.single_line is None and report.point is None
            points = {affine_point(field, point) for point in report.points}
            assert len(points) == 2
            centers = {center_values(r) for r in enumerate_rectangles(cfg) if not r.at_infinity}
            assert points == centers, ints
        assert len(found) == expected

    def test_degenerate_random_configs(self):
        rng = random.Random(157)
        for _ in range(10):
            cfg = random_degenerate_config(rng)
            report = centers_paths(cfg)
            if report.shape is LocusShape.TWO_LINES:
                assert report.slope_centers is not None or report.aspect_centers is not None


class TestSpecialRectangles:
    def test_cfg2(self, cfg2):
        report = centers_paths(cfg2)
        special = special_rectangles(cfg2, report)
        center = center_values(special.center_rectangle)
        assert contains(QQ, report.slope_centers, center)
        assert contains(QQ, report.aspect_centers, center)
        corners = [
            intersection(standing_line(cfg2, r1), standing_line(cfg2, r2))
            for r1, r2 in (("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"))
        ]
        centroid = (
            sum(p[0] for p in corners) / 4,
            sum(p[1] for p in corners) / 4,
        )
        assert center_values(special.centroid_rectangle) == centroid
        # The centroid is on the Gauss-Newton line by construction.
        assert contains(QQ, report.gauss_newton, centroid)

    def test_rational_standing_forms(self):
        """Degenerate configurations with δ > 1 in their standing ints: the center
        rectangle sits at the shared aspect M_CD first[0] : δ second[0] of the slope path."""
        rng = random.Random(211)
        checked = 0
        while checked < 10:
            cfg = random_degenerate_config(rng)
            report = centers_paths(cfg)
            if cfg.standing[5] == 1 or report.gauss_newton is None:
                continue
            try:
                special = special_rectangles(cfg, report)
            except PreconditionError:  # parallel locus lines
                continue
            center = center_values(special.center_rectangle)
            assert contains(QQ, report.slope_centers, center)
            assert contains(QQ, report.aspect_centers, center)
            checked += 1

    def test_cfg2_at_infinity_interpretation(self, cfg2):
        special = special_rectangles(cfg2, centers_paths(cfg2))
        spp, app = slope_path_polys(cfg2), aspect_path_polys(cfg2)
        # The slope path's rectangle at infinity: the root of its w-polynomial,
        # whose coefficients are ints.
        slope_inf = eval_path(cfg2, spp, (-spp.w[1], spp.w[0]))
        assert slope_inf.at_infinity
        aspect_inf = eval_path(cfg2, app, (-app.w[1], app.w[0]))
        assert aspect_inf.at_infinity
        # It has the aspect ratio of the center rectangle and is orthogonal to it.
        assert aspect_of(slope_inf) == aspect_of(special.center_rectangle)
        s1 = slope_of(slope_inf)
        s2 = slope_of(special.center_rectangle)
        assert s1.s * s2.s + s1.t * s2.t == 0
        # The aspect path's at-infinity rectangle: slope of the centroid
        # rectangle, aspect the negative of the centroid rectangle's.
        assert slope_of(aspect_inf) == slope_of(special.centroid_rectangle)
        a = aspect_of(special.centroid_rectangle)
        assert aspect_of(aspect_inf) == Ratio(QQ, -a.s, a.t)

    def test_cfg3_rejected(self, cfg3):
        with pytest.raises(PreconditionError):
            special_rectangles(cfg3, centers_paths(cfg3))

    def test_nondegenerate_rejected(self, cfg1):
        with pytest.raises(PreconditionError):
            special_rectangles(cfg1, centers_paths(cfg1))


class TestAllParallel:
    def _horizontal(self, field, k):
        return InputLine(0, 1, k)

    def test_shared_midline(self):
        lines = [self._horizontal(QQ, k) for k in (1, 2, -1, -2)]  # A,B,C,D
        report = all_parallel_analysis(QQ, lines)
        assert report.midline_shared
        assert same_line(QQ, report.midline, InputLine(0, 1, 0))

    def test_distinct_midlines(self):
        lines = [self._horizontal(QQ, k) for k in (1, 3, -1, 0)]
        report = all_parallel_analysis(QQ, lines)
        assert not report.midline_shared
        assert report.midline is None
        assert "no inscribed rectangles" in report.description

    def test_over_f7(self):
        f7 = PrimeField(7)
        lines = [self._horizontal(f7, k) for k in (1, 2, 6, 5)]
        report = all_parallel_analysis(f7, lines)
        assert report.midline_shared
        assert same_line(f7, report.midline, InputLine(0, 1, 0))

    def test_vertical_family(self):
        # x = k lines: the analysis is orientation-free.
        lines = [InputLine(1, 0, k) for k in (0, 3, 4, 1)]
        report = all_parallel_analysis(QQ, lines)
        assert report.midline_shared  # (0+4)/2 == (3+1)/2
        assert same_line(QQ, report.midline, InputLine(1, 0, 2))

    def test_non_parallel_rejected(self):
        lines = [
            self._horizontal(QQ, 0),
            InputLine(1, 1, 0),
            self._horizontal(QQ, 1),
            self._horizontal(QQ, 2),
        ]
        with pytest.raises(PreconditionError):
            all_parallel_analysis(QQ, lines)


@pytest.mark.parametrize("name", ["cfg1.json", "vertical.json"])
def test_conic_locus_builds_only_its_coefficients(name):
    """The center map, its adjugate, the identity check and the conic the report holds
    are ints: a conic locus builds no Fraction."""
    cfg = shipped_config(name)
    with fraction_count() as built:
        report = centers_paths(cfg)
    assert report.conic is not None and len(report.conic) == 6
    assert built[0] == 0
