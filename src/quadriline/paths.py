"""The slope path and the aspect path.

Each path is a regular map from the projective line into the configuration
space: the slope path sends a ratio to a rectangle with that slope, the
aspect path to a rectangle with that aspect ratio.  The nine coordinate
polynomials of each path are assembled from a two-case pair of forms derived
from the diagonal constants (e1, e2, f1, f2); in the degenerate case the
forms are constants and the paths are lines.  All are built on ints.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import hpoly
from .configuration import ROLES, NormalizedConfig
from .errors import DegenerateConfigError, InternalCheckError, PreconditionError
from .rectangles import ProjectiveRectangle, Ratio, canonical_key
from .scalars import Record


class PathPolynomials(Record):
    """Coordinate polynomials of one path, all homogeneous of equal degree.

    ``first`` and ``second`` are the case-split forms: for the slope path a
    rectangle at ratio r has aspect ratio m_CD * first(r) / second(r); for
    the aspect path it has slope first(r) / second(r).  ``x`` and ``y`` map
    roles to the vertex-coordinate forms and ``w`` is the homogenizing form
    whose roots are the path's points at infinity.  The forms are int
    forms on ``NormalizedConfig.standing`` (residues over F_p): the nine are
    the field-element forms times one nonzero constant, ``first`` and
    ``second`` times another (δ⁶ and δ³ in the generic slope case).  Their
    shape is the case: ``first == (0,)`` when the leading pair of constants
    vanishes (A = B for the slope path, f1 = e2 = 0 for the aspect path);
    linear forms when e1 f1 + e2 f2 != 0, and the path is a conic; otherwise
    nonzero constants, the diagonals are orthogonal and the path is a line.
    """

    first: tuple
    second: tuple
    x: dict
    y: dict
    w: tuple

    @functools.cached_property
    def integer_forms(self) -> list:
        """The nine forms x_A, y_A, ..., x_D, y_D, w, in that order."""
        return [f for role in ROLES for f in (self.x[role], self.y[role])] + [self.w]


def _slope_forms(cfg: NormalizedConfig):
    """(first, second): (e1, e2) and (f2, -f1) times δ³, or cleared to ints."""
    d, e1, e2, f1, f2 = cfg.standing[5:]
    if not e1 and not e2:
        return (0,), (1,)
    if cfg.ef_sum:
        return (d * e1, d * e2), (d * f2, -f1)
    if e1:
        return (e1,), (f2,)
    return (d * e2,), (-f1,)


def _aspect_forms(cfg: NormalizedConfig):
    """(first, second): (f1 / m_CD, e2) and (f2 / m_CD, -e1) times δ² M_CD, or cleared."""
    _, _, m_c, m_d, _, d, e1, e2, f1, f2 = cfg.standing
    if not f1 and not e2:
        return (0,), (1,)
    m_cd = m_c - m_d
    if cfg.ef_sum:
        return (f1, m_cd * e2), (d * f2, -m_cd * e1)
    if e2:
        return (e2,), (-e1,)
    return (f1,), (d * f2,)


def _path(cfg: NormalizedConfig, first, second, xs, w) -> PathPolynomials:
    """The path from xs = X'_A, ..., X'_D and W', one multiple of x_A, ..., x_D and δ w:
    X_L = δ² X'_L, Y_L = δ M_L X'_L + B_L W' (B_B = δ, B_C = B_D = 0) and W = δ W'."""
    m_a, m_b, m_c, m_d, b_a, d = cfg.standing[:6]
    x, y = {}, {}
    for role, x_l, m_l, b_l in zip(ROLES, xs, (m_a, m_b, m_c, m_d), (b_a, d, 0, 0)):
        x[role] = hpoly.scale(d * d, x_l)
        y[role] = hpoly.add(hpoly.scale(d * m_l, x_l), hpoly.scale(b_l, w))
    w = hpoly.scale(d, w)
    if p := cfg.field.char:
        first, second, w = (tuple(c % p for c in f) for f in (first, second, w))
        x, y = ({r: tuple(c % p for c in f) for r, f in forms.items()} for forms in (x, y))
    return PathPolynomials(first, second, x, y, w)


def slope_path_polys(cfg: NormalizedConfig) -> PathPolynomials:
    """The nine coordinate polynomials of the slope path."""
    e_form, f_form = _slope_forms(cfg)
    _, m_b, m_c, m_d, _, d = cfg.standing[:6]
    xs = [
        hpoly.add(hpoly.mul((-d, m_c), e_form), hpoly.mul((d, 0), f_form)),
        hpoly.add(hpoly.mul((-d, m_d), e_form), hpoly.mul((d, 0), f_form)),
        hpoly.mul((-d, m_d), e_form),
        hpoly.mul((-d, m_c), e_form),
    ]
    w = hpoly.sub(
        hpoly.mul(hpoly.scale(m_b - m_c, (d, -m_d)), e_form),
        hpoly.mul((d * m_b, d * d), f_form),
    )
    return _path(cfg, e_form, f_form, xs, w)


def aspect_path_polys(cfg: NormalizedConfig) -> PathPolynomials:
    """The nine coordinate polynomials of the aspect path."""
    m_form, n_form = _aspect_forms(cfg)
    _, m_b, m_c, m_d, _, d = cfg.standing[:6]
    m_cd, m_bc = m_c - m_d, m_b - m_c
    xs = [
        hpoly.sub(hpoly.mul((d, -m_cd), m_form), hpoly.mul((m_c, 0), n_form)),
        hpoly.sub(hpoly.mul((d, -m_cd), m_form), hpoly.mul((m_d, 0), n_form)),
        hpoly.sub(hpoly.mul((d, 0), m_form), hpoly.mul((m_d, 0), n_form)),
        hpoly.sub(hpoly.mul((d, 0), m_form), hpoly.mul((m_c, 0), n_form)),
    ]
    w = hpoly.add(
        hpoly.mul((-d * m_bc, m_cd * m_b), m_form),
        hpoly.mul((m_bc * m_d, d * m_cd), n_form),
    )
    return _path(cfg, m_form, n_form, xs, w)


def eval_path(cfg: NormalizedConfig, pp: PathPolynomials, st: tuple) -> ProjectiveRectangle:
    """The canonical rectangle of the path at the ratio s : t of the ints st = (s, t).

    The point is projective, so the nine integer forms of ``pp`` are
    evaluated at the ints themselves.
    """
    s, t = st
    coords = [hpoly.eval_at(f, s, t) for f in pp.integer_forms]
    try:
        return ProjectiveRectangle.canonical(cfg.field, coords)
    except PreconditionError:
        raise InternalCheckError("path polynomials share a projective zero") from None


def path_keys(cfg: NormalizedConfig, pp: PathPolynomials) -> list:
    """The canonical key of the path's rectangle at every point of the
    projective line over F_p: at (v : 1) for v = 0, ..., p - 1, then at
    (1 : 0), in that order.

    Each of the nine integer forms of ``pp`` is tabulated at (v : 1) by
    forward differences (:func:`hpoly.tabulate`), and each point is put in
    canonical form; (1 : 0) goes through :func:`eval_path`.
    """
    field = cfg.field
    p = field.char
    if not p:
        raise PreconditionError("a path replay needs a prime field")
    columns = [hpoly.tabulate(f, p) for f in pp.integer_forms]
    try:
        keys = [canonical_key(field, coords) for coords in zip(*columns)]
    except PreconditionError:
        raise InternalCheckError("path polynomials share a projective zero") from None
    keys.append(eval_path(cfg, pp, (1, 0)).key)
    return keys


def slope_path_eval(cfg: NormalizedConfig, r: Ratio) -> ProjectiveRectangle:
    """The rectangle on the slope path with slope r."""
    return eval_path(cfg, slope_path_polys(cfg), (r.s, r.t))


def aspect_path_eval(cfg: NormalizedConfig, r: Ratio) -> ProjectiveRectangle:
    """The rectangle on the aspect path with aspect ratio r."""
    return eval_path(cfg, aspect_path_polys(cfg), (r.s, r.t))


class PathHomography(Record):
    """Invertible projective-line map linking the two paths.

    For a non-degenerate configuration, to_aspect sends a slope to the aspect
    ratio of the unique rectangle with that slope, and to_slope is its
    inverse; composing a path with the matching map reparameterizes it into
    the other path.
    """

    to_aspect: tuple  # 2x2 int matrix rows (m00, m01, m10, m11)
    to_slope: tuple

    @staticmethod
    def _apply(matrix, r: Ratio) -> Ratio:
        m00, m01, m10, m11 = matrix
        return Ratio.of(m00 * r.num + m01 * r.den, m10 * r.num + m11 * r.den)

    def slope_to_aspect(self, r: Ratio) -> Ratio:
        return self._apply(self.to_aspect, r)

    def aspect_to_slope(self, r: Ratio) -> Ratio:
        return self._apply(self.to_slope, r)


def homography(cfg: NormalizedConfig) -> PathHomography:
    """The slope/aspect reparameterization of a non-degenerate configuration.

    Both matrices are the generic path forms: the slope-path rectangle at r has
    aspect M_CD first(r) : δ second(r), and the aspect-path one slope
    first(r) : second(r).
    """
    if not cfg.ef_sum:
        raise DegenerateConfigError(
            "the slope and aspect paths of a degenerate configuration are distinct lines"
        )
    _, _, m_c, m_d, _, d = cfg.standing[:6]
    first, second = _slope_forms(cfg)
    to_aspect = (*hpoly.scale(m_c - m_d, first), *hpoly.scale(d, second))
    return PathHomography(to_aspect, sum(_aspect_forms(cfg), ()))


def _coprime_pairs():
    """The int pairs the sample walk tries: (0, 1), (1, 0), then by increasing
    height h each coprime (h, t), t = 1, ..., h, and (s, h), s = 1, ..., h - 1,
    followed by its negative (-s, t)."""
    yield 0, 1
    yield 1, 0
    for h in itertools.count(1):
        for s, t in [(h, t) for t in range(1, h + 1)] + [(s, h) for s in range(1, h)]:
            if math.gcd(s, t) == 1:
                yield s, t
                yield -s, t


def ratio_samples(field, count: int) -> list:
    """Deterministic ratios 0/1, 1/0, 1/1, -1/1, 2/1, -2/1, 1/2, ... as canonical
    int pairs: (s, t) coprime with t > 0 over the rationals, (v, 1) for a residue
    v over F_p, and (1, 0).  The pairs of :func:`_coprime_pairs` are put in that
    form and repeats skipped; over F_p the sequence exhausts the projective line
    and stops.
    """
    p = field.char
    if p:
        count = min(count, p + 1)  # the whole projective line over F_p
    out = {}  # an ordered set
    for st in _coprime_pairs():
        if p:
            s, t = st
            st = (s * pow(t, -1, p) % p, 1) if t % p else (1, 0)
        out[st] = None
        if len(out) >= count:
            return list(out)
