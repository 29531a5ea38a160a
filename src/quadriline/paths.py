"""The slope path and the aspect path.

Each path is a regular map from the projective line into the configuration
space: the slope path sends a ratio to a rectangle with that slope, the
aspect path to a rectangle with that aspect ratio.  The nine coordinate
polynomials of each path are assembled from a two-case pair of forms derived
from the diagonal constants (e1, e2, f1, f2); in the degenerate case the
forms are constants and the paths are lines.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from . import hpoly
from .configuration import ROLES, NormalizedConfig
from .errors import DegenerateConfigError, InternalCheckError, PreconditionError
from .rectangles import ProjectiveRectangle, Ratio, canonical_key

class PathCase(Enum):
    """Which branch of the form definition applies.

    BOTH_ZERO: the leading pair of constants vanishes (A = B for the slope
    path; f1 = e2 = 0 for the aspect path).  GENERIC: e1 f1 + e2 f2 != 0, the
    forms are linear and the path is a conic.  ORTHOGONAL: the diagonals are
    orthogonal but the leading pair survives; the forms are constants and the
    path is a line.
    """

    BOTH_ZERO = "both-zero"
    GENERIC = "generic"
    ORTHOGONAL = "orthogonal"


@dataclass(frozen=True)
class PathPolynomials:
    """Coordinate polynomials of one path, all homogeneous of equal degree.

    ``first`` and ``second`` are the case-split forms: for the slope path a
    rectangle at ratio r has aspect ratio m_CD * first(r) / second(r); for
    the aspect path it has slope first(r) / second(r).  ``x`` and ``y`` map
    roles to the vertex-coordinate forms and ``w`` is the homogenizing form
    whose roots are the path's points at infinity.  ``field`` is the field
    of the coefficients.
    """

    case: PathCase
    first: tuple
    second: tuple
    x: dict
    y: dict
    w: tuple
    field: object

    @functools.cached_property
    def integer_forms(self) -> list:
        """The nine forms x_A, y_A, ..., x_D, y_D, w as ints, cleared by one common factor."""
        forms = [f for role in ROLES for f in (self.x[role], self.y[role])]
        forms.append(self.w)
        return hpoly.integer_forms(self.field, forms)


def _slope_forms(cfg: NormalizedConfig):
    zero, one = cfg.field.zero(), cfg.field.one()
    if not cfg.e1 and not cfg.e2:
        return PathCase.BOTH_ZERO, (zero,), (one,)
    if cfg.ef_sum:
        return PathCase.GENERIC, (cfg.e1, cfg.e2), (cfg.f2, -cfg.f1)
    if cfg.e1:
        return PathCase.ORTHOGONAL, (one,), (cfg.f2 / cfg.e1,)
    return PathCase.ORTHOGONAL, (one,), (-cfg.f1 / cfg.e2,)


def _aspect_forms(cfg: NormalizedConfig):
    zero, one = cfg.field.zero(), cfg.field.one()
    m_cd = cfg.m_c - cfg.m_d
    if not cfg.f1 and not cfg.e2:
        return PathCase.BOTH_ZERO, (zero,), (one,)
    if cfg.ef_sum:
        return (
            PathCase.GENERIC,
            (cfg.f1 / m_cd, cfg.e2),
            (cfg.f2 / m_cd, -cfg.e1),
        )
    if cfg.e2:
        return PathCase.ORTHOGONAL, (one,), (-cfg.e1 / cfg.e2,)
    return PathCase.ORTHOGONAL, (one,), (cfg.f2 / cfg.f1,)


def slope_path_polys(cfg: NormalizedConfig) -> PathPolynomials:
    """The nine coordinate polynomials of the slope path."""
    case, e_form, f_form = _slope_forms(cfg)
    one = cfg.field.one()
    m_c, m_d, m_b = cfg.m_c, cfg.m_d, cfg.m_b
    x = {
        "A": hpoly.add(hpoly.mul((-one, m_c), e_form), hpoly.mul((one, cfg.field.zero()), f_form)),
        "B": hpoly.add(hpoly.mul((-one, m_d), e_form), hpoly.mul((one, cfg.field.zero()), f_form)),
        "C": hpoly.mul((-one, m_d), e_form),
        "D": hpoly.mul((-one, m_c), e_form),
    }
    w = hpoly.sub(
        hpoly.mul(hpoly.scale(m_b - m_c, (one, -m_d)), e_form),
        hpoly.mul((m_b, one), f_form),
    )
    y = {role: hpoly.add(hpoly.scale(cfg.slope(role), x[role]),
                         hpoly.scale(cfg.intercept(role), w)) for role in ROLES}
    return PathPolynomials(case, e_form, f_form, x, y, w, cfg.field)


def aspect_path_polys(cfg: NormalizedConfig) -> PathPolynomials:
    """The nine coordinate polynomials of the aspect path."""
    case, m_form, n_form = _aspect_forms(cfg)
    zero, one = cfg.field.zero(), cfg.field.one()
    m_cd = cfg.m_c - cfg.m_d
    m_b, m_c, m_d = cfg.m_b, cfg.m_c, cfg.m_d
    m_bc = m_b - m_c
    u_only = (one, zero)
    x = {
        "A": hpoly.sub(hpoly.mul((one, -m_cd), m_form), hpoly.mul(hpoly.scale(m_c, u_only), n_form)),
        "B": hpoly.sub(hpoly.mul((one, -m_cd), m_form), hpoly.mul(hpoly.scale(m_d, u_only), n_form)),
        "C": hpoly.sub(hpoly.mul(u_only, m_form), hpoly.mul(hpoly.scale(m_d, u_only), n_form)),
        "D": hpoly.sub(hpoly.mul(u_only, m_form), hpoly.mul(hpoly.scale(m_c, u_only), n_form)),
    }
    w = hpoly.add(
        hpoly.mul((-m_bc, m_cd * m_b), m_form),
        hpoly.mul((m_bc * m_d, m_cd), n_form),
    )
    y = {role: hpoly.add(hpoly.scale(cfg.slope(role), x[role]),
                         hpoly.scale(cfg.intercept(role), w)) for role in ROLES}
    return PathPolynomials(case, m_form, n_form, x, y, w, cfg.field)


def eval_path(cfg: NormalizedConfig, pp: PathPolynomials, r: Ratio) -> ProjectiveRectangle:
    """The canonical rectangle of the path at the ratio r.

    The point is projective, so the nine integer forms of ``pp`` are
    evaluated at integers proportional to r: (n, d) for n/d over the
    rationals, (1, 0) for 1/0, residues over F_p.
    """
    field = cfg.field
    if field.char:
        s, t = r.num.value, r.den.value
    else:
        num, den = r.num, r.den
        s, t = num.numerator * den.denominator, den.numerator * num.denominator
    coords = [hpoly.eval_at(f, s, t) for f in pp.integer_forms]
    try:
        return ProjectiveRectangle.canonical(field, coords)
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
    keys.append(eval_path(cfg, pp, Ratio(field.one(), field.zero())).key)
    return keys


def slope_path_eval(cfg: NormalizedConfig, r: Ratio) -> ProjectiveRectangle:
    """The rectangle on the slope path with slope r."""
    return eval_path(cfg, slope_path_polys(cfg), r)


def aspect_path_eval(cfg: NormalizedConfig, r: Ratio) -> ProjectiveRectangle:
    """The rectangle on the aspect path with aspect ratio r."""
    return eval_path(cfg, aspect_path_polys(cfg), r)


@dataclass(frozen=True)
class PathHomography:
    """Invertible projective-line map linking the two paths.

    For a non-degenerate configuration, to_aspect sends a slope to the aspect
    ratio of the unique rectangle with that slope, and to_slope is its
    inverse; composing a path with the matching map reparameterizes it into
    the other path.
    """

    to_aspect: tuple  # 2x2 matrix rows (m00, m01, m10, m11)
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
    """The slope/aspect reparameterization of a non-degenerate configuration."""
    if not cfg.ef_sum:
        raise DegenerateConfigError(
            "the slope and aspect paths of a degenerate configuration are distinct lines"
        )
    m_cd = cfg.m_c - cfg.m_d
    to_aspect = (m_cd * cfg.e1, m_cd * cfg.e2, cfg.f2, -cfg.f1)
    to_slope = (cfg.f1 / m_cd, cfg.e2, cfg.f2 / m_cd, -cfg.e1)
    return PathHomography(to_aspect, to_slope)


def ratio_samples(field, count: int):
    """Deterministic ratio sequence 0/1, 1/0, 1/1, 1/-1, 2/1, 2/-1, 1/2, ...

    Integer pairs are enumerated by increasing height and mapped into the
    field, skipping repeats; over a prime field the sequence exhausts the
    projective line and stops.
    """
    if field.char:
        count = min(count, field.char + 1)  # the whole projective line over F_p
    out = []
    seen = set()

    def push(si: int, ti: int) -> bool:
        r = Ratio.of(field.from_int(si), field.from_int(ti))
        key = (r.num, r.den)
        if key not in seen:
            seen.add(key)
            out.append(r)
        return len(out) >= count

    if push(0, 1) or push(1, 0):
        return out
    h = 1
    while True:
        for t in range(1, h + 1):
            if math.gcd(h, t) == 1:
                if push(h, t) or push(h, -t):
                    return out
        for s in range(1, h):
            if math.gcd(s, h) == 1:
                if push(s, h) or push(s, -h):
                    return out
        h += 1
