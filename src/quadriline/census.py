"""Enumeration of inscribed rectangles over a prime field.

The rectangles are the F_p-points of a plane quadric in the parallelogram
parameters (x_A : x_B : w).  Each affine row (x_A, w = 1) meets it in the
roots of a quadratic in x_B, and the line w = 0 in the roots of one more
quadratic, all read off the six coefficients of :func:`quadric_h` as plain
ints mod p.  Every hit is completed to a parallelogram without touching the
path code it checks.  The census is then replayed against the
slope and aspect paths: together the two paths must find every rectangle,
degenerate configurations must show the constant-aspect / constant-slope
split, and non-degenerate ones a single curve with injective slope.
"""

from __future__ import annotations

from collections import Counter

from .configuration import NormalizedConfig, classify
from .errors import InternalCheckError, PreconditionError
from .paths import aspect_path_polys, path_keys, slope_path_polys
from .rectangles import ProjectiveRectangle, _residue, aspect_residue, residue_text, slope_residue
from .scalars import Record

# Largest prime a census runs at.  Its time and the set of rectangles it holds
# both grow about linearly in p.  At p = 59,999 one census, end to end, took
# 2.9 s and 111 MB on the configs/cfg1.json lines and 3.7 s and 132 MB on the
# degenerate configs/cfg2.json lines (2p + 1 rectangles), on a 2-vCPU x86-64
# VM with Python 3.11.
MAX_CENSUS_PRIME = 60_000


def _completion(cfg: NormalizedConfig) -> tuple:
    """(k_A, k_B, k_w), residues with x_C = k_A x_A + k_B x_B + k_w w for the
    parallelogram over (x_A : x_B : w): one inverse of m_D - m_C, on the
    standing residues (δ = 1 over F_p)."""
    p = cfg.field.char
    m_a, m_b, m_c, m_d, b_a = cfg.standing[:5]
    inv = pow(m_d - m_c, -1, p)
    return (m_a - m_d) * inv % p, (m_d - m_b) * inv % p, (b_a - 1) * inv % p


def _symmetric_product(l1, l2):
    """The product of two linear forms in (X_A, X_B, X), as the coefficients of
    X_A^2, X_A X_B, X_B^2, X_A X, X_B X, X^2."""
    a1, b1, w1 = l1
    a2, b2, w2 = l2
    return (a1 * a2, a1 * b2 + b1 * a2, b1 * b2, a1 * w2 + w1 * a2, b1 * w2 + w1 * b2, w1 * w2)


def quadric_h(cfg: NormalizedConfig) -> tuple:
    """The quadric h(x_A, x_B, w) that cuts out the rectangles, as six residues
    (aa, ab, bb, aw, bw, ww) of X_A^2, X_A X_B, X_B^2, X_A X, X_B X, X^2.

    h = (y_B - y_A)(y_C - y_B) + (x_B - x_A)(x_C - x_B) on the parallelogram
    over (x_A : x_B : w), with x_C from :func:`_completion`: it vanishes
    exactly when that parallelogram is a rectangle.
    """
    p = cfg.field.char
    m_a, m_b, m_c, _, b_a = cfg.standing[:5]
    k_a, k_b, k_w = _completion(cfg)
    dy = _symmetric_product((-m_a, m_b, 1 - b_a), (m_c * k_a, m_c * k_b - m_b, m_c * k_w - 1))
    dx = _symmetric_product((-1, 1, 0), (k_a, k_b - 1, k_w))
    return tuple((u + v) % p for u, v in zip(dy, dx))


def _row_roots(field, a: int, b: int, c: int):
    """The x in F_p with a x^2 + b x + c = 0 (residues mod p); range(p) when
    all three coefficients vanish."""
    p = field.char
    if a:
        d = (b * b - 4 * a * c) % p
        r = field.sqrt(d)
        if r is None:
            return ()
        if (r * r - d) % p:
            raise InternalCheckError(f"{r} is not a square root of {d} mod {p}")
        inv = pow(2 * a, -1, p)
        return {(r - b) * inv % p, (-r - b) * inv % p}
    if b:
        return (-c * pow(b, -1, p) % p,)
    return () if c else range(p)


def enumerate_rectangles(cfg: NormalizedConfig):
    """The set of all rectangles in the configuration space over F_p.

    The rectangles are the zeros of h = :func:`quadric_h`, read once as six
    residues.  On the row (x_A, x_B, 1), h is the quadratic
    bb x_B^2 + (ab x_A + bw) x_B + (aa x_A^2 + aw x_A + ww), solved by one
    square root; a row where all three coefficients vanish lies in the
    quadric.  On the line w = 0 the points (x_A, 1, 0) are the roots of
    aa x_A^2 + ab x_A + bb, and (1, 0, 0) is a zero exactly when aa = 0.
    Each zero is completed to a parallelogram on ints mod p, with
    x_C = k_A x_A + k_B x_B + k_w w from :func:`_completion`, and scaled to
    its canonical form.
    """
    field = cfg.field
    if not field.char:
        raise PreconditionError("census enumeration needs a prime field")
    p = field.char
    if p > MAX_CENSUS_PRIME:
        raise PreconditionError(
            f"census at p = {p} is too large: a census runs at primes up to {MAX_CENSUS_PRIME}"
        )
    aa, ab, bb, aw, bw, ww = quadric_h(cfg)
    hits = [(x_a, 1, 0) for x_a in _row_roots(field, aa, ab, bb)]
    if not aa:
        hits.append((1, 0, 0))
    for x_a in range(p):
        b, c = (ab * x_a + bw) % p, ((aa * x_a + aw) * x_a + ww) % p
        hits.extend((x_a, x_b, 1) for x_b in _row_roots(field, bb, b, c))

    m_a, m_b, m_c, m_d, b_a = cfg.standing[:5]
    k_a, k_b, k_w = _completion(cfg)
    found = set()
    for x_a, x_b, w in hits:
        x_c = (k_a * x_a + k_b * x_b + k_w * w) % p
        x_d = x_a - x_b + x_c
        coords = (x_a, m_a * x_a + b_a * w, x_b, m_b * x_b + w, x_c, m_c * x_c, x_d, m_d * x_d, w)
        found.add(ProjectiveRectangle.canonical(field, coords))
    return found


class CensusReport(Record):
    """Exact counts plus the verdicts of the structural cross-checks."""

    p: int
    total: int
    at_infinity: int
    by_slope: dict
    by_aspect: dict
    union_covered: bool
    at_infinity_bound_ok: bool
    degenerate_consistency_ok: bool
    failures: list


def _ratio_label(field, index: int) -> str:
    """The text of the ratio at place index of a path replay: v for (v : 1), then 1/0.

    A label is built only for a failure message, so a passing census builds
    no ratios.
    """
    return str(index) if index < field.char else "1/0"


def _pair_residue(p: int, s: int, t: int) -> int:
    """The ratio s : t of two ints, not both zero mod p, as slope_residue gives it:
    v for (v : 1), p for (1 : 0)."""
    return _residue(p, (s % p, t % p))


def _tally(p: int, values) -> dict:
    """Counts of slope_residue / aspect_residue outcomes, keyed by their text
    and sorted by it; each distinct outcome is written once."""
    return dict(sorted((residue_text(p, v), n) for v, n in Counter(values).items()))


def verify_against_paths(cfg: NormalizedConfig) -> CensusReport:
    """Enumerate rectangles and check them against both paths.

    Past the enumeration every rectangle is its canonical key, and every
    slope and aspect ratio one residue (:func:`slope_residue`), the shared
    ratios of a degenerate configuration too; a passing census builds no ratios.
    """
    field = cfg.field
    p = field.char
    keys = [rect.key for rect in enumerate_rectangles(cfg)]
    census = set(keys)
    cls = classify(cfg)
    failures = []

    spp = slope_path_polys(cfg)
    app = aspect_path_polys(cfg)
    slope_keys = path_keys(cfg, spp)
    aspect_keys = path_keys(cfg, app)
    slope_image, aspect_image = set(slope_keys), set(aspect_keys)

    union = slope_image | aspect_image
    union_covered = census == union
    if not union_covered:
        for witness in sorted(census ^ union):
            side = "census-only" if witness in census else "path-only"
            failures.append(f"union mismatch ({side}): {witness}")

    infinity_count = sum(1 for key in keys if key[8] == 0)
    if cls.twin_pairs or cls.dual_pairs:
        bound_ok = True
    else:
        bound_ok = infinity_count <= 2
        if not bound_ok:
            failures.append(f"{infinity_count} rectangles at infinity")

    slopes = [slope_residue(p, key) for key in keys]
    consistency_ok = True
    if cls.degenerate:
        m_c, m_d = cfg.standing[2:4]  # residues, over δ = 1
        want = _pair_residue(p, (m_c - m_d) * spp.first[0], spp.second[0])
        for i, key in enumerate(slope_keys):
            if aspect_residue(p, key) != want:
                consistency_ok = False
                failures.append(
                    f"slope path aspect varies at {_ratio_label(field, i)}: {key}"
                )
        want = _pair_residue(p, app.first[0], app.second[0])
        f1, f2 = cfg.standing[8:]  # f1 : f2 = F1 : δ F2, over δ = 1
        if (f1 or f2) and want != _pair_residue(p, f1, f2):
            consistency_ok = False
            failures.append("aspect-path slope differs from the F diagonal")
        for i, key in enumerate(aspect_keys):
            if slope_residue(p, key) != want:
                consistency_ok = False
                failures.append(
                    f"aspect path slope varies at {_ratio_label(field, i)}: {key}"
                )
    else:
        if slope_image != aspect_image:
            consistency_ok = False
            failures.append("slope and aspect path images differ")
        seen = set()
        for key, slope in zip(keys, slopes):
            if slope in seen:
                consistency_ok = False
                failures.append(f"slope {residue_text(p, slope)} repeats: {key}")
            seen.add(slope)

    return CensusReport(
        p=p,
        total=len(census),
        at_infinity=infinity_count,
        by_slope=_tally(p, slopes),
        by_aspect=_tally(p, (aspect_residue(p, key) for key in keys)),
        union_covered=union_covered,
        at_infinity_bound_ok=bound_ok,
        degenerate_consistency_ok=consistency_ok,
        failures=failures,
    )


def quadric_point_count(cfg: NormalizedConfig) -> int:
    """Zeros of the rectangle quadric on the parameter plane P^2(F_p), by theorem.

    For p odd a quadratic form on P^2(F_p) with symmetric matrix S has
    p + 1 zeros at rank 3 or 1; at rank 2, 2p + 1 zeros (two lines) when it
    splits over F_p and 1 otherwise; p^2 + p + 1 at rank 0 (Lidl and
    Niederreiter, *Finite Fields*, section 6.2).  A rank-2 form splits iff -m
    is a square, m any nonzero principal 2x2 minor of S.  The rank is read off
    2S, which has integer entries and the same minors up to square factors.
    """
    field = cfg.field
    p = field.char
    if not p:
        raise PreconditionError("census enumeration needs a prime field")
    aa, ab, bb, aw, bw, ww = quadric_h(cfg)
    s = ((2 * aa, ab, aw), (ab, 2 * bb, bw), (aw, bw, 2 * ww))
    # minors[i][j] = det(2S without row i and column j); the diagonal holds the principal ones.
    minors = [
        [
            (s[i1][j1] * s[i2][j2] - s[i1][j2] * s[i2][j1]) % p
            for j1, j2 in ((1, 2), (0, 2), (0, 1))
        ]
        for i1, i2 in ((1, 2), (0, 2), (0, 1))
    ]
    if (s[0][0] * minors[0][0] - s[0][1] * minors[0][1] + s[0][2] * minors[0][2]) % p:
        return p + 1
    if any(any(row) for row in minors):
        m = next((minors[i][i] for i in range(3) if minors[i][i]), None)
        if m is None:
            raise InternalCheckError("a rank-2 symmetric matrix has no nonzero principal minor")
        return 2 * p + 1 if field.sqrt(-m) is not None else 1
    if any(v % p for row in s for v in row):
        return p + 1
    return p * p + p + 1
