"""Tiny exact linear algebra over any field whose elements support + - * /."""

from __future__ import annotations

from typing import NamedTuple, Optional


class Solution2(NamedTuple):
    """Solution set of a 2x2 linear system.

    kind is one of "unique", "none", "line", "all".  For "line" the set is
    {particular + k * direction}; for a homogeneous system the particular
    part is the zero vector.
    """

    kind: str
    particular: Optional[tuple]
    direction: Optional[tuple]


def solve2(m00, m01, m10, m11, b0, b1) -> Solution2:
    det = m00 * m11 - m01 * m10
    if det:
        x0 = (b0 * m11 - b1 * m01) / det
        x1 = (m00 * b1 - m10 * b0) / det
        return Solution2("unique", (x0, x1), None)
    rows = []
    for a, b, c in ((m00, m01, b0), (m10, m11, b1)):
        if not a and not b:
            if c:
                return Solution2("none", None, None)
        else:
            rows.append((a, b, c))
    if not rows:
        return Solution2("all", None, None)
    if len(rows) == 2:
        (a1, b1_, c1), (a2, b2_, c2) = rows
        # Rows are proportional (det = 0); the right sides must match scale.
        if a1 * c2 - a2 * c1 or b1_ * c2 - b2_ * c1:
            return Solution2("none", None, None)
    a, b, c = rows[0]
    if a:
        particular = (c / a, c - c)
    else:
        particular = (c - c, c / b)
    return Solution2("line", particular, (-b, a))


def intersect_lines(a1, b1, c1, a2, b2, c2):
    """Intersection point of a1 x + b1 y = c1 and a2 x + b2 y = c2, or None."""
    sol = solve2(a1, b1, a2, b2, c1, c2)
    if sol.kind != "unique":
        return None
    return sol.particular

