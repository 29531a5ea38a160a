"""Dense homogeneous polynomials in two variables.

A form of degree d is a tuple ``(c0, ..., cd)`` standing for
``sum(c[i] * S**(d-i) * T**i)``.  Length-1 tuples are constants.  All
coefficients are exact field elements and arithmetic never leaves the field,
except in :func:`integer_forms`, which clears a family of forms to integers
for evaluation at integer points.
"""

from __future__ import annotations

import math


def mul(f, g):
    n, m = len(f), len(g)
    out = []
    for k in range(n + m - 1):
        acc = None
        for i in range(max(0, k - m + 1), min(k, n - 1) + 1):
            term = f[i] * g[k - i]
            acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)


def add(f, g):
    if len(f) != len(g):
        raise ValueError("degree mismatch in add")
    return tuple(a + b for a, b in zip(f, g))


def sub(f, g):
    if len(f) != len(g):
        raise ValueError("degree mismatch in sub")
    return tuple(a - b for a, b in zip(f, g))


def scale(k, f):
    return tuple(k * c for c in f)


def neg(f):
    return tuple(-c for c in f)


def eval_at(f, s, t):
    """f(s, t) by homogeneous Horner: acc = acc*s + c_i*t^i, with a running power of t."""
    acc = f[0]
    power = None
    for c in f[1:]:
        power = t if power is None else power * t
        acc = acc * s + c * power
    return acc


def integer_forms(field, forms):
    """The forms as tuples of Python ints, all scaled by one nonzero constant.

    Over F_p the constant is 1 and the integers are the residues; over the
    rationals it is the lcm of every coefficient's denominator.  Projective
    evaluation is blind to the common factor.
    """
    if field.char:
        return [tuple(c.value for c in f) for f in forms]
    factor = math.lcm(*(c.denominator for f in forms for c in f))
    return [tuple(c.numerator * (factor // c.denominator) for c in f) for f in forms]


def is_zero(f):
    return all(not c for c in f)


def divides(f, g) -> bool:
    """Exact divisibility of homogeneous forms: does f divide g in k[S,T]?"""
    if is_zero(f):
        return is_zero(g)
    if is_zero(g):
        return True
    if len(g) < len(f):
        return False
    # Leading zero coefficients are powers of T; strip and compare valuations.
    fi = next(i for i, c in enumerate(f) if c)
    gi = next(i for i, c in enumerate(g) if c)
    if fi > gi:
        return False
    fc, gc = list(f[fi:]), list(g[gi:])
    # Now fc has an invertible leading coefficient; ordinary long division.
    while len(gc) >= len(fc):
        q = gc[0] / fc[0]
        for i, c in enumerate(fc):
            gc[i] = gc[i] - q * c
        gc.pop(0)  # cancelled by construction
    return all(not c for c in gc)
