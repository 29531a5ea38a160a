"""Dense homogeneous polynomials in two variables.

A form of degree d is a tuple ``(c0, ..., cd)`` standing for
``sum(c[i] * S**(d-i) * T**i)``.  Length-1 tuples are constants.  The
library's path forms and center maps have int coefficients, at a nonzero
scale that projective evaluation does not see, and over F_p zero means zero
mod p (:func:`mod`); forms of field elements work too.  :func:`tabulate`
evaluates an int form at consecutive integers.
"""

from __future__ import annotations

import itertools


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


def eval_at(f, s, t):
    """f(s, t) by homogeneous Horner: acc = acc*s + c_i*t^i, with a running power of t."""
    acc = f[0]
    power = None
    for c in f[1:]:
        power = t if power is None else power * t
        acc = acc * s + c * power
    return acc


def tabulate(f, count, start=0, t=1):
    """The ints f(start + v, t) for v = 0, 1, ..., count - 1, f with int coefficients.

    A forward-difference table (Knuth, *TAOCP* vol. 2, section 4.6.4): the
    differences of the first d + 1 values seed d nested running sums, so each
    value costs d additions in place of a Horner pass.  The values are
    streamed, not stored.
    """
    d = len(f) - 1
    row = [eval_at(f, start + v, t) for v in range(d + 1)]
    diffs = []
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    values = itertools.repeat(diffs[d])
    for k in reversed(range(d)):
        values = itertools.accumulate(values, initial=diffs[k])
    return itertools.islice(values, count)


def mod(v, p: int):
    """v mod p for a prime p, v itself for p = 0: zero exactly when v is zero in the field."""
    return v % p if p else v


def is_zero(f, p: int = 0):
    return all(not mod(c, p) for c in f)
