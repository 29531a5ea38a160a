"""Property tests: Horner ``eval_at`` and the forward-difference ``tabulate``
against the power-sum definition of a form."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from quadriline import QQ, PrimeField, hpoly
from membership import from_int

FIELDS = [QQ, PrimeField(3), PrimeField(101), PrimeField(10**9 + 7)]


def power_sum(f, s, t):
    """The definition: sum(c[i] * s**(d-i) * t**i)."""
    d = len(f) - 1
    acc = None
    for i, c in enumerate(f):
        term = c * s ** (d - i) * t ** i
        acc = term if acc is None else acc + term
    return acc


def scalars(field):
    if field is QQ:
        return st.fractions(max_denominator=50)
    return st.integers(-(10**12), 10**12).map(lambda n: from_int(field, n))


@st.composite
def forms_and_points(draw):
    field = draw(st.sampled_from(FIELDS))
    scalar = scalars(field)
    form = tuple(draw(st.lists(scalar, min_size=1, max_size=5)))  # degree 0 to 4
    return form, draw(scalar), draw(scalar)


@settings(max_examples=200, deadline=None)
@given(forms_and_points())
def test_horner_matches_power_sum(case):
    form, s, t = case
    assert hpoly.eval_at(form, s, t) == power_sum(form, s, t)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=5),  # degree 0 to 4
    st.integers(0, 40),
)
def test_tabulate_matches_power_sum(form, count):
    form = tuple(form)
    assert list(hpoly.tabulate(form, count)) == [power_sum(form, v, 1) for v in range(count)]
