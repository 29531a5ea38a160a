"""Property tests: square roots in prime fields far too large to search, and the report
text of a ratio of ints."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from quadriline import QQ, PrimeField, Ratio
from quadriline.scalars import ratio_text

LARGE_PRIMES = [10**9 + 7, 998244353, 2**61 - 1, 10**18 + 3]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LARGE_PRIMES), st.integers(min_value=1))
def test_sqrt_of_a_square_is_its_least_root(p, n):
    if not n % p:
        return
    r = PrimeField(p).sqrt(n * n)
    assert r in (n % p, p - n % p)
    assert r <= p // 2


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LARGE_PRIMES), st.integers(min_value=1))
def test_non_residues_have_no_root(p, n):
    if not n % p:
        return
    g = next(k for k in range(2, p) if pow(k, (p - 1) // 2, p) == p - 1)
    assert PrimeField(p).sqrt(n * n * g) is None


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from([0, 0, 3, 7, 1009, 10**9 + 7, 2**61 - 1]),
    st.integers(-50, 50) | st.integers(),
    st.sampled_from([0, 1, -1]) | st.integers(-50, 50) | st.integers(),
)
def test_ratio_text_is_the_reduced_quotient(p, s, t):
    """s : t prints as the field's quotient s / t (a Fraction's str over the rationals, a
    residue over F_p) or as 1/0, and a Ratio prints its canonical ints by the same rule."""
    assume(s % p or t % p if p else s or t)
    field = PrimeField(p) if p else QQ
    expected = str(field.from_int(s) / t) if (t % p if p else t) else "1/0"
    assert ratio_text(p, s, t) == expected
    r = Ratio(field, s, t)
    assert str(r) == expected == (str(r.s) if r.t == 1 else f"{r.s}/{r.t}" if r.t else "1/0")
