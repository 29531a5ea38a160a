"""Property test: square roots in prime fields far too large to search."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from quadriline import PrimeField

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
