"""Property test: the integer census kernel at random primes and constants."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from quadriline import NormalizedConfig, PrimeField, verify_against_paths
from test_census import assert_matches_reference

ODD_PRIMES = [n for n in range(3, 62) if all(n % d for d in range(2, n))]


@st.composite
def normalized_configs(draw):
    p = draw(st.sampled_from(ODD_PRIMES))
    residue = st.integers(0, p - 1)
    m_a, m_b, m_c, b_a = draw(residue), draw(residue), draw(residue), draw(residue)
    m_d = (m_c + draw(st.integers(1, p - 1))) % p  # C and D never parallel
    return NormalizedConfig.from_ints(PrimeField(p), m_a, m_b, m_c, m_d, b_a)


@settings(max_examples=30, deadline=None)
@given(normalized_configs())
def test_kernel_matches_reference_and_paths(cfg):
    assert_matches_reference(cfg)
    report = verify_against_paths(cfg)
    assert report.ok, report.failures
