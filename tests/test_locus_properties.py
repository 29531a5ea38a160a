"""Property test: the closed-form locus against the sampled nullspace fit."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from quadriline import (
    QQ,
    ConfigurationInput,
    InputLine,
    NormalizedConfig,
    PrimeField,
    QuadrilineError,
    normalize,
)
from quadriline.locus import centers_paths
from test_locus import reference_locus

PRIMES = [n for n in range(37, 400) if all(n % d for d in range(2, n))] + [1_000_000_007]

small_q = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


@st.composite
def rational_configs(draw):
    """Four input lines A, C, B, D, any of them vertical, normalized."""
    lines = []
    for _ in range(4):
        a = draw(small_q)
        b = draw(st.just(Fraction(0)) | small_q)
        assume(a or b)
        lines.append(InputLine(a, b, draw(small_q)))
    try:
        cfg, _ = normalize(ConfigurationInput(QQ, tuple(lines[:2]), tuple(lines[2:])))
    except QuadrilineError:
        assume(False)
    return cfg


@st.composite
def prime_configs(draw):
    p = draw(st.sampled_from(PRIMES))
    residue = st.integers(0, p - 1)
    m_a, m_b, m_c, b_a = draw(residue), draw(residue), draw(residue), draw(residue)
    m_d = (m_c + draw(st.integers(1, p - 1))) % p  # C and D never parallel
    return NormalizedConfig.from_ints(PrimeField(p), m_a, m_b, m_c, m_d, b_a)


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_configs(), prime_configs()))
def test_closed_form_matches_sampled_fit(cfg):
    assume(cfg.ef_sum)  # the fit only ever ran on non-degenerate configurations
    report = centers_paths(cfg)
    assert (report.conic, report.single_line, report.point) == reference_locus(cfg)
