"""Property tests: the closed-form locus against the sampled nullspace fit, and the
all-parallel midline on covectors against its field-element reference."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from quadriline import (
    QQ,
    ConfigurationInput,
    NormalizedConfig,
    PrimeField,
    QuadrilineError,
    all_parallel_analysis,
    normalize,
)
from quadriline.locus import centers_paths
from conftest import input_line, same_line
from membership import Line, all_parallel_midline, from_int, zero_of
from test_locus import printed, reference_locus

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
        lines.append(input_line(QQ, Line(a, b, draw(small_q))))
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
    assert printed(cfg.field, report) == reference_locus(cfg)


@st.composite
def parallel_families(draw, p, kind, shared):
    """Four parallel Lines A, B, C, D over ℚ (p = None) or F_p: a horizontal family
    (a = 0, so b is the pivot), a vertical or a sloped one, each line at its own nonzero
    scale, with the two midlines shared or not."""
    field = QQ if p is None else PrimeField(p)
    elements = small_q if p is None else st.integers(0, p - 1).map(lambda n: from_int(field, n))
    nonzero = elements.filter(bool)
    a = zero_of(field) if kind == "horizontal" else draw(nonzero)
    b = zero_of(field) if kind == "vertical" else draw(nonzero)
    offsets = [draw(elements) for _ in range(3)]  # of A, B and C, at the normal (a, b)
    # c_D = c_A + c_C - c_B is (c_A + c_C) / 2 = (c_B + c_D) / 2, a shared midline.
    offsets.append(offsets[0] + offsets[2] - offsets[1] + (0 if shared else draw(nonzero)))
    scales = [draw(nonzero) for _ in range(4)]
    return field, [Line(k * a, k * b, k * c) for k, c in zip(scales, offsets)]


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
@pytest.mark.parametrize("kind", ["horizontal", "vertical", "sloped"])
@pytest.mark.parametrize("p", [None, 5, 7, 1009], ids=["QQ", "F5", "F7", "F1009"])
def test_all_parallel_matches_the_field_reference(p, kind, shared):
    """all_parallel_analysis on the int lines against ``membership.all_parallel_midline``:
    the same verdict, the one that the family was built with, and the same midline."""

    @settings(max_examples=25, deadline=None)
    @given(parallel_families(p, kind, shared))
    def check(family):
        field, lines = family
        report = all_parallel_analysis(field, [input_line(field, ln) for ln in lines])
        assert report.midline_shared == all_parallel_midline(field, lines)[0] == shared
        if shared:
            assert same_line(field, report.midline, all_parallel_midline(field, lines)[1])
        else:
            assert report.midline is None

    check()
