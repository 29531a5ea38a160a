"""The integer locus sweep of ``render`` against the exact Fraction sweep."""

import random
from fractions import Fraction

from quadriline import (
    QQ,
    ConfigurationInput,
    InputLine,
    QuadrilineError,
    Ratio,
    classify,
    normalize,
)
from quadriline import hpoly
from quadriline.errors import AtInfinityError
from quadriline.locus import centers_paths
from quadriline.svgfig import _SWEEP, _swept_centers


def fraction_sweep(center_map, plane_map):
    """Reference: each swept center in Fractions, mapped back exactly, then rounded."""
    points = []
    for s, t in _SWEEP:
        try:
            center = center_map.at(Ratio.of(Fraction(s), Fraction(t)))
        except AtInfinityError:
            points.append(None)
            continue
        x, y = plane_map.invert_point(center)
        points.append((float(x), float(y)))
    return points


def center_map_of(lines):
    """(center map, plane map) of four lines A, C, B, D, or None when the locus is no conic."""
    a, c, b, d = (InputLine(*(QQ.parse(str(v)) for v in line)) for line in lines)
    try:
        cfg, pm = normalize(ConfigurationInput(QQ, (a, c), (b, d)))
    except QuadrilineError:
        return None
    if classify(cfg).degenerate:
        return None
    return centers_paths(cfg).center_map, pm


def random_line(rng, vertical):
    q = lambda: Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
    while True:
        a, b = q(), (0 if vertical else q())
        if a or b:
            return a, b, q()


def test_integer_sweep_matches_fraction_sweep():
    rng = random.Random(20)
    checked = 0
    while checked < 12:
        vertical = rng.randrange(4) if checked % 2 else None
        maps = center_map_of([random_line(rng, i == vertical) for i in range(4)])
        if maps is None:
            continue
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(_swept_centers(*maps)) == repr(fraction_sweep(*maps))
        checked += 1


def test_zero_coordinate_over_negative_denominator():
    cm, pm = center_map_of([(-4, -3, 1), (-1, 3, 5), (-4, 3, 1), (-1, -4, Fraction(5, 2))])
    reference = fraction_sweep(cm, pm)
    # The case the sign normalization is for: an exact 0 reached as 0 / (negative).
    assert any(
        pt is not None and 0.0 in pt and hpoly.eval_at(cm.den, Fraction(s), Fraction(t)) < 0
        for (s, t), pt in zip(_SWEEP, reference)
    )
    assert repr(_swept_centers(cm, pm)) == repr(reference)
