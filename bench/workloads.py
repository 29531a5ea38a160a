"""Seeded input generator for the three benchmark workloads.

A run is a sequence of rounds.  Round k of a workload is drawn from its own
``random.Random`` seeded with ``"<workload>:<seed>:<k>"``, so the same seed
always yields byte-identical input files, and every round has the same shape:

* ``rational-mix``: 24 rational configurations.  16 are random lines (4 of
  them with one vertical line), 2 are exact similarity images of the TwoLines
  standing form (-4, -1, 0, 2, 3), 2 of the twin-pair form (1, 0, 0, 1, 1),
  2 are all-parallel (one with a shared midline) and 2 are concurrent.  Each
  configuration runs classify, rect --slope, rect --aspect, path --kind slope,
  path --kind aspect and locus; render runs on 4 random configurations and 2
  of the other 8, a quarter of the round.
* ``prime-census``: one census per prime in [31, 127] (all 21 of them, so the
  p^2 cost spread is the same in every round), on random lines, in a seeded
  order.
* ``large-prime``: one random prime from each 10^5-wide stratum of
  [10^5, 2*10^6), with classify, rect --slope and rect --aspect on random
  non-vertical lines.  Half the configurations have two rectangles at
  infinity (10 and 9 of 19 in alternate rounds), which is about the natural
  share: for those classify runs two square-root searches mod p, for the
  others none.  Left to chance, that share alone moved the op p90 by +-20%
  between seeds.

Fixed shares keep the per-command latency percentiles comparable between
seeds; only the lines, ratios, primes within a stratum and order vary.

Nothing here imports the program: validity of the random lines (no two
parallel, no three concurrent) is decided with exact arithmetic locally.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("rational-mix", "prime-census", "large-prime")

# Standing forms (m_A, m_B, m_C, m_D, b_A) with B: y = m_B x + 1, C: y = m_C x,
# D: y = m_D x, and the classification every similarity image must keep.
TWO_LINES_FORM = (-4, -1, 0, 2, 3)
TWIN_PAIR_FORM = (1, 0, 0, 1, 1)
IMAGE_CLASSES = {
    "two-lines": {
        "degenerate": True,
        "twin_pairs": False,
        "dual_pairs": False,
        "locus_shape": "TwoLines",
    },
    "twin-pair": {
        "degenerate": True,
        "twin_pairs": True,
        "dual_pairs": False,
        "locus_shape": "LinePlusInfinity",
    },
}

CENSUS_PRIMES = tuple(
    p for p in range(31, 128) if all(p % d for d in range(2, int(p ** 0.5) + 1))
)
LARGE_PRIME_STRATA = tuple((lo, lo + 100_000) for lo in range(100_000, 2_000_000, 100_000))
PATH_SAMPLES = 8
RENDER_SAMPLES = 12


@dataclass
class Case:
    """One input file: a configuration and what the checker may expect of it."""

    name: str
    doc: dict
    kind: str  # random | two-lines | twin-pair | all-parallel | concurrent
    state: dict = field(default_factory=dict)  # filled by the checker

    @property
    def prime(self):
        tag = self.doc["field"]
        return None if tag == "rational" else tag["prime"]


@dataclass
class Op:
    """One CLI call: ``<command> --input <case file> <args>``."""

    case: Case
    command: str
    args: list
    exit: int  # the expected exit code

    def argv(self, directory):
        argv = [self.command, "--input", os.path.join(directory, self.case.name + ".json"), *self.args]
        if self.command == "render":
            argv += ["--out", os.path.join(directory, "render.svg")]
        return argv


# --- exact helpers (no program code) -------------------------------------


def _det2(l1, l2):
    return l1[0] * l2[1] - l1[1] * l2[0]


def _det3(l1, l2, l3):
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = l1, l2, l3
    return a1 * (b2 * c3 - b3 * c2) - b1 * (a2 * c3 - a3 * c2) + c1 * (a2 * b3 - a3 * b2)


def _general_position(lines, p=None):
    """No two of the lines parallel and no three through one point."""
    red = (lambda x: x % p) if p else (lambda x: x)
    for i in range(4):
        for j in range(i + 1, 4):
            if not red(_det2(lines[i], lines[j])):
                return False
            for k in range(j + 1, 4):
                if not red(_det3(lines[i], lines[j], lines[k])):
                    return False
    return True


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _doc(field_tag, lines):
    """Input document; ``lines`` is (A, C, B, D) as (a, b, c) triples."""
    a, c, b, d = ({"a": str(t[0]), "b": str(t[1]), "c": str(t[2])} for t in lines)
    return {"field": field_tag, "pairs": [[a, c], [b, d]]}


def _small_q(rng, lo=-6, hi=6):
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 1, 2, 3)))


def _nonzero_q(rng, lo=-6, hi=6):
    while True:
        x = _small_q(rng, lo, hi)
        if x:
            return x


def _ratio_arg(rng) -> str:
    while True:
        s, t = rng.randint(-4, 4), rng.randint(0, 4)
        if s or t:
            return f"{s}/{t}"


# --- rational configurations ----------------------------------------------


def _random_rational(rng, vertical: bool):
    while True:
        lines = [(_small_q(rng), _nonzero_q(rng), _small_q(rng)) for _ in range(4)]
        if vertical:
            i = rng.randrange(4)
            lines[i] = (_nonzero_q(rng), Fraction(0), _small_q(rng))
        if _general_position(lines):
            return lines


def _similarity_image(rng, form):
    """Lines of the standing form moved by an exact similarity and relabelled.

    The similarity is a Pythagorean rotation, a translation and a scale; each
    equation is also multiplied by a random nonzero factor.  The relabel is
    one of the 8 swaps that keep the pair structure (A, C) / (B, D).
    """
    m_a, m_b, m_c, m_d, b_a = (Fraction(v) for v in form)
    standing = {"A": (-m_a, 1, b_a), "B": (-m_b, 1, 1), "C": (-m_c, 1, 0), "D": (-m_d, 1, 0)}
    while True:
        u, v = rng.randint(-4, 4), rng.randint(-4, 4)
        if u or v:
            break
    h = u * u + v * v
    cos, sin = Fraction(u * u - v * v, h), Fraction(2 * u * v, h)
    tx, ty = _small_q(rng), _small_q(rng)
    lam = _nonzero_q(rng, 1, 5)
    moved = {}
    for role, (a, b, c) in standing.items():
        a2, b2 = cos * a - sin * b, sin * a + cos * b
        k = _nonzero_q(rng, -3, 3)
        moved[role] = (k * a2, k * b2, k * (lam * c + a2 * tx + b2 * ty))
    pair1, pair2 = [moved["A"], moved["C"]], [moved["B"], moved["D"]]
    if rng.random() < 0.5:
        pair1.reverse()
    if rng.random() < 0.5:
        pair2.reverse()
    if rng.random() < 0.5:
        pair1, pair2 = pair2, pair1
    return [pair1[0], pair1[1], pair2[0], pair2[1]]


def _all_parallel(rng, shared: bool):
    while True:
        n = (rng.randint(-3, 3), rng.randint(-3, 3))
        if n != (0, 0):
            break
    while True:
        c_a, c_c, c_b = (_small_q(rng) for _ in range(3))
        c_d = c_a + c_c - c_b if shared else _small_q(rng)
        offsets = (c_a, c_c, c_b, c_d)
        if len(set(offsets)) == 4 and (c_a + c_c == c_b + c_d) == shared:
            break
    out = []
    for c in offsets:
        k = _nonzero_q(rng, -3, 3)
        out.append((k * n[0], k * n[1], k * c))
    return out


def _concurrent(rng):
    px, py = _small_q(rng), _small_q(rng)
    while True:
        normals = [(_small_q(rng, -4, 4), _small_q(rng, -4, 4)) for _ in range(4)]
        if all(_det2(normals[i], normals[j]) for i in range(4) for j in range(i + 1, 4)):
            break
    return [(a, b, a * px + b * py) for a, b in normals]


def rational_mix_round(rng, tag, index):
    kinds = ["random"] * 16 + ["two-lines"] * 2 + ["twin-pair"] * 2 + ["all-parallel"] * 2 + ["concurrent"] * 2
    vertical = set(rng.sample(range(16), 4))
    render = set(rng.sample(range(16), 4)) | set(rng.sample(range(16, 24), 2))
    cases = []
    for i, kind in enumerate(kinds):
        if kind == "random":
            lines = _random_rational(rng, i in vertical)
        elif kind == "two-lines":
            lines = _similarity_image(rng, TWO_LINES_FORM)
        elif kind == "twin-pair":
            lines = _similarity_image(rng, TWIN_PAIR_FORM)
        elif kind == "all-parallel":
            lines = _all_parallel(rng, shared=(i % 2 == 0))
        else:
            lines = _concurrent(rng)
        cases.append(Case(f"{tag}-c{i:02d}", _doc("rational", lines), kind))
    order = list(range(len(cases)))
    rng.shuffle(order)
    ops = []
    for i in order:
        case = cases[i]
        ok = 2 if case.kind in ("all-parallel", "concurrent") else 0
        routed = 0 if case.kind == "all-parallel" else ok  # classify and locus handle it
        ops += [
            Op(case, "classify", [], routed),
            Op(case, "rect", [f"--slope={_ratio_arg(rng)}"], ok),
            Op(case, "rect", [f"--aspect={_ratio_arg(rng)}"], ok),
            Op(case, "path", ["--kind", "slope", "--samples", str(PATH_SAMPLES)], ok),
            Op(case, "path", ["--kind", "aspect", "--samples", str(PATH_SAMPLES)], ok),
            Op(case, "locus", [], routed),
        ]
        if i in render:
            ops.append(Op(case, "render", ["--samples", str(RENDER_SAMPLES), "--diagonals"], ok))
    return cases, ops


# --- prime-field configurations -------------------------------------------


def _random_fp(rng, p):
    while True:
        lines = []
        for _ in range(4):
            while True:
                a, b = rng.randrange(p), rng.randrange(p)
                if a or b:
                    break
            lines.append((a, b, rng.randrange(p)))
        if _general_position(lines, p):
            return lines


def prime_census_round(rng, tag, index):
    primes = list(CENSUS_PRIMES)
    rng.shuffle(primes)
    cases, ops = [], []
    for i, p in enumerate(primes):
        case = Case(f"{tag}-c{i:02d}", _doc({"prime": p}, _random_fp(rng, p)), "random")
        cases.append(case)
        ops.append(Op(case, "census", [], 0))
    return cases, ops


def _prime_in(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi)
        while n < hi and not _is_prime(n):
            n += 1
        if n < hi:
            return n


def _splits_at_infinity(lines, p):
    """Are there two rectangles at infinity, i.e. does the slope form split mod p?

    The at-infinity slopes are the roots of lead S^2 - beta S T - lead T^2
    with lead = m_A m_C - m_B m_D and beta = (m_A m_C + 1)(m_B + m_D) -
    (m_B m_D + 1)(m_A + m_C).  Its discriminant depends only on the slopes, so
    it is the same for the input lines as for the standing form.  When it is a
    nonzero square, classify takes two square roots mod p (the aspect form
    splits with it); otherwise none.
    """
    m_a, m_c, m_b, m_d = (-a * pow(b, -1, p) for a, b, _ in lines)
    lead = m_a * m_c - m_b * m_d
    beta = (m_a * m_c + 1) * (m_b + m_d) - (m_b * m_d + 1) * (m_a + m_c)
    disc = (beta * beta + 4 * lead * lead) % p
    return disc != 0 and pow(disc, (p - 1) // 2, p) == 1


def large_prime_round(rng, tag, index):
    strata = list(LARGE_PRIME_STRATA)
    rng.shuffle(strata)
    # Half the configurations split (10 and 9 of 19 in alternate rounds).
    split = set(rng.sample(range(len(strata)), 10 - index % 2))
    cases, ops = [], []
    for i, (lo, hi) in enumerate(strata):
        p = _prime_in(rng, lo, hi)
        while True:
            lines = _random_fp(rng, p)
            if all(b for _, b, _ in lines) and _splits_at_infinity(lines, p) == (i in split):
                break
        case = Case(f"{tag}-c{i:02d}", _doc({"prime": p}, lines), "random")
        cases.append(case)
        ops += [
            Op(case, "classify", [], 0),
            Op(case, "rect", [f"--slope={_ratio_arg(rng)}"], 0),
            Op(case, "rect", [f"--aspect={_ratio_arg(rng)}"], 0),
        ]
    return cases, ops


_ROUNDS = {
    "rational-mix": rational_mix_round,
    "prime-census": prime_census_round,
    "large-prime": large_prime_round,
}


def make_round(workload: str, seed: int, index: int):
    """Cases and ops of round ``index``; deterministic in (workload, seed, index)."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return _ROUNDS[workload](rng, f"r{index:03d}", index)


def write_cases(cases, directory):
    os.makedirs(directory, exist_ok=True)
    for case in cases:
        with open(os.path.join(directory, case.name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(case.doc, sort_keys=True, indent=1) + "\n")
