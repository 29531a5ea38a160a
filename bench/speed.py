"""Machine-speed probe: a fixed piece of pure-Python work timed next to each op.

The shared machine the benchmark runs on changes speed by up to a factor of
two within a minute: the same round of rational-mix ops took 0.83 s and 1.73 s
in one process, and the process's CPU time rose with its wall time, so no
clock alone gives timings that repeat between runs.  ``Probe.scale`` times a
fixed chunk of standard-library work right after each op and returns the op's
time as it would read on a machine where one chunk takes ``REFERENCE_S``:

    scaled = wall time of the op * REFERENCE_S / time of one chunk, measured next to it

The chunk uses no program code, so a change to the program cannot move it;
a program that gets slower reads slower.
"""

from __future__ import annotations

import gc
import json
import time
from fractions import Fraction

# One chunk on the reference machine.  The chunk is sized to take about this
# long on an unloaded 2.1 GHz Xeon core with Python 3.11.
REFERENCE_S = 0.001
# Probe time after an op, as a share of the op's wall time; at least one chunk.
SHARE = 0.15


def chunk():
    """The fixed reference work: Fraction arithmetic, ints mod p, dicts and str."""
    acc, x = Fraction(0), Fraction(3, 7)
    for k in range(1, 40):
        acc += x / k - Fraction(k, 11) * x
        x = x * Fraction(5, 3) % 7
    y, table = 12345, {}
    for k in range(600):
        y = (y * y + k) % 1_000_003
        table[k % 97] = str(y)
    return acc, json.dumps(table)


class Probe:
    """Scales op times by the machine speed measured right after each op."""

    def __init__(self):
        self.chunks = 0
        self.seconds = 0.0

    def scale(self, elapsed):
        """Run chunks for at least SHARE * elapsed; return elapsed at reference speed."""
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not slow the probe
        count = 0
        start = time.perf_counter()
        try:
            while True:
                chunk()
                count += 1
                spent = time.perf_counter() - start
                if spent >= SHARE * elapsed:
                    break
        finally:
            if enabled:
                gc.enable()
        self.chunks += count
        self.seconds += spent
        return elapsed * REFERENCE_S * count / spent

    def chunk_ms(self):
        """Mean measured chunk time; REFERENCE_S * 1e3 on the reference machine."""
        return self.seconds / self.chunks * 1e3 if self.chunks else 0.0
