"""Host-speed probe, and times scaled to a reference host.

On a shared host the speed of one core swings by up to about 1.8x over
tens of seconds, as other tenants come and go; a run of twenty seconds
sits in one such phase, so raw times differ between runs far more than
any change to the program would move them.  The probe is a fixed piece of
pure-Python work of the same kind as the library's hot loop (extended
Edwards additions and one modular inversion over 2^255 - 19).  It is the
benchmark's own code, so no change to the program can change it.

The benchmark runs the probe between operations, outside the timed spans,
and scales each operation's time by ``PROBE_REF_NS / local probe time``:
the time the operation would have taken on a host where the probe takes
``PROBE_REF_NS``.  Arithmetic-bound operations track the probe within a
few per cent across phases; raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from time import perf_counter_ns

PROBE_REF_NS = 400_000
PROBE_SPAN = 5  # probes whose median gives the local speed, by default

_P = 2**255 - 19
_D2 = 2 * (-121665 * pow(121666, _P - 2, _P)) % _P
# Ed25519 base point in extended coordinates (X, Y, Z, T = XY/Z).
_BX = 15112221349535400772501151409588531511454012693041857206046113283949847762202
_BY = 46316835694926478169428394003475163141307993866256225615783033603165251855960
_BASE = (_BX, _BY, 1, _BX * _BY % _P)


def _add(p1, p2):
    x1, y1, z1, t1 = p1
    x2, y2, z2, t2 = p2
    a = (y1 - x1) * (y2 - x2) % _P
    b = (y1 + x1) * (y2 + x2) % _P
    c = t1 * t2 % _P * _D2 % _P
    d = 2 * z1 * z2 % _P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def probe_ns() -> int:
    """Time one run of the fixed reference work."""
    start = perf_counter_ns()
    acc = _BASE
    for _ in range(60):
        acc = _add(acc, _BASE)
    pow(acc[2], _P - 2, _P)
    return perf_counter_ns() - start


class Recorder:
    """Timed operations in order, with host-speed probes taken between them."""

    def __init__(self, probe_every: int | None = None, span: int = PROBE_SPAN):
        self.probe_every = probe_every
        self.span = span
        self.ops: list[tuple[str, int]] = []
        self.probes: list[tuple[int, int]] = []  # (operations before it, ns)
        self.busy = 0

    def add(self, kind: str, ns: int) -> None:
        self.ops.append((kind, ns))
        self.busy += ns
        if self.probe_every and len(self.ops) % self.probe_every == 0:
            self.probe()

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            self.probes.append((len(self.ops), probe_ns()))

    def scaled(self) -> list[tuple[str, float]]:
        """Each operation's time on the reference host.

        An operation is scaled by the median of the ``span`` probes nearest
        to it in the sequence, about half taken before it and half after.
        """
        if not self.probes:
            raise ValueError("no host-speed probe was taken")
        at = [pos for pos, _ in self.probes]
        speeds = [ns for _, ns in self.probes]
        out = []
        for i, (kind, ns) in enumerate(self.ops):
            j = bisect_right(at, i)
            lo = max(0, min(j - self.span // 2, len(speeds) - self.span))
            local = statistics.median(speeds[lo:lo + self.span])
            out.append((kind, ns * PROBE_REF_NS / local))
        return out

    def probe_median_ms(self) -> float:
        return statistics.median(ns for _, ns in self.probes) / 1e6
