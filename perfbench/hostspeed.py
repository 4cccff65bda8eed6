"""Host-speed calibration for the timed metrics.

On a shared 2-core x86-64 host the speed of the whole machine drifts by up
to 2x over seconds to minutes: a fixed pure-Python job timed once a second
ranged from 331 to 612 runs/s within one minute.  A run-level median
cannot remove a slowdown that lasts the whole run, so every timed piece of
work is rescaled to a nominal host speed:

    scaled = wall * NOMINAL_PROBE_S / probe

where ``probe`` is the mean of the reference job's time measured just
before and just after the piece.  The reference job is interpreter work of
the kind the simulator does (calls, dict and attribute traffic, bytes
slicing), so a host slowdown stretches both and largely cancels: over five
30 s runs of the scenario suite the scaled throughput spread (interquartile
range over median) was 0.03 where the raw one was 0.16.  The job does not
call servas_sim, so a change to the simulator moves the scaled figures as
it moves the wall-clock ones.  Raw wall-clock figures are recorded beside
the scaled ones.
"""

from __future__ import annotations

import time


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def bump(self, k: int) -> int:
        self.value = (self.value * 31 + k) & 0xFFFF
        return self.value


def _reference_job() -> None:
    table: dict[int, bytes] = {}
    cell = _Cell(7)
    blob = bytes(range(256)) * 2
    acc = 0
    for i in range(2000):
        v = cell.bump(i)
        key = v & 127
        table[key] = blob[key : key + 16]
        acc += len(table.get(key ^ 1, b"")) + (v >> 3)


# A typical probe time on the host the baseline was measured on (2-core
# x86-64, CPython 3.11).  Only the scale of the reported figures depends on it.
NOMINAL_PROBE_S = 0.0008


def probe() -> float:
    """Seconds the reference job takes now: best of three runs."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        _reference_job()
        best = min(best, time.perf_counter() - t)
    return best


class ScaledClock:
    """Rescales each timed interval by the probes on both sides of it."""

    def __init__(self):
        self._last_probe = probe()

    def scale(self, wall: float) -> float:
        """Probe again and rescale ``wall``, the time of the interval that
        ended just now (since the previous probe)."""
        now = probe()
        factor = NOMINAL_PROBE_S / ((self._last_probe + now) / 2)
        self._last_probe = now
        return wall * factor
