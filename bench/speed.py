"""The host's speed during each timed item, and times scaled to one speed.

The benchmark runs on a shared host whose speed moves with other tenants'
load: it flips between an uncontended and a contended level that differ by
up to 1.8x, and drifts by a further quarter over minutes.  Raw times of the
same code then differ more between two runs than any bound worth having.

So while a worker sets up and runs an untraced pass, a SIGALRM handler
times a fixed pure-Python reference loop every PROBE_EVERY_S seconds,
inside long items too.  An item's time is
its wall (or CPU) time minus the probes that ran inside it, and its scaled
time is that times ``REFERENCE_S / loop time``, with the loop time the mean
of the probes during the item and the one on either side.  The scaled time
is the item's time at the speed where the loop takes REFERENCE_S, whatever
the host's speed was.  The loop never calls bihom, so a change to bihom
moves scaled times as it moves raw ones.  Raw times are reported beside
them.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# the loop's time at the uncontended speed of a 2-vCPU Intel Xeon (Sapphire
# Rapids) KVM guest under Python 3.11.7; it fixes the unit, not the ratio
# between two commits
REFERENCE_S = 0.0008
PROBE_EVERY_S = 0.1
_OPERANDS = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(24)]


def _loop():
    """A mix of what bihom spends its time on: Fraction arithmetic (Q and
    Q(q) scalars), int arithmetic mod p (F_p scalars), dicts keyed by tuples
    (sparse polynomials and tensors) and number text (file parsing)."""
    acc, x, table, text = Fraction(0), 1, {}, []
    for i, a in enumerate(_OPERANDS):
        for b in _OPERANDS[:8]:
            acc += a * b
        for k in range(24):
            x = (x * 7 + k) % 1000003
            table[i, k % 6] = table.get((i, k % 6), 0) + x
        text.append(str(acc))
    return ",".join(text).count("/") + len(table)


def loop_seconds():
    """Seconds the reference loop takes now: the faster of two timings, so
    that one interrupt does not count as a slow host."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return min(times)


class Prober:
    """Times the reference loop every PROBE_EVERY_S seconds while active.

    Each probe is kept as (wall start, wall end, CPU seconds, loop seconds).
    """

    def __init__(self):
        self.probes = []
        self._old = None

    def _probe(self, *_):
        w0, c0 = time.perf_counter(), time.process_time()
        took = loop_seconds()
        self.probes.append((w0, time.perf_counter(), time.process_time() - c0, took))

    def start(self):
        self._probe()
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._probe()

    def scaled(self, t0, t1):
        """Seconds from t0 to t1 less the probes inside, at the reference
        speed."""
        return (t1 - t0 - self.inside(t0, t1)[0]) * self.scale_for(t0, t1)

    def inside(self, t0, t1):
        """(wall, CPU) seconds that probes took inside [t0, t1]."""
        wall = cpu = 0.0
        first = max(bisect.bisect_left(self.probes, (t0,)) - 1, 0)
        for start, end, probe_cpu, _ in self.probes[first:]:
            if start >= t1:
                break
            overlap = min(end, t1) - max(start, t0)
            if overlap > 0:
                wall += overlap
                cpu += probe_cpu * overlap / (end - start)
        return wall, cpu

    def scale_for(self, t0, t1):
        """Scale factor for an item that ran over [t0, t1]: the probes that
        started inside it and the nearest one before and after."""
        first = max(bisect.bisect_left(self.probes, (t0,)) - 1, 0)
        last = min(bisect.bisect_left(self.probes, (t1,)), len(self.probes) - 1)
        loops = [p[3] for p in self.probes[first:last + 1]]
        return REFERENCE_S * len(loops) / sum(loops)
