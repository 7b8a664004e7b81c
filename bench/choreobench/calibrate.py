"""Machine-speed calibration of the end-to-end timings.

The benchmark runs on virtual machines that share their host.  There the
same code, on the same inputs, runs up to twice as slow for seconds to
minutes at a time, in wall time and in CPU time alike (see the README,
"Noise on a shared machine").  To take that drift out of the end-to-end
timings, a fixed reference kernel that does not use ``choreo`` is timed
between ops, about every ``INTERVAL_S`` seconds.  Each op latency is then
multiplied by ``REFERENCE_MS / k``, where ``k`` is the median time of the
kernel samples taken nearest to the op.  A timing is thus reported in
milliseconds at the machine speed at which the kernel takes
``REFERENCE_MS``; the raw wall times are kept in the details file.

The kernel mixes the kinds of work the workloads do: interpreted Python
with dicts, strings and a heap, many numpy calls on 3x3 arrays, and
vectorized numpy arithmetic on a few hundred points.  Its arrays are
allocated once and the garbage collector is off while it runs, so its time
does not depend on what the ops allocated before it.  A change to
``choreo`` does not change the kernel, so it moves the calibrated timings
by its full amount.
"""

import gc
import heapq
from statistics import median
from time import perf_counter

import numpy as np

# Kernel time in ms at the reference speed: the median on a 2-vCPU Intel
# Xeon virtual machine at 2.1 GHz, Python 3.11, numpy 2.4, one BLAS thread.
REFERENCE_MS = 4.0
INTERVAL_S = 0.1   # least op time between two kernel samples
WINDOW = 2         # samples on each side of an op that its scale uses

_EYE = np.eye(3)
_NEAR = np.eye(3) + 1e-12
_POINTS = np.random.default_rng(0).standard_normal((512, 3))
_DIFF = np.empty((32, 512, 3))
_R2 = np.empty((32, 512))


def kernel():
    """The reference work: about 4 ms at the reference speed."""
    table, digits = {}, 0
    for i in range(3000):
        table[i & 127] = table.get(i & 127, 0) + i
        digits += len(str(i))
    heap, seen = [(0.0, 0)], set()
    while heap and len(seen) < 600:
        cost, v = heapq.heappop(heap)
        if v in seen:
            continue
        seen.add(v)
        for w in ((7 * v + 1) % 997, (13 * v + 5) % 997, (v + 1) % 997):
            if w not in seen:
                heapq.heappush(heap, (cost + 1.0 / (1 + w), w))
    close = 0
    for _ in range(40):
        close += np.allclose(_EYE @ _NEAR, _NEAR)
    np.subtract(_POINTS[:32, None, :], _POINTS[None, :, :], out=_DIFF)
    np.multiply(_DIFF, _DIFF, out=_DIFF)
    np.sum(_DIFF, axis=-1, out=_R2)
    np.add(_R2, 1.0, out=_R2)
    np.sqrt(_R2, out=_R2)
    np.reciprocal(_R2, out=_R2)
    return digits, len(seen), close, float(_R2.sum())


def time_kernel():
    """Seconds one run of the kernel takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Kernel samples taken along a run, and the scale they give each op."""

    def __init__(self):
        self.samples = []
        self._last = None
        for _ in range(3):
            kernel()

    def sample(self):
        self.samples.append(time_kernel())
        self._last = perf_counter()

    def mark(self):
        """Takes a sample if ``INTERVAL_S`` seconds have passed since the
        last one; returns the index of the latest sample, for ``scale``."""
        if self._last is None or perf_counter() - self._last >= INTERVAL_S:
            self.sample()
        return len(self.samples) - 1

    def scale(self, index):
        """Factor from wall time to time at the reference speed, from the
        samples within ``WINDOW`` of ``index`` on either side."""
        window = self.samples[max(0, index - WINDOW):index + WINDOW + 1]
        return REFERENCE_MS / (1e3 * median(window))
