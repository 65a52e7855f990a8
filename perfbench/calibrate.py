"""Reference kernels that measure how fast the machine runs right now.

The machines this benchmark runs on are shared: on the 2-core machine it was
tuned on, the same pass of graphcalc operations took anywhere from 2.8 s to
5.4 s within a few minutes, in slow and fast phases lasting from seconds to
over a minute, while the process's CPU time tracked its wall time.  No
statistic over a 25-second run removes phases that long.  So every timed
operation is bracketed by a reference kernel, and the operation's time is
scaled by the kernel's reference time over the kernel's time near the
operation (run.py takes the median of the samples within 2 s): the result
is the operation's wall time at the speed where the kernel takes its
reference time.

Each workload uses the kernel that does the same kind of work as its
operations, because the phases do not slow every kind of work alike:

* interp: interpreted per-vertex dict access through a method call, and
  small-array numpy updates with boolean masks (spectral-ladder,
  pointwise-flows);
* bulk: the integer bit-matrix arithmetic of a subset enumeration over
  arrays of several MB (cheeger-enum);
* spawn: starting a bare interpreter, then the interp kernel (cli-small and
  the set-up time).

The kernels never touch graphcalc, so a change to the program moves the
scaled times exactly as it moves the raw ones.
"""

import subprocess
import sys
from time import perf_counter

import numpy as np


_N = 64
_KEYS = tuple(f"v{i}" for i in range(_N))
_NBRS = {k: tuple(_KEYS[(i + d) % _N] for d in (1, -1, 8, -8)) for i, k in enumerate(_KEYS)}


class _Function:
    def __init__(self, values):
        self.values = values

    def value(self, x):
        if x not in self.values:
            raise KeyError(x)
        return self.values[x]


def interp():
    f = _Function({k: i / _N for i, k in enumerate(_KEYS)})
    acc = 0.0
    for _ in range(56):
        for x in _KEYS:
            fx = f.value(x)
            acc += sum(f.value(y) - fx for y in _NBRS[x]) / 4.0
    a = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
    idx = np.arange(48)
    for p in range(500):
        mask = idx != p % 48
        col = a[mask, p % 48].copy()
        a[mask, (p + 1) % 48] = 0.5 * col + 0.25
    return acc + float(a.sum())


def bulk():
    n = 18
    masks = 1 + 2 * np.arange(1 << 16, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1
    vol = bits @ np.arange(1, n + 1, dtype=np.int64)
    cut = np.zeros(masks.size, dtype=np.int64)
    for i in range(n - 1):
        cut += bits[:, i] ^ bits[:, i + 1]
    return int(vol.sum() + cut.sum())


def spawn():
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return interp()


# kernel and its reference seconds (about its time on the machine it was tuned on)
KERNELS = {"interp": (interp, 0.012), "bulk": (bulk, 0.012), "spawn": (spawn, 0.024)}


def measure(kind):
    """Seconds the kernel takes now."""
    t0 = perf_counter()
    KERNELS[kind][0]()
    return perf_counter() - t0


def scale(kind, seconds, kernel_seconds):
    """seconds measured while the kernel took kernel_seconds, at reference speed."""
    return seconds * KERNELS[kind][1] / kernel_seconds
