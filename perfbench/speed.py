"""CPU-speed correction for stage wall times.

On a shared virtual CPU the same stage can take 1.5-1.8x longer from one
minute to the next, as neighbours load the host; each vCPU's speed changes on
its own schedule, in phases of seconds to minutes. Averaging inside a run
cannot remove that, so the benchmark measures the speed while the stages run:
every INTERVAL_S a SIGALRM handler in the pipeline's own thread runs a fixed
calibration kernel (small numpy arithmetic and a toy tape of Python objects,
the kind of work the autodiff engine does) twice and times the second, warm run. A
stage's time is then its wall time, less the time the handler took inside
it, scaled by REF_S / (median warm kernel time during the stage): the time
the stage would take with the kernel at REF_S.

The kernel is the benchmark's own code, so a change to the program moves the
corrected time exactly as it moves the wall time at a fixed CPU speed.
"""

import bisect
import gc
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# kernel time on the reference host (2 vCPU Xeon, Python 3.11, numpy 2.4) in a
# quiet phase; corrected times are seconds at that speed
REF_S = 1.5e-4

_M = np.linspace(-1.0, 1.0, 256).reshape(16, 16) / 4.0
_V = np.arange(16.0)


class _Node:
    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = data
        self.grad = None


def _add(tape, a, b):
    out = _Node(a.data + b.data)
    tape.append(("add", (a, b), out, lambda g: (g, g)))
    return out


def kernel() -> float:
    """Small matmuls and vector arithmetic, then a toy tape of Python objects
    and closures, recorded forward and replayed backward."""
    x, acc = _M, 0.0
    for i in range(24):
        x = np.tanh(x @ _M)
        acc += float((_V * 1.0001 + i)[i & 7])
    tape, node = [], _Node(_V[:8])
    for _ in range(40):
        node = _add(tape, node, node)
        node.data = node.data * 0.5
    for _, _, _, vjp in reversed(tape):
        vjp(1.0)
    return acc + float(x[0, 0]) + float(node.data[0])


class SpeedProbe:
    def __init__(self):
        self.ends: list[float] = []  # end of each sample, perf_counter
        self.durations: list[float] = []  # whole sample, both kernel runs
        self.warm: list[float] = []  # the second kernel run

    def _sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()  # refills the caches the pipeline evicted
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        if enabled:
            gc.enable()
        self.ends.append(t2)
        self.warm.append(t2 - t1)
        self.durations.append(t2 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def corrected(self, t0: float, t1: float) -> float:
        """Corrected seconds of the interval [t0, t1]."""
        i = bisect.bisect_left(self.ends, t0)
        j = bisect.bisect_right(self.ends, t1)
        if j > i:
            speed = statistics.median(self.warm[i:j])
        else:
            speed = self.warm[max(i - 1, 0)]
        return (t1 - t0 - sum(self.durations[i:j])) * REF_S / speed
