"""A fixed numpy kernel that measures how fast the machine runs right now.

The machine the benchmark runs on drifts in speed by 20-40% over minutes,
from load outside it, and the drift moves lingrad's operations and this
kernel together.  While a ``SpeedProbe`` is armed, a timer signal runs the
kernel every ``INTERVAL_S`` in the middle of whatever the process is doing,
so its samples cover the same stretch of time as the timed operations.
``run.py`` rescales the median operation time by ``REFERENCE_S`` over the
mean kernel time.  The kernel does not call lingrad, so no change to
the program moves it.

The kernel mixes what a solve does: elementwise arithmetic, ``moveaxis``
copies, reductions and differences on 1.3 MB arrays (about the size of
the nx=192 dual field), and a loop of small numpy calls bound by per-call
overhead.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

REFERENCE_S = 0.012  # kernel time that defines the reference machine speed
INTERVAL_S = 0.5


class SpeedProbe:
    """Kernel samples taken on a timer; ``clock`` excludes the time they took.

    The kernel allocates nothing and each sample times its second of two
    back-to-back runs, so the sample does not depend on what the program
    left in the caches or on the state of its heap, only on the machine.
    """

    def __init__(self):
        rng = np.random.default_rng(0)  # fixed: the kernel is the same in every run
        self._start = rng.standard_normal((2, 2, 200, 200))
        self._x = np.empty_like(self._start)
        self._y = np.empty_like(self._start)
        self._t = np.empty_like(self._start)
        self._moved = np.empty((200, 200, 2, 2))
        self._norm = np.empty((200, 200))
        self._small = rng.standard_normal((200, 200))
        self.samples = []  # kernel times, in s
        self.busy = 0.0  # total time spent in the kernel, in s
        self._previous = None

    def _kernel(self):
        x, y, t = self._x, self._y, self._t
        np.copyto(x, self._start)
        for _ in range(4):
            np.multiply(x, x, out=y)
            y += 1.0
            np.sqrt(y, out=y)
            np.copyto(self._moved, np.moveaxis(y, (0, 1), (-2, -1)))
            np.multiply(self._moved, self._moved, out=self._moved)
            np.sum(self._moved, axis=(-2, -1), out=self._norm)
            np.sqrt(self._norm, out=self._norm)
            np.subtract(y[:, :, 1:], y[:, :, :-1], out=t[:, :, :-1])
            np.negative(y[:, :, -1], out=t[:, :, -1])
            t *= 1e-3
            x += t
        acc = 0.0
        for i in range(400):
            acc += float(np.sum(self._small[i % 200, :10]))
        return float(self._norm[0, 0]) + acc

    def sample(self, *_signal_args):
        t0 = perf_counter()
        self._kernel()  # brings the kernel's arrays back into the caches
        t1 = perf_counter()
        self._kernel()
        t2 = perf_counter()
        self.samples.append(t2 - t1)
        self.busy += t2 - t0

    def clock(self):
        """perf_counter without the time spent in the kernel."""
        return perf_counter() - self.busy

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False
