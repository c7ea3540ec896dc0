"""Speed references, to take the VM's speed drift out of ``wall_s`` and ``setup_s``.

The VM's effective CPU speed drifts by 20% and more within minutes, and a
median over more runs cannot remove a drift slower than a run.  So the
benchmark times a small fixed kernel, the bench's own code and never the
program's, while the program runs: ``Probe`` samples it every 0.1 s through
SIGALRM (the handler runs between bytecodes of the step, and its time is
subtracted from the step).  A time is reported at the reference speed, the
speed at which the kernel takes ``REF_S``: raw seconds * REF_S / median sample.
The kernel runs with the garbage collector off, so a collection of the
program's heap is never charged to the probe (and so never subtracted).

Set-up is interpreter start and imports, and most of it is loading numpy,
which is not the program's code.  That part drifts most: in slow periods an
``import numpy`` spawn took 0.20 s instead of 0.13 s while the time a spawn
importing ``thinsieve.cli`` took beyond it stayed near 0.06 s, and the kernel
above tracks neither.  So each timed ``import thinsieve.cli`` spawn is paired
with an ``import numpy`` spawn next to it, and the set-up is reported as
``REF_SPAWN_S`` (the numpy spawn pinned at its reference time) plus the
difference of the two.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REF_S = 0.003  # the kernel's time at the reference speed; 2.5-4 ms on the baseline VM
INTERVAL_S = 0.1
REF_SPAWN_S = 0.14  # an ``import numpy`` spawn's reference time; 0.12-0.20 s on the baseline VM


def kernel_s() -> float:
    """Seconds for a fixed pure-Python walk of the continuant tree (about 4k nodes)."""
    cap = 400**2
    t0 = time.perf_counter()
    stack = [(1, 0, 0, 1)]
    while stack:
        a, b, c, d = stack.pop()
        for g in (1, 2, 3):
            na, nc = g * a + b, g * c + d
            if na * na + a * a + nc * nc + c * c > cap:
                break
            stack.append((na, a, nc, c))
    return time.perf_counter() - t0


def at_ref(seconds: float, kernel_samples: list[float]) -> float:
    """``seconds`` scaled to the reference speed measured by ``kernel_samples``."""
    return seconds * REF_S / statistics.median(kernel_samples)


def setup_at_ref(seconds: float, numpy_spawn_s: float) -> float:
    """A set-up time with the ``import numpy`` spawn timed next to it pinned at REF_SPAWN_S."""
    return REF_SPAWN_S + seconds - numpy_spawn_s


class Probe:
    """Samples ``kernel_s`` every INTERVAL_S of wall time while active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time inside the handler

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(kernel_s())
        finally:
            if enabled:
                gc.enable()
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
