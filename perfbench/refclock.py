"""Machine-speed reference: a fixed kernel timed at intervals during a pass.

The measuring machine is a few vCPUs of a shared host whose speed changes
by up to about 2x within seconds and drifts for minutes, so the wall time
of one pass mostly measures the neighbours.  While a pass runs, a
``SIGALRM`` handler times a fixed kernel every ``interval_s`` of
wall time.  The kernel is benchmark code only, so a change to ``leecodes``
never changes it; a slow stretch of the machine slows it as much as the
pass.

    clock = RefClock("small")
    with clock.timing():
        ...                       # the pass
    clock.last.program_s          # the pass's wall time, kernel time excluded
    clock.last.norm_s             # the same, rescaled to the nominal speed

``norm_s = program_s * mean(nominal_s / sample_s)``: the samples are spread
evenly over wall time, so the mean speed they give is the speed the pass
ran at.  On the machine the nominal times were taken on, ``norm_s`` reads
about the same as ``program_s``.

Python runs a signal handler between bytecodes of the main thread, so the
kernel never interrupts a numpy call of the pass, only delays to its end.
`now()` is a clock that stops while the kernel runs, for item latencies.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

perf = time.perf_counter


def _small_calls():
    """Many numpy calls on a tiny array: per-call overhead, as in dedup and
    the per-code API."""
    a = np.arange(64, dtype=np.int64)

    def kernel() -> None:
        for _ in range(500):
            int(((a * 3 + 1) % 9).sum())
    return kernel


def _scan_chunk():
    """A small scan chunk: a float32 product of a coefficient grid with
    generator columns, reduced mod 9 to Lee weights and a minimum, all in
    fresh 10 MiB arrays, as the scan's chunks are."""
    rng = np.random.default_rng(0)
    grid = rng.integers(0, 9, size=(81, 2)).astype(np.float32)
    gens = rng.integers(0, 9, size=(2, 32768)).astype(np.float32)

    def kernel() -> None:
        words = (grid @ gens).astype(np.int32) % 9
        lee = np.minimum(words, 9 - words)
        int(lee.reshape(81, -1, 4).sum(axis=2).min())
    return kernel


# name -> (kernel factory, nominal seconds of one call, seconds between
# samples).  The nominal times are the kernels' medians on the 2-vCPU
# machine the baseline in BASELINE.md was measured on; they only set the
# scale.
KERNELS = {
    "small": (_small_calls, 2.3e-3, 0.1),
    "scan": (_scan_chunk, 41e-3, 1.0),
}

_paused = 0.0          # total seconds spent in the kernel, for now()


def now() -> float:
    """perf_counter() minus the time the reference kernel has taken."""
    return perf() - _paused


@dataclass
class PassTime:
    program_s: float       # the pass's wall time, kernel time excluded
    norm_s: float          # program_s at the nominal machine speed
    samples: list[float]   # the kernel's time at each sample


class RefClock:
    def __init__(self, kernel: str):
        make, self.nominal_s, self.interval_s = KERNELS[kernel]
        self.kernel = make()
        self.kernel()                    # warm up before any sample counts
        self._active = False
        self._samples: list[float] = []
        self.last: PassTime | None = None

    def _sample(self, *_signal) -> None:
        global _paused
        if not self._active:
            return
        t = perf()
        self.kernel()
        spent = perf() - t
        self._samples.append(spent)
        _paused += spent

    @contextmanager
    def timing(self):
        """Time the enclosed pass with kernel samples at its start, its end
        and every `interval_s` between."""
        self._samples = []
        self._active = True
        previous = signal.signal(signal.SIGALRM, self._sample)
        start, paused = perf(), _paused
        try:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
            yield self
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._sample()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._active = False
            signal.signal(signal.SIGALRM, previous)
        program = perf() - start - (_paused - paused)
        speed = sum(self.nominal_s / s for s in self._samples) / len(self._samples)
        self.last = PassTime(program, program * speed, self._samples)
