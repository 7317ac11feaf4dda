"""Host speed sampling, to report times at a fixed reference speed.

On a shared host the same work can take 25% more or less time from one
minute to the next, while other tenants' load comes and goes.  A fixed
chunk of pure-Python work (``chunk()``) is timed again and again during a
measurement.  The speed factor is the mean over the samples of
``REFERENCE_CHUNK_S`` divided by the sample (the reference speed over the
speed at that moment, averaged over the interval), and a measured time
multiplied by it is the time the work would have taken at the reference
speed.  ``REFERENCE_CHUNK_S`` is a fixed
constant, so normalized figures from different runs and commits compare.
"""

from __future__ import annotations

import statistics
import threading
import time

CHUNK_ITERATIONS = 2000
# Median chunk time on the 2-core Xeon host the reference figures in README.md
# come from; any fixed value works, it only sets the scale.
REFERENCE_CHUNK_S = 1.8e-4
SAMPLE_EVERY_S = 0.02


def chunk() -> float:
    """Seconds taken by one fixed chunk of interpreter work."""
    start = time.perf_counter()
    acc = 0
    for i in range(CHUNK_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def factor(samples) -> float:
    """Reference speed over measured speed: multiply a measured time by this."""
    return statistics.fmean(REFERENCE_CHUNK_S / s for s in samples)


class Sampler:
    """Times ``chunk()`` every ``SAMPLE_EVERY_S`` on a daemon thread until stopped."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.samples.append(chunk())
            if self._stop.wait(SAMPLE_EVERY_S):
                return

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def factor(self) -> float:
        return factor(self.samples)
