"""The host's speed, from a fixed piece of work that never calls polarlab.

The benchmark runs on a few cores of a shared host whose speed drifts as
other tenants come and go: a fixed round of ``train`` took 0.70 s in one
minute and 1.20 s a few minutes later, with no steal time reported, so the
slowdown is in the cores and caches themselves and CPU time does not remove
it. Whole runs land in fast or slow spells, and a median over one run
cannot cancel a spell that covers it.

``batch()`` times a loop of small numpy calls on (64, 16) arrays, the kind
of work polarlab's operations are made of, a few times in a row. Every
timed operation and every set-up sits between two batches; its ``scale``
comes from the median of those samples against ``REFERENCE_S``, and its
seconds are multiplied by that scale, so the reported figures are those of
the host at its reference speed. The host's state switches within seconds,
so the batches go around each operation rather than each round. A change
to polarlab moves the operations and not the calibration: its arrays are
too small for BLAS to thread, and it shares no code with the program.
"""

import statistics
import time

import numpy as np

# Median of sample() on the 2-core host the benchmark was sized on; it
# only sets the speed the figures are reported at.
REFERENCE_S = 1.0e-3
SAMPLES = 5
# The operations' times move by about three quarters as much as sample()'s,
# in log terms: sample() is interpreter-bound, while the operations also
# wait on memory. Over 20 runs of train and eval-serial (seeds 21-30) the
# spread of every bounded throughput was smallest at an exponent of 0.7
# to 0.8; at 1 it was 0.07 to 0.17, unscaled 0.23 to 0.31.
SENSITIVITY = 0.75

_RNG = np.random.default_rng(20190801)
_X = _RNG.standard_normal((64, 16))
_W = _RNG.standard_normal((16, 16)) / 4


def sample():
    """Seconds for one pass of the fixed work."""
    start = time.perf_counter()
    x = _X
    for _ in range(100):
        x = np.tanh(np.maximum(x @ _W, 0.0) + _X)
    return time.perf_counter() - start


def batch():
    return [sample() for _ in range(SAMPLES)]


def scale(before, after):
    """Factor that takes seconds measured between two batches to the
    reference speed: below 1 when the host ran slow."""
    return (REFERENCE_S / statistics.median(before + after)) ** SENSITIVITY
