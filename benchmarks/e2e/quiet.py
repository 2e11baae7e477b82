"""Quiet-time statistics of a replayed request list.

Host interference on a shared sandbox is additive and bursty: it only
ever makes a call slower.  A whole-run mean or a raw percentile over
all samples therefore measures the host as much as the program (10–30 %
run-to-run on this machine).  Each workload instead replays the same
``J`` short requests for ``R`` passes; ``t[r][j]`` is the wall time of
request ``j`` in pass ``r`` and its *quiet time* is the fastest of its
``R`` repetitions — the one pass in which nothing else ran.  Every
end-to-end timing is a statistic over the ``J`` quiet times, so the
percentiles describe the request mix (large k, sparse regions), not
the host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def quiet_times(t) -> np.ndarray:
    """``(R, J)`` pass-by-request wall times -> ``(J,)`` quiet times."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] < 1:
        raise ValueError(f"need an (R, J) array of timings, got shape {t.shape}")
    return t.min(axis=0)


def summarize(t, ops_per_pass: int) -> dict[str, float]:
    """The timing metrics of one workload from its ``(R, J)`` samples.

    ``ops_per_s``, ``request_p50_ms`` and ``request_p90_ms`` are
    quiet-time statistics.  The ``raw_*`` and ``noise_ratio`` entries
    describe the host (all ``R*J`` samples, and mean over quiet) and
    are reported but never gated.
    """
    t = np.asarray(t, dtype=float)
    quiet = quiet_times(t)
    p90 = float(np.percentile(quiet, 90))
    return {
        "ops_per_s": ops_per_pass / float(quiet.sum()),
        "request_p50_ms": float(np.percentile(quiet, 50)) * 1e3,
        "request_p90_ms": p90 * 1e3,
        "beyond_p90": int(np.count_nonzero(quiet > p90)),
        "raw_request_p50_ms": float(np.percentile(t, 50)) * 1e3,
        "raw_request_p99_ms": float(np.percentile(t, 99)) * 1e3,
        "noise_ratio": float(t.mean() / quiet.mean()),
    }


def quartile_spread(values) -> float:
    """Interquartile distance of ``values`` as a share of their median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def host_calibration(repeats: int = 5) -> float:
    """Quiet time, in ms, of a fixed reference that runs no repo code.

    Half numpy (sort + reduction), half interpreter loop — the two
    things the workloads spend their time in — so a slower or busier
    host is visible beside the metrics it inflates.
    """
    data = np.random.default_rng(0).random(200_000)

    def reference() -> float:
        total = float(np.sort(data).sum())
        for i in range(20_000):
            total += i * 0.5
        return total

    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - start)
    return best * 1e3
