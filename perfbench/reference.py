"""A fixed slice of CPU work that measures how fast the host runs now.

On a shared VM the speed of the whole machine drifts over minutes as
neighbours load it: a fixed two-cell characterisation, repeated for
six minutes, had 30-second window medians 56% apart.  A run of under a
minute cannot average that away, so the benchmark times this slice
between the phases of its jobs and reports job time in multiples of
the slice's median time (``wall_ref``, ``cpu_ref``).  The slice is the
benchmark's own frozen code, so a change to the program moves the
ratio by exactly its effect on the job.

Its mix follows the program's: a batched two-component mixture EM over
four 300-sample rows (numpy on small arrays, a Python loop around it,
like ``stats.em``) and a walk over a list of dicts (interpreter-bound
pointer chasing).  With a 200 000-entry list, over the same six minutes
the job-to-slice ratio had window medians 11% apart (job time against
slice time: correlation 0.85, log-log slope 0.83).  The list holds
20 000 entries (about 5 MB): pool workers are spawned from this
process, and the peak RSS the kernel reports for a child counts the
parent's pages until the child execs, so a larger table would show in
``peak_rss_mb`` three times over.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20240601)
_ROWS = np.concatenate(
    [_RNG.normal(0.0, 1.0, (4, 150)), _RNG.normal(3.0, 0.5, (4, 150))],
    axis=1,
)
_TABLE = [{"key": i, "value": float(i % 1013)} for i in range(20_000)]

#: Sized for a slice of about 0.15 s on the 2-vCPU build VM.
EM_ITERATIONS = 1300
WALK_STEPS = 600_000


def _mixture_em(iterations: int = EM_ITERATIONS) -> float:
    x = _ROWS
    weights = np.full((4, 2), 0.5)
    means = np.stack([x.min(axis=1), x.max(axis=1)], axis=1)
    sigmas = np.ones((4, 2))
    for _ in range(iterations):
        z = (x[:, None, :] - means[:, :, None]) / sigmas[:, :, None]
        log_p = (
            np.log(weights)[:, :, None] - 0.5 * z * z
            - np.log(sigmas)[:, :, None]
        )
        resp = np.exp(log_p - log_p.max(axis=1, keepdims=True))
        resp /= resp.sum(axis=1, keepdims=True)
        mass = resp.sum(axis=2)
        weights = mass / mass.sum(axis=1, keepdims=True)
        means = (resp * x[:, None, :]).sum(axis=2) / mass
        spread = (resp * (x[:, None, :] - means[:, :, None]) ** 2).sum(axis=2)
        sigmas = np.sqrt(spread / mass) + 1e-9
    return float(means.sum())


def _table_walk(steps: int = WALK_STEPS) -> float:
    total = 0.0
    index = 0
    for _ in range(steps):
        index = (index * 1103515245 + 12345) % len(_TABLE)
        total += _TABLE[index]["value"] * 0.5
    return total


def measure() -> tuple[float, float]:
    """Wall and CPU seconds of one slice."""
    started, cpu = time.perf_counter(), time.process_time()
    _mixture_em()
    _table_walk()
    return time.perf_counter() - started, time.process_time() - cpu
