"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload characterize --seed 1 \\
        --seconds 40 --trace 0

Workloads (each a closed loop: one job at a time from one process):

- ``characterize``: :data:`workloads.CELLS` characterised serially and
  then through ``characterize_library(workers=2)`` with a fresh
  checkpoint directory; both Liberty files are written, read back,
  validated and must be byte-identical.  Serial fits run as batched
  grids.
- ``paper-smoke``: the paper's evaluation at ``repro bench --smoke``
  scale; untraced rounds leave out Fig. 4 (see
  :data:`workloads.ROUND_EXPERIMENTS`).  Fits are lone per-point fits;
  ssta, binning and yield_est do work.

Jobs cycle through the input seeds of :func:`basket` until
``--seconds`` have passed, each seed at least once; a slice of
:mod:`reference` work runs, untimed, before every phase.  With
``--trace 0`` the last stdout line holds the end-to-end metrics of
these jobs: ``wall_ref`` and ``cpu_ref`` are the median over the seeds
of the summed best time of each phase (serial half, pooled half; each
experiment), divided by the median slice time, and the quality metrics
pool the cells of every seed.  With ``--trace 1`` untraced and traced
jobs of the first seed alternate; traced jobs run under benchmark-side
spans (see :mod:`tracing`) and a telemetry session for the program's
``em.*`` counters, and the line holds per-layer metrics instead.  The
line before it records the raw seconds behind ``wall_ref`` and
``cpu_ref``, the per-job and per-phase walls, the pinned thread
environment, ``nproc``, load average and CPU steal ticks, so that a
noisy set can be diagnosed.

Exit codes: 0 when every output check passed, 1 when one failed (the
result line then says ``"correct": false``), 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

#: BLAS/OpenMP pools pinned to one thread before numpy loads; the set-up
#: probes and every spawned pool worker inherit the environment.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("characterize", "paper-smoke")
#: Input seeds per run (see :func:`basket`): three ~14 s libraries or
#: two ~22 s smoke rounds fill a 40 s run.
BASKET = {"characterize": 3, "paper-smoke": 2}

#: Fresh interpreters timed per run for ``setup_s``; the median is kept.
SETUP_PROBES = 3
_SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import repro.experiments, repro.liberty, repro.runtime.pool; "
    "from repro.circuits import GateTimingEngine, TT_GLOBAL_LOCAL_MC; "
    "GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)"
)


class CpuRotation:
    """Move the calling thread, and any tracked child, across every
    allowed CPU in turn, ``period`` seconds on each.

    On a shared host a neighbour often loads one CPU and not the other.
    A single-threaded job that stays where the scheduler put it then
    runs fast or slow depending on where it landed (run-to-run spread
    about 30% on a 2-CPU VM); rotating makes every job see the mean of
    the CPUs (spread about 7% on the same VM).  Pool runs pause the
    rotation: spawned workers inherit the affinity of the spawning
    thread and must keep every CPU.
    """

    def __init__(self, period: float = 0.25) -> None:
        self.period = period
        self.cpus = sorted(os.sched_getaffinity(0))
        self.targets = {threading.get_native_id()}
        self._stop = threading.Event()
        self._held = False
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._rotate, daemon=True)

    def _rotate(self) -> None:
        turn = 0
        while not self._stop.wait(self.period):
            turn += 1
            cpu = {self.cpus[turn % len(self.cpus)]}
            with self._lock:
                if self._held:
                    continue
                for target in list(self.targets):
                    try:
                        os.sched_setaffinity(target, cpu)
                    except ProcessLookupError:
                        self.targets.discard(target)

    @contextlib.contextmanager
    def paused(self):
        """Give the calling thread every CPU for the ``with`` body."""
        with self._lock:
            self._held = True
            os.sched_setaffinity(0, self.cpus)
        try:
            yield
        finally:
            with self._lock:
                self._held = False

    def __enter__(self) -> "CpuRotation":
        if len(self.cpus) > 1:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        os.sched_setaffinity(0, self.cpus)


def measure_setup(rotation: CpuRotation,
                  probes: int = SETUP_PROBES) -> float:
    """Median wall of interpreter start, imports and engine build."""
    times = []
    for _ in range(probes):
        started = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
        )
        rotation.targets.add(probe.pid)
        if probe.wait() != 0:
            raise RuntimeError(f"set-up probe exited {probe.returncode}")
        times.append(time.perf_counter() - started)
        rotation.targets.discard(probe.pid)
    return statistics.median(times)


def steal_ticks() -> int:
    """Cumulative CPU steal ticks of the machine (0 where unknown)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def peak_rss_mb(workers: int) -> float:
    """Parent peak plus ``workers`` times the largest child peak."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def best_of(jobs: list, which: int) -> float:
    """Sum over phases of each phase's least wall (``which`` 0) or CPU
    (1) time across ``jobs`` of one input seed.

    Load from neighbouring machines only ever slows a phase; when a
    seed's job ran more than once, its best time is the one such load
    moved least (the reason ``timeit`` reports a minimum too).
    """
    return sum(
        min(job.phases[name][which] for job in jobs)
        for name in jobs[0].phases
    )


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_jobs(job_fn, seconds: float, trace: bool, least: int) -> list:
    """Repeat ``job_fn(recorder, index)`` until ``seconds`` have passed
    and at least ``least`` jobs have run.

    Traced runs alternate untraced and traced jobs, so the overhead
    share compares like with like.
    """
    from repro.runtime import telemetry
    from tracing import NullRecorder, SpanRecorder, instrument

    jobs = []
    started = time.perf_counter()
    while len(jobs) < least or time.perf_counter() - started < seconds:
        if trace and len(jobs) % 2 == 1:
            recorder = SpanRecorder()
            session = telemetry.TelemetrySession()
            with telemetry.activate(session), instrument(recorder):
                job = job_fn(recorder, len(jobs))
            job.recorder = recorder
            job.telemetry = session.metrics.snapshot()
        else:
            job = job_fn(NullRecorder(), len(jobs))
        jobs.append(job)
    return jobs


def basket(name: str, seed: int) -> list[int]:
    """The input seeds one run of ``name`` derives from ``--seed``.

    The cost of a job depends on its inputs: a sample set that sends a
    few grid fits down the fit-policy ladder adds lone refits, and one
    seed's library took 35% longer than another's.  Spreading a run's
    jobs over several input seeds averages that out of every run.
    """
    return [seed * BASKET[name] + k for k in range(BASKET[name])]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> tuple[dict, dict]:
    """Set up, run the jobs, check the outputs; return the result line
    and the raw times behind it: the wall and CPU seconds that
    ``wall_ref`` and ``cpu_ref`` divide, the reference slice's median
    times, and the wall of every job and of each of its phases."""
    import reference
    import workloads as wl
    from layers import layer_metrics
    from repro.circuits import GateTimingEngine, TT_GLOBAL_LOCAL_MC
    from tracing import capture

    seeds = basket(name, seed)
    pool_results: list = []
    slices: list[tuple[float, float]] = []

    def between() -> None:
        slices.append(reference.measure())

    with CpuRotation() as rotation:
        engine = GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)
        wl.warm_up(engine, seed, work)
        setup_s = measure_setup(rotation)

        def job_fn(recorder, index):
            # Traced runs compare traced and untraced jobs of one seed.
            job_seed = seeds[0 if trace else index % len(seeds)]
            if name == "paper-smoke":
                traced = trace and index % 2 == 1
                job = wl.paper_job(
                    job_seed,
                    recorder,
                    wl.EXPERIMENTS if traced else wl.ROUND_EXPERIMENTS,
                    between=between,
                )
            else:
                job = wl.characterize_job(
                    engine, job_seed, work, index,
                    pool_results=pool_results,
                    around_pool=rotation.paused,
                    between=between,
                )
            job.seed = job_seed
            return job

        with capture("repro.runtime.pool.pool", "run_pool", pool_results):
            jobs = run_jobs(
                job_fn, seconds, trace, 2 if trace else len(seeds)
            )
        between()
    rss = peak_rss_mb(0 if name == "paper-smoke" else wl.WORKERS)

    by_seed: dict[int, list] = {}
    for job in jobs:
        by_seed.setdefault(job.seed, []).append(job)
    rmse: list[float] = []
    reductions: list[float] = []
    cells: list[float] = []
    # ok_share weighs each seed as one job's operations plus its scored
    # cells, at the share of operations that succeeded over all of its
    # jobs, so it does not depend on how many times a seed repeated.
    ok = total = 0.0
    for job_seed, same in by_seed.items():
        start = len(cells)
        if name == "paper-smoke":
            first = max(same, key=lambda job: len(job.result))
            seed_rmse, seed_reductions = wl.score_paper(
                first.result, job_seed
            )
            cells += wl.paper_cells(first.result) + seed_rmse
            for job in same:
                # Same seed, same numbers; json.dumps renders NaN, so
                # unresolved cells compare equal.
                common = {n: first.result[n] for n in job.result}
                if json.dumps(
                    wl.paper_cells(job.result)
                    + wl.score_paper(job.result, job_seed)[0]
                ) != json.dumps(
                    wl.paper_cells(common)
                    + wl.score_paper(common, job_seed)[0]
                ):
                    raise wl.CheckFailed("suite results differ across jobs")
        else:
            first = same[0]
            wl.check_round_trip(first)
            if any(job.text != first.text for job in same):
                raise wl.CheckFailed("Liberty bytes differ across jobs")
            seed_rmse, seed_reductions = wl.score_library(
                engine, first.library, job_seed
            )
            cells += seed_rmse + seed_reductions
        rmse += seed_rmse
        reductions += seed_reductions
        seed_cells = cells[start:]
        ops_ok = 1.0 - sum(j.failed for j in same) / sum(j.ops for j in same)
        ok += ops_ok * same[0].ops + len(wl.finite(seed_cells))
        total += same[0].ops + len(seed_cells)
    unresolved = len(cells) - len(wl.finite(cells))
    attempted = sum(job.ops for job in jobs)
    failed = sum(job.failed for job in jobs)

    # Job time in multiples of the reference slice's median time, so
    # that drift in the speed of the whole host cancels (see reference).
    raw_wall = statistics.median(best_of(same, 0) for same in by_seed.values())
    raw_cpu = statistics.median(best_of(same, 1) for same in by_seed.values())
    slice_wall = statistics.median(wall for wall, _ in slices)
    slice_cpu = statistics.median(cpu for _, cpu in slices)
    if trace:
        metrics = layer_metrics(jobs, unresolved)
    else:
        if not (wl.finite(rmse) and wl.finite(reductions)):
            raise wl.CheckFailed("no resolved cdf_rmse or reduction cell")
        quality = wl.quality(rmse, reductions)
        metrics = {
            "wall_ref": _metric(raw_wall / slice_wall, "ref"),
            "cpu_ref": _metric(raw_cpu / slice_cpu, "ref"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(rss, "MB"),
            "cdf_rmse": _metric(quality["cdf_rmse"], "1"),
            "binning_err_reduction": _metric(
                quality["binning_err_reduction"], "x"
            ),
            "ok_share": _metric(ok / total, "1"),
        }
    # A pooled run whose workers died still yields serial-identical
    # bytes (the parent computes the items), so it fails the run here.
    pooled_ok = all(job.pool_ok for job in jobs)
    if not pooled_ok:
        print("perfbench: a pool worker failed or the parent computed "
              "items", file=sys.stderr)
    result = {
        "correct": pooled_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "wall_s": raw_wall,
        "cpu_s": raw_cpu,
        "reference_slices": len(slices),
        "reference_wall_s": slice_wall,
        "reference_cpu_s": slice_cpu,
        "jobs": [
            {"seed": job.seed, "wall_s": job.wall_s, "phase_walls_s": {
                name: times[0] for name, times in job.phases.items()
            }}
            for job in jobs
        ],
    }
    return result, details


def _stop_resource_tracker() -> None:
    """Spawned pool workers start multiprocessing's resource tracker;
    stop it so no process of this run outlives it."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Pool scratch directories and anything else temporary stay inside
    # the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)

    load = os.getloadavg()
    steal = steal_ticks()
    from workloads import CheckFailed

    details: dict = {}
    try:
        result, details = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    except CheckFailed as error:
        print(f"perfbench: output check failed: {error}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
    finally:
        _stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    environment = {
        **details,
        "pinned": {name: os.environ.get(name) for name in PINNED_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load,
        "loadavg_end": os.getloadavg(),
        "steal_ticks": steal_ticks() - steal,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
