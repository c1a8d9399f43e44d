"""The benchmark's jobs, their output checks and their quality scores.

Every job calls the program's default public entry points, the way
``repro characterize`` and ``repro bench --smoke`` do: no
``vectorized=``, no ``granularity=``, no serial-fit switch and no
``fit_throughput`` self-benchmark, so a later change that deletes
those knobs neither breaks the benchmark nor drops work from it.
"""

from __future__ import annotations

import contextlib
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.binning import evaluate_models
from repro.binning.metrics import cdf_rmse, geometric_mean
from repro.circuits import (
    CharacterizationConfig,
    build_cell,
    characterize_arc,
    characterize_library,
)
from repro.circuits.characterize import PAPER_LOADS, PAPER_SLEWS
from repro.circuits.scenarios import SCENARIOS
from repro.experiments import (
    Table2Config,
    run_clt_convergence,
    run_fig3,
    run_fig4,
    run_fig5,
    run_table1,
    run_table2,
    run_yield_study,
)
from repro.liberty import read_library, validate_library
from repro.liberty.validate import Severity
from repro.runtime import FitPolicy, FitReport
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.export import write_text_file
from repro.stats.empirical import EmpiricalDistribution

#: Six input pins, so two pool workers get three pins each and one
#: slow pin cannot set the pooled wall time on its own.
CELLS = ("INV", "BUFF", "NAND2", "NOR2")
GRID = 2
SAMPLES = 300
WORKERS = 2

#: ``repro bench --smoke`` scale (see ``repro.cli._cmd_bench``).
SMOKE_SCENARIO_SAMPLES = 2000
SMOKE_FIG_SAMPLES = 500
SMOKE_CLT_SAMPLES = 2000
SMOKE_YIELD_BUDGETS = (1024, 4096)
SMOKE_YIELD_REPEATS = 2

#: Liberty base quantity -> (output transition, sampled quantity).
QUANTITIES = {
    "cell_rise": ("rise", "delay"),
    "rise_transition": ("rise", "transition"),
    "cell_fall": ("fall", "delay"),
    "fall_transition": ("fall", "transition"),
}


class CheckFailed(Exception):
    """An output check failed; the run reports ``correct: false``."""


@dataclass
class Job:
    """One timed job and what it produced."""

    wall_s: float
    cpu_s: float
    ops: int = 0
    failed: int = 0
    text: str = ""
    library: object = None
    report: FitReport | None = None
    result: object = None
    pool_results: list = field(default_factory=list)
    worker_cpu_s: float = 0.0
    pool_ok: bool = True
    checkpoint_files: int = 0
    checkpoint_bytes: int = 0
    recorder: object = None
    telemetry: dict = field(default_factory=dict)
    #: Phase name -> (wall s, CPU s): the serial and pooled halves of a
    #: ``characterize`` job, the experiments of a ``paper-smoke`` job.
    phases: dict = field(default_factory=dict)
    seed: int = 0


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def char_config(seed: int) -> CharacterizationConfig:
    return CharacterizationConfig(
        slews=PAPER_SLEWS[:GRID],
        loads=PAPER_LOADS[:GRID],
        n_samples=SAMPLES,
        seed=seed,
    )


def characterize_once(
    engine, seed: int, work_dir: Path, *, workers: int, pool_results: list,
) -> Job:
    """Characterise :data:`CELLS`, write the Liberty file, read it back
    and validate it — the steps of ``repro characterize --out`` plus
    ``repro validate``.  A pooled run gets a fresh checkpoint directory.
    """
    cells = [build_cell(name) for name in CELLS]
    work_dir.mkdir(parents=True)
    store_dir = work_dir / "ckpt"
    out = work_dir / "library.lib"
    del pool_results[:]
    started = time.perf_counter()
    cpu = time.process_time()
    child_cpu = children_cpu()
    report = FitReport()
    library = characterize_library(
        engine,
        cells,
        char_config(seed),
        checkpoint=(
            CheckpointStore(store_dir, reuse=False) if workers > 1 else None
        ),
        policy=FitPolicy(),
        report=report,
        isolate_errors=True,
        workers=workers,
    )
    text = library.to_text()
    write_text_file(str(out), text)
    parsed = read_library(out.read_text())
    errors = [
        d for d in validate_library(parsed) if d.severity is Severity.ERROR
    ]
    worker_cpu = children_cpu() - child_cpu
    job = Job(
        wall_s=time.perf_counter() - started,
        cpu_s=time.process_time() - cpu + worker_cpu,
        text=text,
        library=parsed,
        report=report,
        pool_results=list(pool_results),
        worker_cpu_s=worker_cpu,
    )
    if errors:
        raise CheckFailed(f"Liberty validation errors: {errors[:3]}")
    job.ops = sum(len(cell.inputs) for cell in cells)
    job.failed = len(report.quarantined)
    if workers > 1:
        if len(pool_results) != 1:
            raise CheckFailed(
                f"expected one pool run per job, saw {len(pool_results)}"
            )
        result = pool_results[0]
        codes = result.exit_codes + result.respawn_exit_codes
        # A worker that died leaves its items to the parent sweep and
        # the bytes still match, so only the exit codes and the parent
        # count show that the run was not really pooled.
        bad_workers = sum(1 for code in codes if code != 0)
        job.pool_ok = (
            bool(codes) and not bad_workers and result.parent_computed == 0
        )
        job.ops += len(codes) + 1
        job.failed += bad_workers + int(not job.pool_ok)
        files = [p for p in store_dir.glob("*.ckpt") if p.is_file()]
        job.checkpoint_files = len(files)
        job.checkpoint_bytes = sum(p.stat().st_size for p in files)
    return job


def characterize_job(
    engine, seed: int, work_dir: Path, index: int, *, pool_results: list,
    around_pool=contextlib.nullcontext, between=lambda: None,
) -> Job:
    """One request characterised serially, then on :data:`WORKERS` pool
    workers (inside ``around_pool()``); the two Liberty files must be
    byte-identical.  The job's wall and CPU are the sums of both.
    ``between()`` runs, untimed, before each half.
    """
    between()
    serial = characterize_once(
        engine, seed, work_dir / f"{index}-serial", workers=1,
        pool_results=[],
    )
    between()
    with around_pool():
        pooled = characterize_once(
            engine, seed, work_dir / f"{index}-pooled", workers=WORKERS,
            pool_results=pool_results,
        )
    if pooled.text != serial.text:
        raise CheckFailed("pooled bytes differ from serial bytes")
    pooled.phases = {
        "serial": (serial.wall_s, serial.cpu_s),
        "pooled": (pooled.wall_s, pooled.cpu_s),
    }
    pooled.wall_s += serial.wall_s
    pooled.cpu_s += serial.cpu_s
    pooled.ops += serial.ops
    pooled.failed += serial.failed
    pooled.report = serial.report  # the pooled report holds the same fits
    return pooled


def warm_up(engine, seed: int, work_dir: Path) -> None:
    """Load lazily imported code paths before anything is timed."""
    from repro.experiments import score_paper_models

    config = CharacterizationConfig(
        slews=PAPER_SLEWS[:1], loads=PAPER_LOADS[:1], n_samples=64,
        seed=seed,
    )
    library = characterize_library(
        engine, [build_cell("INV")], config,
        policy=FitPolicy(), isolate_errors=True,
    )
    out = work_dir / "warm-up.lib"
    write_text_file(str(out), library.to_text())
    validate_library(read_library(out.read_text()))
    scenario = next(iter(SCENARIOS.values()))
    score_paper_models(scenario.sample(256, rng=seed))


def check_round_trip(job: Job) -> None:
    """The Liberty text must re-serialise byte-identically."""
    if job.library.to_text() != job.text:
        raise CheckFailed("Liberty output does not round-trip")


def score_library(engine, library, seed: int) -> tuple[list, list]:
    """CDF RMSE and Eq. 12 binning reduction, LVF -> LVF2, of every
    grid point of the parsed library against re-simulated golden
    samples (per-condition seeds make them the fitted samples).
    """
    config = char_config(seed)
    rmse: list[float] = []
    reductions: list[float] = []
    for name in CELLS:
        cell = build_cell(name)
        lib_cell = library.cells[cell.name]
        for _, arc in lib_cell.arcs():
            golden = {
                edge: characterize_arc(
                    engine, cell, arc.related_pin, edge, config
                )
                for edge in ("rise", "fall")
            }
            for base, (edge, quantity) in QUANTITIES.items():
                tables = arc.tables[base]
                for i in range(GRID):
                    for j in range(GRID):
                        samples = golden[edge].samples(quantity, i, j)
                        report = evaluate_models(
                            {
                                "LVF": tables.lvf.lvf_at(i, j),
                                "LVF2": tables.lvf2_at(i, j),
                            },
                            EmpiricalDistribution(samples),
                        )
                        rmse.append(report["LVF2"]["rmse"])
                        reductions.append(
                            report["LVF2"]["binning_reduction"]
                        )
    return rmse, reductions


EXPERIMENTS = ("fig3", "table1", "table2", "fig4", "fig5", "clt", "yield_study")

#: One untraced ``paper-smoke`` round: the suite without Fig. 4.  Fig. 4
#: is a single 20-30 s call, half the suite; leaving it to the traced
#: run makes a round short enough that one run covers two input seeds
#: (see ``run.basket``).  Its code paths
#: (``characterize_arc``, lone LVF/LVF2 fits, CDF RMSE) are timed
#: through Table 2 and Fig. 3 all the same.
ROUND_EXPERIMENTS = tuple(name for name in EXPERIMENTS if name != "fig4")


def paper_job(
    seed: int, recorder, names=EXPERIMENTS, between=lambda: None,
) -> Job:
    """The paper's evaluation at ``repro bench --smoke`` scale.

    An experiment that raises is a failed operation: its traceback goes
    to stderr, its result is ``None`` and the suite goes on.
    ``between()`` runs before each experiment, outside its time.
    """
    calls = {
        "fig3": lambda: run_fig3(SMOKE_SCENARIO_SAMPLES, seed=seed),
        "table1": lambda: run_table1(SMOKE_SCENARIO_SAMPLES, seed=seed),
        "table2": lambda: run_table2(
            replace(Table2Config.smoke(), seed=seed)
        ),
        "fig4": lambda: run_fig4(n_samples=SMOKE_FIG_SAMPLES, seed=seed),
        "fig5": lambda: run_fig5(n_samples=SMOKE_FIG_SAMPLES, seed=seed),
        "clt": lambda: run_clt_convergence(
            n_samples=SMOKE_CLT_SAMPLES, seed=seed
        ),
        "yield_study": lambda: run_yield_study(
            budgets=SMOKE_YIELD_BUDGETS,
            repeats=SMOKE_YIELD_REPEATS,
            fit_samples=SMOKE_SCENARIO_SAMPLES,
            seed=seed,
        ),
    }
    wall = cpu = 0.0
    results = {}
    phases = {}
    for name in names:
        between()
        began, began_cpu = time.perf_counter(), time.process_time()
        with recorder.span(f"experiments.{name}"):
            try:
                results[name] = calls[name]()
            except Exception:
                print(f"perfbench: experiment {name} raised:",
                      file=sys.stderr)
                traceback.print_exc()
                results[name] = None
        phases[name] = (
            time.perf_counter() - began, time.process_time() - began_cpu
        )
        wall += phases[name][0]
        cpu += phases[name][1]
    return Job(
        wall_s=wall,
        cpu_s=cpu,
        ops=len(names),
        failed=sum(1 for result in results.values() if result is None),
        result=results,
        phases=phases,
    )


def _table2_cells(result) -> list:
    cells = []
    for row in result.rows.values():
        for metric, by_model in row.reductions.items():
            cells.extend(row.mean_reduction(metric, m) for m in by_model)
    for by_model in result.headline().values():
        cells.extend(by_model.values())
    return cells


#: Experiment -> every number it reports, as printed in its table.
_CELLS = {
    "table1": lambda r: [v for row in r.reductions.values()
                         for v in row.values()],
    "table2": _table2_cells,
    "fig4": lambda r: [*np.ravel(r.delay_heatmap),
                       *np.ravel(r.transition_heatmap)],
    "fig5": lambda r: [v for path in (r.adder, r.htree)
                       for values in path.reductions.values()
                       for v in values],
    "clt": lambda r: [v for row in r.rows
                      for v in (row.sup_distance, row.bound)],
    "yield_study": lambda r: [v for cell in r.cells
                              for v in (cell.rel_rmse, cell.efficiency)],
}


def paper_cells(results: dict) -> list[float]:
    """Every number the suite printed (Fig. 3 is scored separately)."""
    return [
        float(value)
        for name, extract in _CELLS.items()
        if results.get(name) is not None
        for value in extract(results[name])
    ]


def score_paper(results: dict, seed: int) -> tuple[list, list]:
    """Fig. 3 LVF2 CDF RMSE per scenario, and the geometric-mean LVF2
    Eq. 12 binning reduction of each binning experiment (Table 1
    scenarios, Table 2 distributions, Fig. 5 path stages), so that
    each experiment weighs the same whatever its cell count.
    """
    rmse = []
    if results.get("fig3") is not None:
        for index, (name, scenario) in enumerate(SCENARIOS.items()):
            samples = scenario.sample(
                SMOKE_SCENARIO_SAMPLES, rng=seed + index
            )
            rmse.append(
                cdf_rmse(
                    results["fig3"].models[name]["LVF2"],
                    EmpiricalDistribution(samples),
                )
            )
    groups = []
    if results.get("table1") is not None:
        groups.append(
            [row["LVF2"] for row in results["table1"].reductions.values()]
        )
    if results.get("table2") is not None:
        groups.append([
            value
            for row in results["table2"].rows.values()
            for metric in ("delay_binning", "transition_binning")
            for value in row.reductions[metric]["LVF2"]
        ])
    if results.get("fig5") is not None:
        groups.append([
            value
            for path in (results["fig5"].adder, results["fig5"].htree)
            for value in path.reductions["LVF2"]
        ])
    reductions = [
        geometric_mean(finite(group)) for group in groups if finite(group)
    ]
    return rmse, reductions


def finite(values) -> list[float]:
    return [v for v in values if math.isfinite(v)]


def quality(rmse: list[float], reductions: list[float]) -> dict:
    """Median CDF RMSE and geometric-mean binning reduction over the
    resolved cells; the caller counts the unresolved (non-finite)
    ones against ``ok_share``.  The median, because an EM fit that
    lands in a poor local optimum now and then scores ten times the
    usual RMSE, and with five Fig. 3 scenarios one such fit would set
    a mean on its own."""
    return {
        "cdf_rmse": float(np.median(finite(rmse))),
        "binning_err_reduction": float(geometric_mean(finite(reductions))),
    }
