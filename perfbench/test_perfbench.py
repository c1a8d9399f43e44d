"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

Run from the root of a checkout; they take a few minutes because they
drive the real command::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(res: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in res["metrics"].items()}


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def characterize_runs() -> list[dict]:
    return [result(run("characterize", 7, trace)) for trace in (0, 0, 1, 1)]


def test_untraced_run_reports_every_end_to_end_metric(
    characterize_runs, spec
):
    res = characterize_runs[0]
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {n: m["unit"] for n, m in res["metrics"].items()} == units
    assert all(v > 0 for v in values(res).values())


def test_traced_run_reports_every_per_layer_metric(characterize_runs, spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    res = characterize_runs[2]
    assert {n: m["unit"] for n, m in res["metrics"].items()} == units


def test_quality_and_em_counts_repeat_exactly_for_one_seed(
    characterize_runs,
):
    first, second, traced_a, traced_b = map(values, characterize_runs)
    for name in ("cdf_rmse", "binning_err_reduction", "ok_share"):
        assert first[name] == second[name]
    em = [name for name in traced_a if name.startswith("stats.em_")]
    assert em and all(traced_a[n] == traced_b[n] for n in em)
    assert traced_a["stats.em_fits"] > 0


def test_layer_spans_cover_characterize_wall(characterize_runs):
    traced = values(characterize_runs[2])
    assert traced["trace.coverage_share"] >= 0.9
    assert traced["models.fit_batch_rows"] > 0
    assert traced["liberty.bytes"] > 0


def test_pooled_half_is_really_pooled(characterize_runs):
    # Each job checks the pooled bytes against the serial bytes of the
    # same request and fails the run (exit 1) when they differ.
    layer = values(characterize_runs[2])
    assert layer["runtime.pool_items"] >= 6
    assert layer["runtime.pool_parent_computed"] == 0
    assert layer["runtime.pool_worker_failures"] == 0
    assert layer["runtime.checkpoint_writes"] > 0


def test_workers_that_die_fail_the_pooled_job(tmp_path):
    # No ``__main__`` guard: each spawned worker re-runs this script on
    # import, fails to start a pool during bootstrap and exits 1; the
    # parent then computes every item and the bytes still match.
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent(f"""
        import sys
        sys.path[:0] = [{str(HERE)!r}, {str(ROOT / "src")!r}]
        from pathlib import Path
        from repro.circuits import GateTimingEngine, TT_GLOBAL_LOCAL_MC
        from tracing import capture
        import workloads

        results = []
        with capture("repro.runtime.pool.pool", "run_pool", results):
            job = workloads.characterize_once(
                GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC), 7,
                Path({str(tmp_path / "job")!r}), workers=2,
                pool_results=results,
            )
        print(job.pool_ok, job.failed, results[0].parent_computed)
    """))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    pool_ok, failed, parent = proc.stdout.split()[-3:]
    assert pool_ok == "False"
    assert int(failed) >= 2 and int(parent) > 0


def test_paper_smoke_counts_unresolved_cells():
    res = result(run("paper-smoke", 7, 0))
    assert res["correct"] is True and res["failed"] == 0
    # Table 2's 3-sigma yield cells are NaN at smoke scale; they lower
    # ok_share instead of being filtered out.
    assert 0.0 < values(res)["ok_share"] < 1.0


def test_paper_smoke_layer_spans_cover_wall():
    layer = values(result(run("paper-smoke", 7, 1)))
    assert layer["trace.coverage_share"] >= 0.9
    assert layer["binning.unresolved"] > 0
    assert layer["models.fit_lvf2_calls"] > 0
    assert layer["models.fit_batch_calls"] == 0
    assert layer["ssta.sum_calls"] > 0


def test_best_of_adds_the_best_time_of_each_phase():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from run import best_of
    from workloads import Job

    jobs = [
        Job(wall_s=0.0, cpu_s=0.0,
            phases={"serial": (9.0, 8.0), "pooled": (5.0, 9.5)}),
        Job(wall_s=0.0, cpu_s=0.0,
            phases={"serial": (7.0, 7.0), "pooled": (6.0, 9.0)}),
    ]
    assert best_of(jobs, 0) == 7.0 + 5.0
    assert best_of(jobs, 1) == 7.0 + 9.0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run("characterize", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
