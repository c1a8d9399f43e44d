"""Per-layer metrics of a traced run, named after the ``repro`` modules.

Each traced job is reduced to one row; the run reports the mean row.
``*_s`` metrics are self times from :mod:`tracing` (nested spanned
calls excluded), except ``experiments.*_s`` and ``runtime.pool_run_s``
which are whole-call walls.  The ``stats`` layer is read from the
program's own ``em.*`` telemetry counters.  Fits and simulations of
the pooled half of a ``characterize`` job run in worker processes the
parent cannot see, so the ``models``, ``stats`` and ``circuits`` rows
describe the serial half; the pooled half shows as
``runtime.pool_run_s``.
"""

from __future__ import annotations

import statistics

import numpy as np

from workloads import EXPERIMENTS, WORKERS

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("stats.em_fits", "count", "lower"),
    ("stats.em_iter_p50", "iter", "lower"),
    ("stats.em_iter_p90", "iter", "lower"),
    ("stats.em_nonconverged_share", "1", "lower"),
    ("stats.em_collapsed", "count", "lower"),
    ("models.fit_batch_s", "s", "lower"),
    ("models.fit_batch_calls", "count", "lower"),
    ("models.fit_batch_rows", "count", "higher"),
    ("models.fit_lvf2_s", "s", "lower"),
    ("models.fit_norm2_s", "s", "lower"),
    ("models.fit_lesn_s", "s", "lower"),
    ("models.fit_lvf_s", "s", "lower"),
    ("models.fit_lvf2_calls", "count", "lower"),
    ("models.fit_lvf2_p50_ms", "ms", "lower"),
    ("models.fit_lvf2_p90_ms", "ms", "lower"),
    ("runtime.policy_fits", "count", "higher"),
    ("runtime.policy_degraded_share", "1", "lower"),
    ("runtime.policy_quarantined", "count", "lower"),
    ("runtime.pool_run_s", "s", "lower"),
    ("runtime.pool_worker_cpu_s", "s", "lower"),
    ("runtime.pool_idle_s", "s", "lower"),
    ("runtime.pool_items", "count", "higher"),
    ("runtime.pool_parent_computed", "count", "lower"),
    ("runtime.pool_worker_failures", "count", "lower"),
    ("runtime.checkpoint_writes", "count", "lower"),
    ("runtime.checkpoint_bytes", "B", "lower"),
    ("liberty.write_s", "s", "lower"),
    ("liberty.parse_s", "s", "lower"),
    ("liberty.validate_s", "s", "lower"),
    ("liberty.bytes", "B", "lower"),
    ("circuits.simulate_s", "s", "lower"),
    ("circuits.simulate_calls", "count", "lower"),
    ("circuits.samples", "count", "higher"),
    ("ssta.sum_s", "s", "lower"),
    ("ssta.sum_calls", "count", "lower"),
    ("binning.eval_s", "s", "lower"),
    ("binning.unresolved", "count", "lower"),
    ("yield_est.estimate_s", "s", "lower"),
    ("yield_est.samples", "count", "lower"),
    *((f"experiments.{name}_s", "s", "lower") for name in EXPERIMENTS),
    ("trace.overhead_share", "1", "lower"),
    ("trace.coverage_share", "1", "higher"),
)


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def job_row(job) -> dict[str, float]:
    """Per-layer numbers of one traced job."""
    rec = job.recorder
    own = rec.self_times()
    counters = job.telemetry.get("counters", {})
    iterations = job.telemetry.get("histograms", {}).get("em.iterations", {})
    fits = counters.get("em.fits", 0)
    report = job.report
    policy_fits = report.n_fits if report is not None else 0
    pool_wall = sum(rec.durations("runtime.pool_run"))
    pools = job.pool_results
    codes = [c for r in pools for c in r.exit_codes + r.respawn_exit_codes]
    lvf2 = rec.durations("models.fit_lvf2")
    row = {
        "stats.em_fits": fits,
        "stats.em_iter_p50": iterations.get("p50", 0.0),
        "stats.em_iter_p90": iterations.get("p90", 0.0),
        "stats.em_nonconverged_share": (
            counters.get("em.nonconverged", 0) / fits if fits else 0.0
        ),
        "stats.em_collapsed": counters.get("em.collapsed", 0),
        "models.fit_batch_s": own.get("models.fit_batch", 0.0),
        "models.fit_batch_calls": rec.count("models.fit_batch"),
        "models.fit_batch_rows": rec.work("models.fit_batch"),
        "models.fit_lvf2_s": own.get("models.fit_lvf2", 0.0),
        "models.fit_norm2_s": own.get("models.fit_norm2", 0.0),
        "models.fit_lesn_s": own.get("models.fit_lesn", 0.0),
        "models.fit_lvf_s": own.get("models.fit_lvf", 0.0),
        "models.fit_lvf2_calls": len(lvf2),
        "models.fit_lvf2_p50_ms": _percentile_ms(lvf2, 50),
        "models.fit_lvf2_p90_ms": _percentile_ms(lvf2, 90),
        "runtime.policy_fits": policy_fits,
        "runtime.policy_degraded_share": (
            len(report.degraded_records()) / policy_fits
            if policy_fits else 0.0
        ),
        "runtime.policy_quarantined": (
            len(report.quarantined) if report is not None else 0
        ),
        "runtime.pool_run_s": pool_wall,
        "runtime.pool_worker_cpu_s": job.worker_cpu_s,
        "runtime.pool_idle_s": (
            WORKERS * pool_wall - job.worker_cpu_s if pools else 0.0
        ),
        "runtime.pool_items": sum(r.n_items for r in pools),
        "runtime.pool_parent_computed": sum(r.parent_computed for r in pools),
        "runtime.pool_worker_failures": sum(1 for c in codes if c != 0),
        "runtime.checkpoint_writes": job.checkpoint_files,
        "runtime.checkpoint_bytes": job.checkpoint_bytes,
        "liberty.write_s": own.get("liberty.write", 0.0),
        "liberty.parse_s": own.get("liberty.parse", 0.0),
        "liberty.validate_s": own.get("liberty.validate", 0.0),
        "liberty.bytes": len(job.text.encode()),
        "circuits.simulate_s": own.get("circuits.simulate", 0.0),
        "circuits.simulate_calls": rec.count("circuits.simulate"),
        "circuits.samples": rec.work("circuits.simulate"),
        "ssta.sum_s": own.get("ssta.sum", 0.0),
        "ssta.sum_calls": rec.count("ssta.sum"),
        "binning.eval_s": own.get("binning.eval", 0.0),
        "yield_est.estimate_s": own.get("yield_est.estimate", 0.0),
        "yield_est.samples": rec.work("yield_est.estimate"),
    }
    for name in EXPERIMENTS:
        row[f"experiments.{name}_s"] = sum(
            rec.durations(f"experiments.{name}")
        )
    layer_time = sum(
        seconds for name, seconds in own.items()
        if not name.startswith("experiments.")
    )
    row["trace.coverage_share"] = layer_time / job.wall_s
    return row


def layer_metrics(jobs, unresolved: int) -> dict[str, dict]:
    """The ``--trace 1`` result: mean traced row, overhead, units."""
    traced = [job for job in jobs if job.recorder is not None]
    untraced = [job for job in jobs if job.recorder is None]
    rows = [job_row(job) for job in traced]
    values = {
        name: statistics.fmean(row[name] for row in rows) for name in rows[0]
    }
    values["binning.unresolved"] = unresolved
    # An untraced paper-smoke job runs a subset of the experiments;
    # compare it with the traced time of that subset.
    subset = untraced[0].result

    def comparable(job) -> float:
        if subset is None:
            return job.wall_s
        return sum(
            sum(job.recorder.durations(f"experiments.{name}"))
            for name in subset
        )

    values["trace.overhead_share"] = (
        statistics.median(comparable(j) for j in traced)
        / statistics.median(j.wall_s for j in untraced)
        - 1.0
    )
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
