"""Measurement loop, metrics and environment record of the nhlab benchmark.

End-to-end metrics come from runs with tracing off; a ``--trace 1`` run times
untraced passes first, then installs the span wrappers for its traced passes
and removes them again.  Every pass re-runs the whole workload on the same
inputs, so counts repeat exactly and times are medians over passes.  Times
that carry a bound are scaled to the reference speed (see ``workloads``).
An operation is one nhlab call of the workload, repeated once per pass; it
counts once in ``attempted``, and once in ``failed`` if it failed in any pass.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import tracer
from workloads import WORKLOADS, PassRecord

RUN_PY = Path(__file__).resolve().parent / "run.py"
DECLARED = json.loads((RUN_PY.parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
SETUP_SAMPLES = 7          # fresh-process set-ups whose median is setup_s
MIN_PASSES = 2             # untraced passes per run, however long a pass takes
MIN_TRACE_PASSES = 2       # passes per phase of a traced run


def environment(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version()}


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    """This process's set-up time plus that of fresh processes, run one at a time."""
    times = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run([sys.executable, str(RUN_PY), "--workload", workload,
                               "--seed", str(seed), "--seconds", "0", "--setup-probe"],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def timed_passes(workload, inputs, seconds: float, min_passes: int,
                 spans: tracer.Tracer | None = None) -> tuple[list[PassRecord], list[dict]]:
    """Run passes until ``seconds`` have gone by and at least ``min_passes`` ran."""
    records, layer_metrics = [], []
    deadline = perf_counter() + seconds
    while len(records) < min_passes or perf_counter() < deadline:
        rec = PassRecord(sampling=spans is None)
        if spans is not None:
            spans.reset()
        workload.run_pass(inputs, rec)
        if spans is not None:
            layer_metrics.append(tracer.pass_metrics(spans.spans, spans.counters,
                                                     rec.program_s, rec.output_bytes))
        records.append(rec)
    return records, layer_metrics


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    p = int(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def run(workload_name: str, seed: int, seconds: float, trace: bool, setup_s: list[float],
        inputs, env: dict) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and human-readable lines."""
    workload = WORKLOADS[workload_name]
    lines = [f"env: {json.dumps(env)}",
             f"workload={workload_name} seed={seed} seconds={seconds:g} trace={int(trace)}"]
    tracer.assert_clean()
    # first calls (lazy imports, scipy's own set-up) land in an untimed pass on tiny inputs
    workload.run_pass(workload.setup(seed, True), PassRecord())
    traced, layer = [], []
    if not trace:
        records, _ = timed_passes(workload, inputs, seconds, MIN_PASSES)
    else:
        records, _ = timed_passes(workload, inputs, seconds / 2, MIN_TRACE_PASSES)
        spans = tracer.Tracer()
        spans.install()
        try:
            traced, layer = timed_passes(workload, inputs, seconds / 2, MIN_TRACE_PASSES, spans)
        finally:
            spans.uninstall()
    everything = records + traced
    names = [op.name for op in records[0].ops]
    if len(set(names)) != len(names) or any([o.name for o in r.ops] != names
                                             for r in everything):
        raise RuntimeError("operation names must be unique and the same in every pass")
    attempted = len(names)
    failed = len({op.name for r in everything for op in r.failed})
    oracle_failures = sorted({f for r in everything for f in r.oracle_failures})
    worst = max((m for r in everything for m in r.margins), key=lambda m: m[1],
                default=("none", 0.0))
    pass_s = [r.scaled_s for r in records]
    tail = tail_percentile(pass_s)

    lines += [
        f"setup_s = {statistics.median(setup_s):.6f} s at the reference speed  (median of "
        f"{len(setup_s)} set-ups: "
        + ", ".join(f"{t:.4f}" for t in setup_s) + ")",
        f"pass_s = {statistics.median(pass_s):.6f} s at the reference speed  (median of "
        f"{len(pass_s)} untraced passes; "
        + (f"p{tail[0]} = {tail[1]:.6f} s" if tail else "no percentile has 10 samples beyond it")
        + "): " + ", ".join(f"{t:.4f}" for t in pass_s)
        + ("; traced: " + ", ".join(f"{r.scaled_s:.4f}" for r in traced) if traced else ""),
        f"pass wall time = {statistics.median(r.program_s for r in records):.6f} s  (median, "
        "unscaled): " + ", ".join(f"{r.program_s:.4f}" for r in records),
        f"ops_failed_frac = {failed / attempted:.6f}  ({failed} of {attempted} operations failed; "
        f"each ran in all {len(everything)} passes; ops_ok_frac = {1 - failed / attempted:.6f})",
        f"accuracy_margin = {worst[1]:.6g}  (worst residual/tolerance: {worst[0]})",
        f"peak_rss_mb = {_peak_rss_mb():.3f} MB",
    ]
    for name in sorted({op.name + ": " + op.error for r in everything for op in r.failed}):
        lines.append(f"failed op: {name}")
    for what in oracle_failures:
        lines.append(f"oracle failure: {what}")

    if not trace:
        metrics = {"setup_s": statistics.median(setup_s), "pass_s": statistics.median(pass_s),
                   "ops_ok_frac": 1.0 - failed / attempted, "peak_rss_mb": _peak_rss_mb()}
    else:
        metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        metrics["trace.overhead_frac"] = (statistics.median(r.scaled_s for r in traced)
                                          / statistics.median(pass_s) - 1.0)
        metrics["ops_failed_frac"] = failed / attempted
        metrics["accuracy_margin"] = worst[1]
        for name, value in sorted(metrics.items()):
            lines.append(f"{name} = {value:.6g} {UNITS[name]}")
    result = {"correct": not oracle_failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": UNITS[k]} for k, v in metrics.items()}}
    return result, lines


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
