"""Tests of the benchmark itself: span arithmetic, wrapper removal, and a
tiny-input smoke run of every workload that checks the declared metrics.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import nhlab.eig
import nhlab.scenarios
import tracer
from tracer import KERNEL_LAYER, Span
from workloads import WORKLOADS, Workload

ROOT = harness.RUN_PY.parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, layer, start, end, parent):
    s = Span(name, layer, start, parent)
    s.end = end
    return s


def synthetic_tree():
    """spectra.certify [0, 10] calls a kernel [1, 3], eig.eig_full [4, 9] and a
    same-layer helper [9, 10]; eig_full calls two kernels and model.spectral_norm."""
    return [
        span("spectra.certify", "spectra", 0.0, 10.0, -1),          # 0
        span("numpy.linalg.svd", KERNEL_LAYER, 1.0, 3.0, 0),         # 1
        span("eig.eig_full", "eig", 4.0, 9.0, 0),                    # 2
        span("model.spectral_norm", "model", 4.0, 4.5, 2),           # 3
        span("numpy.linalg.eig", KERNEL_LAYER, 5.0, 7.0, 2),         # 4
        span("numpy.linalg.eig", KERNEL_LAYER, 7.0, 8.0, 2),         # 5
        span("spectra.conjugate_pairs", "spectra", 9.0, 10.0, 0),    # 6
    ]


def test_self_time_arithmetic():
    spans = synthetic_tree()
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx([10 - 2 - 5 - 1, 2, 5 - 0.5 - 2 - 1, 0.5, 2, 1, 1])
    layers = [tracer.layer_of(spans, i) for i in range(len(spans))]
    assert layers == ["spectra", "spectra", "eig", "model", "eig", "eig", "spectra"]
    local = tracer.local_times(spans, selfs, layers)
    # certify keeps its kernel and its same-layer helper, not eig_full
    assert local[0] == pytest.approx(2 + 2 + 1)
    assert local[2] == pytest.approx(1.5 + 2 + 1)
    assert sum(selfs) == pytest.approx(10.0)


def test_pass_metrics_on_synthetic_tree():
    m = tracer.pass_metrics(synthetic_tree(), {}, program_s=12.5)
    assert m["spectra.certify_s"] == pytest.approx(5.0)
    assert m["spectra.lapack_s"] == pytest.approx(2.0)
    assert m["spectra.lapack_calls"] == 1
    assert m["eig.eig_full_s"] == pytest.approx(4.5)
    assert m["eig.lapack_s"] == pytest.approx(3.0)
    assert m["eig.lapack_calls"] == 2
    assert m["eig.python_frac"] == pytest.approx(1 - 3.0 / 4.5)
    assert m["model.spectral_norm_s"] == pytest.approx(0.5)
    assert m["model.spectral_norm_calls"] == 1
    assert m["model.build_s"] == pytest.approx(0.0)
    assert m["trace.coverage_frac"] == pytest.approx(10.0 / 12.5)


def test_wrappers_cover_every_binding_and_are_removed():
    original = nhlab.eig.eig_full
    kernel = np.linalg.eig
    spans = tracer.Tracer()
    spans.install()
    try:
        # scenarios binds eig_full by name; both bindings must record spans
        assert nhlab.scenarios.eig_full is nhlab.eig.eig_full is not original
        assert np.linalg.eig is not kernel
        nhlab.scenarios.eig_full(np.diag([1.0, 2.0]).astype(complex))
    finally:
        spans.uninstall()
    assert nhlab.eig.eig_full is original and nhlab.scenarios.eig_full is original
    assert np.linalg.eig is kernel
    names = [s.name for s in spans.spans]
    assert names[0] == "eig.eig_full" and "numpy.linalg.eig" in names
    assert spans.counters["eig.non_biorthonormal"] == 0
    tracer.assert_clean()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_emits_every_declared_metric(name):
    inputs = WORKLOADS[name].setup(7, True)
    for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
        result, lines = harness.run(name, 7, 0.0, trace, [0.5], inputs,
                                    harness.environment(1))
        tracer.assert_clean()
        assert result["correct"], lines
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in DECLARED[declared]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        printed = "\n".join(lines)
        for metric in ("setup_s", "pass_s", "ops_failed_frac", "ops_ok_frac",
                       "accuracy_margin", "peak_rss_mb"):
            assert f"{metric} = " in printed


def test_operation_counts_do_not_depend_on_the_number_of_passes(monkeypatch):
    workload = WORKLOADS["threshold_sweep"]
    inputs = workload.setup(7, True)
    calls = []

    def flaky_pass(inp, rec):    # after the warm-up and one timed pass, one more call fails
        workload.run_pass(inp, rec)
        calls.append(1)
        if len(calls) > 2:
            assert not rec.ops[0].error
            rec.ops[0].error = "failed in a later pass"

    results = []
    for passes in (2, 4):
        monkeypatch.setattr(harness, "MIN_PASSES", passes)
        result, _ = harness.run("threshold_sweep", 7, 0.0, False, [0.5], inputs,
                                harness.environment(1))
        results.append(result)
    assert results[0]["attempted"] == results[1]["attempted"]
    assert results[0]["failed"] == results[1]["failed"]

    monkeypatch.setitem(WORKLOADS, "threshold_sweep", Workload(workload.setup, flaky_pass))
    result, _ = harness.run("threshold_sweep", 7, 0.0, False, [0.5], inputs,
                            harness.environment(1))
    assert result["attempted"] == results[0]["attempted"]
    assert result["failed"] == results[0]["failed"] + 1


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_setup_probes_run_in_fresh_processes():
    times = harness.setup_samples("paper", 1, 0.25)
    assert len(times) == harness.SETUP_SAMPLES and times[0] == 0.25
    assert all(0 < t < 60 for t in times)
