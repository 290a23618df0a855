"""Smoke and contract tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Each workload runs at its small size: every metric BENCHMARK.json names must
be emitted, a deliberately corrupted job result must be counted as failed,
and the survey workload's experiment jobs must write byte-identical manifest.json
and rows.csv at one and at two threads.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library()

import jobs  # noqa: E402
import spans  # noqa: E402
from dyadiclab import aak, experiments, hankel, norms  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric(workload):
    plain = run.measure(workload, seed=3, seconds=0, trace=False, size="tiny")
    assert (plain["correct"], plain["failed"]) == (True, 0), plain["problems"]
    assert plain["attempted"] > 0
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.measure(workload, seed=3, seconds=0, trace=True, size="tiny")
    assert (traced["correct"], traced["failed"]) == (True, 0), traced["problems"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    assert all(units[name] == m["unit"] for name, m in {**plain["metrics"], **traced["metrics"]}.items())
    assert traced["metrics"]["experiments.run.calls"]["value"] >= 1


def _bump_extension(ext):
    ext.sequence[-2] += 1.0
    return ext


def _bump_commutator(mat):
    mat.entries[0, 0] += 1e-9
    return mat


def _inflate_heuristic(out):
    rows_file = out / "rows.csv"
    with open(rows_file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[-1]["bmo_product_heuristic"] = repr(2 * float(rows[-1]["bmo_product_exact"]))
    with open(rows_file, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return out


@pytest.mark.parametrize("workload, job_name, corrupt", [
    ("extend", "extend_hankel_step[0]", _bump_extension),
    ("assemble", "commutator_matrix", _bump_commutator),
    ("survey", "carleson", _inflate_heuristic),
])
def test_corrupted_result_counts_as_failed(workload, job_name, corrupt):
    def corrupting_build(*args, **kwargs):
        built = jobs.build(*args, **kwargs)
        for job in built:
            if job.name == job_name:
                job.call = lambda call=job.call: corrupt(call())
        return built

    result = run.measure(workload, seed=3, seconds=0, trace=False, size="tiny",
                         build=corrupting_build)
    # the corrupted job fails on the reference pass and on the one timed pass
    assert (result["correct"], result["failed"]) == (False, 2), result["problems"]
    assert all(p.startswith(job_name) for p in result["problems"])


def test_raising_job_counts_as_failed():
    def raising_build(*args, **kwargs):
        built = jobs.build(*args, **kwargs)
        built[0].call = lambda: 1 / 0
        return built

    result = run.measure("assemble", seed=3, seconds=0, trace=False, size="tiny",
                         build=raising_build)
    assert result["failed"] == 2 and "ZeroDivisionError" in result["problems"][0]


def test_survey_experiment_jobs_are_thread_count_invariant(tmp_path):
    outputs = {}
    for threads in (1, 2):
        for job in jobs.build("survey", 5, 1, "tiny", tmp_path / f"t{threads}", nproc=threads):
            if job.name in experiments.CATALOG:
                out = job.call()
                outputs.setdefault(job.name, []).append(
                    ((out / "manifest.json").read_bytes(), (out / "rows.csv").read_bytes()))
    assert set(outputs) == {"nehari1d", "nehari2d", "carleson", "journe", "lower-bound"}
    for name, (one, two) in outputs.items():
        assert one == two, name


def test_tracer_sees_calls_through_every_binding():
    tracer = spans.Tracer()
    original = norms.operator_norm
    tracer.install()
    try:
        assert aak.operator_norm is hankel.operator_norm is norms.operator_norm is not original
        hankel.hankel_matrix([1.0, 2.0, 3.0], 2).norm()
    finally:
        tracer.uninstall()
    assert aak.operator_norm is original and norms.operator_norm is original
    metrics = tracer.metrics()
    assert metrics["norms.operator_norm.calls"] == 1
    assert metrics["numpy.svd.calls"] == 1
    assert metrics["numpy.svd.flops"] == spans.svd_flops(
        [[0j, 0j], [0j, 0j]], compute_uv=False)


def test_self_time_excludes_children():
    assert spans._covered([(1.0, 2.0), (1.5, 3.0), (4.0, 5.0)], 0.0, 4.5) == pytest.approx(2.5)


def test_spec_matches_benchmark():
    assert SPEC["paths"] == ["bench"]
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    per_layer = dict(spans.layer_metric_names())
    per_layer.update({"process.cpu_s": "s", "trace.overhead_s": "s"})
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "extend", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
