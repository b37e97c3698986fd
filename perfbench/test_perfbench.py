"""Tests of the benchmark itself: the gate catches bad outputs, and tracing
changes no result.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import construct_jobs, jobs_for, sweep_jobs  # noqa: E402

SEED = 7
BOUNDS_IDS = ("lemma33-q2-L3-rho0.1", "lemma33-q2-L4-rho0.1", "negativity",
              "ordering-q3", "claimA1-q4-l2", "bounds-largeL-rc")


def small_jobs() -> list[dict]:
    bounds = [j for j in jobs_for("bounds-verify", SEED, 0) if j["id"] in BOUNDS_IDS]
    sweeps = sweep_jobs((("rlc", 2, 10, 0.1, 2, None, "0.2:0.6:0.2", 3),
                         ("rc", 3, 6, 0.17, 3, 1, "0.25:0.5:0.25", 3)), SEED, 0)
    return bounds + sweeps + construct_jobs(((12, 0.1, 4, 0.2, 0),), SEED, 0)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    jobs = small_jobs()
    out = {}
    for trace in (False, True):
        d = tmp_path_factory.mktemp("traced" if trace else "plain")
        out[trace] = run.run_pass(jobs, d, "pass", trace)
    return jobs, out


def _results(result: dict) -> dict:
    return {r["id"]: r for r in result["jobs"]}


def test_clean_pass_passes_the_gate(passes):
    jobs, out = passes
    workdir, result = out[False]
    problems = gate.gate_pass(jobs, _results(result), workdir, run.ROOT, SEED)
    assert problems == {j["id"]: [] for j in jobs}


def test_traced_run_gives_identical_outputs(passes):
    _, out = passes
    (plain_dir, plain), (traced_dir, traced) = out[False], out[True]
    assert run._digests(plain_dir) == run._digests(traced_dir)
    assert [(r["rc"], r["stdout"]) for r in plain["jobs"]] == \
        [(r["rc"], r["stdout"]) for r in traced["jobs"]]


def test_traced_run_reports_every_per_layer_metric(passes):
    _, out = passes
    _, traced = out[True]
    metrics = tracing.layer_metrics(traced["spans"], traced["counters"])
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} == \
        set(metrics) | {"process.cpu_s", "process.wall_s", "trace_overhead_frac"}
    assert all(run._unit(m["name"]) == m["unit"] for m in declared)
    assert metrics["cli.main.calls"] == len(small_jobs())
    assert metrics["subspaces.kernels"] > 0 and metrics["simulate.check_lr_dp.calls"] > 0
    assert 0 < metrics["simulate.check_lr_dp.subsets_frac"] <= 1


def _copy(passes, tmp_path) -> tuple[list[dict], dict, Path]:
    jobs, out = passes
    workdir, result = out[False]
    copy = tmp_path / "copy"
    shutil.copytree(workdir, copy)
    return jobs, _results(result), copy


def test_gate_fails_a_corrupted_lemma33_report(passes, tmp_path):
    jobs, results, d = _copy(passes, tmp_path)
    job = next(j for j in jobs if j["id"] == "lemma33-q2-L3-rho0.1")
    path = d / job["params"]["out"]
    rep = json.loads(path.read_text())
    rep["details"][0]["identity_kernel_entropy"] += 1e-6
    path.write_text(json.dumps(rep))
    assert gate.gate_pass(jobs, results, d, run.ROOT, SEED)[job["id"]]


def test_gate_fails_a_changed_min_slack(passes, tmp_path):
    jobs, results, d = _copy(passes, tmp_path)
    job = next(j for j in jobs if j["id"] == "lemma33-q2-L4-rho0.1")
    path = d / job["params"]["out"]
    rep = json.loads(path.read_text())
    rep["details"][0]["min_slack"] += 0.01
    path.write_text(json.dumps(rep))
    assert gate.gate_pass(jobs, results, d, run.ROOT, SEED)[job["id"]]


def test_gate_fails_a_changed_sweep_value(passes, tmp_path):
    jobs, results, d = _copy(passes, tmp_path)
    job = next(j for j in jobs if j["kind"] == "simulate")
    path = d / job["params"]["out"]
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "0.5" if cells[1] != "0.5" else "1"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert gate.gate_pass(jobs, results, d, run.ROOT, SEED)[job["id"]]


@pytest.mark.parametrize("job_id, wrong_rc", [
    ("negativity", 0),  # fails by design: the expression turns positive near 0.281
    ("lemma33-q2-L3-rho0.1", 0),  # negative minimum slack must exit 1
    ("ordering-q3", 1),
    ("bounds-largeL-rc", 3),
])
def test_gate_fails_a_wrong_exit_code(passes, job_id, wrong_rc):
    jobs, out = passes
    workdir, result = out[False]
    results = _results(result)
    assert results[job_id]["rc"] != wrong_rc
    results[job_id] = dict(results[job_id], rc=wrong_rc)
    assert gate.gate_pass(jobs, results, workdir, run.ROOT, SEED)[job_id]
