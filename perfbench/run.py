"""Benchmark of the `thresholds` command on four researcher workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `thresholds` is imported from its
`src/`.  Each pass runs the workload's job list in a fresh interpreter
(`passproc.py`), one in-process `thresholds.cli.main(argv)` call per job, in
a fresh temporary directory under `.perfbench/`.  Passes repeat while the
next one fits in `--seconds` (at least MIN_PASSES), each with job seeds
derived from `--seed` and the pass index; every output goes through the
correctness gate (`gate.py`) and, for the first pass, the oracle checks
(`oracles.py`).

With `--trace 0` the last stdout line reports the end-to-end metrics (median
over passes); with `--trace 1`, untraced and traced passes alternate on the
same inputs and it reports the per-layer metrics of the traced passes
(`tracing.py`).  The spans of the last traced pass are written to
`.perfbench/trace-<workload>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

MIN_PASSES = 3  # untraced passes per run; traced runs make at least one pair
SETUP_REPEATS = 5
PASS_TIMEOUT_S = 150
IMPORT_CLI = "import sys; sys.path.insert(0, sys.argv[1]); import thresholds.cli"


def _env() -> dict:
    env = dict(os.environ)
    env.pop("THRESHOLDS_THREADS", None)
    return env


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "THRESHOLDS_THREADS": os.environ.get("THRESHOLDS_THREADS"),
        "git_commit": _git_commit(),
    }


def measure_setup() -> float:
    """Median time from a fresh interpreter to `thresholds.cli` imported."""
    cmd = [sys.executable, "-c", IMPORT_CLI, str(ROOT / "src")]
    subprocess.run(cmd, check=True, env=_env())  # compiles the bytecode once, untimed
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, env=_env())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(jobs: list[dict], run_dir: Path, tag: str, trace: bool) -> tuple[Path, dict | None]:
    """Run one pass in a fresh interpreter; returns its output directory and result."""
    workdir = run_dir / tag
    workdir.mkdir()
    jobs_path = run_dir / f"{tag}.jobs.json"
    result_path = run_dir / f"{tag}.result.json"
    jobs_path.write_text(json.dumps(jobs))
    cmd = [sys.executable, str(HERE / "passproc.py"), str(ROOT), str(jobs_path),
           str(workdir), str(result_path), "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, env=_env(), timeout=PASS_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"{tag}: pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return workdir, None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"{tag}: pass process failed ({proc.returncode}): {proc.stderr[-2000:]}",
              file=sys.stderr)
        return workdir, None
    return workdir, json.loads(result_path.read_text())


def _digests(workdir: Path) -> dict[str, str]:
    """Output digests, manifests excluded (they record wall-clock time)."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.iterdir()) if not p.name.endswith(".manifest.json")}


class Run:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}
        self.first: tuple[list[dict], Path, str] | None = None

    def fail(self, key: str, problems: list[str]) -> None:
        self.failures.setdefault(key, []).extend(problems)

    def gated_pass(self, index: int, trace: bool) -> tuple[Path, dict | None]:
        jobs = jobs_for(self.workload, self.seed, index)
        tag = f"pass{index}-{'traced' if trace else 'plain'}"
        workdir, result = run_pass(jobs, self.run_dir, tag, trace)
        self.attempted += len(jobs)
        if result is None:
            for job in jobs:
                self.fail(f"{tag}/{job['id']}", ["pass process failed"])
            return workdir, None
        by_id = {r["id"]: r for r in result["jobs"]}
        for jid, probs in gate.gate_pass(jobs, by_id, workdir, ROOT, self.seed).items():
            if probs:
                self.fail(f"{tag}/{jid}", probs)
        if self.first is None:
            self.first = ([dict(j, result=by_id[j["id"]]) for j in jobs], workdir, tag)
        return workdir, result

    def run_oracles(self) -> None:
        """Outside every timed pass: second-route checks on the first pass."""
        if self.first is None or self.workload not in oracles.ORACLES:
            return
        jobs, workdir, tag = self.first
        sys.path.insert(0, str(ROOT / "src"))
        import thresholds.simulate as sim

        for jid, probs in oracles.ORACLES[self.workload](sim, jobs, workdir, self.seed).items():
            if probs:
                self.fail(f"{tag}/{jid}", [f"oracle: {p}" for p in probs])

    def cleanup(self, workdir: Path) -> None:
        if self.first is None or workdir != self.first[1]:
            shutil.rmtree(workdir, ignore_errors=True)


def _keep_going(done: int, minimum: int, started: float, costs: list[float], seconds: float) -> bool:
    if done < minimum:
        return True
    return time.perf_counter() - started + statistics.median(costs) <= seconds


def measure(run: Run, seconds: float) -> dict:
    """Untraced passes; end-to-end metrics as medians over passes."""
    walls, raw, rss = [], [], []
    costs, started, i = [], time.perf_counter(), 0
    while _keep_going(i, MIN_PASSES, started, costs, seconds):
        t0 = time.perf_counter()
        workdir, result = run.gated_pass(i, trace=False)
        if result is not None:
            walls.append(result["norm_wall_s"])
            raw.append(result["wall_s"])
            rss.append(result["peak_rss_mb"])
        run.cleanup(workdir)
        costs.append(time.perf_counter() - t0)
        i += 1
        if result is None:
            break
    return {"walls": walls, "raw": raw, "rss": rss}


def measure_traced(run: Run, seconds: float) -> tuple[dict, list, dict]:
    """Untraced and traced passes on the same inputs, alternating."""
    per_pass, untraced, traced, cpu, raw = [], [], [], [], []
    last_spans, rates = [], {}
    costs, started, i = [], time.perf_counter(), 0
    while _keep_going(i, 1, started, costs, seconds):
        t0 = time.perf_counter()
        plain_dir, plain = run.gated_pass(i, trace=False)
        traced_dir, tres = run.gated_pass(i, trace=True)
        if plain is not None and tres is not None:
            untraced.append(plain["norm_wall_s"])
            raw.append(plain["wall_s"])
            cpu.append(plain["cpu_s"])
            traced.append(tres["norm_wall_s"])
            per_pass.append(tracing.layer_metrics(tres["spans"], tres["counters"]))
            last_spans = tres["spans"]
            rates = {j["id"]: j["rates"] for j in tres["jobs"] if j["rates"]}
            # the wrappers must not change a single result
            if _digests(plain_dir) != _digests(traced_dir):
                run.fail(f"pass{i}/trace", ["traced outputs differ from untraced outputs"])
            for a, b in zip(plain["jobs"], tres["jobs"]):
                if (a["rc"], a["stdout"]) != (b["rc"], b["stdout"]):
                    run.fail(f"pass{i}/trace/{a['id']}", ["traced exit code or stdout differs"])
        run.cleanup(plain_dir)
        run.cleanup(traced_dir)
        costs.append(time.perf_counter() - t0)
        i += 1
        if plain is None or tres is None:
            break
    metrics = {}
    if per_pass:
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["process.cpu_s"] = statistics.median(cpu)
        metrics["process.wall_s"] = statistics.median(raw)
        metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return metrics, last_spans, rates


UNITS = {"calls": "count", "kernels": "count", "interior": "count", "edge": "count",
         "vertex": "count", "subsets": "count", "trials": "count", "steps": "count",
         "kernels_per_s": "1/s", "subsets_frac": "ratio", "trace_overhead_frac": "ratio"}


def _unit(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "s")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "thresholds" / "cli.py").is_file():
        print(f"no thresholds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        setup_s = measure_setup()
        run = Run(args.workload, args.seed, run_dir)
        if args.trace:
            layer, spans, rates = measure_traced(run, args.seconds)
        else:
            timing = measure(run, args.seconds)
        run.run_oracles()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = min(run.attempted, len(run.failures))
    for key, probs in sorted(run.failures.items()):
        print(f"FAILED {key}: {'; '.join(probs)}", file=sys.stderr)
    print("environment " + json.dumps(env))

    if args.trace:
        if not layer:
            print("no traced pass completed", file=sys.stderr)
            return 1
        shares = tracing.layer_self_shares(spans)
        print(f"layer self-time shares ({args.workload}): "
              + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        if rates:
            print("sampler rates as parsed: " + json.dumps(rates))
        (work / f"trace-{args.workload}.json").write_text(json.dumps(
            {"environment": env, "workload": args.workload, "seed": args.seed,
             "shares": shares, "rates": rates, "metrics": layer,
             "spans": {"fields": ["name", "start", "end", "parent"], "rows": spans}}))
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layer.items()}
    else:
        if not timing["walls"]:
            print("no pass completed", file=sys.stderr)
            return 1
        metrics = {
            "wall_s": {"value": statistics.median(timing["walls"]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(timing["rss"]), "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / run.attempted, "unit": "ratio"},
        }
        print(f"passes: {len(timing['walls'])}; wall_s at reference speed: "
              + ", ".join(f"{w:.3f}" for w in timing["walls"])
              + "; raw wall seconds: " + ", ".join(f"{w:.3f}" for w in timing["raw"]))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
