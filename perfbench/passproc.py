"""One benchmark pass: every job of a workload, in-process, in a fresh interpreter.

    python3 passproc.py ROOT JOBS_JSON WORKDIR RESULT_JSON TRACE

Imports `thresholds` from ROOT/src, runs each job as one call to
`thresholds.cli.main(argv)` with WORKDIR as the current directory, and writes
per-job exit codes and captured output, the pass's wall and CPU time, its peak
resident memory and, when TRACE is 1, the spans of every traced call.

While the jobs run, a timer signal PROBE_HZ times a second times a fixed
pure-Python loop.  The host's CPU speed drifts by tens of percent within
seconds (turbo and neighbour load on shared machines); the probe durations
measure that drift where the pass runs, and `speed_normalized` uses them to
scale the pass's wall time to a CPU on which the probe takes PROBE_REF_S.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

PROBE_HZ = 100
PROBE_LOOPS = 10000
PROBE_REF_S = 0.0002


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _probe(probes: list[float]) -> None:
    t0 = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        pass
    probes.append(time.perf_counter() - t0)


def speed_normalized(wall: float, probes: list[float]) -> float:
    """Wall time less the probes, at the reference speed.

    The probes sample the CPU's speed at even intervals, so the pass did
    wall * mean(PROBE_REF_S / probe) seconds of reference-speed work.
    """
    if not probes:
        return wall
    return (wall - sum(probes)) * statistics.fmean(PROBE_REF_S / p for p in probes)


def main(root: str, jobs_path: str, workdir: str, result_path: str, trace: bool) -> int:
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import thresholds.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"thresholds imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    jobs = json.loads(Path(jobs_path).read_text())
    os.chdir(workdir)
    results = []
    probes: list[float] = []
    signal.signal(signal.SIGALRM, lambda signum, frame: _probe(probes))
    signal.setitimer(signal.ITIMER_REAL, 1.0 / PROBE_HZ, 1.0 / PROBE_HZ)
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(job["argv"]))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception:
                rc, error = None, traceback.format_exc()
        rec = {"id": job["id"], "rc": rc, "error": error, "seconds": time.perf_counter() - t0,
               "stdout": out.getvalue(), "stderr": err.getvalue()}
        if tracer is not None:
            rec["rates"] = sorted(set(tracer.rates), key=float)
            tracer.rates.clear()
        results.append(rec)
    wall = time.perf_counter() - wall0
    cpu = _cpu_s() - cpu0
    signal.setitimer(signal.ITIMER_REAL, 0, 0)

    payload = {
        "wall_s": wall,
        "norm_wall_s": speed_normalized(wall, probes),
        "probes": len(probes),
        "cpu_s": cpu,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": results,
    }
    if tracer is not None:
        payload["spans"] = tracer.spans
        payload["counters"] = dict(tracer.counters)
    Path(result_path).write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    root, jobs_path, workdir, result_path, trace = sys.argv[1:6]
    sys.exit(main(root, jobs_path, workdir, result_path, trace == "1"))
