"""Command-line surface: bounds, verifications, simulations, constructions.

Every command writes a run manifest (JSON with the command, parameters, seed,
tool version, sha256 digests of the files it produced, the command's work
counters, and the Python and numpy versions and CPU count) so a run can be
replayed and checked byte for byte.  Numeric output uses 12 significant
digits throughout.

Exit codes: 0 pass, 1 assertion failure, 2 usage, 3 domain error, 4 work
budget exceeded (partial results flagged), 5 construction failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import sys
import time
from decimal import Decimal

import numpy as np

from . import __version__
from . import engine as eng
from . import simulate as sim
from .engine import fmt12
from .errors import (
    DomainError,
    NoCandidateError,
    SizeCapError,
    UnsupportedError,
    WorkBudgetExceededError,
)
from .infomeasures import hq, hq_multi, hql
from .typespace import LRSpec

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4
EXIT_CONSTRUCT = 5

# bound families solved on the whole grid at once: (args, rhos) -> (rows,
# solves), and the column of each row that is the family's value
_SOLVED_ROWS = {
    "ld4-binary-rlc": (lambda a, rhos: eng.ld4_binary_rows(rhos), "rlc"),
    "ld4-binary-rc": (lambda a, rhos: eng.ld4_binary_rows(rhos), "rc"),
    "ld3-qary-rlc": (lambda a, rhos: eng.ld3_qary_rows(a.q, rhos), "rlc"),
    "ld3-qary-rc": (lambda a, rhos: eng.ld3_qary_rows(a.q, rhos), "rc"),
}
# closed-form bound families: (args, rho) -> [(method, value), ...], one CSV
# row per pair
_BOUND_ROWS = {
    "lr-listsize-rlc": lambda a, rho: [
        ("lower", float(eng.lr_listsize_lower_rlc(a.q, a.l, rho, a.eps, a.delta)))],
    "lr-listsize-rc": lambda a, rho: list(zip(
        ("lower", "upper"), map(float, eng.lr_listsize_rc(a.q, a.l, rho, a.eps, a.delta)))),
    "largeL-rlc": lambda a, rho: [
        ("closed_form", eng.rate_rlc_binary_largeL(rho, a.L, a.delta))],
    "largeL-rc": lambda a, rho: [
        ("closed_form", eng.rate_rc_binary_largeL(rho, a.L, a.delta))],
}
BOUND_FAMILIES = (*_SOLVED_ROWS, *_BOUND_ROWS, "figure1")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_manifest(command: str, args: argparse.Namespace, outputs: list[str],
                    elapsed: float) -> None:
    skip = {"func", "manifest", "config"}
    params = {}
    for k, v in vars(args).items():
        if k in skip or k.startswith("_"):
            continue
        if isinstance(v, np.ndarray):
            v = v.tolist()
        params[k] = v
    manifest = {
        "command": command,
        "args": params,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_clock_s": round(elapsed, 6),
        "partial": bool(getattr(args, "_partial", False)),
        "outputs": [{"path": p, "sha256": _sha256(p)} for p in outputs],
        "counters": getattr(args, "_counters", {}),
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "cpu_count": os.cpu_count()},
    }
    path = args.manifest or f"{command}.manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _solver_counters(solves) -> dict[str, int]:
    """A manifest's `counters` for the optimizer's solves."""
    return {"solves": len(solves),
            "interior": sum(s.method == "interior" for s in solves),
            "edge": sum(s.method == "edge" for s in solves),
            "bisection_rounds": sum(s.rounds for s in solves)}


def _decimal_grid(lo: float, hi: float, step: float) -> list[float]:
    """round((hi - lo) / step) + 1 points from lo (none for step <= 0), point
    i the float nearest the decimal lo + i*step, so that 0.1:0.8:0.05 holds
    0.5 and not the drifted 0.5000000000000001 of repeated float addition."""
    count = round((hi - lo) / step) + 1 if step > 0 else 0
    lo_d, step_d = Decimal(str(lo)), Decimal(str(step))
    return [float(lo_d + i * step_d) for i in range(count)]


def _floats(spec: str, sep: str) -> list[float]:
    try:
        return [float(t) for t in spec.split(sep)]
    except ValueError:
        raise DomainError(f"not a {sep!r}-separated list of numbers: {spec!r}") from None


def _parse_rates(spec: str) -> list[float]:
    parts = _floats(spec, ":")
    if len(parts) != 3:
        raise DomainError("rate sweep must be min:max:step")
    lo, hi, step = parts
    if step <= 0:
        raise DomainError("rate step must be positive")
    return _decimal_grid(lo, hi, step)


def _grid(args, lo=None, hi=None, step=None) -> np.ndarray:
    """The sweep rho-min:rho-max:step, each bound the command line leaves
    unset taken from the given default; an empty sweep is a usage error."""
    lo = lo if args.rho_min is None else args.rho_min
    hi = hi if args.rho_max is None else args.rho_max
    step = step if args.step is None else args.step
    if lo > hi:
        raise _Usage("empty sweep: rho-min exceeds rho-max")
    g = np.asarray(_decimal_grid(lo, hi, step))
    if g.size == 0:
        raise _Usage("empty sweep")
    return g


class _Usage(Exception):
    pass


# ---------------------------------------------------------------------------
# commands


def cmd_entropy(args) -> int:
    rows = []
    if args.hq:
        rows.append((f"hq(q={args.q}, rho={fmt12(args.rho)})", hq(args.q, args.rho)))
    if args.hql:
        rows.append((
            f"hql(q={args.q}, l={args.l}, rho={fmt12(args.rho)})",
            hql(args.q, args.l, args.rho),
        ))
    if args.multi is not None:
        masses = _floats(args.multi, ",")
        rows.append((f"hq_multi(q={args.q}, masses={args.multi})", hq_multi(args.q, masses)))
    if not rows:
        raise _Usage("pick at least one of --hq, --hql, --multi")
    for label, val in rows:
        print(f"{label} = {fmt12(val)}")
    return EXIT_OK


def _bounds_rows(args) -> tuple[list[dict], np.ndarray]:
    grid = _grid(args)
    rhos, solves = grid.tolist(), []
    if args.family in _SOLVED_ROWS:
        rows_of, column = _SOLVED_ROWS[args.family]
        got, solves = rows_of(args, rhos)
        pairs = [[("closed_form", row[column])] for row in got]
    else:
        pairs = eng.each_rho(rhos, lambda rho: _BOUND_ROWS[args.family](args, rho))
    args._counters = _solver_counters(solves)
    rows = [{"rho": rho, "value": v, "family": args.family, "method": m}
            for rho, rho_pairs in zip(rhos, pairs) for m, v in rho_pairs]
    return rows, grid


def cmd_bounds(args) -> int:
    if args.family == "figure1":
        grid = _grid(args)
        blue, orange, ok = eng.dominance_curves(grid)
        args._counters = _solver_counters(blue.solves)
        lines = ["rho,blue,orange,dominant"]
        for r, b, o, d in zip(grid, blue.values, orange.values, ok):
            lines.append(f"{fmt12(r)},{fmt12(b)},{fmt12(o)},{str(d).lower()}")
        text = "\n".join(lines) + "\n"
        out = args.out or "bounds_figure1.csv"
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out} ({grid.size} points, dominance {'all true' if all(ok) else 'VIOLATED'})")
        args._outputs = [out]
        return EXIT_OK if all(ok) else EXIT_ASSERT

    rows, grid = _bounds_rows(args)
    out = args.out or f"bounds_{args.family}.csv"
    if args.format == "json":
        with open(out, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    else:
        lines = ["rho,value,family,method"]
        for row in rows:
            lines.append(f"{fmt12(row['rho'])},{fmt12(row['value'])},{row['family']},{row['method']}")
        with open(out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(rows)} rows)")
    args._outputs = [out]
    return EXIT_OK


def _verify_negativity(args) -> tuple[bool, list[dict]]:
    grid = _grid(args, 0.001, 0.333, 0.001)
    grid = grid[(grid > 0.0) & (grid < 1.0 / 3.0)]
    vals = eng.negativity_values(grid)
    details = [{"rho": float(r), "value": float(v), "ok": bool(v < 0.0)}
               for r, v in zip(grid, vals)]
    return all(d["ok"] for d in details), details


def _verify_claima1(args) -> tuple[bool, list[dict]]:
    LRSpec(q=args.q, ell=args.l, L=1, rho=args.rho)  # q < 2 leaves no beta to check
    details = []
    for beta in range(1, args.q):
        lam = eng.shifted_sum_entropy_ratio(args.q, args.l, args.rho, beta)
        details.append({"beta": beta, "lambda": lam, "ok": bool(lam > 1.0 + 1e-6)})
    return all(d["ok"] for d in details), details


def _verify_lemma33(args) -> tuple[bool, list[dict]]:
    rep = eng.kernel_slack_report(args.q, args.l, args.rho, args.L, args.delta)
    args._counters = {"kernels": rep["kernels"]}
    det = rep["details"]
    details = [
        {"min_slack": rep["min_slack"],
         "worst_kernel": [list(r) for r in rep["worst_kernel"].basis],
         "per_dim_min_slack": det["per_dim_min_slack"],
         "identity_kernel_entropy": det["identity_kernel_entropy"],
         "identity_predicted": det["identity_predicted"],
         "cond_entropy_s_given_u": det["cond_entropy_s_given_u"],
         "fano_term_ok": det["fano_term_ok"],
         "per_dimension_floor_min_slack": det["per_dimension_floor_min_slack"]}
    ]
    return rep["pass"], details


def _verify_ordering(args) -> tuple[bool, list[dict]]:
    grid = _grid(args, 0.01, 0.31 if args.q == 2 else 0.33, 0.005).tolist()
    # the q-ary linear bound is valid only where the full-support case
    # dominates the low-dimension boundary, so each q-ary row checks that too
    rows, solves = (eng.ld4_binary_rows(grid) if args.q == 2
                    else eng.ld3_qary_rows(args.q, grid))
    args._counters = _solver_counters(solves)
    details = [{"rho": float(r), **row} for r, row in zip(grid, rows)]
    for d in details:
        d["ok"] = bool(d["rlc"] - d["rc"] > eng.STRICT_MARGIN
                       and d.get("dominance", math.inf) > eng.STRICT_MARGIN)
    return all(d["ok"] for d in details), details


def cmd_verify(args) -> int:
    runners = {
        "negativity": _verify_negativity,
        "claimA1": _verify_claima1,
        "lemma33": _verify_lemma33,
        "ordering": _verify_ordering,
    }
    passed, details = runners[args.check](args)
    report = {
        "check": args.check,
        "params": {k: v for k, v in vars(args).items()
                   if k not in ("func", "manifest", "config", "report")
                   and not k.startswith("_") and v is not None},
        "pass": bool(passed),
        "details": details,
    }
    out = args.report or f"verify_{args.check}.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"{args.check}: {'PASS' if passed else 'FAIL'} (report: {out})")
    args._outputs = [out]
    return EXIT_OK if passed else EXIT_ASSERT


def cmd_simulate(args) -> int:
    rates = _parse_rates(args.rates)
    cfg = sim.SweepConfig(
        q=args.q, n=args.n, family=args.family, rho=args.rho, L=args.L,
        rates=rates, trials=args.trials, master_seed=args.seed,
        ell=args.l, work_budget=args.budget,
    )
    out = args.out or "simulate.csv"
    try:
        curve = sim.satisfaction_curve(cfg)
    except WorkBudgetExceededError as err:
        print(f"work budget exceeded: {err}", file=sys.stderr)
        partial = getattr(err, "partial", None)
        if partial is not None:
            args._counters = {"routes": partial.routes}
        if partial is not None and partial.rates.size:
            with open(out, "w") as fh:
                fh.write(partial.to_csv())
            print(f"partial results ({partial.rates.size} rates) written to {out}",
                  file=sys.stderr)
            args._outputs = [out]
        else:
            print("no rates completed before the budget ran out", file=sys.stderr)
            args._outputs = []
        args._partial = True
        return EXIT_BUDGET
    args._counters = {"routes": curve.routes}
    with open(out, "w") as fh:
        fh.write(curve.to_csv())
    crossing = sim.half_crossing(curve.rates, curve.p_hat)
    msg = "none" if crossing is None else fmt12(crossing)
    print(f"wrote {out} ({curve.rates.size} rates, half-crossing: {msg})")
    args._outputs = [out]
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.k is not None and args.k < 1:
        raise _Usage("requested dimension k must be >= 1")
    rng = np.random.default_rng(args.seed)
    out_code = args.out_code or "construct_code.txt"
    out_trace = args.out_trace or "construct_trace.csv"

    def _write_trace(history):
        lines = ["step,vector,s_before,s_after,s_before_squared,ok"]
        for h in history:
            lines.append(
                f"{h['step']},{h['vector']},{fmt12(h['s_before'])},"
                f"{fmt12(h['s_after'])},{fmt12(h['s_before_squared'])},"
                f"{str(h['ok']).lower()}"
            )
        with open(out_trace, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    try:
        res = sim.greedy_potential_code(args.n, args.rho, args.L, args.delta, rng, k=args.k)
    except NoCandidateError as err:
        _write_trace(err.history)
        print(f"construction failed: {err}", file=sys.stderr)
        args._outputs = [out_trace]
        return EXIT_CONSTRUCT
    args._counters = {"scanned": res.scanned, "support": res.support}
    res.code.dump(out_code)
    _write_trace(res.history)
    check = sim.check_ld_centers(res.code, args.rho, res.cap + 1)
    print(f"constructed dim-{res.k} code, |C| = {res.code.size}, "
          f"list-size cap {res.cap}, exhaustive max {check.max_count}, "
          f"chain {'held' if all(h['ok'] for h in res.history) else 'broke'}; "
          f"potential bound {fmt12(res.potential_bound)}")
    args._outputs = [out_code, out_trace]
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused: a
    parse leaves the parser as it found it, and a batch of `main` calls in one
    process would otherwise spend about 2 ms per call rebuilding it."""
    p = argparse.ArgumentParser(
        prog="thresholds",
        description="List-decoding threshold bounds, verifications, and simulations.",
    )
    p.add_argument("--version", action="version", version=f"thresholds {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--manifest", default=None, help="manifest path override")
        sp.add_argument("--config", default=None, help="key=value config file")

    ent = sub.add_parser("entropy", help="evaluate the entropy functions")
    ent.add_argument("--hq", action="store_true")
    ent.add_argument("--hql", action="store_true")
    ent.add_argument("--multi", default=None, help="comma-separated masses")
    ent.add_argument("--q", type=int, default=2)
    ent.add_argument("--l", type=int, default=1)
    ent.add_argument("--rho", type=float, default=0.0)
    common(ent)
    ent.set_defaults(func=cmd_entropy)

    bnd = sub.add_parser("bounds", help="write a bound curve over a rho sweep")
    bnd.add_argument("--family", required=True, choices=BOUND_FAMILIES)
    bnd.add_argument("--q", type=int, default=3)
    bnd.add_argument("--l", type=int, default=1)
    bnd.add_argument("--L", type=int, default=4)
    bnd.add_argument("--eps", type=float, default=0.01)
    bnd.add_argument("--delta", type=float, default=0.1)
    bnd.add_argument("--rho-min", type=float, default=0.01)
    bnd.add_argument("--rho-max", type=float, default=0.3)
    bnd.add_argument("--step", type=float, default=0.005)
    bnd.add_argument("--out", default=None)
    bnd.add_argument("--format", choices=("csv", "json"), default="csv")
    common(bnd)
    bnd.set_defaults(func=cmd_bounds)

    ver = sub.add_parser("verify", help="run a verification check")
    ver.add_argument("--check", required=True,
                     choices=("lemma33", "claimA1", "negativity", "ordering"))
    ver.add_argument("--q", type=int, default=2)
    ver.add_argument("--l", type=int, default=1)
    ver.add_argument("--L", type=int, default=3)
    ver.add_argument("--rho", type=float, default=0.1)
    ver.add_argument("--delta", type=float, default=0.1)
    ver.add_argument("--rho-min", type=float, default=None)
    ver.add_argument("--rho-max", type=float, default=None)
    ver.add_argument("--step", type=float, default=None)
    ver.add_argument("--report", default=None, help="JSON report path")
    common(ver)
    ver.set_defaults(func=cmd_verify)

    simp = sub.add_parser("simulate", help="empirical satisfaction curve")
    simp.add_argument("--family", required=True, choices=("rlc", "rc"))
    simp.add_argument("--q", type=int, default=2)
    simp.add_argument("--n", type=int, required=True)
    simp.add_argument("--L", type=int, required=True)
    simp.add_argument("--l", type=int, default=1,
                      help="input list size; 1 (the default) is list decoding")
    simp.add_argument("--rho", type=float, required=True)
    simp.add_argument("--rates", required=True, help="min:max:step")
    simp.add_argument("--trials", type=int, default=100)
    simp.add_argument("--seed", type=int, default=0)
    simp.add_argument("--budget", type=int, default=sim.DEFAULT_WORK_BUDGET)
    simp.add_argument("--out", default=None)
    common(simp)
    simp.set_defaults(func=cmd_simulate)

    con = sub.add_parser("construct", help="potential-greedy binary code")
    con.add_argument("--n", type=int, required=True)
    con.add_argument("--rho", type=float, required=True)
    con.add_argument("--L", type=int, required=True)
    con.add_argument("--delta", type=float, required=True)
    con.add_argument("--k", type=int, default=None, help="override the target dimension")
    con.add_argument("--seed", type=int, default=0)
    con.add_argument("--out-code", default=None)
    con.add_argument("--out-trace", default=None)
    common(con)
    con.set_defaults(func=cmd_construct)

    return p


def _expand_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Insert config-file entries as flags ahead of explicit ones.

    Explicit command-line flags win because argparse keeps the last
    occurrence of a repeated option.  An option that takes no value (a
    store_true flag) is emitted bare for a true entry and left out for a
    false one.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    # argv[0] is the subcommand name
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sp = commands.choices.get(argv[0])
    flags = {o for a in sp._actions if a.nargs == 0 for o in a.option_strings} if sp else set()
    tokens: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            opt = f"--{key.replace('_', '-')}"
            if opt not in flags:
                tokens.extend([opt, val])
            elif val.lower() in ("1", "true", "yes", "on"):
                tokens.append(opt)
            elif val.lower() not in ("0", "false", "no", "off"):
                parser.error(f"config: {key} = {val} is neither true nor false")
    return argv[:1] + tokens + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if argv and not argv[0].startswith("-"):
            argv = _expand_config(argv, parser)
        args = parser.parse_args(argv)
        start = time.monotonic()
        code = args.func(args)
        _write_manifest(args.command, args, getattr(args, "_outputs", []),
                        time.monotonic() - start)
    except (_Usage, OSError) as err:  # OSError: a config or output path that cannot be used
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, UnsupportedError, SizeCapError) as err:
        print(f"domain error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except AssertionError as err:
        print(f"assertion failed: {err}", file=sys.stderr)
        return EXIT_ASSERT
    return code


if __name__ == "__main__":
    sys.exit(main())
