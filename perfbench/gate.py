"""Correctness gate for every job output.

The gate checks the mathematics, not the bytes: values against closed forms
and an independent planar optimizer (implemented here, not imported from
`thresholds`), pass flags, row counts and the exit code each job should give.
The one byte-level check is the `figure1` fixture.  Grid checks accept a
float-drifted grid point and, for `negativity`, a grid with or without its
upper end, so the gate holds both before and after those defects are fixed.

`gate_job` returns a list of problems (empty when the job is correct);
`gate_pass` adds the checks that relate jobs of one pass to each other.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
import re
from pathlib import Path

TOL = 1e-9  # outputs carry 12 significant digits
SPOT_ROWS = 8  # optimizer-backed rows re-derived per curve
LOG2_3 = math.log2(3.0)


# ---------------------------------------------------------------------------
# independent mathematics


def hql(q: int, ell: int, rho: float) -> float:
    """rho log_q((q-ell)/rho) + (1-rho) log_q(ell/(1-rho))."""
    out = 0.0
    if rho > 0.0:
        out += rho * math.log((q - ell) / rho)
    if rho < 1.0:
        out += (1.0 - rho) * math.log(ell / (1.0 - rho))
    return out / math.log(q)


def h2(x: float) -> float:
    return hql(2, 1, x)


def _golden(f, lo: float, hi: float, tol: float = 1e-11) -> float:
    """Maximum value of a concave f on [lo, hi]."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return max(f(lo), f(hi), fc, fd)


def planar_max(q: int, c1: float, c2: float, budget: float) -> float:
    """max of H_q(x1, x2, 1-x1-x2) + c1 x1 + c2 x2 over x >= 0, x1+x2 <= 1,
    x1 + 2 x2 <= budget, by nested golden sections (the objective is concave)."""
    lq = math.log(q)

    def f(x1, x2):
        out = c1 * x1 + c2 * x2
        for m in (x1, x2, 1.0 - x1 - x2):
            if m > 0.0:
                out -= m * math.log(m) / lq
        return out

    def best_x1(x2):
        hi = max(0.0, min(1.0 - x2, budget - 2.0 * x2))
        return _golden(lambda x1: f(x1, x2), 0.0, hi)

    return _golden(best_x1, 0.0, min(1.0, budget / 2.0))


def binary_l4_max(rho: float) -> float:
    return planar_max(2, 2.0, LOG2_3, 4.0 * rho)


def qary_l3_max(q: int, rho: float) -> float:
    c1 = math.log(3.0 * (q - 1)) / math.log(q)
    c2 = math.log((q - 1.0) * (q - 2.0)) / math.log(q)
    return planar_max(q, c1, c2, 3.0 * rho)


def floor_values(x: float) -> set[int]:
    """Integers a floor of x may round to when x sits on an integer."""
    return {math.floor(x - TOL), math.floor(x + TOL)}


def closed_form(family: str, p: dict, rho: float):
    """Expected value(s) of a closed-form bound family at rho."""
    if family == "lr-listsize-rlc":
        logc = math.log(math.comb(p["q"], p["l"])) / math.log(p["q"])
        return floor_values((logc - (1.0 - hql(p["q"], p["l"], rho))) / p["eps"] - p["delta"])
    if family == "lr-listsize-rc":
        logc = math.log(math.comb(p["q"], p["l"])) / math.log(p["q"])
        lower = floor_values(logc / p["eps"] - p["delta"])
        upper = {-v for v in floor_values(-logc / p["eps"])}  # ceil
        return lower, {u + 1 for u in upper}
    h = h2(rho)
    L, delta = p["L"], p["delta"]
    if family == "largeL-rlc":
        return 1.0 - h - h / (L - 1 - 2.0 * delta) - delta
    if family == "largeL-rc":
        return (L - 1.0) / L * (1.0 - h) - (h2(2.0 * rho - 2.0 * rho * rho) - h) / L + delta
    raise ValueError(family)


def optimizer_value(family: str, p: dict, rho: float) -> float:
    if family == "ld4-binary-rlc":
        return 1.0 - binary_l4_max(rho) / 3.0
    if family == "ld4-binary-rc":
        return 1.0 - (1.0 + binary_l4_max(rho)) / 4.0
    if family == "ld3-qary-rlc":
        return 1.0 - qary_l3_max(p["q"], rho) / 2.0
    if family == "ld3-qary-rc":
        return 1.0 - (1.0 + qary_l3_max(p["q"], rho)) / 3.0
    raise ValueError(family)


def gf_ops(q: int):
    """Addition and multiplication of GF(q) for prime q and for q = 4
    (elements as polynomial bit strings modulo x^2 + x + 1)."""
    if q == 4:
        def mul(a, b):
            acc = 0
            for i in range(2):
                if b >> i & 1:
                    acc ^= a << i
            return acc ^ 0b111 if acc & 0b100 else acc
        return (lambda a, b: a ^ b), mul
    if q < 2 or any(q % d == 0 for d in range(2, int(math.isqrt(q)) + 1)):
        raise ValueError(f"no reference field arithmetic for q={q}")
    return (lambda a, b: (a + b) % q), (lambda a, b: a * b % q)


def shifted_sum_ratio(q: int, ell: int, rho: float, beta: int) -> float:
    """H_q(u + beta a | S) / h_{q,ell}(rho) for u, a i.i.d. given the subset S."""
    add, mul = gf_ops(q)
    total = 0.0
    subsets = list(itertools.combinations(range(q), ell))
    for S in subsets:
        ps = [(1.0 - rho) / ell if a in S else rho / (q - ell) for a in range(q)]
        pt = [0.0] * q
        for u in range(q):
            for a in range(q):
                pt[add(u, mul(beta, a))] += ps[u] * ps[a]
        total -= sum(x * math.log(x) for x in pt if x > 0.0) / math.log(q)
    return total / len(subsets) / hql(q, ell, rho)


def negativity_value(rho: float) -> float:
    return 2.0 * h2(1.5 * rho) - h2(3.0 * rho) - 3.0 * rho * LOG2_3


def wilson(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    p = k / n
    den = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / den
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / den
    return max(0.0, center - half), min(1.0, center + half)


def ball_volume(q: int, n: int, r: int) -> int:
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(min(r, n) + 1))


def theorem_dimension(n: int, rho: float, L: int, delta: float) -> tuple[int, int]:
    """(dimension, list-size cap) of the potential-greedy theorem."""
    h = h2(rho)
    lprime = (L - 1 - 2.0 * delta) / h
    k = max(1, math.floor((1.0 - h - 1.0 / lprime - delta) * n))
    return k, math.floor(lprime * h + 1.0 + delta)


# ---------------------------------------------------------------------------
# helpers


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def grid_problems(rhos: list[float], lo: float, hi: float, step: float,
                  upper_end_optional: bool = False) -> list[str]:
    count = round((hi - lo) / step) + 1
    allowed = {count, count - 1} if upper_end_optional else {count}
    if len(rhos) not in allowed:
        return [f"{len(rhos)} grid rows, expected {sorted(allowed)}"]
    bad = [i for i, r in enumerate(rhos) if abs(r - (lo + i * step)) > TOL]
    return [f"grid point {bad[0]} is {rhos[bad[0]]}"] if bad else []


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _spot(rng: random.Random, n: int) -> list[int]:
    return sorted(rng.sample(range(n), min(SPOT_ROWS, n)))


def _expect_exit(job_result: dict, expected: int) -> list[str]:
    rc = job_result["rc"]
    if rc is None:
        return [f"raised: {job_result['error'].strip().splitlines()[-1]}"]
    return [] if rc == expected else [f"exit code {rc}, expected {expected}"]


# ---------------------------------------------------------------------------
# per-kind gates: each returns (expected exit code, problems)


def _gate_bounds(job, d: Path, rng, root):
    p = job["params"]
    fam = p["family"]
    head, rows = _read_csv(d / p["out"])
    if head != ["rho", "value", "family", "method"]:
        return 0, [f"header {head}"]
    rhos = [float(r[0]) for r in rows]
    vals = [float(r[1]) for r in rows]
    probs = []
    if fam == "lr-listsize-rc":
        lower = [(rho, v) for rho, v, r in zip(rhos, vals, rows) if r[3] == "lower"]
        upper = [(rho, v) for rho, v, r in zip(rhos, vals, rows) if r[3] == "upper"]
        if [x[0] for x in lower] != [x[0] for x in upper] or len(lower) + len(upper) != len(rows):
            return 0, ["lower and upper rows do not pair up"]
        probs += grid_problems([x[0] for x in lower], p["rho_min"], p["rho_max"], p["step"])
        for (rho, lo_v), (_, hi_v) in zip(lower, upper):
            want_lo, want_hi = closed_form(fam, p, rho)
            if lo_v not in want_lo or hi_v not in want_hi:
                probs.append(f"rho={rho}: ({lo_v}, {hi_v}) not in ({want_lo}, {want_hi})")
                break
        return 0, probs
    probs += grid_problems(rhos, p["rho_min"], p["rho_max"], p["step"])
    if any(r[2] != fam for r in rows):
        probs.append("family column mismatch")
    if fam.startswith(("ld4", "ld3")):
        for i in _spot(rng, len(rows)):
            want = optimizer_value(fam, p, rhos[i])
            if not _close(vals[i], want):
                probs.append(f"rho={rhos[i]}: {vals[i]} != optimizer {want}")
        # threshold rates fall as the radius grows
        if any(b > a + TOL for a, b in zip(vals, vals[1:])):
            probs.append("values not non-increasing in rho")
    else:
        for rho, v in zip(rhos, vals):
            want = closed_form(fam, p, rho)
            ok = v in want if isinstance(want, set) else _close(v, want)
            if not ok:
                probs.append(f"rho={rho}: {v} != closed form {want}")
                break
    return 0, probs


def _gate_figure1_fixture(job, d: Path, rng, root):
    got = (d / job["params"]["out"]).read_bytes()
    want = (Path(root) / "tests" / "fixtures" / "figure1.csv").read_bytes()
    return 0, ([] if got == want else ["figure1 CSV differs from tests/fixtures/figure1.csv"])


def _gate_figure1(job, d: Path, rng, root):
    p = job["params"]
    head, rows = _read_csv(d / p["out"])
    if head != ["rho", "blue", "orange", "dominant"]:
        return 0, [f"header {head}"]
    rhos = [float(r[0]) for r in rows]
    probs = grid_problems(rhos, p["rho_min"], p["rho_max"], p["step"])
    for r in rows:
        rho, blue, orange = float(r[0]), float(r[1]), float(r[2])
        if not _close(orange, (h2(2.0 * rho) + 2.0 * rho * LOG2_3) / 2.0):
            probs.append(f"rho={rho}: orange {orange} off")
            break
        if r[3] != "true" or not blue > orange:
            probs.append(f"rho={rho}: blue does not dominate")
            break
    for i in _spot(rng, len(rows)):
        want = binary_l4_max(rhos[i]) / 3.0
        if not _close(float(rows[i][1]), want):
            probs.append(f"rho={rhos[i]}: blue {rows[i][1]} != optimizer {want}")
    return 0, probs


def _gate_ordering(job, d: Path, rng, root):
    q = job["params"]["q"]
    rep = json.loads((d / job["params"]["out"]).read_text())
    det = rep["details"]
    hi = 0.31 if q == 2 else 0.33
    probs = grid_problems([x["rho"] for x in det], 0.01, hi, 0.005)
    fams = ("ld4-binary-rlc", "ld4-binary-rc") if q == 2 else ("ld3-qary-rlc", "ld3-qary-rc")
    for x in det:
        if x["ok"] != (x["rlc"] - x["rc"] > TOL) or not x["ok"]:
            probs.append(f"rho={x['rho']}: linear does not beat plain")
            break
        if not _close(*_identity(q, x["rlc"], x["rc"])):
            probs.append(f"rho={x['rho']}: rlc and rc disagree on the optimum")
            break
    for i in _spot(rng, len(det)):
        x = det[i]
        for fam, key in zip(fams, ("rlc", "rc")):
            want = optimizer_value(fam, {"q": q}, x["rho"])
            if not _close(x[key], want):
                probs.append(f"rho={x['rho']}: {key} {x[key]} != optimizer {want}")
    if rep["pass"] != all(x["ok"] for x in det):
        probs.append("pass flag disagrees with the rows")
    return 0, probs


def _identity(q: int, rlc: float, rc: float) -> tuple[float, float]:
    """Both families subtract the same optimum: (optimum via rlc, via rc)."""
    if q == 2:
        return 3.0 * (1.0 - rlc), 4.0 * (1.0 - rc) - 1.0
    return 2.0 * (1.0 - rlc), 3.0 * (1.0 - rc) - 1.0


def _gate_negativity(job, d: Path, rng, root):
    p = job["params"]
    rep = json.loads((d / p["out"]).read_text())
    det = rep["details"]
    probs = grid_problems([x["rho"] for x in det], p["rho_min"], p["rho_max"], p["step"],
                          upper_end_optional=True)
    want = [negativity_value(x["rho"]) for x in det]
    for x, w in zip(det, want):
        if not _close(x["value"], w) or x["ok"] != (x["value"] < 0.0):
            probs.append(f"rho={x['rho']}: {x['value']} (ok={x['ok']}) != {w}")
            break
    passed = all(w < 0.0 for w in want)
    if rep["pass"] != passed:
        probs.append("pass flag disagrees with the values")
    return (0 if passed else 1), probs


def _gate_claima1(job, d: Path, rng, root):
    p = job["params"]
    rep = json.loads((d / p["out"]).read_text())
    det = rep["details"]
    probs = []
    if [x["beta"] for x in det] != list(range(1, p["q"])):
        return 0, ["betas do not cover the nonzero field elements"]
    want = [shifted_sum_ratio(p["q"], p["ell"], p["rho"], x["beta"]) for x in det]
    for x, w in zip(det, want):
        if not _close(x["lambda"], w):
            probs.append(f"beta={x['beta']}: lambda {x['lambda']} != {w}")
    passed = all(w > 1.0 + 1e-6 for w in want)
    if rep["pass"] != passed:
        probs.append("pass flag disagrees with the ratios")
    return (0 if passed else 1), probs


def _gate_lemma33(job, d: Path, rng, root):
    p = job["params"]
    rep = json.loads((d / p["out"]).read_text())
    x = rep["details"][0]
    q, L = p["q"], p["L"]
    probs = []
    if abs(x["identity_kernel_entropy"] - x["identity_predicted"]) > TOL:
        probs.append("identity-kernel entropy differs from its prediction")
    if not _close(x["identity_predicted"] + x["cond_entropy_s_given_u"], L * hql(q, 1, p["rho"]) + 1.0):
        probs.append("identity prediction is not L*h + log C - H(S|u)")
    per_dim = {int(k): v for k, v in x["per_dim_min_slack"].items()}
    if sorted(per_dim) != list(range(1, L + 1)):
        probs.append(f"image dimensions {sorted(per_dim)}, expected 1..{L}")
    elif not _close(x["min_slack"], min(per_dim.values())):
        probs.append("min_slack is not the minimum over dimensions")
    if x["fano_term_ok"] != (x["cond_entropy_s_given_u"] <= p["delta"]):
        probs.append("fano_term_ok disagrees with H(S|u)")
    if rep["pass"] != (x["min_slack"] >= 0.0):
        probs.append("pass flag disagrees with min_slack")
    if len(x["worst_kernel"]) >= L or any(len(row) != L for row in x["worst_kernel"]):
        probs.append("worst kernel is not a proper subspace basis")
    return (0 if x["min_slack"] >= 0.0 else 1), probs


def _gate_simulate(job, d: Path, rng, root):
    p = job["params"]
    head, rows = _read_csv(d / p["out"])
    if head != ["rate", "p_hat", "ci_lo", "ci_hi", "trials"]:
        return 0, [f"header {head}"]
    lo, hi, step = (float(t) for t in p["rates"].split(":"))
    probs = grid_problems([float(r[0]) for r in rows], lo, hi, step)
    q, n, L, T = p["q"], p["n"], p["L"], p["trials"]
    r = math.floor(p["rho"] * n)
    for row in rows:
        rate, phat, ci_lo, ci_hi, trials = (float(t) for t in row)
        k = round(phat * T)
        if trials != T or abs(phat * T - k) > 1e-6:
            probs.append(f"rate={rate}: p_hat {phat} is not a count over {T} trials")
            break
        w_lo, w_hi = wilson(k, T)
        if not (_close(ci_lo, w_lo) and _close(ci_hi, w_hi)):
            probs.append(f"rate={rate}: interval ({ci_lo}, {ci_hi}) != Wilson ({w_lo}, {w_hi})")
            break
        # pigeonhole: q^k codewords whose radius-r balls cover the space more
        # than L-1 times leave some center with L of them
        dim = math.ceil(rate * n - TOL)
        if p["family"] == "rlc" and q**dim * ball_volume(q, n, r) > (L - 1) * q**n and k:
            probs.append(f"rate={rate}: dimension >= {dim} cannot be decodable, p_hat {phat}")
            break
    return 0, probs


_CONSTRUCT_LINE = re.compile(
    r"constructed dim-(\d+) code, \|C\| = (\d+), list-size cap (\d+), "
    r"exhaustive max (\d+), chain (\w+)")


def _gate_construct(job, d: Path, rng, root):
    p = job["params"]
    n = p["n"]
    k, cap = theorem_dimension(n, p["rho"], p["L"], p["delta"])
    probs = []
    m = _CONSTRUCT_LINE.search(job["result"]["stdout"])
    if not m:
        return 0, ["no construction summary printed"]
    dim, size, got_cap, ex_max, chain = m.groups()
    if (int(dim), int(size), int(got_cap), chain) != (k, 2**k, cap, "held"):
        probs.append(f"summary {m.group(0)!r}, expected dim {k}, cap {cap}, chain held")
    if int(ex_max) > cap:
        probs.append(f"exhaustive max {ex_max} exceeds cap {cap}")
    head, rows = _read_csv(d / p["trace"])
    if head != ["step", "vector", "s_before", "s_after", "s_before_squared", "ok"]:
        return 0, probs + [f"trace header {head}"]
    if [int(r[0]) for r in rows] != list(range(1, k + 1)):
        probs.append(f"trace has {len(rows)} steps, expected {k}")
    for i, r in enumerate(rows):
        s_before, s_after, sq = float(r[2]), float(r[3]), float(r[4])
        if r[5] != "true" or s_after > sq * (1 + TOL) or not _close(sq, s_before * s_before):
            probs.append(f"step {r[0]} breaks the squared chain")
            break
        if i and r[2] != rows[i - 1][3]:
            probs.append(f"step {r[0]} does not start where step {i} ended")
            break
    lines = (d / p["code"]).read_text().split()
    if len(lines) != 2**k or len(set(lines)) != len(lines) or any(
            len(w) != n or set(w) - {"0", "1"} for w in lines):
        probs.append(f"code file is not {2**k} distinct binary words of length {n}")
    return 0, probs


GATES = {
    "bounds": _gate_bounds,
    "figure1-fixture": _gate_figure1_fixture,
    "figure1": _gate_figure1,
    "ordering": _gate_ordering,
    "negativity": _gate_negativity,
    "claimA1": _gate_claima1,
    "lemma33": _gate_lemma33,
    "simulate": _gate_simulate,
    "construct": _gate_construct,
}


def gate_job(job: dict, result: dict, workdir: Path, root: Path, seed: int) -> list[str]:
    """Problems with one job's outputs, exit code included."""
    if result["rc"] is None:
        return _expect_exit(result, 0)
    rng = random.Random(f"{seed}:{job['id']}")
    try:
        expected, probs = GATES[job["kind"]](dict(job, result=result), Path(workdir), rng, root)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"] + _expect_exit(result, 0)
    return _expect_exit(result, expected) + probs


def gate_pass(jobs: list[dict], results: dict, workdir: Path, root: Path,
              seed: int) -> dict[str, list[str]]:
    """Per-job problems, with the checks that span several jobs added."""
    problems = {j["id"]: gate_job(j, results[j["id"]], workdir, root, seed) for j in jobs}
    by_id = {j["id"]: j for j in jobs}

    # the linear and plain families subtract the same optimum at every rho
    for q, a, b in ((2, "bounds-ld4-binary-rlc", "bounds-ld4-binary-rc"),
                    (3, "bounds-ld3-qary-rlc", "bounds-ld3-qary-rc")):
        if a in by_id and b in by_id and not (problems[a] or problems[b]):
            _, ra = _read_csv(Path(workdir) / by_id[a]["params"]["out"])
            _, rb = _read_csv(Path(workdir) / by_id[b]["params"]["out"])
            if not all(_close(*_identity(q, float(x[1]), float(y[1]))) for x, y in zip(ra, rb)):
                problems[a].append(f"disagrees with {b} on the shared optimum")
                problems[b].append(f"disagrees with {a} on the shared optimum")

    # the minimum slack never falls as the list size grows (criterion 6)
    series: dict = {}
    for j in jobs:
        if j["kind"] == "lemma33" and not problems[j["id"]]:
            rep = json.loads((Path(workdir) / j["params"]["out"]).read_text())
            key = (j["params"]["q"], j["params"]["rho"])
            series.setdefault(key, []).append((j["params"]["L"], rep["details"][0]["min_slack"], j["id"]))
    for pts in series.values():
        pts.sort()
        for (_, a, _), (_, b, jid) in zip(pts, pts[1:]):
            if b < a - TOL:
                problems[jid].append("min_slack falls as L grows")
    return problems
