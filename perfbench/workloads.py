"""Job lists of the four benchmark workloads.

A job is one `thresholds` command line plus the parameters its correctness
gate needs.  Output paths are relative: a pass runs every job inside its own
fresh temporary directory.  Every `--seed` a job takes is derived from the
benchmark seed and the pass index, so one benchmark seed fixes every input.
"""

from __future__ import annotations

import hashlib

WORKLOADS = ("bounds-verify", "ld-sweep", "lr-sweep", "construct")

# bounds families with a closed form: (family, extra flags, rho-min, rho-max)
CLOSED_FORM_FAMILIES = (
    ("ld4-binary-rlc", {}, 0.001, 0.312),
    ("ld4-binary-rc", {}, 0.001, 0.312),
    ("ld3-qary-rlc", {"q": 3}, 0.001, 0.333),
    ("ld3-qary-rc", {"q": 3}, 0.001, 0.333),
    ("lr-listsize-rlc", {"q": 3, "l": 1, "eps": 0.01, "delta": 0.1}, 0.001, 0.6),
    ("lr-listsize-rc", {"q": 3, "l": 1, "eps": 0.01, "delta": 0.1}, 0.001, 0.6),
    ("largeL-rlc", {"L": 8, "delta": 0.1}, 0.001, 0.4),
    ("largeL-rc", {"L": 8, "delta": 0.1}, 0.001, 0.4),
)
ORDERING_QS = (2, 3, 4, 5, 7, 8, 9)
CLAIM_A1_PAIRS = ((2, 1), (3, 1), (3, 2), (4, 2), (5, 3))
LEMMA33_CASES = tuple((2, L) for L in range(2, 8)) + tuple((3, L) for L in range(2, 6))
LEMMA33_RHOS = (0.05, 0.1, 0.2)
LEMMA33_DELTA = 0.1

# (family, q, n, rho, L, ell, rates spec, trials)
LD_SWEEPS = (
    ("rlc", 2, 18, 0.1, 2, None, "0.1:0.8:0.05", 20),
    ("rc", 2, 18, 0.1, 2, None, "0.1:0.8:0.05", 20),
    ("rlc", 3, 9, 0.12, 2, None, "0.1:0.8:0.1", 10),
    ("rc", 3, 9, 0.12, 2, None, "0.1:0.8:0.1", 10),
)
# A rank-deficient parity check triples an RLC code, and C(|C|, 3) subsets
# make that a 35x costlier trial at rate 0.25; the RLC half stays at rate
# 0.125 so such draws do not swing the pass time from seed to seed.
LR_SWEEPS = (
    ("rlc", 3, 8, 0.125, 3, 1, "0.125:0.125:0.125", 200),
    ("rc", 3, 8, 0.125, 3, 1, "0.125:0.25:0.125", 1000),
)
# (n, rho, L, delta, seed slot): theorem dimensions 7 to 13
CONSTRUCTIONS = (
    (20, 0.05, 8, 0.05, 0),
    (21, 0.05, 6, 0.1, 0),
    (22, 0.05, 8, 0.05, 0),
    (20, 0.1, 8, 0.1, 0),
    (22, 0.1, 6, 0.1, 0),
    (22, 0.05, 8, 0.05, 1),
)


def derive_seed(*parts) -> int:
    """A 31-bit seed keyed by the benchmark seed and a job's identity."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _flags(params: dict) -> list[str]:
    out = []
    for key, val in params.items():
        out += [f"--{key.replace('_', '-')}", str(val)]
    return out


def _job(name: str, kind: str, argv: list[str], **params) -> dict:
    return {"id": name, "kind": kind, "argv": argv, "params": params}


def _bounds_verify(seed: int) -> list[dict]:
    jobs = []
    for fam, extra, lo, hi in CLOSED_FORM_FAMILIES:
        grid = {"rho_min": lo, "rho_max": hi, "step": 0.001}
        argv = ["bounds", "--family", fam] + _flags(extra) + _flags(grid) + ["--out", f"{fam}.csv"]
        jobs.append(_job(f"bounds-{fam}", "bounds", argv, family=fam, out=f"{fam}.csv",
                         **extra, **grid))
    fixture_grid = {"rho_min": 0.005, "rho_max": 0.31, "step": 0.005}
    jobs.append(_job("bounds-figure1-fixture", "figure1-fixture",
                     ["bounds", "--family", "figure1"] + _flags(fixture_grid)
                     + ["--out", "figure1-fixture.csv"],
                     out="figure1-fixture.csv", **fixture_grid))
    fine_grid = {"rho_min": 0.001, "rho_max": 0.312, "step": 0.001}
    jobs.append(_job("bounds-figure1", "figure1",
                     ["bounds", "--family", "figure1"] + _flags(fine_grid)
                     + ["--out", "figure1.csv"],
                     out="figure1.csv", **fine_grid))
    for q in ORDERING_QS:
        out = f"ordering-q{q}.json"
        jobs.append(_job(f"ordering-q{q}", "ordering",
                         ["verify", "--check", "ordering", "--q", str(q), "--report", out],
                         q=q, out=out))
    jobs.append(_job("negativity", "negativity",
                     ["verify", "--check", "negativity", "--report", "negativity.json"],
                     out="negativity.json", rho_min=0.001, rho_max=0.333, step=0.001))
    for q, ell in CLAIM_A1_PAIRS:
        # one of criterion 5's ten radii rho = i/11 * (1 - ell/q), picked by the seed
        i = 1 + derive_seed(seed, "claimA1", q, ell) % 10
        rho = i / 11 * (1 - ell / q)
        out = f"claimA1-q{q}-l{ell}.json"
        jobs.append(_job(f"claimA1-q{q}-l{ell}", "claimA1",
                         ["verify", "--check", "claimA1", "--q", str(q), "--l", str(ell),
                          "--rho", repr(rho), "--report", out],
                         q=q, ell=ell, rho=rho, out=out))
    for rho in LEMMA33_RHOS:
        for q, L in LEMMA33_CASES:
            out = f"lemma33-q{q}-L{L}-rho{rho}.json"
            jobs.append(_job(f"lemma33-q{q}-L{L}-rho{rho}", "lemma33",
                             ["verify", "--check", "lemma33", "--q", str(q), "--L", str(L),
                              "--rho", str(rho), "--delta", str(LEMMA33_DELTA),
                              "--report", out],
                             q=q, L=L, rho=rho, delta=LEMMA33_DELTA, out=out))
    return jobs


def sweep_jobs(table, seed: int, pass_index: int) -> list[dict]:
    jobs = []
    for family, q, n, rho, L, ell, rates, trials in table:
        name = f"simulate-{family}-q{q}-n{n}" + ("" if ell is None else f"-l{ell}")
        job_seed = derive_seed(seed, pass_index, name)
        out = f"{name}.csv"
        argv = ["simulate", "--family", family, "--q", str(q), "--n", str(n),
                "--rho", str(rho), "--L", str(L), "--rates", rates,
                "--trials", str(trials), "--seed", str(job_seed), "--out", out]
        if ell is not None:
            argv += ["--l", str(ell)]
        jobs.append(_job(name, "simulate", argv, family=family, q=q, n=n, rho=rho, L=L,
                         ell=ell, rates=rates, trials=trials, seed=job_seed, out=out))
    return jobs


def construct_jobs(table, seed: int, pass_index: int) -> list[dict]:
    jobs = []
    for n, rho, L, delta, slot in table:
        name = f"construct-n{n}-rho{rho}-L{L}-s{slot}"
        job_seed = derive_seed(seed, pass_index, name)
        code, trace = f"{name}.code.txt", f"{name}.trace.csv"
        argv = ["construct", "--n", str(n), "--rho", str(rho), "--L", str(L),
                "--delta", str(delta), "--seed", str(job_seed),
                "--out-code", code, "--out-trace", trace]
        jobs.append(_job(name, "construct", argv, n=n, rho=rho, L=L, delta=delta,
                         seed=job_seed, code=code, trace=trace))
    return jobs


def jobs_for(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The job list of one pass; passes of one run differ only in job seeds."""
    if workload == "bounds-verify":
        return _bounds_verify(seed)
    if workload == "ld-sweep":
        return sweep_jobs(LD_SWEEPS, seed, pass_index)
    if workload == "lr-sweep":
        return sweep_jobs(LR_SWEEPS, seed, pass_index)
    if workload == "construct":
        return construct_jobs(CONSTRUCTIONS, seed, pass_index)
    raise ValueError(f"unknown workload {workload!r}")
