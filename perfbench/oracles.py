"""Oracle checks that hold for any seed, run after the timed passes.

They re-derive results by a second route: list recovery with ell = 1 against
list decoding by direct Hamming-distance counts, `check_lr_dp` against
`check_ld_centers`, and the constructed codes against an exhaustive reload.
Each returns {job id: [problems]} for the jobs it covers.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from pathlib import Path

import numpy as np

from gate import theorem_dimension

SUBSAMPLE = 3  # re-sampled trials per simulate job


def _rows(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        return [[float(t) for t in row] for row in list(csv.reader(fh))[1:]]


def _resample(sim, job, ri: int, ti: int, rate: float):
    p = job["params"]
    rng = np.random.default_rng(sim.trial_seed(p["seed"], ri, ti))
    sampler = sim.sample_rlc if p["family"] == "rlc" else sim.sample_rc
    return sampler(p["q"], p["n"], rate, rng)


def _pick(job, rows, rng: random.Random) -> list[tuple[int, int]]:
    cells = [(ri, ti) for ri in range(len(rows)) for ti in range(job["params"]["trials"])]
    return rng.sample(cells, min(SUBSAMPLE, len(cells)))


def _distances(dig: np.ndarray, center: np.ndarray) -> np.ndarray:
    return (dig != center).sum(axis=1)


def _direct_ld(code, r: int, L: int, rep) -> list[str]:
    """Re-decide a list-decoding report by counting Hamming distances."""
    dig = code.digits()
    if not rep.decodable:
        z = np.asarray([(rep.witness_center // code.q**i) % code.q for i in range(code.n)])
        near = sorted(int(w) for w in code.words[_distances(dig, z) <= r])
        if near != sorted(rep.witness_list) or len(near) != rep.max_count or len(near) < L:
            return [f"witness center sees {len(near)} codewords, report says {rep.max_count}"]
        return []
    if L != 2:
        raise ValueError("direct decodable check is implemented for L = 2")
    # decodable at L = 2 means every two codewords lie more than 2r apart
    for i in range(code.size - 1):
        if _distances(dig[i + 1:], dig[i]).min() <= 2 * r:
            return [f"codewords {i} and another lie within {2 * r}, report says decodable"]
    return []


def ld_sweep(sim, jobs, workdir: Path, seed: int) -> dict[str, list[str]]:
    out = {}
    for job in jobs:
        p = job["params"]
        rows = _rows(workdir / p["out"])
        probs = []
        r = math.floor(p["rho"] * p["n"])
        for ri, ti in _pick(job, rows, random.Random(f"{seed}:{job['id']}")):
            code = _resample(sim, job, ri, ti, rows[ri][0])
            probs += _direct_ld(code, r, p["L"], sim.check_ld_centers(code, p["rho"], p["L"]))
        out[job["id"]] = probs
    return out


def _ball_offsets(q: int, n: int, r: int) -> np.ndarray:
    rows = [[0] * n]
    for wt in range(1, r + 1):
        for pos in itertools.combinations(range(n), wt):
            for vals in itertools.product(range(1, q), repeat=wt):
                row = [0] * n
                for i, v in zip(pos, vals):
                    row[i] = v
                rows.append(row)
    return np.asarray(rows, dtype=np.int64)


def _max_occupancy(code, offsets: np.ndarray, r: int) -> int:
    """Most codewords within distance r of one center, by direct counting.

    A center that sees any codeword lies in that codeword's ball, so only
    those centers are counted.  Prime q: digit-wise addition mod q.
    """
    dig = code.digits().astype(np.int64)
    if not dig.size:
        return 0
    centers = np.unique(((dig[:, None, :] + offsets[None, :, :]) % code.q).reshape(-1, code.n), axis=0)
    return int(((centers[:, None, :] != dig[None, :, :]).sum(axis=2) <= r).sum(axis=1).max())


def lr_sweep(sim, jobs, workdir: Path, seed: int) -> dict[str, list[str]]:
    out = {}
    for job in jobs:
        p = job["params"]
        rows = _rows(workdir / p["out"])
        r = math.floor(p["rho"] * p["n"])
        offsets = _ball_offsets(p["q"], p["n"], r)
        probs = []
        # every trial: with ell = 1, a code is recoverable exactly when no
        # center sees L codewords
        for ri, row in enumerate(rows):
            decodable = sum(
                _max_occupancy(_resample(sim, job, ri, ti, row[0]), offsets, r) < p["L"]
                for ti in range(p["trials"]))
            if decodable != round(row[1] * p["trials"]):
                probs.append(f"rate={row[0]}: {decodable} decodable codes, sweep says "
                             f"{round(row[1] * p['trials'])} recoverable")
        for ri, ti in _pick(job, rows, random.Random(f"{seed}:{job['id']}")):
            code = _resample(sim, job, ri, ti, rows[ri][0])
            lr = sim.check_lr_dp(code, p["rho"], 1, p["L"]).recoverable
            ld = sim.check_ld_centers(code, p["rho"], p["L"]).decodable
            if lr != ld:
                probs.append(f"trial ({ri}, {ti}): check_lr_dp {lr}, check_ld_centers {ld}")
        out[job["id"]] = probs
    return out


def _span_of(words: list[int]) -> set[int]:
    basis: list[int] = []
    for w in words:
        for b in basis:
            w = min(w, w ^ b)
        if w:
            basis.append(w)
    span = {0}
    for b in basis:
        span |= {s ^ b for s in span}
    return span


def construct(sim, jobs, workdir: Path, seed: int) -> dict[str, list[str]]:
    out = {}
    for job in jobs:
        p = job["params"]
        probs = []
        code = sim.Code.load(str(workdir / p["code"]), 2)
        if not code.linearity_ok(rng=np.random.default_rng(p["seed"])):
            probs.append("reloaded code fails linearity_ok")
        words = [int(w) for w in code.words]
        if _span_of(words) != set(words):
            probs.append("reloaded code is not closed under addition")
        # exhaustive list size: stamp every codeword's radius-r ball
        n, r = code.n, math.floor(p["rho"] * code.n)
        masks = np.asarray([sum(1 << b for b in pos) for wt in range(r + 1)
                            for pos in itertools.combinations(range(n), wt)], dtype=np.int64)
        counts = np.bincount((code.words[:, None] ^ masks[None, :]).ravel(), minlength=1 << n)
        _, cap = theorem_dimension(n, p["rho"], p["L"], p["delta"])
        if counts.max() > cap:
            probs.append(f"a radius-{r} ball holds {counts.max()} codewords, cap {cap}")
        if f"exhaustive max {counts.max()}," not in job["result"]["stdout"]:
            probs.append(f"printed exhaustive max differs from {counts.max()}")
        out[job["id"]] = probs
    return out


ORACLES = {"ld-sweep": ld_sweep, "lr-sweep": lr_sweep, "construct": construct}
