"""End-to-end acceptance run: one test per stated criterion.

Each test prints a single pass/fail line (with its runtime) before any
assertion fires, so the scoreboard survives in captured output.  Criterion 6
fails by design and its assertion message says why; nothing is loosened to
force it green.  Criterion 3 reads the list-of-2 comparison against the
optimum of its objective, which is the vertex form `negativity_values` only
up to rho = 1/4.
"""

import itertools
import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from thresholds.cli import _decimal_grid
from thresholds.engine import (
    STRICT_MARGIN,
    bound_rlc_binary_l4,
    bound_rlc_qary_l3,
    dominance_curves,
    fmt12,
    kernel_slack_report,
    negativity_optimum_values,
    negativity_values,
    rc_threshold_generic,
    rlc_lower_generic,
    shifted_sum_entropy_ratio,
    threshold_rc_binary_l4,
    threshold_rc_qary_l3,
)
from thresholds.fields import make_field, vec_decode, vec_encode
from thresholds.infomeasures import JointTable, fano_bound, hq, joint_measures
from thresholds.simulate import (
    Code,
    SweepConfig,
    check_ld_centers,
    check_lr_dp,
    greedy_potential_code,
    half_crossing,
    occupancy_profile,
    radius_of,
    satisfaction_curve,
)
from thresholds.typespace import LRSpec, TypeDist, pushforward

FIXTURES = Path(__file__).parent / "fixtures"


def report(num: int, ok: bool, t0: float, budget: float, note: str = "") -> float:
    elapsed = time.perf_counter() - t0
    tag = "PASS" if ok else "FAIL"
    extra = f" -- {note}" if note else ""
    print(f"criterion {num:02d}: {tag} [{elapsed:.2f}s / budget {budget:.0f}s]{extra}")
    return elapsed


def test_criterion_01_closed_form_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for rho in np.arange(0.01, 0.3101, 0.005):
        rho = float(rho)
        got = rc_threshold_generic(LRSpec(q=2, ell=1, L=4, rho=rho)).value
        worst = max(worst, abs(got - threshold_rc_binary_l4(rho)))
    for q in (3, 5):
        for rho in np.arange(0.01, 0.3301, 0.005):
            rho = float(rho)
            got = rc_threshold_generic(LRSpec(q=q, ell=1, L=3, rho=rho)).value
            worst = max(worst, abs(got - threshold_rc_qary_l3(q, rho)))
    ok = worst <= 1e-6
    elapsed = report(1, ok, t0, 10, f"worst deviation {worst:.3g}")
    assert ok
    assert elapsed < 10


def test_criterion_02_dominance_fixture():
    t0 = time.perf_counter()
    fixture = (FIXTURES / "figure1.csv").read_text()
    rows = fixture.strip().splitlines()
    assert rows[0] == "rho,blue,orange,dominant"
    grid = np.asarray([float(line.split(",")[0]) for line in rows[1:]])
    blue, orange, ok_col = dominance_curves(grid)
    margins = blue.values - orange.values
    regenerated = ["rho,blue,orange,dominant"]
    for r, b, o, d in zip(grid, blue.values, orange.values, ok_col):
        regenerated.append(f"{fmt12(r)},{fmt12(b)},{fmt12(o)},{str(d).lower()}")
    same = "\n".join(regenerated) + "\n" == fixture
    ok = bool(same and all(ok_col) and margins.min() > STRICT_MARGIN)
    elapsed = report(2, ok, t0, 1, f"{grid.size} points, min margin {margins.min():.3g}")
    assert same, "regenerated curve deviates from the checked-in fixture"
    assert all(ok_col) and margins.min() > STRICT_MARGIN
    assert elapsed < 1


def _h2(p):
    """Binary entropy in bits, 0 < p < 1 (closed-form oracle)."""
    return -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)


def test_criterion_03_negativity_full_interval():
    t0 = time.perf_counter()
    grid = np.arange(0.001, 0.333, 0.001)
    vals = negativity_values(grid)
    opt = negativity_optimum_values(grid)
    # closed-form oracle: F(x1) = h2(x1) + x1 log2 3 peaks at x1 = 3/4 (value 2)
    x1 = np.minimum(3.0 * grid, 0.75)
    oracle = 2.0 * _h2(1.5 * grid) - (_h2(x1) + x1 * math.log2(3.0))
    oracle_drift = float(np.max(np.abs(opt - oracle)))
    vertex = grid <= 0.25
    vertex_drift = float(np.max(np.abs(opt[vertex] - vals[vertex])))
    bad = grid[opt >= 0.0]
    ok = bad.size == 0 and oracle_drift <= 1e-12 and vertex_drift <= 1e-12
    flat = grid[vals >= 0.0]
    where = f"from rho = {flat[0]:.3f}" if flat.size else "nowhere"
    note = f"max {opt.max():.3g}; vertex form nonnegative {where}"
    elapsed = report(3, ok, t0, 1, note)
    assert oracle_drift <= 1e-12, (
        f"the optimizer misses the closed-form maximum of F by {oracle_drift:.3g}"
    )
    assert vertex_drift <= 1e-12, (
        "for rho <= 1/4, where the optimum is the vertex x1 = 3 rho, "
        f"negativity_values departs from the comparison by {vertex_drift:.3g}"
    )
    assert bad.size == 0, (
        "2 h2(3 rho/2) does not stay below the list-of-2 optimum "
        f"(first at rho = {bad[0]:.3f})"
    )
    assert elapsed < 1


def test_criterion_04_linear_beats_plain():
    t0 = time.perf_counter()
    worst = math.inf
    for rho in np.arange(0.01, 0.3101, 0.005):
        rho = float(rho)
        worst = min(worst, bound_rlc_binary_l4(rho) - threshold_rc_binary_l4(rho))
    for q in (3, 4, 5, 7, 8, 9):
        for rho in np.arange(0.01, 0.3301, 0.005):
            rho = float(rho)
            worst = min(worst, bound_rlc_qary_l3(q, rho) - threshold_rc_qary_l3(q, rho))
    ok = worst > STRICT_MARGIN
    elapsed = report(4, ok, t0, 30, f"min margin {worst:.3g}")
    assert ok
    assert elapsed < 30


def test_criterion_05_shifted_sum_ratio():
    t0 = time.perf_counter()
    worst = math.inf
    for q, ell in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)]:
        for i in range(1, 11):
            rho = i / 11 * (1 - ell / q)
            for beta in range(1, q):
                worst = min(worst, shifted_sum_entropy_ratio(q, ell, rho, beta))
    ok = worst > 1 + 1e-6
    elapsed = report(5, ok, t0, 5, f"min ratio {worst:.9f}")
    assert ok
    assert elapsed < 5


def test_criterion_06_kernel_slack_floor():
    t0 = time.perf_counter()
    delta = 0.1
    smallest: dict[float, int | None] = {}
    identity_worst = 0.0
    monotone_ok = True
    for rho in (0.05, 0.1, 0.2):
        slacks = []
        for L in range(2, 9):
            rep = kernel_slack_report(2, 1, rho, L, delta)
            slacks.append(rep["min_slack"])
            det = rep["details"]
            predicted = L * hq(2, rho) + 1 - det["cond_entropy_s_given_u"]
            identity_worst = max(
                identity_worst, abs(det["identity_kernel_entropy"] - predicted)
            )
        monotone_ok &= all(b >= a - 1e-9 for a, b in zip(slacks, slacks[1:]))
        passing = [L for L, s in zip(range(2, 9), slacks) if s >= 0.0]
        smallest[rho] = passing[0] if passing else None
    found = {r: (v if v is not None else "none") for r, v in smallest.items()}
    ok = monotone_ok and all(v is not None for v in smallest.values())
    elapsed = report(6, ok, t0, 300, f"smallest passing L per rho: {found}")
    assert identity_worst <= 1e-9
    assert monotone_ok
    assert all(v is not None for v in smallest.values()), (
        "no list size in [2, 8] clears the entropy floor: the binding kernel "
        "is always a two-coordinate sum, whose slack does not depend on L, "
        f"and it is negative at every tested rho (smallest passing: {found})"
    )
    assert elapsed < 300


def _brute_pushforward(tau: TypeDist, A, q: int, b: int) -> np.ndarray:
    fs = make_field(q)
    rows = len(A)
    out = np.zeros(q**rows)
    for idx in range(q**b):
        v = vec_decode(idx, q, b)
        img = []
        for row in A:
            acc = 0
            for a, x in zip(row, v):
                acc = fs.add(acc, fs.mul(int(a), int(x)))
            img.append(acc)
        out[vec_encode(tuple(img), q, rows)] += tau.probs[idx]
    return out


def test_criterion_07_oracle_equivalences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260311)
    mismatches = 0
    for _ in range(100):
        q = int(rng.choice([2, 3]))
        b = int(rng.integers(2, 5))
        probs = rng.random(q**b)
        tau = TypeDist(q=q, b=b, probs=probs / probs.sum())
        rows = int(rng.integers(1, b + 1))
        A = [[int(x) for x in rng.integers(0, q, size=b)] for _ in range(rows)]
        if not np.allclose(pushforward(tau, A).probs,
                           _brute_pushforward(tau, A, q, b), atol=1e-12):
            mismatches += 1
    for _ in range(50):
        n = int(rng.integers(6, 15))
        size = min(int(rng.integers(4, 33)), 2**n - 1)
        words = np.sort(rng.choice(2**n, size=size, replace=False))
        code = Code(q=2, n=n, words=words)
        rho = float(rng.choice([0.1, 0.2, 0.3]))
        L = int(rng.integers(1, 4))
        a = check_ld_centers(code, rho, L).decodable
        b2 = check_lr_dp(code, rho, 1, L).recoverable
        mismatches += a != b2
    ok = mismatches == 0
    elapsed = report(7, ok, t0, 120, f"{mismatches} mismatches")
    assert ok
    assert elapsed < 120


def _monotone_within_wilson(curve) -> bool:
    for i in range(curve.rates.size):
        for j in range(i + 1, curve.rates.size):
            if curve.ci_lo[j] > curve.ci_hi[i] + 1e-12:
                return False
    return True


def test_criterion_08_threshold_in_silico():
    t0 = time.perf_counter()
    rates = _decimal_grid(0.1, 0.8, 0.05)
    curves = {}
    for family in ("rlc", "rc"):
        cfg = SweepConfig(q=2, n=18, family=family, rho=0.1, L=2, rates=rates,
                          trials=100, master_seed=2026)
        curves[family] = satisfaction_curve(cfg)
    mono = {f: _monotone_within_wilson(c) for f, c in curves.items()}
    cross = {f: half_crossing(c.rates, c.p_hat) for f, c in curves.items()}
    # at n = 18 the realized decoding radius is floor(0.1 * 18) = 1, so the
    # matching engine prediction uses the effective fraction 1/18
    rho_eff = 1 / 18
    theory = {
        "rlc": rlc_lower_generic(LRSpec(q=2, ell=1, L=2, rho=rho_eff)).value,
        "rc": rc_threshold_generic(LRSpec(q=2, ell=1, L=2, rho=rho_eff)).value,
    }
    ok = (
        all(mono.values())
        and cross["rlc"] is not None
        and cross["rc"] is not None
        and cross["rlc"] > cross["rc"]
        and abs(cross["rlc"] - theory["rlc"]) <= 0.1
        and abs(cross["rc"] - theory["rc"]) <= 0.1
    )
    note = (f"crossings rlc {cross['rlc']:.3f} (theory {theory['rlc']:.3f}), "
            f"rc {cross['rc']:.3f} (theory {theory['rc']:.3f})")
    elapsed = report(8, ok, t0, 600, note)
    assert mono["rlc"] and mono["rc"]
    assert cross["rlc"] is not None and cross["rc"] is not None
    assert cross["rlc"] > cross["rc"]
    assert abs(cross["rlc"] - theory["rlc"]) <= 0.1
    assert abs(cross["rc"] - theory["rc"]) <= 0.1
    assert elapsed < 600


def _exact_potential(code: Code, r: int, lprime: float) -> mpmath.mpf:
    P = occupancy_profile(code, r)
    with mpmath.workdps(60):
        alpha = mpmath.mpf(code.n) / mpmath.mpf(lprime)
        vals, cnts = np.unique(P, return_counts=True)
        acc = mpmath.mpf(0)
        for v, c in zip(vals, cnts):
            acc += int(c) * mpmath.power(2, alpha * int(v))
        return acc / mpmath.power(2, code.n)


def test_criterion_09_greedy_chain():
    t0 = time.perf_counter()
    n, rho, L, delta = 12, 0.125, 4, 0.2
    r = radius_of(rho, n)
    worst_gap = -math.inf
    for k in (None, 3):
        g = greedy_potential_code(n, rho, L, delta, np.random.default_rng(20269), k=k)
        assert all(h["ok"] for h in g.history)
        # recompute each step's potential from scratch out of the accepted vectors
        span = [0]
        prev = _exact_potential(Code(q=2, n=n, words=np.asarray([0])), r, g.lprime)
        for h in g.history:
            v = int(h["vector"])
            span = sorted(set(span) | {w ^ v for w in span})
            cur = _exact_potential(
                Code(q=2, n=n, words=np.asarray(span)), r, g.lprime
            )
            assert cur <= prev * prev, f"step {h['step']} breaks the squared chain"
            assert float(cur) == pytest.approx(h["s_after"], rel=1e-9)
            worst_gap = max(worst_gap, float(cur / (prev * prev)))
            prev = cur
        assert span == [int(w) for w in g.code.words]
        exhaustive = check_ld_centers(g.code, rho, g.cap + 1)
        assert exhaustive.max_count <= g.cap
    ok = True
    elapsed = report(9, ok, t0, 60, f"worst S_i / S_(i-1)^2 = {worst_gap:.3g}")
    assert elapsed < 60


def test_criterion_10_information_measure_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1017)
    tables = 0
    tol = 1e-10
    for _ in range(500):
        k = int(rng.integers(2, 5))
        # plain square joint: chain rule against a direct conditional, Fano
        M = rng.random((k, k))
        M[rng.random((k, k)) < 0.2] = 0.0
        M[rng.integers(0, k), rng.integers(0, k)] += 0.5
        jt = JointTable(M / M.sum())
        tables += 1
        meas = joint_measures(jt, base=2)
        py = jt.marginal("y")
        direct = 0.0
        for y in range(k):
            if py[y] <= 0:
                continue
            cond = jt.masses[:, y] / py[y]
            cond = cond[cond > 0]
            direct -= py[y] * float((cond * np.log2(cond)).sum())
        assert abs(meas["H_xy"] - (meas["H_y"] + direct)) <= tol
        assert meas["I_xy"] >= -tol
        p_err = max(0.0, 1.0 - float(np.trace(jt.masses)))
        assert meas["H_x_given_y"] <= fano_bound(p_err, k) + tol

        # Markov triple x -> y -> z: three-axis chain rule and data processing
        kx, ky, kz = (int(rng.integers(2, 4)) for _ in range(3))
        px = rng.random(kx) + 0.05
        px /= px.sum()
        ch1 = rng.random((kx, ky)) + 0.05
        ch1 /= ch1.sum(axis=1, keepdims=True)
        ch2 = rng.random((ky, kz)) + 0.05
        ch2 /= ch2.sum(axis=1, keepdims=True)
        joint = px[:, None, None] * ch1[:, :, None] * ch2[None, :, :]
        jt3 = JointTable(joint)
        tables += 1
        m3 = joint_measures(jt3, base=2)
        assert abs(m3["H_xyz"] - (m3["H_yz"] + m3["H_x_given_yz"])) <= tol
        i_xz = m3["H_x"] + m3["H_z"] - m3["H_xz"]
        assert i_xz <= m3["I_xy"] + tol
        # conditioning on the middle variable kills the information flow
        swapped = JointTable(np.transpose(joint, (0, 2, 1)))
        assert abs(joint_measures(swapped, base=2)["I_xy_given_z"]) <= tol
    ok = tables == 1000
    elapsed = report(10, ok, t0, 10, f"{tables} tables checked")
    assert ok
    assert elapsed < 10
