"""Threshold bounds and verification reports.

Every threshold optimization has the same shape: maximize H_q(x) + c.x over
the masses x of the free coincidence classes, subject to x >= 0, sum x <= 1
and one error budget g.x <= L rho.  The entropy's slope is infinite on every
face but the budget, so the maximizer is a Gibbs point with one multiplier,
found by bisection on the monotone budget equation (`opt_polytope_2d`).  The
test suite certifies it against an independent nested golden-section
maximum on random instances and against 50-digit mpmath on the bench grids.

Threshold bounds follow from the orbit reduction: averaging a type over
coordinate permutations and alphabet relabelings preserves the defining
constraints and cannot decrease entropy, so the outer maximization may be
restricted to types that are uniform on each coincidence class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import mpmath
import numpy as np

from .errors import DomainError, UnsupportedError
from .fields import make_field
from .infomeasures import hq, hq_multi, hql
from .subspaces import SubspaceRREF, iter_rref_bases, kernel_entropy_table, rref_of
from .typespace import LRSpec, bad_type, coincidence_orbits

STRICT_MARGIN = 1e-9


def fmt12(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# the threshold optimizer


@dataclass
class OptResult:
    x: tuple[float, ...]
    value: float
    method: str


def opt_polytope_2d(coeffs, gaps, budget: float, q: int) -> OptResult:
    """Maximum of H_q(x, 1 - sum x) + c.x over x >= 0, sum x <= 1, g.x <= budget.

    x holds the masses of the free classes and 1 - sum x that of the constant
    class.  The entropy's slope is infinite on every face but the budget, so
    the maximizer is the Gibbs point x_i = q^(c_i - lam g_i) / Z(lam) with
    Z(lam) = 1 + sum_j q^(c_j - lam g_j).  lam = 0 ("interior") when that
    point fits the budget; otherwise ("edge") lam is the root of the budget
    equation g.x(lam) = budget, which decreases in lam, bisected down to
    adjacent floats and taken on the feasible side.  The value is the dual
    log_q Z(lam) + lam * budget, equal to the objective at the Gibbs point,
    evaluated in 30 digits and rounded once.  The name is kept because
    `perfbench/tracing.py` wraps it and counts `.method`.
    """
    if budget <= 0.0:
        raise DomainError(f"the error budget must be positive, got {budget}")
    if len(coeffs) != len(gaps) or any(g < 0 for g in gaps):
        raise DomainError(f"need one nonnegative gap per class, got {gaps}")

    def gibbs(lam: float) -> tuple[tuple[float, ...], float]:
        w = [q ** (c - lam * g) for c, g in zip(coeffs, gaps)]
        z = sum(w, 1.0)
        return tuple(v / z for v in w), z

    def load(lam: float) -> float:
        return sum(g * v for g, v in zip(gaps, gibbs(lam)[0]))

    lam, method = 0.0, "interior"
    if load(0.0) > budget:
        lo, hi = 0.0, 1.0
        while load(hi) > budget:
            lo, hi = hi, 2.0 * hi
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if load(mid) > budget:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        lam, method = hi, "edge"
    with mpmath.workdps(30):
        lam_mp = mpmath.mpf(lam)
        z = 1 + mpmath.fsum(mpmath.power(q, c - lam_mp * g) for c, g in zip(coeffs, gaps))
        value = float(mpmath.log(z, q) + lam_mp * budget)
    return OptResult(x=gibbs(lam)[0], value=value, method=method)


# ---------------------------------------------------------------------------
# closed-form families


def _max_binary_l4(rho: float) -> OptResult:
    return opt_polytope_2d((2.0, math.log2(3.0)), (1, 2), 4.0 * rho, 2)


def _max_qary_l3(q: int, rho: float) -> OptResult:
    lq = math.log(q)
    c1 = math.log(3.0 * (q - 1)) / lq
    c2 = math.log((q - 1.0) * (q - 2.0)) / lq
    return opt_polytope_2d((c1, c2), (1, 2), 3.0 * rho, q)


def _check_rho_binary_l4(rho: float) -> None:
    if not 0.0 < rho < 5.0 / 16.0:
        raise DomainError(f"rho must lie in (0, 5/16) for the binary list-of-4 family, got {rho}")


def _check_rho_qary_l3(q: int, rho: float) -> None:
    if q < 3:
        raise DomainError(f"this family needs q >= 3, got q={q}")
    make_field(q)
    if not 0.0 < rho < 1.0 / 3.0:
        raise DomainError(f"rho must lie in (0, 1/3) for the 3-list family, got {rho}")


def bound_rlc_binary_l4(rho: float) -> float:
    """Lower bound on the binary list-of-4 threshold rate of the linear ensemble."""
    _check_rho_binary_l4(rho)
    return 1.0 - _max_binary_l4(rho).value / 3.0


def threshold_rc_binary_l4(rho: float) -> float:
    """Threshold rate of the plain random ensemble, binary, list of 4."""
    _check_rho_binary_l4(rho)
    return 1.0 - (1.0 + _max_binary_l4(rho).value) / 4.0


def bound_rlc_qary_l3(q: int, rho: float) -> float:
    """Lower bound on the q-ary list-of-3 threshold rate of the linear ensemble."""
    _check_rho_qary_l3(q, rho)
    return 1.0 - _max_qary_l3(q, rho).value / 2.0


def threshold_rc_qary_l3(q: int, rho: float) -> float:
    """Threshold rate of the plain random ensemble, q-ary, list of 3."""
    _check_rho_qary_l3(q, rho)
    return 1.0 - (1.0 + _max_qary_l3(q, rho).value) / 3.0


# ---------------------------------------------------------------------------
# reports and generic thresholds


@dataclass
class ThresholdReport:
    family: str
    q: int
    ell: int
    L: int
    rho: float
    value: float
    method: str
    argmax: dict = dc_field(default_factory=dict)
    inner_kernel: SubspaceRREF | None = None
    details: dict = dc_field(default_factory=dict)


@dataclass
class BoundCurve:
    family: str
    method: str
    rho_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.rho_grid = np.asarray(self.rho_grid, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.rho_grid.shape != self.values.shape:
            raise DomainError("grid and values differ in length")
        if np.any(np.diff(self.rho_grid) <= 0):
            raise DomainError("rho grid must be strictly increasing")


def _orbit_setup(spec: LRSpec):
    """Free-class coefficients of the orbit-symmetric optimization.

    Returns (classes, log_size0, free_cs, free_gaps): the objective over free
    masses x_w is H_q(x) + sum c_w x_w + log_q|A_0| and the error-budget
    constraint is sum gap_w x_w <= L rho, where gap_w is the number of
    coordinates left outside the ell best-covered value blocks of the class
    pattern (any subset-coupling must leave at least that many coordinates
    uncovered, and the symmetric coupling attains it).
    """
    classes = coincidence_orbits(spec.q, spec.L)
    lq = math.log(spec.q)
    log0 = math.log(classes[0].size) / lq
    cs, gaps = [], []
    for oc in classes[1:]:
        cs.append(math.log(oc.size) / lq - log0)
        gaps.append(spec.L - sum(sorted(oc.shape, reverse=True)[: spec.ell]))
    return classes, log0, cs, gaps


def _exact_mode_check(spec: LRSpec) -> None:
    if spec.q == 2:
        if spec.L > 4:
            raise UnsupportedError("binary exact mode covers list sizes up to 4")
    else:
        if spec.L > 3:
            raise UnsupportedError("q >= 3 exact mode covers list sizes up to 3")


def rc_threshold_generic(spec: LRSpec) -> ThresholdReport:
    """Threshold rate 1 - max H_q(tau)/L of the plain random ensemble.

    The maximum runs over the orbit polytope described in `_orbit_setup`,
    taken by `opt_polytope_2d`; with no free class it is the constant type.
    """
    _exact_mode_check(spec)
    classes, log0, cs, gaps = _orbit_setup(spec)
    L, q = spec.L, spec.q
    res = opt_polytope_2d(cs, gaps, L * spec.rho, q)
    raw = 1.0 - (log0 + res.value) / L
    return ThresholdReport(
        family="rc",
        q=q,
        ell=spec.ell,
        L=L,
        rho=spec.rho,
        value=min(max(raw, 0.0), 1.0),
        method="kkt" if cs else "closed_form",
        argmax={"free_class_masses": res.x, "constant_class_mass": 1.0 - sum(res.x)},
        details={"max_entropy": log0 + res.value, "raw_value": raw,
                 "class_shapes": [list(c.shape) for c in classes],
                 "class_sizes": [c.size for c in classes],
                 "budget_coeffs": gaps},
    )


def rlc_lower_generic(spec: LRSpec) -> ThresholdReport:
    """Lower bound 1 - max_tau min_kernels H_q(A tau)/dim(A tau), linear ensemble.

    The inner minimum stops the symmetric reduction from applying wholesale,
    so the outer maximum is split by the dimension of the support span and
    each support class is optimized separately; the subtracted quantity is the
    maximum of the per-case optima.  Exact case splits exist for the binary
    list-of-4 family, the q-ary list-of-3 family, and every list-of-2 family.
    """
    if spec.ell != 1:
        raise UnsupportedError("the linear-ensemble case analysis is derived for ell = 1")
    _exact_mode_check(spec)
    q, L, rho = spec.q, spec.L, spec.rho
    lq = math.log(q)
    details: dict = {}

    if L == 2:
        # quotient by the difference of the two coordinates: the image puts
        # mass Pr[u1 != u2] <= 2 rho off zero, so its entropy is at most
        # h_q(2 rho); the canonical boundary type attains the budget.
        if 2.0 * rho >= 1.0:
            raise DomainError("rho too large for the list-of-2 case (needs 2 rho < 1)")
        case_main = hq(q, 2.0 * rho)
        value = 1.0 - case_main
        kernel = rref_of([[1, 1 if q == 2 else q - 1]], q)  # span{(1, -1)}
        return ThresholdReport(
            family="rlc-lower", q=q, ell=1, L=2, rho=rho,
            value=min(max(value, 0.0), 1.0), method="closed_form",
            argmax={"offdiag_mass": 2.0 * rho},
            inner_kernel=kernel,
            details={"case_values": {"difference_quotient": case_main}},
        )

    if q == 2 and L == 4:
        res = _max_binary_l4(rho) if 0.0 < rho < 5.0 / 16.0 else None
        if res is None:
            raise DomainError("rho must lie in (0, 5/16) for the binary list-of-4 family")
        case_full = res.value / 3.0
        # support spans of dimension <= 2 collapse two coordinate pairs; the
        # resulting optimization is the two-variable curve below
        case_low = (hq(2, min(2.0 * rho, 0.5)) + 2.0 * rho * math.log2(3.0)) / 2.0
        sub = max(case_full, case_low)
        kernel = rref_of([[1, 1, 1, 1]], 2)
        return ThresholdReport(
            family="rlc-lower", q=2, ell=1, L=4, rho=rho,
            value=min(max(1.0 - sub, 0.0), 1.0), method="closed_form",
            argmax={"free_class_masses": res.x},
            inner_kernel=kernel,
            details={"case_values": {"full_support_compression": case_full,
                                     "low_dimension_boundary": case_low}},
        )

    if q >= 3 and L == 3:
        if not 0.0 < rho < 1.0 / 3.0:
            raise DomainError("rho must lie in (0, 1/3) for the 3-list family")
        res = _max_qary_l3(q, rho)
        case_full = res.value / 2.0
        case_low = hql(q, 1, min(1.5 * rho, 1.0 - 1.0 / q))
        sub = max(case_full, case_low)
        # the identity-kernel reading of the full-support case divides by 3
        # instead of 2; it is strictly weaker for every attainable objective
        # value, so it is reported but not folded into the bound
        alt = (res.value + 1.0) / 3.0
        kernel = rref_of([[1, 1, 1]], q)
        return ThresholdReport(
            family="rlc-lower", q=q, ell=1, L=3, rho=rho,
            value=min(max(1.0 - sub, 0.0), 1.0), method="closed_form",
            argmax={"free_class_masses": res.x},
            inner_kernel=kernel,
            details={"case_values": {"full_support_compression": case_full,
                                     "low_dimension_boundary": case_low},
                     "identity_kernel_reading": 1.0 - alt,
                     "ambiguity_note": "dividing the full-support case by L instead of "
                                       "dim would reproduce the plain-ensemble bound"},
        )

    raise UnsupportedError(
        f"no established case analysis for q={q}, L={L}; "
        "supported: (q=2, L in {2,4}) and (q>=3, L in {2,3})"
    )


# ---------------------------------------------------------------------------
# curves and checks


def dominance_curves(rho_grid) -> tuple[BoundCurve, BoundCurve, list[bool]]:
    """The binary list-of-4 lower bound's two comparison curves.

    Blue: the full-support compression optimum divided by 3.  Orange: the
    low-dimension boundary curve (h2(2 rho) + 2 rho log2 3)/2.  The third
    return lists blue >= orange + margin per grid point; the subtracted
    bound is valid exactly because blue dominates.
    """
    grid = np.asarray(list(rho_grid), dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 5.0 / 16.0):
        raise DomainError("grid must lie inside (0, 5/16)")
    blue = np.array([_max_binary_l4(r).value / 3.0 for r in grid])
    orange = np.array([(hq(2, 2.0 * r) + 2.0 * r * math.log2(3.0)) / 2.0 for r in grid])
    ok = [bool(b - o > STRICT_MARGIN) for b, o in zip(blue, orange)]
    return (
        BoundCurve(family="figure1", method="blue", rho_grid=grid, values=blue),
        BoundCurve(family="figure1", method="orange", rho_grid=grid, values=orange),
        ok,
    )


def negativity_values(rho_grid) -> np.ndarray:
    """2 H2(0, 3r/2) - H2(3r, 0) - 3r log2(3) on the grid (base-2 units).

    The subtracted term is the q = 2 case of `_max_qary_l3`'s objective,
    F(x1) = h2(x1) + x1 log2(3), at the vertex x1 = 3r.  F peaks at x1 = 3/4
    with value 2, so the vertex is the optimum only for r <= 1/4 (the binary
    Plotkin point for list size 2).  Beyond that this is a vertex value, not
    the comparison against the optimum; it turns nonnegative near r = 0.281.
    `negativity_optimum_values` gives the comparison on the whole interval.
    """
    grid = np.asarray(list(rho_grid), dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 1.0 / 3.0):
        raise DomainError("grid must lie inside (0, 1/3)")
    out = []
    for r in grid:
        v = 2.0 * hq_multi(2, [0.0, 1.5 * r]) - hq_multi(2, [3.0 * r, 0.0]) - 3.0 * r * math.log2(3.0)
        out.append(v)
    return np.asarray(out)


def _max_binary_l3(rho: float) -> OptResult:
    # q = 2: the x2 class is empty, (q-1)(q-2) = 0, so x1 is the only one
    return opt_polytope_2d((math.log2(3.0),), (1,), 3.0 * rho, 2)


def negativity_optimum_values(rho_grid) -> np.ndarray:
    """2 h2(3r/2) - max F on the grid, F = h2(x1) + x1 log2(3) over x1 <= 3r.

    The maximum is taken by `opt_polytope_2d`.  It equals
    `negativity_values` for r <= 1/4, where the optimum is the vertex x1 = 3r,
    and past that the optimum is x1 = 3/4 with value 2.
    """
    grid = np.asarray(list(rho_grid), dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 1.0 / 3.0):
        raise DomainError("grid must lie inside (0, 1/3)")
    return np.asarray([2.0 * hq(2, 1.5 * r) - _max_binary_l3(r).value for r in grid])


def boundary_dominance_qary(q: int, rho: float) -> float:
    """Margin maxF/2 - h_q(3 rho/2) of the direct case comparison (>= 0 expected)."""
    _check_rho_qary_l3(q, rho)
    return _max_qary_l3(q, rho).value / 2.0 - hql(q, 1, 1.5 * rho)


# ---------------------------------------------------------------------------
# list sizes and the large-list regime


def lr_listsize_lower_rlc(q: int, ell: int, rho: float, eps: float, delta: float) -> int:
    """Output list size forced on the linear ensemble at rate capacity - eps."""
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    if delta < 0.0:
        raise DomainError("delta must be nonnegative")
    logc = math.log(math.comb(q, ell)) / math.log(q)
    LRSpec(q=q, ell=ell, L=1, rho=rho)  # validates q, ell, rho
    return math.floor((logc - (1.0 - hql(q, ell, rho))) / eps - delta)


def lr_listsize_rc(q: int, ell: int, rho: float, eps: float, delta: float) -> tuple[int, int]:
    """(lower, upper) list sizes for the plain ensemble near capacity."""
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    if delta < 0.0:
        raise DomainError("delta must be nonnegative")
    LRSpec(q=q, ell=ell, L=1, rho=rho)
    logc = math.log(math.comb(q, ell)) / math.log(q)
    lower = math.floor(logc / eps - delta)
    upper = math.ceil(logc / eps) + 1
    return lower, upper


def lr_rate_rc_upper(q: int, ell: int, rho: float, L: int) -> float:
    """Rate above which the plain ensemble loses (rho, ell, L)-recoverability."""
    if L < 1:
        raise DomainError("list size must be >= 1")
    LRSpec(q=q, ell=ell, L=1, rho=rho)
    logc = math.log(math.comb(q, ell)) / math.log(q)
    return 1.0 - hql(q, ell, rho) - logc / L


def _check_largelist(rho: float, L: int, delta: float) -> None:
    if L < 2:
        raise DomainError("list size must be >= 2")
    if delta <= 0.0:
        raise DomainError("delta must be positive")
    if not 0.0 < rho < 0.5:
        raise DomainError("rho must lie in (0, 1/2)")
    if L - 1 - 2 * delta <= 0.0:
        raise DomainError("need L - 1 - 2 delta > 0")


def rate_rlc_binary_largeL(rho: float, L: int, delta: float) -> float:
    """Binary linear-ensemble achievable rate in the large-list regime."""
    _check_largelist(rho, L, delta)
    h = hq(2, rho)
    return 1.0 - h - h / (L - 1 - 2.0 * delta) - delta


def rate_rc_binary_largeL(rho: float, L: int, delta: float) -> float:
    """Binary plain-ensemble rate that already fails list-of-L decodability.

    Built from a pair construction whose joint entropy is 1 + h2(2 rho - 2 rho^2).
    """
    _check_largelist(rho, L, delta)
    h = hq(2, rho)
    hpair = hq(2, 2.0 * rho - 2.0 * rho * rho)
    return (L - 1.0) / L * (1.0 - h) - (hpair - h) / L + delta


def largeL_compare(rho: float, L: int) -> bool:
    """Whether the large-list separation condition holds at (rho, L)."""
    if L < 2:
        raise DomainError("list size must be >= 2")
    if not 0.0 < rho < 0.5:
        raise DomainError("rho must lie in (0, 1/2)")
    lhs = (3.0 + 1.0 / (L - 1.0)) * hq(2, rho) - hq(2, 2.0 * rho - 2.0 * rho * rho)
    return bool(lhs < 1.0)


# ---------------------------------------------------------------------------
# kernel-slack verification (the bad type against the entropy floor)


def kernel_slack_report(q: int, ell: int, rho: float, L: int, delta: float) -> dict:
    """Minimum slack of H_q(A tau) against the floor L'*h + logC - 1 + h - delta.

    tau is the u-marginal of the canonical boundary type; A ranges over the
    quotient maps of every proper kernel, L' = dim(A tau).  `min_slack`, and
    `pass` with it, are taken against this flat floor, whose constant
    c = logC - 1 + h - delta does not scale with L'; for ell = 1 its binding
    kernel is a sum of two coordinates, so it does not depend on L.  The
    report carries the worst kernel, per-dimension minima, the identity-kernel
    entropy identity H(tau) = L*h + logC - H(S|u), and, as a diagnostic,
    `per_dimension_floor_min_slack`: the minimum slack against the
    rank-normalised floor L'*(h + c/L), which shares c out in proportion to L'.
    """
    if delta < 0.0:
        raise DomainError("delta must be nonnegative")
    spec = LRSpec(q=q, ell=ell, L=L, rho=rho)
    jt = bad_type(spec)
    tau = jt.u_marginal()
    h = hql(q, ell, rho)
    logc = math.log(math.comb(q, ell)) / math.log(q)

    min_slack = math.inf
    worst = None
    per_dim: dict[int, float] = {}
    alt_min = math.inf
    identity_H = None
    for k in range(L):
        H, D = kernel_entropy_table(tau, k)
        slack = H - (D * h + logc - 1.0 + h - delta)
        t = int(np.argmin(slack))  # first minimum, as in enumeration order
        if slack[t] < min_slack:
            min_slack = float(slack[t])
            worst = next(itertools.islice(iter_rref_bases(q, L, k), t, None))
        for d in set(D.tolist()):
            per_dim[d] = min(per_dim.get(d, math.inf), float(slack[D == d].min()))
        alt_min = min(alt_min, float((H - D * (h + (logc - 1.0 + h - delta) / L)).min()))
        if k == 0 and D[0] == L:
            identity_H = float(H[0])

    # H(S|u) directly from the joint table (floats of the exact masses)
    ps_given = jt.table  # rows: u vectors, cols: subsets
    pu = ps_given.sum(axis=1)
    hsu = 0.0
    for v in range(ps_given.shape[0]):
        if pu[v] <= 0:
            continue
        cond = ps_given[v] / pu[v]
        cond = cond[cond > 0]
        hsu -= float(pu[v]) * float((cond * np.log(cond)).sum())
    hsu /= math.log(q)

    return {
        "min_slack": min_slack,
        "worst_kernel": SubspaceRREF(q=q, ambient=L, basis=worst),
        "pass": bool(min_slack >= 0.0),
        "details": {
            "q": q, "ell": ell, "rho": rho, "L": L, "delta": delta,
            "per_dim_min_slack": {int(k): float(v) for k, v in sorted(per_dim.items())},
            "identity_kernel_entropy": identity_H,
            "identity_predicted": L * h + logc - hsu,
            "cond_entropy_s_given_u": hsu,
            "fano_term_ok": bool(hsu <= delta),
            "per_dimension_floor_min_slack": alt_min,
        },
    }


def shifted_sum_entropy_ratio(q: int, ell: int, rho: float, beta: int) -> float:
    """lambda = H_q(u + beta*alpha | S) / h_{q,ell}(rho) for the boundary type.

    u and alpha are conditionally i.i.d. single coordinates of the canonical
    boundary type given the subset S; values above 1 mean the shifted sum is
    strictly more spread than a single coordinate.
    """
    fs = make_field(q)
    if not 0 < beta < q:
        raise DomainError(f"beta must be a nonzero field element, got {beta}")
    LRSpec(q=q, ell=ell, L=1, rho=rho)
    denom = hql(q, ell, rho)
    lq = math.log(q)
    total = 0.0
    subsets = list(itertools.combinations(range(q), ell))
    for S in subsets:
        sset = set(S)
        ps = [(1.0 - rho) / ell if a in sset else rho / (q - ell) for a in range(q)]
        pt = [0.0] * q
        for u in range(q):
            for a in range(q):
                pt[fs.add(u, fs.mul(beta, a))] += ps[u] * ps[a]
        total += -sum(p * math.log(p) for p in pt if p > 0.0) / lq
    return (total / len(subsets)) / denom
