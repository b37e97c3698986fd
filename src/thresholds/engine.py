"""Threshold bounds and verification reports.

Every threshold optimization has the same shape: maximize H_q(x) + c.x over
the masses x of the free coincidence classes, subject to x >= 0, sum x <= 1
and one error budget g.x <= L rho.  The entropy's slope is infinite on every
face but the budget, so the maximizer is a Gibbs point with one multiplier,
found by bisection on the monotone budget equation.  `max_entropy` solves a
whole array of budgets at once, with one numpy bisection for all of them, so
a rho grid costs one call; `opt_polytope_2d` is its one-budget form.  The
test suite certifies it against an independent nested golden-section
maximum on random instances and against 50-digit mpmath on the bench grids.

Threshold bounds follow from the orbit reduction: averaging a type over
coordinate permutations and alphabet relabelings preserves the defining
constraints and cannot decrease entropy, so the outer maximization may be
restricted to types that are uniform on each coincidence class.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field

import mpmath
import numpy as np

from .errors import DomainError, UnsupportedError
from .fields import make_field
from .infomeasures import entropy, hq, hq_multi, hql, joint_measures
from .subspaces import SubspaceRREF, kernel_at, kernel_entropy_table, rref_of
from .typespace import LRSpec, TypeDist, bad_type, coincidence_orbits

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
    exact: mpmath.mpf  # the value at 30 digits, before its one rounding
    rounds: int  # bisection rounds spent on lam: bracket doublings and halvings


def _gibbs(c: np.ndarray, g: np.ndarray, lam: np.ndarray, q: int):
    """The Gibbs masses q^(c - lam g) / Z(lam) at each multiplier, shape
    (classes, points), and their loads g.x; c and g are columns.  The sums
    run over classes one row at a time, so a point's masses do not depend on
    the other points of the grid."""
    x = np.power(float(q), c - g * lam)
    x = x / sum(x, 1.0)
    return x, sum(gap * row for gap, row in zip(g[:, 0], x))


def max_entropy(coeffs, gaps, budgets, q: int) -> list[OptResult]:
    """Maximum of H_q(x, 1 - sum x) + c.x over x >= 0, sum x <= 1, g.x <= b,
    one result per budget b of the 1-D array `budgets`.

    x holds the masses of the free classes and 1 - sum x that of the constant
    class.  The entropy's slope is infinite on every face but the budget, so
    the maximizer is the Gibbs point x_i = q^(c_i - lam g_i) / Z(lam) with
    Z(lam) = 1 + sum_j q^(c_j - lam g_j).  lam = 0 ("interior") when that
    point fits the budget; otherwise ("edge") lam is the root of the budget
    equation g.x(lam) = b, which decreases in lam, bisected down to adjacent
    floats and taken on the feasible side.  All budgets are bisected together,
    each point on its own bracket, so a point's result does not depend on the
    rest of the grid.  The value is the dual log_q Z(lam) + lam * b, equal to
    the objective at the Gibbs point, evaluated in 30 digits as
    log(Z) / ln q with Z's terms exp((c - lam g) ln q), and rounded once;
    `exact` keeps it unrounded, and a coefficient given as a 30-digit mpmath
    number enters it unrounded (the bisection reads its float).
    """
    b = np.asarray(budgets, dtype=np.float64)
    if b.ndim != 1 or b.size == 0 or not np.all(b > 0.0):
        raise DomainError(f"need a nonempty 1-D array of positive error budgets, got {budgets}")
    if len(coeffs) != len(gaps) or any(g < 0 for g in gaps):
        raise DomainError(f"need one nonnegative gap per class, got {gaps}")
    c = np.array([float(v) for v in coeffs]).reshape(-1, 1)
    g = np.array(gaps, dtype=np.float64).reshape(-1, 1)

    edge = _gibbs(c, g, np.zeros(b.size), q)[1] > b
    lo, hi = np.zeros(b.size), np.where(edge, 1.0, 0.0)
    rounds = np.zeros(b.size, dtype=np.int64)
    grow = edge & (_gibbs(c, g, hi, q)[1] > b)
    while grow.any():
        rounds += grow
        lo, hi = np.where(grow, hi, lo), np.where(grow, 2.0 * hi, hi)
        grow &= _gibbs(c, g, hi, q)[1] > b
    # lo is infeasible and hi feasible for every edge point, and both stay so:
    # a point whose bracket is down to adjacent floats has mid equal to one of
    # them, which the update leaves in place
    mid = 0.5 * (lo + hi)
    active = (lo < mid) & (mid < hi)
    while active.any():
        rounds += active
        above = _gibbs(c, g, mid, q)[1] > b
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        mid = 0.5 * (lo + hi)
        active = (lo < mid) & (mid < hi)
    x = _gibbs(c, g, hi, q)[0].T.tolist()

    out = []
    with mpmath.workdps(30):
        lnq = mpmath.log(q)
        for i, (lam, budget) in enumerate(zip(hi.tolist(), b.tolist())):
            lam_mp = mpmath.mpf(lam)
            z = 1 + mpmath.fsum(mpmath.exp((ci - lam_mp * gi) * lnq)
                                for ci, gi in zip(coeffs, gaps))
            exact = mpmath.log(z) / lnq + lam_mp * budget
            out.append(OptResult(x=tuple(x[i]), value=float(exact),
                                 method="edge" if edge[i] else "interior",
                                 exact=exact, rounds=int(rounds[i])))
    return out


def opt_polytope_2d(coeffs, gaps, budget: float, q: int) -> OptResult:
    """`max_entropy` at one budget.  The name is kept because
    `perfbench/tracing.py` wraps it and counts `.method`; grid callers use
    `max_entropy`, which it does not trace."""
    return max_entropy(coeffs, gaps, [budget], q)[0]


def each_rho(rhos, fn) -> list:
    """[fn(rho) for rho in rhos], a DomainError naming the first rho it arose at."""
    out = []
    for rho in rhos:
        try:
            out.append(fn(rho))
        except DomainError as err:
            raise DomainError(f"at rho={fmt12(rho)}: {err}") from err
    return out


# ---------------------------------------------------------------------------
# closed-form families


@functools.lru_cache(maxsize=None)
def _log30(x: int, q: int) -> mpmath.mpf:
    """log_q x at 30 digits, a coefficient `max_entropy` uses unrounded."""
    with mpmath.workdps(30):
        return mpmath.log(x, q)


def _max_binary_l4(rhos) -> list[OptResult]:
    return max_entropy((2, _log30(3, 2)), (1, 2), 4.0 * np.asarray(rhos, dtype=np.float64), 2)


def _max_qary_l3(q: int, rhos) -> list[OptResult]:
    c1, c2 = _log30(3 * (q - 1), q), _log30((q - 1) * (q - 2), q)
    return max_entropy((c1, c2), (1, 2), 3.0 * np.asarray(rhos, dtype=np.float64), q)


def _ld4_domain(rho: float) -> None:
    if not 0.0 < rho < 5.0 / 16.0:
        raise DomainError(f"rho must lie in (0, 5/16) for the binary list-of-4 family, got {rho}")


def _ld3_domain(q: int, rho: float) -> None:
    if q < 3:
        raise DomainError(f"this family needs q >= 3, got q={q}")
    make_field(q)
    if not 0.0 < rho < 1.0 / 3.0:
        raise DomainError(f"rho must lie in (0, 1/3) for the 3-list family, got {rho}")


def ld4_binary_rows(rhos) -> tuple[list[dict[str, float]], list[OptResult]]:
    """The binary list-of-4 bounds at each rho of the grid, and the solves.

    One `max_entropy` call serves the grid.  "rlc" is the lower bound on the
    linear ensemble's threshold rate and "rc" the threshold rate of the plain
    random ensemble.  Each is formed from the optimum at 30 digits and rounded
    once: near rho = 5/16 the optimum is about 3 and the columns about 1e-6,
    so forming them in floats from the rounded optimum would lose their last
    printed digits.  A rho outside the domain is named in the DomainError.
    """
    each_rho(rhos, _ld4_domain)
    solves = _max_binary_l4(rhos)
    with mpmath.workdps(30):
        rows = [{"rlc": float(1 - s.exact / 3), "rc": float(1 - (1 + s.exact) / 4)}
                for s in solves]
    return rows, solves


def ld3_qary_rows(q: int, rhos) -> tuple[list[dict[str, float]], list[OptResult]]:
    """The q-ary list-of-3 bounds at each rho of the grid, and the solves.

    "rlc" and "rc" as in `ld4_binary_rows`, each rounded once from 30 digits;
    "dominance" is the margin maxF/2 - h_q(3 rho/2) of the direct case
    comparison, and the linear bound is valid only where it is positive.
    """
    each_rho(rhos, functools.partial(_ld3_domain, q))
    solves = _max_qary_l3(q, rhos)
    with mpmath.workdps(30):
        rows = [{"rlc": float(1 - s.exact / 2), "rc": float(1 - (1 + s.exact) / 3),
                 "dominance": float(s.exact / 2 - hql(q, 1, 1.5 * rho))}
                for rho, s in zip(rhos, solves)]
    return rows, solves


def bound_rlc_binary_l4(rho: float) -> float:
    """Lower bound on the binary list-of-4 threshold rate of the linear ensemble."""
    return ld4_binary_rows([rho])[0][0]["rlc"]


def threshold_rc_binary_l4(rho: float) -> float:
    """Threshold rate of the plain random ensemble, binary, list of 4."""
    return ld4_binary_rows([rho])[0][0]["rc"]


def bound_rlc_qary_l3(q: int, rho: float) -> float:
    """Lower bound on the q-ary list-of-3 threshold rate of the linear ensemble."""
    return ld3_qary_rows(q, [rho])[0][0]["rlc"]


def threshold_rc_qary_l3(q: int, rho: float) -> float:
    """Threshold rate of the plain random ensemble, q-ary, list of 3."""
    return ld3_qary_rows(q, [rho])[0][0]["rc"]


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
    solves: list[OptResult] = dc_field(default_factory=list)  # the optima behind the values

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
        _ld4_domain(rho)
        res = _max_binary_l4([rho])[0]
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
        _ld3_domain(q, rho)
        res = _max_qary_l3(q, [rho])[0]
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

    Blue: the full-support compression optimum divided by 3, the optima
    taken by one `max_entropy` call and kept in blue's `solves`.  Orange: the
    low-dimension boundary curve (h2(2 rho) + 2 rho log2 3)/2.  The third
    return lists blue >= orange + margin per grid point; the subtracted
    bound is valid exactly because blue dominates.
    """
    grid = np.asarray(list(rho_grid), dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 5.0 / 16.0):
        raise DomainError("grid must lie inside (0, 5/16)")
    solves = _max_binary_l4(grid)
    blue = np.array([s.value / 3.0 for s in solves])
    orange = np.array([(hq(2, 2.0 * r) + 2.0 * r * math.log2(3.0)) / 2.0 for r in grid])
    ok = [bool(b - o > STRICT_MARGIN) for b, o in zip(blue, orange)]
    return (
        BoundCurve(family="figure1", method="blue", rho_grid=grid, values=blue, solves=solves),
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


def negativity_optimum_values(rho_grid) -> np.ndarray:
    """2 h2(3r/2) - max F on the grid, F = h2(x1) + x1 log2(3) over x1 <= 3r.

    The maxima are taken by one `max_entropy` call; F is the q = 2 case of
    `_max_qary_l3`'s objective, whose x2 class is empty.  It equals
    `negativity_values` for r <= 1/4, where the optimum is the vertex x1 = 3r,
    and past that the optimum is x1 = 3/4 with value 2.
    """
    grid = np.asarray(list(rho_grid), dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 1.0 / 3.0):
        raise DomainError("grid must lie inside (0, 1/3)")
    opt = max_entropy((math.log2(3.0),), (1,), 3.0 * grid, 2)
    return np.asarray([2.0 * hq(2, 1.5 * r) - o.value for r, o in zip(grid, opt)])


# ---------------------------------------------------------------------------
# list sizes and the large-list regime


def lr_listsize_lower_rlc(q: int, ell: int, rho: float, eps: float, delta: float) -> int:
    """Output list size forced on the linear ensemble at rate capacity - eps."""
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    if delta < 0.0:
        raise DomainError("delta must be nonnegative")
    LRSpec(q=q, ell=ell, L=1, rho=rho)  # validates q, ell, rho
    logc = math.log(math.comb(q, ell)) / math.log(q)
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
    `kernels` counts the kernels swept, the rows of every table read.
    """
    if delta < 0.0:
        raise DomainError("delta must be nonnegative")
    spec = LRSpec(q=q, ell=ell, L=L, rho=rho)
    jt = bad_type(spec)
    tau = TypeDist(q, L, jt.marginal("x"))
    h = hql(q, ell, rho)
    logc = math.log(math.comb(q, ell)) / math.log(q)

    min_slack = math.inf
    worst = None
    per_dim: dict[int, float] = {}
    alt_min = math.inf
    identity_H = None
    kernels = 0
    for k in range(L):
        H, D = kernel_entropy_table(tau, k)
        kernels += H.size
        slack = H - (D * h + logc - 1.0 + h - delta)
        t = int(np.argmin(slack))  # first minimum, as in enumeration order
        if slack[t] < min_slack:
            min_slack = float(slack[t])
            worst = kernel_at(q, L, k, t)
        for d in set(D.tolist()):
            per_dim[d] = min(per_dim.get(d, math.inf), float(slack[D == d].min()))
        alt_min = min(alt_min, float((H - D * (h + (logc - 1.0 + h - delta) / L)).min()))
        if k == 0 and D[0] == L:
            identity_H = float(H[0])

    hsu = joint_measures(jt, base=q)["H_y_given_x"]  # H(S|u) = H(u, S) - H(u)

    return {
        "min_slack": min_slack,
        "worst_kernel": worst,
        "pass": bool(min_slack >= 0.0),
        "kernels": kernels,
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
    shifted = fs.add_table[:, fs.mul_table[beta]].ravel()  # (u, a) -> u + beta*a
    total = 0.0
    for S in itertools.combinations(range(q), ell):
        ps = np.full(q, rho / (q - ell))
        ps[list(S)] = (1.0 - rho) / ell
        pt = np.bincount(shifted, weights=np.outer(ps, ps).ravel(), minlength=q)
        total += float(entropy(pt, q))
    return (total / math.comb(q, ell)) / hql(q, ell, rho)
