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
restricted to types that are uniform on each coincidence class.  Every
solve reads those classes' coefficients and gaps from one table,
`_class_problem`, at any (q, ell, L).  Every case of the linear ensemble's
bound (`rlc_lower_generic`) quotients by span{1}, the kernel that binds by
the lemma in `kernel_slack_report`'s docstring.
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
from .subspaces import (
    SubspaceRREF,
    kernel_at,
    kernel_entropy_table,
    ones_kernel_table,
    rref_of,
)
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
def _class_problem(q: int, ell: int, L: int) -> tuple[tuple[mpmath.mpf, ...], tuple[int, ...]]:
    """Coefficients and gaps of the free coincidence classes of GF(q)^L.

    A type uniform on each class A_w has entropy H_q(x) + sum_w x_w log_q|A_w|
    in the class masses x.  The constant class holds q vectors, so this is
    1 + H_q(x) + c.x with c_w = log_q(|A_w|/q), an integer ratio because
    adding a constant vector moves each class onto itself without fixed
    points, taken at 30 digits, which `max_entropy` uses unrounded.  The gap of w, L minus the sum of its ell
    largest parts, is the fewest coordinates a subset coupling leaves
    uncovered, so the error budget reads g.x <= L rho.
    """
    free = coincidence_orbits(q, L)[1:]
    with mpmath.workdps(30):
        coeffs = tuple(mpmath.log(oc.size // q, q) for oc in free)
    return coeffs, tuple(L - sum(oc.shape[:ell]) for oc in free)


def _solve_classes(q: int, ell: int, L: int, rhos) -> list[OptResult]:
    """The optimum of `_class_problem(q, ell, L)` at each rho of the grid,
    budget L rho, from one `max_entropy` call."""
    coeffs, gaps = _class_problem(q, ell, L)
    return max_entropy(coeffs, gaps, L * np.asarray(rhos, dtype=np.float64), q)


def _rate_rows(solves: list[OptResult], L: int) -> list[dict[str, float]]:
    """The rates of each optimum over GF(q)^L, formed at 30 digits and rounded
    once: near rho = 5/16 the binary list-of-4 columns are about 1e-6 from an
    optimum about 3, so floats would lose their last printed digits.  "rc" is
    the plain ensemble's threshold 1 - (1 + max)/L; "rlc", for L >= 2, the
    full-support case of the linear ensemble's bound, 1 - max/(L - 1).
    """
    with mpmath.workdps(30):
        return [{**({"rlc": float(1 - s.exact / (L - 1))} if L > 1 else {}),
                 "rc": float(1 - (1 + s.exact) / L)} for s in solves]


def _ld4_domain(rho: float) -> None:
    if not 0.0 < rho < 5.0 / 16.0:
        raise DomainError(f"rho must lie in (0, 5/16) for the binary list-of-4 family, got {rho}")


def _ld3_domain(q: int, rho: float) -> None:
    if q < 3:
        raise DomainError(f"this family needs q >= 3, got q={q}")
    make_field(q)
    if not 0.0 < rho < 1.0 / 3.0:
        raise DomainError(f"rho must lie in (0, 1/3) for the 3-list family, got {rho}")


def _low_dimension_case(q: int, L: int, rho: float) -> float | None:
    """The linear ensemble's low-dimension case: the largest quotient entropy
    per dimension of a type whose support spans fewer than L dimensions, at
    a rho inside the family's domain.  For binary lists of 4 two coordinate
    pairs collapse, giving (h2(min(2 rho, 1/2)) + 2 rho log2 3)/2; for q-ary
    lists of 3, h_q(min(3 rho/2, 1 - 1/q)).  Lists of 2 have none."""
    if L == 2:
        return None
    if q == 2:  # L = 4
        return (hq(2, min(2.0 * rho, 0.5)) + 2.0 * rho * math.log2(3.0)) / 2.0
    return hql(q, 1, min(1.5 * rho, 1.0 - 1.0 / q))


def ld4_binary_rows(rhos) -> tuple[list[dict[str, float]], list[OptResult]]:
    """The binary list-of-4 bounds at each rho of the grid, and the solves.

    One `max_entropy` call serves the grid.  "rlc" is the lower bound on the
    linear ensemble's threshold rate and "rc" the threshold rate of the plain
    random ensemble, both from `_rate_rows`.  A rho outside the domain is
    named in the DomainError.
    """
    each_rho(rhos, _ld4_domain)
    solves = _solve_classes(2, 1, 4, rhos)
    return _rate_rows(solves, 4), solves


def ld3_qary_rows(q: int, rhos) -> tuple[list[dict[str, float]], list[OptResult]]:
    """The q-ary list-of-3 bounds at each rho of the grid, and the solves.

    "rlc" and "rc" as in `ld4_binary_rows`; "dominance" is the margin
    maxF/2 - h_q(3 rho/2) of the full-support case over `_low_dimension_case`,
    rounded once from 30 digits; the linear bound is valid only where it is
    positive.
    """
    each_rho(rhos, functools.partial(_ld3_domain, q))
    solves = _solve_classes(q, 1, 3, rhos)
    rows = _rate_rows(solves, 3)
    with mpmath.workdps(30):
        for rho, s, row in zip(rhos, solves, rows):
            row["dominance"] = float(s.exact / 2 - _low_dimension_case(q, 3, rho))
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


def rc_threshold_generic(spec: LRSpec) -> ThresholdReport:
    """Threshold rate 1 - max H_q(tau)/L of the plain random ensemble.

    The maximum of `_class_problem` at any list size is taken by
    `opt_polytope_2d`; with no free class it is the constant type.  The rate
    is `_rate_rows`' "rc", so it equals the family rows' column.
    """
    L, q = spec.L, spec.q
    coeffs, gaps = _class_problem(q, spec.ell, L)
    res = opt_polytope_2d(coeffs, gaps, L * spec.rho, q)
    raw = _rate_rows([res], L)[0]["rc"]
    classes = coincidence_orbits(q, L)
    return ThresholdReport(
        family="rc",
        q=q,
        ell=spec.ell,
        L=L,
        rho=spec.rho,
        value=min(max(raw, 0.0), 1.0),
        method="kkt" if coeffs else "closed_form",
        argmax={"free_class_masses": res.x, "constant_class_mass": 1.0 - sum(res.x)},
        details={"max_entropy": 1.0 + res.value, "raw_value": raw,
                 "class_shapes": [list(c.shape) for c in classes],
                 "class_sizes": [c.size for c in classes],
                 "budget_coeffs": list(gaps)},
    )


def rlc_lower_generic(spec: LRSpec) -> ThresholdReport:
    """Lower bound 1 - max_tau min_kernels H_q(A tau)/dim(A tau), linear ensemble.

    The outer maximum is split by the dimension of the support span, and the
    bound subtracts the larger case.  Exact case splits exist for every
    list-of-2 family, the binary list-of-4 family and the q-ary list-of-3
    family, and each makes one solve: the full-support case is the optimum
    of `_class_problem(q, 1, L)` at budget L rho over dim = L - 1 (the
    `_rate_rows` "rlc" column), the other case is `_low_dimension_case`.

    Every case quotients by span{1}, the reported `inner_kernel`: the
    boundary type and the class-uniform optimum are invariant under
    u -> u + a*1, so by the lemma in `kernel_slack_report`'s docstring
    span{1} is a 1-dim kernel of least quotient entropy, H_q(tau) - 1, the
    solve's maximum.  Dividing by L instead (`identity_kernel_reading`)
    gives the plain ensemble's threshold, which is strictly weaker.
    """
    if spec.ell != 1:
        raise UnsupportedError("the linear-ensemble case analysis is derived for ell = 1")
    q, L, rho = spec.q, spec.L, spec.rho
    if L == 2:
        if not 2.0 * rho < 1.0:
            raise DomainError("rho too large for the list-of-2 case (needs 2 rho < 1)")
    elif (q, L) == (2, 4):
        each_rho([rho], _ld4_domain)
    elif q >= 3 and L == 3:
        each_rho([rho], functools.partial(_ld3_domain, q))
    else:
        raise UnsupportedError(
            f"no established case analysis for q={q}, L={L}; "
            "supported: (q=2, L in {2,4}) and (q>=3, L in {2,3})"
        )
    res = opt_polytope_2d(*_class_problem(q, 1, L), L * rho, q)
    row = _rate_rows([res], L)[0]
    cases = {"full_support_compression": res.value / (L - 1)}
    bound = row["rlc"]
    low = _low_dimension_case(q, L, rho)
    if low is not None:
        cases["low_dimension_boundary"] = low
        bound = min(bound, 1.0 - low)
    return ThresholdReport(
        family="rlc-lower", q=q, ell=1, L=L, rho=rho,
        value=min(max(bound, 0.0), 1.0), method="kkt",
        argmax={"free_class_masses": res.x},
        inner_kernel=rref_of([[1] * L], q),
        details={"case_values": cases, "identity_kernel_reading": row["rc"]},
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

    Past rho = 1/4 orange is the vertex value: it reads h2(2 rho) where
    2 rho > 1/2, so it falls below the face maximum h2(min(2 rho, 1/2)) that
    `rlc_lower_generic` subtracts (`_low_dimension_case`).  The
    `figure1.csv` fixture pins orange as it is; the test suite checks that
    blue dominates the face maximum too.
    """
    grid = np.asarray(list(rho_grid), dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 5.0 / 16.0):
        raise DomainError("grid must lie inside (0, 5/16)")
    solves = _solve_classes(2, 1, 4, grid)
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

    The subtracted term is the objective of `_class_problem(2, 1, 3)`,
    F(x1) = h2(x1) + x1 log2(3), at the vertex x1 = 3r.  F peaks at x1 = 3/4
    with value 2, so the vertex is the optimum only for r <= 1/4 (the binary
    Plotkin point for list size 2).  Beyond that this is a vertex value, not
    the comparison against the optimum; it turns nonnegative near r = 0.281.
    `negativity_optimum_values` gives the comparison on the whole interval.
    """
    grid = np.asarray(list(rho_grid), dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 1.0 / 3.0):
        raise DomainError("grid must lie inside (0, 1/3)")
    (c,), _ = _class_problem(2, 1, 3)
    out = []
    for r in grid:
        v = 2.0 * hq_multi(2, [0.0, 1.5 * r]) - hq_multi(2, [3.0 * r, 0.0]) - 3.0 * r * float(c)
        out.append(v)
    return np.asarray(out)


def negativity_optimum_values(rho_grid) -> np.ndarray:
    """2 h2(3r/2) - max F on the grid, F = h2(x1) + x1 log2(3) over x1 <= 3r.

    The maxima are taken by one `max_entropy` call; F is the objective of
    `_class_problem(2, 1, 3)`, the q = 2 case of the list-of-3 family, whose
    class of three distinct values is empty.  It equals
    `negativity_values` for r <= 1/4, where the optimum is the vertex x1 = 3r,
    and past that the optimum is x1 = 3/4 with value 2.
    """
    grid = np.asarray(list(rho_grid), dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 1.0 / 3.0):
        raise DomainError("grid must lie inside (0, 1/3)")
    opt = _solve_classes(2, 1, 3, grid)
    return np.asarray([2.0 * hq(2, 1.5 * r) - o.value for r, o in zip(grid, opt)])


# ---------------------------------------------------------------------------
# list sizes and the large-list regime


def _listsize_logc(q: int, ell: int, rho: float, eps: float, delta: float) -> float:
    """log_q C(q, ell), once eps, delta, q, ell and rho are validated."""
    if not 0.0 < eps < math.inf:
        raise DomainError("eps must be positive and finite")
    if not 0.0 <= delta < math.inf:
        raise DomainError("delta must be nonnegative and finite")
    LRSpec(q=q, ell=ell, L=1, rho=rho)  # validates q, ell, rho
    return math.log(math.comb(q, ell)) / math.log(q)


def lr_listsize_lower_rlc(q: int, ell: int, rho: float, eps: float, delta: float) -> int:
    """Output list size forced on the linear ensemble at rate capacity - eps.

    The rate in the formula is R = 1 - h_{q,ell}(rho), capacity itself: the
    value is floor((log_q C(q, ell) - (1 - h))/eps - delta).  Reading R as the
    code rate 1 - h - eps instead adds exactly 1 before the floor; at q = 2,
    rho = 0.1, eps = 0.05 the two readings are 9.38 and 10.38, and this
    returns 9.
    """
    logc = _listsize_logc(q, ell, rho, eps, delta)
    return math.floor((logc - (1.0 - hql(q, ell, rho))) / eps - delta)


def lr_listsize_rc(q: int, ell: int, rho: float, eps: float, delta: float) -> tuple[int, int]:
    """(lower, upper) list sizes for the plain ensemble near capacity."""
    logc = _listsize_logc(q, ell, rho, eps, delta)
    lower = math.floor(logc / eps - delta)
    upper = math.ceil(logc / eps) + 1
    return lower, upper


def _check_largelist(rho: float, L: int, delta: float) -> None:
    if L < 2:
        raise DomainError("list size must be >= 2")
    if not delta > 0.0:
        raise DomainError("delta must be positive")
    if not 0.0 < rho < 0.5:
        raise DomainError("rho must lie in (0, 1/2)")
    if not L - 1 - 2 * delta > 0.0:
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

    Only the zero kernel and the kernels that contain the all-ones vector 1
    are pushed forward (`subspaces.ones_kernel_table`); `kernels` counts them.
    Every minimum above is reached among them.  Lemma: for a k-dim kernel
    K != 0 with 1 not in K, some k-dim K'' containing 1 has
    H(A_K'' tau) <= H(A_K tau), with the same image dimension L - k.
      1. tau is invariant under u -> u + a*1 (S -> S + a permutes the
         ell-subsets), so A_K tau is uniform along A_K span(1), a line, and
         H(A_K tau) = H(A_{K+<1>} tau) + 1.
      2. K + <1> contains a k-dim K'' that contains 1; quotienting by K'' and
         then by the line (K + <1>)/K'' loses at most one q-ary unit, so
         H(A_K'' tau) <= H(A_{K+<1>} tau) + 1 = H(A_K tau).
      3. The support of tau spans GF(q)^L (0 and every unit vector have
         mass), so every k-dim image has dimension L - k, and each floor is
         the same at K and K''.
    Among exactly equal float minima the worst kernel is the first in
    `iter_rref_bases` order, as in a sweep of every kernel.  That rule picks
    by rounding among mathematical ties: at (2, 1, 5, 0.2) the C(5, 2)
    two-coordinate-sum kernels tie, one of them rounds 2 ulp lower, and the
    report names it (4-dim index 29, kernel 371 counting all proper kernels
    from 0), not the first of the ten (index 1, kernel 343).
    """
    if not delta >= 0.0:
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
    tables = [(0, *kernel_entropy_table(tau, 0), np.zeros(1, dtype=np.int64))]
    tables += [(k, *ones_kernel_table(tau, k)) for k in range(1, L)]
    for k, H, D, T in tables:
        kernels += H.size
        slack = H - (D * h + logc - 1.0 + h - delta)
        ties = np.flatnonzero(slack == slack.min())
        i = ties[np.argmin(T[ties])]  # first minimum, as in enumeration order
        if slack[i] < min_slack:
            min_slack = float(slack[i])
            worst = kernel_at(q, L, k, int(T[i]))
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
