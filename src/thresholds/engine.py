"""Threshold bounds and verification reports.

The optimizations all have the same shape: maximize a concave entropy
objective H_q(x1, x2) + c1 x1 + c2 x2 over a small polytope in the plane.
Candidates are the interior stationary point (closed form) and golden-section
maxima along the boundary segments; a dense-grid sweep certifies the result in
the test suite.

Threshold bounds follow from the orbit reduction: averaging a type over
coordinate permutations and alphabet relabelings preserves the defining
constraints and cannot decrease entropy, so the outer maximization may be
restricted to types that are uniform on each coincidence class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DomainError, EmptyPolytopeError, UnsupportedError
from .fields import make_field
from .infomeasures import hq, hq_multi, hql
from .subspaces import SubspaceRREF, iter_rref_bases, kernel_entropy_table, rref_of
from .typespace import LRSpec, bad_type, coincidence_orbits

STRICT_MARGIN = 1e-9
GOLDEN_TOL = 1e-10


def fmt12(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# the planar optimizer


@dataclass
class Polytope2D:
    """Intersection of {a1 x1 + a2 x2 <= rhs} halfplanes with the quadrant x >= 0."""

    constraints: list[tuple[float, float, float]]

    def _all_halfplanes(self):
        return list(self.constraints) + [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]

    def contains(self, x1: float, x2: float, tol: float = 1e-9) -> bool:
        return all(a1 * x1 + a2 * x2 <= rhs + tol for a1, a2, rhs in self._all_halfplanes())

    def vertices(self) -> list[tuple[float, float]]:
        """All feasible pairwise line intersections; raises if none exist."""
        hps = self._all_halfplanes()
        pts = []
        for i in range(len(hps)):
            a1, a2, r1 = hps[i]
            for j in range(i + 1, len(hps)):
                b1, b2, r2 = hps[j]
                det = a1 * b2 - a2 * b1
                if abs(det) < 1e-14:
                    continue
                x1 = (r1 * b2 - r2 * a2) / det
                x2 = (a1 * r2 - b1 * r1) / det
                if self.contains(x1, x2, tol=1e-9):
                    pts.append((x1, x2))
        uniq: list[tuple[float, float]] = []
        for p in pts:
            if not any(abs(p[0] - u[0]) < 1e-11 and abs(p[1] - u[1]) < 1e-11 for u in uniq):
                uniq.append(p)
        if not uniq:
            raise EmptyPolytopeError("no feasible vertex")
        return uniq

    def check_bounded(self) -> None:
        """Exact recession-cone test: a nonzero direction d >= 0 with a.d <= 0
        for every halfplane would make the region unbounded.  If such a cone is
        nonzero it has an extreme ray along an axis or a constraint boundary,
        so testing those finitely many candidates is conclusive."""
        cands = [(1.0, 0.0), (0.0, 1.0)]
        for a1, a2, _ in self.constraints:
            for d in ((a2, -a1), (-a2, a1)):
                if d[0] >= -1e-12 and d[1] >= -1e-12 and (d[0] > 1e-12 or d[1] > 1e-12):
                    cands.append(d)
        for d in cands:
            if all(a1 * d[0] + a2 * d[1] <= 1e-12 for a1, a2, _ in self.constraints):
                raise DomainError(f"polytope unbounded along direction {d}")

    def edges(self) -> list[tuple[tuple[float, float], tuple[float, float]]]:
        """Feasible segment of each halfplane boundary, as vertex pairs."""
        verts = self.vertices()
        segs = []
        for a1, a2, rhs in self._all_halfplanes():
            on = [v for v in verts if abs(a1 * v[0] + a2 * v[1] - rhs) < 1e-8]
            if len(on) < 2:
                continue
            # order along the line direction and take the extreme pair
            d = (-a2, a1)
            on.sort(key=lambda v: v[0] * d[0] + v[1] * d[1])
            segs.append((on[0], on[-1]))
        return segs


@dataclass
class OptResult:
    x: tuple[float, float]
    value: float
    method: str


def _objective(q: int, c1: float, c2: float, x1: float, x2: float) -> float:
    """H_q(x1, x2) + c1 x1 + c2 x2 with gentle clamping against float drift."""
    x1 = min(max(x1, 0.0), 1.0)
    x2 = min(max(x2, 0.0), 1.0)
    rest = 1.0 - x1 - x2
    if rest < 0.0:
        rest = 0.0
    out = 0.0
    for m in (x1, x2, rest):
        if m > 0.0:
            out -= m * math.log(m)
    return out / math.log(q) + c1 * x1 + c2 * x2


def _golden_max(f, lo: float, hi: float, xtol: float = GOLDEN_TOL) -> tuple[float, float]:
    """Golden-section maximum of a unimodal f on [lo, hi]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    cands = [(f(lo), lo), (f(hi), hi), (fc, c), (fd, d)]
    best = max(cands)
    return best[1], best[0]


def opt_polytope_2d(coeffs: tuple[float, float], q: int, P: Polytope2D) -> OptResult:
    """Global maximum of H_q(x1,x2) + c1 x1 + c2 x2 over P.

    The objective is strictly concave on the simplex, so the maximum is either
    the interior stationary point x_i* = q^{c_i} / (1 + q^{c1} + q^{c2}) or a
    point on the boundary, found by golden-section along each edge.
    """
    c1, c2 = coeffs
    P.check_bounded()
    verts = P.vertices()  # raises EmptyPolytopeError if infeasible

    w = 1.0 + q**c1 + q**c2
    sx1, sx2 = q**c1 / w, q**c2 / w
    if P.contains(sx1, sx2, tol=1e-12):
        return OptResult(x=(sx1, sx2), value=_objective(q, c1, c2, sx1, sx2), method="interior")

    best = OptResult(x=verts[0], value=-math.inf, method="vertex")
    for v in verts:
        val = _objective(q, c1, c2, v[0], v[1])
        if val > best.value:
            best = OptResult(x=v, value=val, method="vertex")
    for v0, v1 in P.edges():
        dx, dy = v1[0] - v0[0], v1[1] - v0[1]

        def along(t, v0=v0, dx=dx, dy=dy):
            return _objective(q, c1, c2, v0[0] + t * dx, v0[1] + t * dy)

        t, val = _golden_max(along, 0.0, 1.0)
        if val > best.value:
            best = OptResult(x=(v0[0] + t * dx, v0[1] + t * dy), value=val, method="edge")
    return best


# ---------------------------------------------------------------------------
# closed-form families


def _max_binary_l4(rho: float) -> OptResult:
    poly = Polytope2D([(1.0, 2.0, 4.0 * rho), (1.0, 1.0, 1.0)])
    return opt_polytope_2d((2.0, math.log2(3.0)), 2, poly)


def _max_qary_l3(q: int, rho: float) -> OptResult:
    lq = math.log(q)
    c1 = math.log(3.0 * (q - 1)) / lq
    c2 = math.log((q - 1.0) * (q - 2.0)) / lq
    poly = Polytope2D([(1.0, 2.0, 3.0 * rho), (1.0, 1.0, 1.0)])
    return opt_polytope_2d((c1, c2), q, poly)


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

    def to_json_dict(self) -> dict:
        d = {
            "family": self.family,
            "q": self.q,
            "ell": self.ell,
            "L": self.L,
            "rho": self.rho,
            "value": self.value,
            "method": self.method,
            "argmax": {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.argmax.items()},
            "details": self.details,
        }
        if self.inner_kernel is not None:
            d["inner_kernel"] = [list(r) for r in self.inner_kernel.basis]
        return d


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

    def to_csv(self) -> str:
        lines = ["rho,value,family,method"]
        for r, v in zip(self.rho_grid, self.values):
            lines.append(f"{fmt12(r)},{fmt12(v)},{self.family},{self.method}")
        return "\n".join(lines) + "\n"


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

    The maximum runs over the orbit polytope described in `_orbit_setup`;
    one free class is solved in closed form, two by the planar optimizer.
    """
    _exact_mode_check(spec)
    classes, log0, cs, gaps = _orbit_setup(spec)
    if len(cs) > 2:
        raise UnsupportedError("orbit reduction with more than two free classes")
    L, q = spec.L, spec.q
    budget = L * spec.rho
    if not cs:
        maxF = 0.0
        x = ()
        method = "closed_form"
    elif len(cs) == 1:
        # H_q(x, 1 - x) + c x is concave in x: its stationary point
        # q^c / (1 + q^c), cut back to the budget
        x1 = q ** cs[0] / (1.0 + q ** cs[0])
        if gaps[0]:
            x1 = min(x1, budget / gaps[0])
        maxF = _objective(q, cs[0], 0.0, x1, 0.0)
        x = (x1,)
        method = "kkt"
    else:
        poly = Polytope2D([(float(gaps[0]), float(gaps[1]), budget), (1.0, 1.0, 1.0)])
        res = opt_polytope_2d((cs[0], cs[1]), q, poly)
        maxF = res.value
        x = res.x
        method = "kkt"
    raw = 1.0 - (log0 + maxF) / L
    value = min(max(raw, 0.0), 1.0)
    masses = {"free_class_masses": tuple(x), "constant_class_mass": 1.0 - sum(x)}
    return ThresholdReport(
        family="rc",
        q=q,
        ell=spec.ell,
        L=L,
        rho=spec.rho,
        value=value,
        method=method,
        argmax=masses,
        details={"max_entropy": log0 + maxF, "raw_value": raw,
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
    # q = 2: the x2 class is empty, (q-1)(q-2) = 0, so x2 is pinned to 0
    poly = Polytope2D([(1.0, 2.0, 3.0 * rho), (1.0, 1.0, 1.0), (0.0, 1.0, 0.0)])
    return opt_polytope_2d((math.log2(3.0), 0.0), 2, poly)


def negativity_optimum_values(rho_grid) -> np.ndarray:
    """2 h2(3r/2) - max F on the grid, F = h2(x1) + x1 log2(3) over x1 <= 3r.

    The maximum is taken by the planar optimizer.  It equals
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
