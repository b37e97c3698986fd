"""Reference implementations that the tests check the library against.

Each is a direct, unvectorized form of something the library computes in
bulk: `_poly_mul_mod` multiplies polynomials over GF(p) modulo the defining
polynomial, the product rule behind an extension field's tables;
`matvec_apply` applies one matrix to one vector with the scalar field
operations, the rule behind `fields.matvec_all`; `dim_of_type` ranks the
support of a type, the image dimension of a kernel table row;
`coincidence_walk` tallies every vector of GF(q)^L by its coincidence shape,
the counts `typespace.shape_tally` forms from partitions;
`all_kernel_slack_report` takes the minima of `engine.kernel_slack_report`
over every proper kernel, not only the zero kernel and those through the
all-ones vector; `bisection_max_entropy` finds `engine.max_entropy`'s
multiplier by bisecting the budget equation step by step, where the library
replays that bisection from a Newton root; `dual_30` evaluates the dual one
point at a time in 30-digit mpmath, and `rate_columns_30` forms the rate
columns from it, where the library uses one double-double pass per grid;
`dense_greedy` runs the potential greedy on a dense 2^n profile, where the
library scores a candidate on the coset fibers of the ball;
`gathered_balls` stamps list balls by one 2-D gather per coordinate from
the scaled shift table, where the library takes rows of a per-coordinate
table by the words' digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from thresholds import engine
from thresholds import simulate as sim
from thresholds.errors import DomainError, NoCandidateError, SizeCapError
from thresholds.fields import FieldSpec, digits_of, make_field, row_reduce, vec_table
from thresholds.infomeasures import hq, hql
from thresholds.subspaces import kernel_at, kernel_entropy_table
from thresholds.typespace import LRSpec, TypeDist, bad_type


def _poly_mul_mod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    """Multiply coefficient lists a*b modulo the monic `modulus`, coefficients mod p."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    # reduce: x^m = -(modulus[0] + ... + modulus[m-1] x^{m-1})
    for deg in range(len(prod) - 1, m - 1, -1):
        c = prod[deg]
        if c == 0:
            continue
        prod[deg] = 0
        for j in range(m):
            prod[deg - m + j] = (prod[deg - m + j] - c * modulus[j]) % p
    out = prod[:m]
    out += [0] * (m - len(out))
    return out



def matvec_apply(A, v, fs: FieldSpec) -> tuple[int, ...]:
    """Apply a rows x cols matrix (list of rows of element codes) to a vector."""
    A = [list(row) for row in A]
    v = list(v)
    if not A:
        raise DomainError("matrix must have at least one row")
    cols = len(A[0])
    if any(len(row) != cols for row in A):
        raise DomainError("ragged matrix rows")
    if len(v) != cols:
        raise DomainError(f"matrix has {cols} columns, vector has {len(v)}")
    out = []
    for row in A:
        acc = 0
        for a, x in zip(row, v):
            acc = fs.add(acc, fs.mul(a, x))
        out.append(acc)
    return tuple(out)



def gathered_balls(q: int, n: int, r: int, ell: int, words) -> np.ndarray:
    """The radius-r list balls of the words as packed cells, shape (k, V):
    coordinate i adds shift[c_i, offsets[i]] * C(q, ell)^i, one 2-D fancy
    index of the scaled shift table by the digit column and the offsets."""
    offsets, shift = sim._zero_list_ball(q, n, r, ell)
    radix = math.comb(q, ell) ** np.arange(n, dtype=np.int64)
    scaled = shift[None, :, :] * radix[:, None, None]
    dig = digits_of(np.asarray(words, dtype=np.int64), q, n)
    out = scaled[0][dig[:, :1], offsets[0]]
    for i in range(1, n):
        out += scaled[i][dig[:, i:i + 1], offsets[i]]
    return out


def dim_of_type(tau: TypeDist) -> int:
    """Dimension of the span of the support of tau."""
    return len(row_reduce(vec_table(tau.q, tau.b)[tau.probs > 0], make_field(tau.q))[1])



def coincidence_walk(q: int, L: int) -> dict[tuple[int, ...], int]:
    """The number of vectors of GF(q)^L with each coincidence shape, found by
    visiting all q^L vectors."""
    sizes: dict[tuple[int, ...], int] = {}
    for digits in vec_table(q, L):
        counts: dict[int, int] = {}
        for d in digits.tolist():
            counts[d] = counts.get(d, 0) + 1
        shape = tuple(sorted(counts.values(), reverse=True))
        sizes[shape] = sizes.get(shape, 0) + 1
    return sizes


def all_kernel_slack_report(q: int, ell: int, rho: float, L: int, delta: float) -> dict:
    """The minima of `engine.kernel_slack_report` over every proper kernel:
    each `kernel_entropy_table` read whole, the worst kernel the first strict
    minimum in enumeration order."""
    tau = TypeDist(q, L, bad_type(LRSpec(q=q, ell=ell, L=L, rho=rho)).marginal("x"))
    h = hql(q, ell, rho)
    logc = math.log(math.comb(q, ell)) / math.log(q)
    out = {"min_slack": math.inf, "worst_kernel": None, "kernels": 0,
           "per_dim_min_slack": {}, "identity_kernel_entropy": None,
           "per_dimension_floor_min_slack": math.inf}
    per_dim = out["per_dim_min_slack"]
    for k in range(L):
        H, D = kernel_entropy_table(tau, k)
        out["kernels"] += H.size
        slack = H - (D * h + logc - 1.0 + h - delta)
        t = int(np.argmin(slack))
        if slack[t] < out["min_slack"]:
            out["min_slack"], out["worst_kernel"] = float(slack[t]), kernel_at(q, L, k, t)
        for d in set(D.tolist()):
            per_dim[d] = min(per_dim.get(d, math.inf), float(slack[D == d].min()))
        out["per_dimension_floor_min_slack"] = min(
            out["per_dimension_floor_min_slack"],
            float((H - D * (h + (logc - 1.0 + h - delta) / L)).min()))
        if k == 0 and D[0] == L:
            out["identity_kernel_entropy"] = float(H[0])
    return out


def bisection_max_entropy(weights, gaps, budgets, q: int) -> list[tuple]:
    """`engine.max_entropy` with its multiplier found by plain bisection, as
    (x, value, method, deficit, lam, rounds) per budget.

    Every edge budget starts from the bracket [0, 1], doubled while the load
    at its top exceeds the budget, then halved down to adjacent floats and
    read on the feasible side; `rounds` counts the doublings and halvings.
    Each step computes the load with `engine._gibbs`, and the dual is the
    library's, so the tuples must equal `max_entropy`'s fields bit for bit.
    """
    b = np.asarray(budgets, dtype=np.float64)
    gaps = tuple(engine._gap(v) for v in gaps)
    dd = tuple(engine._weight(v) for v in weights)
    w = np.array([hi for hi, _ in dd]).reshape(-1, 1)
    g = np.array(gaps, dtype=np.float64).reshape(-1, 1)

    def above(lam):
        return engine._gibbs(w, g, lam, q)[1] > b

    edge = above(np.zeros(b.size))
    lo, hi = np.zeros(b.size), np.where(edge, 1.0, 0.0)
    rounds = np.zeros(b.size, dtype=np.int64)
    grow = edge & above(hi)
    while grow.any():
        rounds += grow
        lo, hi = np.where(grow, hi, lo), np.where(grow, 2.0 * hi, hi)
        grow &= above(hi)
    mid = 0.5 * (lo + hi)
    active = (lo < mid) & (mid < hi)
    while active.any():
        rounds += active
        up = above(mid)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        mid = 0.5 * (lo + hi)
        active = (lo < mid) & (mid < hi)
    x = engine._gibbs(w, g, hi, q)[0].T.tolist()

    poly, z0, logz0 = engine._dual_terms(dd, gaps, q)
    lam, bud = (float(hi[0]), float(b[0])) if b.size == 1 else (hi, b)
    d = engine._deficit(poly, z0, lam, bud, engine._dd_ln(q))
    value = engine._dd_round(engine._dd_add(logz0, d))
    deficits = list(zip(engine._as_list(d[0]), engine._as_list(d[1])))
    return [(tuple(x[i]), value[i], "edge" if edge[i] else "interior", deficits[i], lam_i,
             int(rounds[i])) for i, lam_i in enumerate(hi.tolist())]


def dual_30(weights, gaps, lam: float, budget: float, q: int) -> mpmath.mpf:
    """The dual log_q Z(lam) + lam * budget at 30 digits, Z(lam) =
    1 + sum w exp(-lam g ln q) over the classes, weights taken unrounded."""
    with mpmath.workdps(30):
        lnq = mpmath.log(q)
        lam_mp = mpmath.mpf(lam)
        z = 1 + mpmath.fsum(w * mpmath.exp(-lam_mp * g * lnq) for w, g in zip(weights, gaps))
        return mpmath.log(z) / lnq + lam_mp * budget


def rate_columns_30(value: mpmath.mpf, L: int, low: float | None = None) -> dict[str, float]:
    """The rates 1 - value/(L - 1) and 1 - (1 + value)/L of a dual value over
    GF(q)^L and, given the low-dimension case, the margin value/2 - low, each
    formed at 30 digits and rounded once."""
    with mpmath.workdps(30):
        out = {"rlc": float(1 - value / (L - 1)), "rc": float(1 - (1 + value) / L)}
        if low is not None:
            out["dominance"] = float(value / 2 - low)
    return out


@dataclass
class DenseGreedy:
    """The fields `dense_greedy` returns, the support held as cells and counts."""

    code: sim.Code
    history: list[dict]
    k: int
    cap: int
    lprime: float
    s_initial: float
    final_max_count: int
    potential_bound: float
    scanned: int
    cells: np.ndarray
    counts: np.ndarray

    @property
    def support(self) -> int:
        return int(self.cells.size)


def is_tie(n: int, hist: list[int], new_hist: list[int]) -> bool:
    """Whether 2^n P_new = P^2 coefficient by coefficient, P and P_new the
    polynomials in 2^alpha whose coefficients count the centres at each
    profile value: then S_new = S^2 exactly."""
    square = [0] * (2 * len(hist) - 1)
    for i, a in enumerate(hist):
        for j, b in enumerate(hist):
            square[i + j] += a * b
    return [c << n for c in new_hist] == square


def dense_greedy(
    n: int,
    rho: float,
    L: int,
    delta: float,
    rng: np.random.Generator,
    k: int | None = None,
) -> DenseGreedy:
    """`simulate.greedy_potential_code` as it stood with a dense profile.

    It holds the occupancy profile as a 2^n lookup `P` beside its support
    `cells` and the values `counts` there, and scores a candidate v by
    gathering P at cells + v.  Its candidates come from
    `simulate._candidate_order`, looked up at call time, so a test that
    replaces the order replaces it here too.  The potential is summed in
    50-digit mpmath; a candidate with S_new <= S^2 at that precision, or
    with 2^n P_new = P^2 as integer polynomials in 2^alpha (an exact tie),
    is accepted.  The bound is top + L' log2(M) / n, M = 2^(n - alpha top) S
    summed at 50 digits, so that a uniform profile gives exactly top + L'.
    """
    if not 0.0 < rho < 0.5:
        raise DomainError("rho must lie in (0, 1/2)")
    if L < 2:
        raise DomainError("list size must be >= 2")
    if not delta > 0.0:
        raise DomainError("delta must be positive")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    N = 1 << n
    if N > sim._CENTER_CAP:
        raise SizeCapError(f"2^n = {N} exceeds the cap on the profile lookup")
    h = hq(2, rho)
    num = L - 1 - 2.0 * delta
    if not num > 0.0:
        raise DomainError("need L - 1 - 2 delta > 0")
    lprime = num / h
    theorem_k = math.floor((1.0 - h - 1.0 / lprime - delta) * n)
    k = max(1, theorem_k) if k is None else k
    if not 1 <= k <= n:
        raise DomainError(f"target dimension must lie in [1, {n}], got {k}")
    r = sim.radius_of(rho, n)

    # B(0, r) is symmetric in the coordinates, so packing coordinate 0 as the
    # top bit lists the ball in ascending order; its translates then stay in
    # runs of nearby centres, which keeps the gathers from P local
    offsets, _ = sim._zero_list_ball(2, n, r, 1)
    cells = (2 ** np.arange(n - 1, -1, -1, dtype=np.int64) @ offsets).astype(np.int32)
    counts = np.ones(cells.size, dtype=np.int32)
    P = np.zeros(N, dtype=np.int32)
    P[cells] = counts

    with mpmath.workdps(50):
        alpha = mpmath.mpf(n) / mpmath.mpf(lprime)

        def centres(values: np.ndarray) -> list[int]:
            # the profile is `values` on the support and 0 on the other centres
            hist = np.bincount(values)
            hist[0] = N - values.size
            return [int(c) for c in hist]

        def scaled_sum(hist: list[int], top: int) -> mpmath.mpf:
            # sum_v hist[v] 2^(alpha (v - top))
            acc = mpmath.mpf(0)
            for v, c in enumerate(hist):
                if c:
                    acc += c * mpmath.power(2, alpha * (v - top))
            return acc

        def potential(hist: list[int]) -> mpmath.mpf:
            return scaled_sum(hist, 0) / mpmath.power(2, n)

        hist = centres(counts)
        S = potential(hist)
        s_initial = float(S)
        span = {0}
        basis: list[int] = []
        history: list[dict] = []
        scanned = 0
        drawn: list[int] = []  # the order's prefix, rescanned at every step
        draws = sim._candidate_order(rng, N - 1)

        def order():
            yield from drawn
            for v in draws:
                drawn.append(v)
                yield v

        for step in range(1, k + 1):
            target = S * S
            accepted = None
            for v in order():
                if v in span:
                    continue
                scanned += 1
                moved = cells ^ v
                there = P[moved]
                fresh = there == 0
                values = np.concatenate((counts + there, counts[fresh]))
                new_hist = centres(values)
                Sn = potential(new_hist)
                if Sn <= target or is_tie(n, hist, new_hist):
                    accepted = v
                    history.append({
                        "step": step,
                        "vector": v,
                        "s_before": float(S),
                        "s_after": float(Sn),
                        "s_before_squared": float(target),
                        "ok": True,
                    })
                    cells = np.concatenate((cells, moved[fresh]))
                    counts, S, hist = values, Sn, new_hist
                    P[cells] = counts
                    span |= {w ^ v for w in span}
                    basis.append(v)
                    break
            if accepted is None:
                raise NoCandidateError(
                    f"no extension at step {step} keeps the potential squared", history
                )

        top = len(hist) - 1
        potential_bound = float(top + lprime * mpmath.log(scaled_sum(hist, top), 2) / n)
    cap = math.floor(lprime * h + 1.0 + delta)
    final_max = int(counts.max())
    if final_max > potential_bound * (1 + 1e-12):
        raise AssertionError(
            f"list size {final_max} exceeds the potential bound {potential_bound}"
        )
    if k == theorem_k and final_max > cap:
        raise AssertionError(
            f"potential chain held but list size {final_max} exceeds cap {cap}"
        )
    gen = digits_of(np.asarray(basis, dtype=np.int64), 2, n) if basis else None
    code = sim.Code(q=2, n=n, words=np.asarray(sorted(span), dtype=np.int64),
                    kind="linear", generator=gen)
    return DenseGreedy(code=code, history=history, k=k, cap=cap, lprime=lprime,
                       s_initial=s_initial, final_max_count=final_max,
                       potential_bound=potential_bound, scanned=scanned,
                       cells=cells, counts=counts)
