"""Distributions over GF(q)^b ("types"), their linear images, and the
constraint set that drives the threshold optimizations.

A TypeDist is a probability vector over all q^b column vectors, indexed by the
little-endian packing from `fields`.  A JointTypeDist couples such a vector
with an ell-element subset of the alphabet; it is the witness object for
membership in the constrained family checked by `t_membership`.

Masses are floats for all numeric work.  Where exactness matters (the
membership LP sits on the boundary of the feasible region for the canonical
family built by `bad_type`), an optional parallel table of Fractions is
carried along and used by the LP instead of the floats.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DigitOutOfRangeError,
    DomainError,
    LengthMismatchError,
    ShapeMismatchError,
    SizeCapError,
    UnsupportedError,
)
from .fields import FieldSpec, make_field, matvec_all, row_reduce, vec_table

_LP_SIZE_CAP = 4096
_ORBIT_L_CAP = 6


# ---------------------------------------------------------------------------
# containers


@dataclass
class TypeDist:
    """Distribution over GF(q)^b, indexed by packed vector index."""

    q: int
    b: int
    probs: np.ndarray
    exact: tuple[Fraction, ...] | None = None
    tol: float = 1e-12

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.shape != (self.q**self.b,):
            raise ShapeMismatchError(
                f"expected {self.q ** self.b} masses for q={self.q}, b={self.b}, "
                f"got shape {self.probs.shape}"
            )
        if np.any(self.probs < -self.tol):
            raise DomainError("negative probability mass")
        self.probs = np.clip(self.probs, 0.0, None)
        total = float(self.probs.sum())
        if abs(total - 1.0) > max(self.tol, 1e-9):
            raise DomainError(f"masses sum to {total}")
        if self.exact is not None:
            if len(self.exact) != len(self.probs):
                raise ShapeMismatchError("exact masses have the wrong length")
            if sum(self.exact) != 1:
                raise DomainError("exact masses do not sum to 1")

    def support(self, eps: float = 0.0) -> np.ndarray:
        return np.flatnonzero(self.probs > eps)

    def entropy(self) -> float:
        """Entropy in base-q units."""
        m = self.probs[self.probs > 0]
        return float(-(m * np.log(m)).sum()) / math.log(self.q)

    def to_json(self) -> str:
        return json.dumps({"q": self.q, "b": self.b, "probs": self.probs.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "TypeDist":
        d = json.loads(text)
        return cls(q=int(d["q"]), b=int(d["b"]), probs=np.asarray(d["probs"]))


@dataclass
class LRSpec:
    """Parameters (q, ell, L, rho) of a list-recovery style constraint family."""

    q: int
    ell: int
    L: int
    rho: float

    def __post_init__(self):
        make_field(self.q)  # validates prime power and cap
        if not 1 <= self.ell < self.q:
            raise DomainError(f"need 1 <= ell < q, got ell={self.ell}, q={self.q}")
        if self.L < 1:
            raise DomainError(f"list size must be >= 1, got {self.L}")
        lim = 1.0 - self.ell / self.q
        if not 0.0 < self.rho < lim:
            raise DomainError(f"rho must lie in (0, {lim}), got {self.rho}")


@dataclass
class JointTypeDist:
    """Joint distribution of (v in GF(q)^L, S an ell-subset of the alphabet).

    `table[vidx, sidx]` is the joint mass; `subsets[sidx]` is the sorted tuple
    of alphabet symbols forming S.  Subsets are enumerated in lexicographic
    order, which fixes sidx.
    """

    q: int
    ell: int
    L: int
    table: np.ndarray
    exact: tuple[tuple[Fraction, ...], ...] | None = None
    tol: float = 1e-12

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.float64)
        C = math.comb(self.q, self.ell)
        if self.table.shape != (self.q**self.L, C):
            raise ShapeMismatchError(
                f"expected shape {(self.q ** self.L, C)}, got {self.table.shape}"
            )
        if np.any(self.table < -self.tol):
            raise DomainError("negative probability mass")
        self.table = np.clip(self.table, 0.0, None)
        total = float(self.table.sum())
        if abs(total - 1.0) > max(self.tol, 1e-9):
            raise DomainError(f"masses sum to {total}")

    @property
    def subsets(self) -> list[tuple[int, ...]]:
        return list(itertools.combinations(range(self.q), self.ell))

    def u_marginal(self) -> TypeDist:
        exact = None
        if self.exact is not None:
            exact = tuple(sum(row) for row in self.exact)
        return TypeDist(q=self.q, b=self.L, probs=self.table.sum(axis=1), exact=exact)

    def subset_marginal(self) -> np.ndarray:
        return self.table.sum(axis=0)

    def coord_entropy_given_subset(self, i: int) -> float:
        """H(u_i | S) in base-q units."""
        if not 0 <= i < self.L:
            raise DomainError(f"coordinate {i} outside [0, {self.L})")
        digits = vec_table(self.q, self.L)[:, i]
        ps = self.subset_marginal()
        out = 0.0
        for sidx in range(self.table.shape[1]):
            if ps[sidx] <= 0:
                continue
            cond = np.bincount(digits, weights=self.table[:, sidx], minlength=self.q) / ps[sidx]
            cond = cond[cond > 0]
            out += ps[sidx] * float(-(cond * np.log(cond)).sum())
        return out / math.log(self.q)

    def to_json(self) -> str:
        return json.dumps(
            {"q": self.q, "ell": self.ell, "L": self.L, "table": self.table.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "JointTypeDist":
        d = json.loads(text)
        return cls(q=int(d["q"]), ell=int(d["ell"]), L=int(d["L"]), table=np.asarray(d["table"]))


@dataclass
class MatrixInstance:
    """n sample rows, each a vector in GF(q)^b (one matrix row per sample)."""

    q: int
    b: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.int64)
        if self.entries.ndim != 2 or self.entries.shape[1] != self.b:
            raise ShapeMismatchError(
                f"expected an (n, {self.b}) array, got shape {self.entries.shape}"
            )
        if self.entries.size and (self.entries.min() < 0 or self.entries.max() >= self.q):
            raise DigitOutOfRangeError("matrix entry outside [0, q)")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def row_indices(self) -> np.ndarray:
        mults = self.q ** np.arange(self.b, dtype=np.int64)
        return self.entries @ mults

    def to_csv(self) -> str:
        lines = [",".join(str(int(x)) for x in row) for row in self.entries]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_csv(cls, text: str, q: int, b: int) -> "MatrixInstance":
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != b:
                raise LengthMismatchError(f"expected {b} entries per row, got {len(parts)}")
            rows.append([int(x) for x in parts])
        arr = np.asarray(rows, dtype=np.int64).reshape(len(rows), b)
        return cls(q=q, b=b, entries=arr)


# ---------------------------------------------------------------------------
# linear images, ranks, empirical types


def pushforward(tau: TypeDist, A, fs: FieldSpec | None = None) -> TypeDist:
    """Image distribution of tau under the linear map with matrix A (rows x b)."""
    fs = fs or make_field(tau.q)
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != 2 or A.shape[1] != tau.b:
        raise ShapeMismatchError(f"matrix shape {A.shape} incompatible with b={tau.b}")
    rows = A.shape[0]
    images = matvec_all(A, fs, tau.b)
    probs = np.bincount(images, weights=tau.probs, minlength=tau.q**rows)
    exact = None
    if tau.exact is not None and tau.q**tau.b <= _LP_SIZE_CAP:
        acc = [Fraction(0)] * (tau.q**rows)
        for idx, fr in enumerate(tau.exact):
            if fr:
                acc[int(images[idx])] += fr
        exact = tuple(acc)
    return TypeDist(q=tau.q, b=rows, probs=probs, exact=exact)


def dim_of_type(tau: TypeDist, fs: FieldSpec | None = None, eps: float = 0.0) -> int:
    """Dimension of the span of the support of tau."""
    fs = fs or make_field(tau.q)
    return len(row_reduce(vec_table(tau.q, tau.b)[tau.support(eps)], fs)[1])


def empirical_type(M: MatrixInstance) -> TypeDist:
    """Row-frequency distribution of a matrix instance."""
    if M.n == 0:
        raise DomainError("cannot take the empirical type of an empty matrix")
    counts = np.bincount(M.row_indices(), minlength=M.q**M.b)
    return TypeDist(q=M.q, b=M.b, probs=counts / M.n)


def realize_matrix(tau: TypeDist, n: int) -> MatrixInstance:
    """Best n-row integer realization of tau (largest-remainder apportionment).

    Counts are floor(n * p) plus one extra for the largest fractional parts,
    ties broken toward the lower index.  Rows come out sorted by vector index.
    """
    if n < 1:
        raise DomainError(f"need at least one row, got n={n}")
    scaled = tau.probs * n
    counts = np.floor(scaled).astype(np.int64)
    deficit = n - int(counts.sum())
    if deficit > 0:
        rem = scaled - counts
        order = sorted(range(len(rem)), key=lambda i: (-rem[i], i))
        for i in order[:deficit]:
            counts[i] += 1
    digits = vec_table(tau.q, tau.b)
    rows = np.repeat(np.arange(len(counts)), counts)
    return MatrixInstance(q=tau.q, b=tau.b, entries=digits[rows].astype(np.int64))


def sample_rows(tau: TypeDist, n: int, rng: np.random.Generator) -> MatrixInstance:
    """n i.i.d. rows from tau via inverse-CDF lookup (deterministic per rng state)."""
    if n < 1:
        raise DomainError(f"need at least one row, got n={n}")
    cum = np.cumsum(tau.probs)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.random(n), side="right")
    idx = np.clip(idx, 0, len(tau.probs) - 1)
    digits = vec_table(tau.q, tau.b)
    return MatrixInstance(q=tau.q, b=tau.b, entries=digits[idx].astype(np.int64))


# ---------------------------------------------------------------------------
# the canonical boundary family


def bad_type(spec: LRSpec) -> JointTypeDist:
    """The canonical joint type sitting on the boundary of the constraint set.

    S is uniform over ell-subsets of the alphabet; given S the L coordinates
    are i.i.d. with mass (1-rho)/ell on each symbol inside S and rho/(q-ell)
    on each symbol outside.  Masses are exact Fractions (rho is taken as the
    exact binary rational of the float), with a float view alongside.
    """
    q, ell, L = spec.q, spec.ell, spec.L
    subsets = list(itertools.combinations(range(q), ell))
    C = len(subsets)
    rho_f = Fraction(spec.rho)
    inside = (1 - rho_f) / ell
    outside = rho_f / (q - ell)
    n = q**L
    if n * C > 1 << 22:
        raise SizeCapError(f"joint table with {n * C} cells exceeds the cap")
    digits = vec_table(q, L)
    exact_rows = []
    table = np.empty((n, C), dtype=np.float64)
    for sidx, S in enumerate(subsets):
        sset = set(S)
        col = []
        for vidx in range(n):
            mass = Fraction(1, C)
            for d in digits[vidx]:
                mass *= inside if int(d) in sset else outside
            col.append(mass)
        table[:, sidx] = [float(m) for m in col]
        exact_rows.append(col)
    exact = tuple(tuple(exact_rows[sidx][vidx] for sidx in range(C)) for vidx in range(n))
    return JointTypeDist(q=q, ell=ell, L=L, table=table, exact=exact)


# ---------------------------------------------------------------------------
# membership in the constrained family (exact rational LP)


@dataclass
class MembershipReport:
    member: bool
    lp_feasible: bool
    distinct_ok: bool
    witness: JointTypeDist | None = None
    refutation: dict | None = None


def _phase1_simplex(cols: list[list[Fraction]], rhs: list[Fraction]):
    """Feasibility of {Ax = b, x >= 0} by phase-1 simplex with Bland's rule.

    `cols[j]` is column j of A; all rhs entries must be nonnegative.  Returns
    (feasible, x, y) where x is a feasible point (dict col -> value) or None,
    and y is a Farkas certificate (y.A <= 0, y.b > 0) when infeasible.
    """
    nrows = len(rhs)
    nstruct = len(cols)
    # tableau rows: [structural cols | artificial cols | rhs]
    width = nstruct + nrows + 1
    T = [[Fraction(0)] * width for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in enumerate(col):
            if v:
                T[i][j] = v
    for i in range(nrows):
        T[i][nstruct + i] = Fraction(1)
        T[i][-1] = rhs[i]
    basis = [nstruct + i for i in range(nrows)]
    # w-row: cost 1 on artificials, reduced against the artificial basis
    w = [Fraction(0)] * width
    for i in range(nrows):
        for j in range(width):
            w[j] += T[i][j]
    for i in range(nrows):
        w[nstruct + i] -= 1  # reduced cost of basic artificials is 0

    for _ in range(200000):
        enter = next((j for j in range(nstruct + nrows) if w[j] > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(nrows):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise AssertionError("phase-1 objective unbounded; inputs malformed")
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        for i in range(nrows):
            if i != leave and T[i][enter]:
                c = T[i][enter]
                T[i] = [a - c * b for a, b in zip(T[i], T[leave])]
        if w[enter]:
            c = w[enter]
            w = [a - c * b for a, b in zip(w, T[leave])]
        basis[leave] = enter
    gap = sum(T[i][-1] for i in range(nrows) if basis[i] >= nstruct)
    if gap == 0:
        x = {}
        for i, bj in enumerate(basis):
            if bj < nstruct and T[i][-1]:
                x[bj] = T[i][-1]
        return True, x, None
    # Simplex multipliers y = c_B B^{-1}: the final reduced cost of artificial
    # column i is y_i - 1, so y_i = w[nstruct+i] + 1.  At phase-1 optimality
    # y.A_j <= 0 for every real column and y.b equals the positive gap.
    y = [w[nstruct + i] + 1 for i in range(nrows)]
    return False, None, y


def t_membership(tau: TypeDist, spec: LRSpec) -> MembershipReport:
    """Decide whether tau is the u-marginal of some admissible joint type.

    Admissible means: a joint of (u_1..u_L, S) whose u-marginal is tau, with
    Pr[u_i not in S] <= rho for every coordinate, plus the open condition
    Pr[u_i != u_j] > 0 for every pair.  The closed conditions form an LP that
    is decided exactly in rational arithmetic; the open pairwise-distinctness
    condition depends only on tau and is checked directly.
    """
    q, ell, L = spec.q, spec.ell, spec.L
    if tau.q != q or tau.b != L:
        raise ShapeMismatchError(
            "type alphabet/length does not match the list-recovery parameters"
        )
    subsets = list(itertools.combinations(range(q), ell))
    C = len(subsets)
    n = q**L
    if n * C > _LP_SIZE_CAP:
        raise SizeCapError(f"LP with {n * C} variables exceeds the cap {_LP_SIZE_CAP}")

    digits = vec_table(q, L)
    tau_exact = (
        list(tau.exact)
        if tau.exact is not None
        else [Fraction(float(p)) for p in tau.probs]
    )
    rho_f = Fraction(spec.rho)

    # direct distinctness: Pr[u_i == u_j] must stay below 1 for every pair
    distinct_ok = True
    bad_pair = None
    for i in range(L):
        for j in range(i + 1, L):
            eq_mass = sum(
                tau_exact[v] for v in range(n) if digits[v][i] == digits[v][j]
            )
            if eq_mass >= 1:
                distinct_ok = False
                bad_pair = (i, j)
                break
        if not distinct_ok:
            break

    # LP variables x[v, S] laid out as v * C + sidx
    cols: list[list[Fraction]] = []
    nrows = n + L
    for v in range(n):
        for sidx, S in enumerate(subsets):
            col = [Fraction(0)] * nrows
            col[v] = Fraction(1)
            sset = set(S)
            for i in range(L):
                if int(digits[v][i]) not in sset:
                    col[n + i] += 1
            cols.append(col)
    # slack columns for the L budget rows
    for i in range(L):
        col = [Fraction(0)] * nrows
        col[n + i] = Fraction(1)
        cols.append(col)
    rhs = list(tau_exact) + [rho_f] * L

    feasible, x, farkas = _phase1_simplex(cols, rhs)
    witness = None
    refutation = None
    if feasible:
        table = np.zeros((n, C), dtype=np.float64)
        exact_acc = [[Fraction(0)] * C for _ in range(n)]
        for j, val in x.items():
            if j >= n * C:
                continue  # slack
            v, sidx = divmod(j, C)
            table[v][sidx] = float(val)
            exact_acc[v][sidx] = val
        witness = JointTypeDist(
            q=q, ell=ell, L=L, table=table, exact=tuple(tuple(r) for r in exact_acc)
        )
    else:
        refutation = {
            "farkas": [float(v) for v in farkas],
            "note": "y.A <= 0 on every column while y.rhs > 0: no admissible joint",
        }
    if not distinct_ok:
        refutation = (refutation or {}) | {"coincident_pair": bad_pair}
    return MembershipReport(
        member=feasible and distinct_ok,
        lp_feasible=feasible,
        distinct_ok=distinct_ok,
        witness=witness,
        refutation=refutation,
    )


# ---------------------------------------------------------------------------
# coincidence orbits


@dataclass(frozen=True)
class OrbitClass:
    """Vectors in GF(q)^L sharing a coincidence pattern (which coordinates agree).

    `shape` is the multiset of value multiplicities, largest first; the class
    of constant vectors has shape (L,).  `plurality_gap` = L - shape[0] is the
    number of coordinates outside a largest agreeing block.
    """

    shape: tuple[int, ...]
    size: int
    indices: np.ndarray = field(compare=False, repr=False)

    @property
    def plurality_gap(self) -> int:
        return sum(self.shape) - self.shape[0]


def _shape_of(digvec) -> tuple[int, ...]:
    counts: dict[int, int] = {}
    for d in digvec:
        counts[int(d)] = counts.get(int(d), 0) + 1
    return tuple(sorted(counts.values(), reverse=True))


def coincidence_orbits(q: int, L: int) -> list[OrbitClass]:
    """Partition of GF(q)^L by coincidence pattern shape.

    Ordered with the constant-vector class first, then by decreasing largest
    part.  Supported for L <= 6 (the shapes grow as partitions of L).
    """
    make_field(q)
    if L < 1:
        raise DomainError(f"need L >= 1, got {L}")
    if L > _ORBIT_L_CAP:
        raise UnsupportedError(f"coincidence orbits capped at L = {_ORBIT_L_CAP}")
    digits = vec_table(q, L)
    buckets: dict[tuple[int, ...], list[int]] = {}
    for idx in range(q**L):
        buckets.setdefault(_shape_of(digits[idx]), []).append(idx)
    order = sorted(buckets, key=lambda sh: (len(sh), tuple(-c for c in sh)))
    out = []
    for sh in order:
        idxs = np.asarray(buckets[sh], dtype=np.int64)
        out.append(OrbitClass(shape=sh, size=len(idxs), indices=idxs))
    return out
