"""Desk-scale ensemble sampling and exact property checking.

Codes live in GF(q)^n with q^n small enough to enumerate, so decodability can
be decided exhaustively.  The occupancy profile counts, for every cell T of
C(q,l)^n (a tuple of l-subsets, one per coordinate), the codewords that miss
T at no more than floor(rho*n) coordinates; for l = 1 the cells are the
centers and the property is list decoding.  A code is (rho, l, L)-recoverable
exactly when no cell holds L codewords.  A random linear code C = ker H is
list-decoded from H alone: its fullest ball holds as many codewords as the
largest fiber of y -> Hy on the Hamming ball B(0, r), so a sweep trial costs
the V = |B(0, r)| syndromes, whatever q^k and q^n are.  Sweeps decide the
other trials by the profile; when the balls cover the cells more than L - 1
times the pigeonhole bound decides without it, and when the cells do not fit
a dynamic program over the L-subsets of codewords decides without
enumerating them.  A random linear code's words are the image of GF(q)^k
under its generator, listed by `fields.matvec_all`, and a code is linear
exactly when it has q^rank words.  Codewords are held as packed indices;
`fields.digits_of` and `fields.pack_digits` turn them into digit rows and back.

The greedy constructor grows a binary linear code one basis vector at a time,
accepting a vector only when the potential of the doubled code stays below the
square of the previous potential.  It keeps the profile's support, the centres
within r of a codeword, beside a dense lookup array, so scoring a candidate
costs O(min(2^n, |C| V)) rather than O(2^n); at the theorem's dimension
|C| V <= 2^((1 - 1/L' - delta) n).  Its candidates come in a random order
drawn lazily, one Fisher-Yates step per candidate scanned, so a run that
accepts after a few candidates never materializes the 2^n - 1 vectors.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import mpmath
import numpy as np

from .errors import DomainError, NoCandidateError, SizeCapError, WorkBudgetExceededError
from .fields import digits_of, make_field, matvec_all, pack_digits, row_reduce
from .infomeasures import ball_volume, hq
from .subspaces import map_with_kernel, rref_of

_SPAN_CAP = 2**24
_CENTER_CAP = 2**22
_STAMP_CHUNK = 2**20  # ball cells stamped per numpy block
_SPACE_CAP = 2**24
_PACK_CAP = 2**63 - 1  # largest q^m whose syndromes pack into int64
DEFAULT_WORK_BUDGET = 2**29

WILSON_Z = 1.96


def radius_of(rho: float, n: int) -> int:
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [0, 1], got {rho}")
    return min(n, math.floor(rho * n))


@dataclass
class Code:
    """A subset of GF(q)^n held as sorted packed indices.

    Linear codes carry the generator rows (a basis, as digit vectors) and,
    when sampled from a parity-check matrix, the matrix itself.
    """

    q: int
    n: int
    words: np.ndarray
    kind: str = "plain"
    generator: np.ndarray | None = None
    parity_check: np.ndarray | None = None

    def __post_init__(self):
        make_field(self.q)
        if self.n < 1:
            raise DomainError("need n >= 1")
        self.words = np.asarray(self.words, dtype=np.int64)
        if self.words.ndim != 1:
            raise DomainError("codewords must form a flat index array")
        if np.any(np.diff(self.words) <= 0):
            raise DomainError("codeword indices must be strictly increasing")
        if self.words.size and (self.words[0] < 0 or self.words[-1] >= self.q**self.n):
            raise DomainError("codeword index out of range")
        if self.kind not in ("plain", "linear"):
            raise DomainError(f"unknown code kind {self.kind!r}")

    @property
    def size(self) -> int:
        return int(self.words.size)

    @property
    def dim(self) -> int | None:
        if self.kind != "linear":
            return None
        return 0 if self.generator is None else int(np.asarray(self.generator).shape[0])

    def digits(self) -> np.ndarray:
        return digits_of(self.words, self.q, self.n)

    def dump(self, path: str) -> None:
        """One codeword per line, digits run together for q <= 10 and
        comma-separated above."""
        sep = "" if self.q <= 10 else ","
        symbols = np.asarray([str(d) for d in range(self.q)])
        with open(path, "w") as fh:
            fh.write("".join(sep.join(row) + "\n" for row in symbols[self.digits()].tolist()))

    @classmethod
    def load(cls, path: str, q: int) -> "Code":
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if "," in line:
                    rows.append([int(t) for t in line.split(",")])
                else:
                    rows.append([int(ch) for ch in line])
        if not rows:
            raise DomainError(f"no codewords in {path}")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise DomainError("codeword lines differ in length")
        arr = np.asarray(rows, dtype=np.int16)
        if arr.min() < 0 or arr.max() >= q:
            raise DomainError("digit out of range for the stated field")
        return cls(q=q, n=n, words=np.sort(pack_digits(arr, q)))

    def linearity_ok(self, rng: np.random.Generator | None = None) -> bool:
        """Whether the words form a subspace of GF(q)^n.

        The words lie in their span, which has q^rank vectors, so they are
        the span exactly when there are q^rank of them.  `rng` is unused; it
        is accepted for callers that pass one.
        """
        rank = len(row_reduce(self.digits(), make_field(self.q))[1])
        return self.size == self.q**rank


# ---------------------------------------------------------------------------
# sampling


def parity_rows(n: int, R: float) -> int:
    """Rows m = n - ceil(R n) of a rate-R random linear code's parity check."""
    if not 0.0 < R < 1.0:
        raise DomainError(f"rate must lie in (0, 1), got {R}")
    return n - math.ceil(R * n)


def draw_parity_check(q: int, n: int, R: float, rng: np.random.Generator) -> np.ndarray:
    """A uniform m x n matrix over GF(q), m = `parity_rows(n, R)`: the first
    and only draw of a random linear code."""
    m = parity_rows(n, R)
    if m > 0:
        return rng.integers(0, q, size=(m, n)).astype(np.int16)
    return np.zeros((0, n), dtype=np.int16)


def sample_rlc(q: int, n: int, R: float, rng: np.random.Generator) -> Code:
    """Kernel of a uniform parity-check matrix with n - ceil(R n) rows.

    The dimension is at least ceil(R n); rank-deficient draws only enlarge it.
    """
    H = draw_parity_check(q, n, R, rng)
    basis = map_with_kernel(rref_of(H, q))
    k = basis.shape[0]
    if q**k > _SPAN_CAP:
        raise SizeCapError(f"kernel of dimension {k} too large to enumerate")
    words = np.sort(matvec_all(basis.T, make_field(q)))
    return Code(q=q, n=n, words=words, kind="linear", generator=basis, parity_check=H)


def sample_rc(q: int, n: int, R: float, rng: np.random.Generator) -> Code:
    """Each vector of GF(q)^n included independently with probability q^{(R-1)n}."""
    if not 0.0 < R <= 1.0:
        raise DomainError(f"rate must lie in (0, 1], got {R}")
    N = q**n
    if N > _SPACE_CAP:
        raise SizeCapError(f"q^n = {N} exceeds the enumeration cap")
    p = float(q) ** ((R - 1.0) * n)
    picked = []
    block = 1 << 20
    for start in range(0, N, block):
        mask = rng.random(min(block, N - start)) < p
        picked.append(np.nonzero(mask)[0].astype(np.int64) + start)
    return Code(q=q, n=n, words=np.concatenate(picked), kind="plain")


# ---------------------------------------------------------------------------
# exact checkers


@functools.lru_cache(maxsize=8)
def _zero_list_ball(q: int, n: int, r: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """The radius-r list ball of the zero word, and the subset shift table.

    Subsets of GF(q) of size ell are numbered in `itertools.combinations`
    order, so for ell = 1 subset {a} is number a.  Returns the ball's cells
    as subset numbers, shape (n, V) with one row per coordinate, and the
    table shift[a, s], the number of subset s translated by a.  The cells
    are grown one coordinate at a time, dropping a prefix once it misses 0
    more than r times, so no step holds more than V prefixes.  A step keeps
    only each prefix's parent and last subset; the rows are gathered once at
    the end, back from the last coordinate, so the build costs O(n V).
    """
    fs = make_field(q)
    subsets = list(itertools.combinations(range(q), ell))
    number = {s: i for i, s in enumerate(subsets)}
    shift = np.asarray([[number[tuple(sorted(int(fs.add_table[a, x]) for x in s))]
                         for s in subsets] for a in range(q)], dtype=np.int64)
    misses_zero = np.asarray([0 not in s for s in subsets], dtype=np.int64)
    C = len(subsets)
    steps = []  # per coordinate: (parent prefix, subset) of each kept prefix
    misses = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        # child j of the step is prefix j // C extended by subset j % C
        grown = (misses[:, None] + misses_zero).ravel()
        keep = np.flatnonzero(grown <= r)
        steps.append(np.divmod(keep, C))
        misses = grown[keep]
    cells = np.empty((n, misses.size), dtype=np.int64)
    at = np.arange(misses.size)
    for i in range(n - 1, -1, -1):
        cells[i] = steps[i][1][at]
        at = steps[i][0][at]
    cells.setflags(write=False)
    shift.setflags(write=False)
    return cells, shift


def occupancy_profile(code: Code, r: int, ell: int = 1) -> np.ndarray:
    """Codeword count of the radius-r list ball of every cell, length C(q, ell)^n.

    A cell T is a tuple of ell-subsets of GF(q), one per coordinate, packed in
    base C(q, ell) with subsets numbered as in `_zero_list_ball`; it counts
    the codewords c with c_i outside T_i at no more than r coordinates.  For
    ell = 1 the cells are the q^n centers and the balls Hamming balls.

    Every codeword's list ball is stamped into the counter, at a cost of
    |C| * ball volume.  T lies in the ball of c exactly when T - c lies in the
    ball of 0, so the ball of c is the zero word's ball with coordinate i's
    subsets translated by c_i: one gather per coordinate from the shift
    table, packed in base C(q, ell).  For ell = 1 over GF(2^m) a translate is
    the XOR of packed indices, so the ball is one XOR of the codeword with
    packed offsets.  Codewords go in blocks of at most max(_STAMP_CHUNK,
    cells) ball cells.
    """
    q, n = code.q, code.n
    if not 1 <= ell < q:
        raise DomainError(f"need 1 <= ell < q, got ell={ell}, q={q}")
    C = math.comb(q, ell)
    N = C**n
    if N > _CENTER_CAP:
        raise SizeCapError(f"cell space C(q, ell)^n = {N} exceeds the cap")
    offsets, shift = _zero_list_ball(q, n, r, ell)
    V = offsets.shape[1]
    radix = C ** np.arange(n, dtype=np.int64)
    if ell == 1 and make_field(q).p == 2:
        packed = radix @ offsets

        def balls(words):
            return words[:, None] ^ packed
    else:
        scaled = shift[None, :, :] * radix[:, None, None]

        def balls(words):
            dig = digits_of(words, q, n)
            out = scaled[0][dig[:, :1], offsets[0]]
            for i in range(1, n):
                out += scaled[i][dig[:, i:i + 1], offsets[i]]
            return out

    rows = max(1, max(_STAMP_CHUNK, N) // V)
    P = np.bincount(balls(code.words[:rows]).ravel(), minlength=N)
    for start in range(rows, code.size, rows):
        P += np.bincount(balls(code.words[start:start + rows]).ravel(), minlength=N)
    return P


@functools.lru_cache(maxsize=8)
def _ball_slots(q: int, n: int, r: int) -> np.ndarray:
    """The zero word's radius-r Hamming ball by its nonzero coordinates.

    A word of B(0, r) has at most r nonzero coordinates, so it is held in
    min(r, n) slots: slot j holds i * q + a for its j-th nonzero coordinate
    i, of symbol a, and 0 (coordinate 0, symbol 0) past its last one.
    Shape (min(r, n), V), cells in the order of `_zero_list_ball`.
    """
    ball, _ = _zero_list_ball(q, n, r, 1)
    slots = np.zeros((min(r, n), ball.shape[1]), dtype=np.int64)
    used = np.zeros(ball.shape[1], dtype=np.int64)  # slots filled per cell
    for i, row in enumerate(ball):  # coordinates in ascending order
        cell = np.flatnonzero(row)
        slots[used[cell], cell] = i * q + row[cell]
        used[cell] += 1
    slots.setflags(write=False)
    return slots


def largest_fiber(H: np.ndarray, q: int, r: int) -> int:
    """Most codewords of C = ker H in one radius-r ball, from H alone.

    The codewords within r of a centre z are the z - y with y in B(0, r) and
    Hy = Hz, so the fullest ball holds as many codewords as the largest fiber
    of y -> Hy on B(0, r).  Neither the q^k codewords nor the q^n centres are
    listed: each of the V = |B(0, r)| syndromes is the sum of y_i H[:, i]
    over the at most r coordinates where y is nonzero, looked up in the field
    tables, and packed in base q, so q^m must fit in int64.  In characteristic 2 field
    addition is the XOR of element numbers, so the packed terms add by XOR,
    one word per ball cell instead of m digits.
    """
    m, n = H.shape
    slots = _ball_slots(q, n, r)
    if m == 0:
        return slots.shape[1]
    fs = make_field(q)
    # row i * q + a holds a H[:, i]
    terms = fs.mul_table[:, np.asarray(H, dtype=np.int64).T].transpose(1, 0, 2).reshape(n * q, m)
    radix = q ** np.arange(m, dtype=np.int64)
    if fs.p == 2:
        syndromes = np.bitwise_xor.reduce((terms @ radix)[slots], axis=0)
    else:
        digits = np.zeros((slots.shape[1], m), dtype=terms.dtype)
        for row in slots:
            digits = fs.add_table[digits, terms[row]]
        syndromes = digits @ radix
    return int(np.unique(syndromes, return_counts=True)[1].max())


@dataclass
class LDReport:
    decodable: bool
    radius: int
    max_count: int
    witness_center: int | None = None
    witness_list: list[int] | None = None


def check_ld_centers(code: Code, rho: float, L: int) -> LDReport:
    """Exhaustively decide whether any center sees >= L codewords within radius.

    Decodable means every radius-floor(rho*n) ball holds at most L-1 codewords;
    on violation the fullest center and its codeword list are returned.
    """
    if L < 1:
        raise DomainError("list size must be >= 1")
    r = radius_of(rho, code.n)
    P = occupancy_profile(code, r)
    mx = int(P.max())
    if mx < L:
        return LDReport(decodable=True, radius=r, max_count=mx)
    z = int(P.argmax())
    dz = digits_of(np.asarray([z]), code.q, code.n)[0]
    near = (code.digits() != dz).sum(axis=1) <= r
    return LDReport(
        decodable=False,
        radius=r,
        max_count=mx,
        witness_center=z,
        witness_list=[int(w) for w in code.words[near]],
    )


@dataclass
class LRReport:
    recoverable: bool
    radius: int
    subsets_checked: int


def check_lr_dp(
    code: Code,
    rho: float,
    ell: int,
    L: int,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> LRReport:
    """Decide list-recoverability by a per-subset dynamic program.

    For each L-subset of codewords, scan coordinates keeping the set of
    reachable mismatch-count tuples; choosing an input list S at a coordinate
    adds 1 to the count of every codeword whose symbol misses S.  A tuple with
    any count beyond the radius can never be covered and is dropped, so at
    most (r+1)^L states survive.  Input lists have size exactly ell: any
    smaller list is dominated by a superset, so this loses no adversary power.

    Sweeps decide from `occupancy_profile(code, r, ell)` and come here only
    when its cells exceed the cap or its cells plus stamps the budget.
    Sharing nothing with the profile, this is also its independent oracle.
    """
    q, n = code.q, code.n
    if not 1 <= ell < q:
        raise DomainError(f"need 1 <= ell < q, got ell={ell}, q={q}")
    if L < 1:
        raise DomainError("list size must be >= 1")
    r = radius_of(rho, n)
    M = code.size
    if M < L:
        return LRReport(recoverable=True, radius=r, subsets_checked=0)
    estimate = math.comb(M, L) * n * (r + 2) ** L * math.comb(q, ell)
    if estimate > work_budget:
        raise WorkBudgetExceededError(
            f"estimated work {estimate} exceeds budget {work_budget}"
        )
    dig = code.digits()
    lists = list(itertools.combinations(range(q), ell))
    radix = q ** np.arange(L, dtype=np.int64)
    move_cache: dict[int, set] = {}
    checked = 0
    for rows in itertools.combinations(range(M), L):
        cols = dig[list(rows)].astype(np.int64)
        pats = radix @ cols
        states = {(0,) * L}
        for ci in range(n):
            pid = int(pats[ci])
            moves = move_cache.get(pid)
            if moves is None:
                pd = [(pid // int(radix[i])) % q for i in range(L)]
                moves = {tuple(0 if pd[i] in S else 1 for i in range(L)) for S in lists}
                move_cache[pid] = moves
            new = set()
            for s in states:
                for dv in moves:
                    t = tuple(a + b for a, b in zip(s, dv))
                    if max(t) <= r:
                        new.add(t)
            states = new
            if not states:
                break
        checked += 1
        if states:
            return LRReport(recoverable=False, radius=r, subsets_checked=checked)
    return LRReport(recoverable=True, radius=r, subsets_checked=checked)


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepConfig:
    q: int
    n: int
    family: str
    rho: float
    L: int
    rates: list[float]
    trials: int
    master_seed: int
    ell: int = 1
    work_budget: int = DEFAULT_WORK_BUDGET

    def __post_init__(self):
        make_field(self.q)
        if self.n < 1:
            raise DomainError(f"code length must be >= 1, got {self.n}")
        if self.family not in ("rlc", "rc"):
            raise DomainError(f"family must be rlc or rc, got {self.family!r}")
        if not self.rates:
            raise DomainError("empty rate grid")
        if any(not 0.0 < r < 1.0 for r in self.rates):
            raise DomainError("rates must lie in (0, 1)")
        if self.trials < 1:
            raise DomainError("need at least one trial per rate")
        if self.L < 1:
            raise DomainError("list size must be >= 1")
        if not 0.0 <= self.rho <= 1.0:
            raise DomainError("rho must lie in [0, 1]")
        if not 1 <= self.ell < self.q:
            raise DomainError("need 1 <= ell < q")


@dataclass
class SatisfactionCurve:
    family: str
    rates: np.ndarray
    p_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    trials: int
    routes: dict[str, int]

    def to_csv(self) -> str:
        from .engine import fmt12

        lines = ["rate,p_hat,ci_lo,ci_hi,trials"]
        for r, p, lo, hi in zip(self.rates, self.p_hat, self.ci_lo, self.ci_hi):
            lines.append(f"{fmt12(r)},{fmt12(p)},{fmt12(lo)},{fmt12(hi)},{self.trials}")
        return "\n".join(lines) + "\n"


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    if trials < 1:
        raise DomainError("need at least one trial")
    z = WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # round-off at the endpoints must not push the estimate outside its interval
    return min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)


def trial_seed(master_seed: int, rate_index: int, trial_index: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{rate_index}:{trial_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _one_trial(cfg: SweepConfig, rate: float, ri: int, ti: int) -> tuple[bool, str]:
    """Whether one sampled code satisfies the property, and the route that decided.

    The property holds exactly when no cell of the occupancy profile holds L
    codewords.  A random linear code's list decoding (ell = 1) is decided
    from its parity-check matrix H alone when the zero word's ball, n * V
    digits for V = |B(0, r)|, fits the work budget and q^m fits in int64:
    the fullest ball holds `largest_fiber(H, q, r)` codewords, so the trial
    draws H and builds no code ("fiber").  Otherwise the code is sampled.
    Its codewords' list balls cover the cells |C| * ball volume times, so
    past L - 1 times the number of cells some cell holds L of them and the
    trial fails unprofiled ("pigeonhole").  Otherwise `check_lr_dp` decides
    when the cells exceed the cap or cells plus stamps exceed the work
    budget ("dp"), and the fullest cell of the profile decides the rest
    ("stamp").  Every route is exact, so the route never changes a decision.
    """
    rng = np.random.default_rng(trial_seed(cfg.master_seed, ri, ti))
    r = radius_of(cfg.rho, cfg.n)
    if (cfg.family == "rlc" and cfg.ell == 1
            and cfg.n * ball_volume(cfg.q, cfg.n, r) <= cfg.work_budget
            and cfg.q ** parity_rows(cfg.n, rate) <= _PACK_CAP):
        H = draw_parity_check(cfg.q, cfg.n, rate, rng)
        return largest_fiber(H, cfg.q, r) < cfg.L, "fiber"
    if cfg.family == "rlc":
        code = sample_rlc(cfg.q, cfg.n, rate, rng)
    else:
        code = sample_rc(cfg.q, cfg.n, rate, rng)
    stamps = code.size * ball_volume(cfg.q, cfg.n, r, cfg.ell)
    cells = math.comb(cfg.q, cfg.ell) ** cfg.n
    if stamps > (cfg.L - 1) * cells:
        return False, "pigeonhole"
    if cells > _CENTER_CAP or cells + stamps > cfg.work_budget:
        return check_lr_dp(code, cfg.rho, cfg.ell, cfg.L, cfg.work_budget).recoverable, "dp"
    return int(occupancy_profile(code, r, cfg.ell).max()) < cfg.L, "stamp"


def _partial_curve(cfg: SweepConfig, done: list[tuple[float, int]],
                   routes: dict[str, int]) -> SatisfactionCurve:
    rates = np.asarray([d[0] for d in done])
    ks = [d[1] for d in done]
    phat = np.asarray([k / cfg.trials for k in ks])
    los, his = [], []
    for k in ks:
        lo, hi = wilson_interval(k, cfg.trials)
        los.append(lo)
        his.append(hi)
    return SatisfactionCurve(family=cfg.family, rates=rates, p_hat=phat,
                             ci_lo=np.asarray(los), ci_hi=np.asarray(his),
                             trials=cfg.trials, routes=dict(routes))


def satisfaction_curve(cfg: SweepConfig) -> SatisfactionCurve:
    """Per-rate satisfaction frequency with Wilson intervals.

    Each trial owns an RNG stream keyed by (master seed, rate index, trial
    index), so results do not depend on the order the trials run in.  The
    curve counts the trials each route of `_one_trial` decided: "stamp",
    "pigeonhole", "dp" or "fiber"; a random linear code's list-decoding
    trials take "fiber" whenever the n * |B(0, r)| digits of the zero word's
    ball fit the work budget and q^m fits in int64.  On a blown work budget
    the partial curve is attached to the raised error.
    """
    done: list[tuple[float, int]] = []
    routes = dict.fromkeys(("stamp", "pigeonhole", "dp", "fiber"), 0)
    try:
        for ri, rate in enumerate(cfg.rates):
            ok = 0
            for ti in range(cfg.trials):
                decided, route = _one_trial(cfg, rate, ri, ti)
                ok += decided
                routes[route] += 1
            done.append((rate, ok))
    except WorkBudgetExceededError as err:
        err.partial = _partial_curve(cfg, done, routes)
        raise
    return _partial_curve(cfg, done, routes)


def half_crossing(rates, p_hat) -> float | None:
    """Linearly interpolated rate where the curve first drops below 1/2."""
    rates = list(rates)
    ps = list(p_hat)
    for i, p in enumerate(ps):
        if p < 0.5:
            if i == 0:
                return rates[0]
            r0, r1 = rates[i - 1], rates[i]
            p0, p1 = ps[i - 1], p
            return r0 + (0.5 - p0) * (r1 - r0) / (p1 - p0)
    return None


# ---------------------------------------------------------------------------
# the potential greedy


def _candidate_order(rng: np.random.Generator, m: int) -> Iterator[int]:
    """Yield 1..m in a uniform random order, drawing each one when asked.

    A forward Fisher-Yates shuffle of the slots 0..m-1, where slot s holds s
    until a draw displaces its value: draw i picks j uniform in [i, m), yields
    the value at slot j plus 1, and moves the value at slot i into slot j.
    Only displaced values are stored, so the first t draws cost O(t) time and
    memory rather than the O(m) of a full permutation.
    """
    moved: dict[int, int] = {}
    for i in range(m):
        j = int(rng.integers(i, m))
        v = moved.get(j, j)
        moved[j] = moved.pop(i, i)
        yield v + 1


@dataclass
class GreedyResult:
    """A greedy run: the code, its accepted steps and its final profile.

    `cells` is the support of the final occupancy profile (the centres whose
    radius-r ball holds a codeword) and `counts` the profile there; `scanned`
    counts the candidates whose potential was evaluated.
    """

    code: Code
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


def greedy_potential_code(
    n: int,
    rho: float,
    L: int,
    delta: float,
    rng: np.random.Generator,
    k: int | None = None,
) -> GreedyResult:
    """Grow a binary linear code keeping the potential squared at every step.

    The potential of a code C is 2^{-n} * sum_z 2^{(n/L') P(z)} with P the
    occupancy profile at radius r = floor(rho*n) and L' = (L-1-2*delta)/h2(rho).
    At each step candidates v outside the current span are scanned in a seeded
    random order and the first with S_new <= S_prev^2 is accepted.  The order
    is a uniform random permutation of 1..2^n - 1 drawn by `_candidate_order`
    only as far as a scan reaches, and every step rescans it from its first
    candidate, so a run that scores a dozen candidates draws a dozen rather
    than shuffling all 2^n - 1.  Such a v
    always exists in exact arithmetic: S_new summed over all v is 2^n S^2 and
    every v inside the span gives S_new >= S^2, so some v outside gives at
    most S^2.  NoCandidateError, whose `history` holds the steps done, can
    therefore only come from round-off or a restricted candidate order.

    The profile of C + {0, v} is P(z) + P(z + v).  P is nonzero only on
    C + B(0, r), so it is held as a dense lookup array plus its support
    `cells` and the values `counts` there.  A candidate then costs
    O(min(2^n, |C| V)) with V the ball volume, not O(2^n): the new values
    are counts + P[cells + v] on the support and counts on the translates
    cells + v that miss it, and every other centre holds 0.  At the default
    dimension |C| V <= 2^((1 - 1/L' - delta) n), a vanishing share of 2^n.

    The target dimension defaults to floor((1 - h2(rho) - 1/L' - delta) n),
    clamped up to 1 so that small-n demonstrations still run a step.  Since
    S_k >= 2^-n 2^((n/L') max P), the final list size always obeys
    max P <= L' (1 + log2(S_k) / n), the `potential_bound`; the squared chain
    implies the theorem's cap floor(L' h2(rho) + 1 + delta) only at the
    default dimension, so only there is the cap asserted.
    """
    if not 0.0 < rho < 0.5:
        raise DomainError("rho must lie in (0, 1/2)")
    if L < 2:
        raise DomainError("list size must be >= 2")
    if delta <= 0.0:
        raise DomainError("delta must be positive")
    N = 1 << n
    if N > _CENTER_CAP:
        raise SizeCapError(f"2^n = {N} exceeds the cap on the profile lookup")
    h = hq(2, rho)
    num = L - 1 - 2.0 * delta
    if num <= 0.0:
        raise DomainError("need L - 1 - 2 delta > 0")
    lprime = num / h
    default_k = max(1, math.floor((1.0 - h - 1.0 / lprime - delta) * n))
    k = default_k if k is None else k
    if not 1 <= k <= n:
        raise DomainError(f"target dimension must lie in [1, {n}], got {k}")
    r = radius_of(rho, n)

    # B(0, r) is symmetric in the coordinates, so packing coordinate 0 as the
    # top bit lists the ball in ascending order; its translates then stay in
    # runs of nearby centres, which keeps the gathers from P local
    offsets, _ = _zero_list_ball(2, n, r, 1)
    cells = (2 ** np.arange(n - 1, -1, -1, dtype=np.int64) @ offsets).astype(np.int32)
    counts = np.ones(cells.size, dtype=np.int32)
    P = np.zeros(N, dtype=np.int32)
    P[cells] = counts

    with mpmath.workdps(50):
        alpha = mpmath.mpf(n) / mpmath.mpf(lprime)

        def potential(values: np.ndarray) -> mpmath.mpf:
            # the profile is `values` on the support and 0 on the other centres
            hist = np.bincount(values)
            hist[0] = N - values.size
            acc = mpmath.mpf(0)
            for v in np.flatnonzero(hist):
                acc += int(hist[v]) * mpmath.power(2, alpha * int(v))
            return acc / mpmath.power(2, n)

        S = potential(counts)
        s_initial = float(S)
        span = {0}
        basis: list[int] = []
        history: list[dict] = []
        scanned = 0
        drawn: list[int] = []  # the order's prefix, rescanned at every step
        draws = _candidate_order(rng, N - 1)

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
                Sn = potential(values)
                if Sn <= target:
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
                    counts, S = values, Sn
                    P[cells] = counts
                    span |= {w ^ v for w in span}
                    basis.append(v)
                    break
            if accepted is None:
                raise NoCandidateError(
                    f"no extension at step {step} keeps the potential squared", history
                )

        potential_bound = float(lprime * (1 + mpmath.log(S, 2) / n))
    cap = math.floor(lprime * h + 1.0 + delta)
    final_max = int(counts.max())
    if final_max > potential_bound * (1 + 1e-12):
        raise AssertionError(
            f"list size {final_max} exceeds the potential bound {potential_bound}"
        )
    if k == default_k and final_max > cap:
        raise AssertionError(
            f"potential chain held but list size {final_max} exceeds cap {cap}"
        )
    gen = digits_of(np.asarray(basis, dtype=np.int64), 2, n) if basis else None
    code = Code(q=2, n=n, words=np.asarray(sorted(span), dtype=np.int64),
                kind="linear", generator=gen)
    return GreedyResult(code=code, history=history, k=k, cap=cap, lprime=lprime,
                        s_initial=s_initial, final_max_count=final_max,
                        potential_bound=potential_bound, scanned=scanned,
                        cells=cells, counts=counts)
