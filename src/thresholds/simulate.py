"""Desk-scale ensemble sampling and exact property checking.

Codes live in GF(q)^n with q^n small enough to enumerate, so decodability can
be decided exhaustively: the occupancy profile counts, for every center z, the
codewords within radius floor(rho*n).  List recovery has no enumerable center
space (input lists live in C(q,l)^n), so it is decided per codeword subset by
a dynamic program over coordinates instead.

The greedy constructor grows a binary linear code one basis vector at a time,
accepting a vector only when the potential of the doubled code stays below the
square of the previous potential.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .errors import (
    DomainError,
    NoCandidateError,
    RoundOffError,
    SizeCapError,
    WorkBudgetExceededError,
)
from .fields import make_field
from .infomeasures import ball_volume, hq
from .subspaces import map_with_kernel, rref_of

_SPAN_CAP = 2**24
_CENTER_CAP = 2**22
_SPACE_CAP = 2**24
_EXHAUSTIVE_LINEARITY = 2**12
DEFAULT_WORK_BUDGET = 2**29

WILSON_Z = 1.96


def digits_of(idx: np.ndarray, q: int, n: int) -> np.ndarray:
    """Little-endian radix-q digits, shape (len(idx), n)."""
    cur = np.asarray(idx, dtype=np.int64).copy()
    out = np.empty((cur.shape[0], n), dtype=np.int16)
    for i in range(n):
        out[:, i] = cur % q
        cur //= q
    return out


def pack_digits(digits: np.ndarray, q: int) -> np.ndarray:
    digits = np.asarray(digits, dtype=np.int64)
    radix = q ** np.arange(digits.shape[1], dtype=np.int64)
    return digits @ radix


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
        sep = "" if self.q <= 10 else ","
        with open(path, "w") as fh:
            for row in self.digits():
                fh.write(sep.join(str(int(d)) for d in row) + "\n")

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

    def linearity_ok(self, rng: np.random.Generator | None = None, spot_pairs: int = 50) -> bool:
        """Closure under addition and scalars; exhaustive for small codes."""
        if 0 not in self.words:
            return False
        fs = make_field(self.q)
        add, mul = fs.add_table, fs.mul_table
        dig = self.digits()
        srt = self.words

        def _in(word_digits) -> bool:
            idx = pack_digits(word_digits.reshape(1, -1), self.q)[0]
            pos = np.searchsorted(srt, idx)
            return pos < srt.size and srt[pos] == idx

        if self.size <= 2**6 or (self.size <= _EXHAUSTIVE_LINEARITY and rng is None):
            for i in range(self.size):
                sums = add[dig, dig[i]]
                packed = pack_digits(sums, self.q)
                if not np.all(np.isin(packed, srt, assume_unique=False)):
                    return False
            for c in range(2, self.q):
                packed = pack_digits(mul[c, dig], self.q)
                if not np.all(np.isin(packed, srt)):
                    return False
            return True
        rng = rng or np.random.default_rng(0)
        for _ in range(spot_pairs):
            i, j = rng.integers(0, self.size, size=2)
            c = int(rng.integers(1, self.q)) if self.q > 2 else 1
            if not _in(add[mul[c, dig[i]], dig[j]]):
                return False
        return True


# ---------------------------------------------------------------------------
# sampling


def _span_words(basis: np.ndarray, q: int, n: int) -> np.ndarray:
    fs = make_field(q)
    add, mul = fs.add_table, fs.mul_table
    words = np.zeros((1, n), dtype=np.int16)
    for b in basis:
        words = np.concatenate([add[words, mul[c, b]] for c in range(q)], axis=0)
    return np.sort(pack_digits(words, q))


def sample_rlc(q: int, n: int, R: float, rng: np.random.Generator) -> Code:
    """Kernel of a uniform parity-check matrix with n - ceil(R n) rows.

    The dimension is at least ceil(R n); rank-deficient draws only enlarge it.
    """
    if not 0.0 < R < 1.0:
        raise DomainError(f"rate must lie in (0, 1), got {R}")
    m = n - math.ceil(R * n)
    if m > 0:
        H = rng.integers(0, q, size=(m, n)).astype(np.int16)
    else:
        H = np.zeros((0, n), dtype=np.int16)
    basis = map_with_kernel(rref_of(H, q))
    k = basis.shape[0]
    if q**k > _SPAN_CAP:
        raise SizeCapError(f"kernel of dimension {k} too large to enumerate")
    return Code(q=q, n=n, words=_span_words(basis, q, n), kind="linear",
                generator=basis, parity_check=H)


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


def _digit_weights(N: int, q: int, n: int) -> np.ndarray:
    w = np.zeros(N, dtype=np.int16)
    cur = np.arange(N, dtype=np.int64)
    for _ in range(n):
        w += (cur % q != 0)
        cur //= q
    return w


def _binary_ball_masks(n: int, r: int) -> np.ndarray:
    offs = []
    for wt in range(r + 1):
        for pos in itertools.combinations(range(n), wt):
            acc = 0
            for b in pos:
                acc |= 1 << b
            offs.append(acc)
    return np.asarray(offs, dtype=np.int64)


def occupancy_profile(code: Code, r: int) -> np.ndarray:
    """Codeword count of the radius-r ball around every center, length q^n.

    Two exact routes: stamping each codeword's ball into a counter array
    (cost |C| * ball volume), or convolving the code indicator with the ball
    indicator over the additive group Z_p^{mn} via FFTs (cost ~ q^n log q^n).
    The cheaper route is chosen; stamping is implemented for q = 2 where ball
    offsets are XOR masks.
    """
    q, n = code.q, code.n
    N = q**n
    if N > _CENTER_CAP:
        raise SizeCapError(f"center space q^n = {N} exceeds the cap")
    V = ball_volume(q, n, r)
    fs = make_field(q)
    stamp_cost = code.size * V
    fft_cost = 4 * N * n * fs.m
    if q == 2 and stamp_cost <= fft_cost:
        masks = _binary_ball_masks(n, r)
        centers = (code.words[:, None] ^ masks[None, :]).ravel()
        return np.bincount(centers, minlength=N)
    A = np.bincount(code.words, minlength=N).astype(np.float64)
    B = (_digit_weights(N, q, n) <= r).astype(np.float64)
    shape = (fs.p,) * (fs.m * n)
    conv = np.fft.ifftn(np.fft.fftn(A.reshape(shape)) * np.fft.fftn(B.reshape(shape))).real.ravel()
    P = np.rint(conv)
    if np.abs(conv - P).max() > 1e-3:
        raise RoundOffError("transform round-off too large to trust integer counts")
    return P.astype(np.int64)


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
    witness: dict | None = None


def check_lr_dp(
    code: Code,
    rho: float,
    ell: int,
    L: int,
    work_budget: int = DEFAULT_WORK_BUDGET,
    want_witness: bool = True,
) -> LRReport:
    """Decide list-recoverability by a per-subset dynamic program.

    For each L-subset of codewords, scan coordinates keeping the set of
    reachable mismatch-count tuples; choosing an input list S at a coordinate
    adds 1 to the count of every codeword whose symbol misses S.  A tuple with
    any count beyond the radius can never be covered and is dropped, so at
    most (r+1)^L states survive.  Input lists have size exactly ell: any
    smaller list is dominated by a superset, so this loses no adversary power.
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
    move_cache: dict[int, tuple] = {}
    checked = 0
    for rows in itertools.combinations(range(M), L):
        cols = dig[list(rows)].astype(np.int64)
        pats = radix @ cols
        states: dict[tuple, tuple | None] = {(0,) * L: None}
        parents: list[dict] = []
        for ci in range(n):
            pid = int(pats[ci])
            moves = move_cache.get(pid)
            if moves is None:
                pd = [(pid // int(radix[i])) % q for i in range(L)]
                dedup: dict[tuple, int] = {}
                for si, S in enumerate(lists):
                    dv = tuple(0 if pd[i] in S else 1 for i in range(L))
                    dedup.setdefault(dv, si)
                moves = tuple(dedup.items())
                move_cache[pid] = moves
            new: dict[tuple, tuple] = {}
            for s in states:
                for dv, si in moves:
                    t = tuple(a + b for a, b in zip(s, dv))
                    if max(t) > r:
                        continue
                    if t not in new:
                        new[t] = (s, si)
            states = new
            if not states:
                break
            if want_witness:
                parents.append(new)
        checked += 1
        if states:
            witness = None
            if want_witness:
                s = next(iter(states))
                assigned: list[list[int]] = []
                for ci in range(n - 1, -1, -1):
                    prev, si = parents[ci][s]
                    assigned.append(list(lists[si]))
                    s = prev
                assigned.reverse()
                witness = {
                    "rows": list(rows),
                    "codewords": [int(code.words[i]) for i in rows],
                    "lists": assigned,
                }
            return LRReport(recoverable=False, radius=r, subsets_checked=checked,
                            witness=witness)
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
    ell: int | None = None
    work_budget: int = DEFAULT_WORK_BUDGET

    def __post_init__(self):
        make_field(self.q)
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
        if self.ell is not None and not 1 <= self.ell < self.q:
            raise DomainError("need 1 <= ell < q")


@dataclass
class SatisfactionCurve:
    family: str
    rates: np.ndarray
    p_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    trials: int

    def to_csv(self) -> str:
        from .engine import fmt12

        lines = ["rate,p_hat,ci_lo,ci_hi,trials"]
        for r, p, lo, hi in zip(self.rates, self.p_hat, self.ci_lo, self.ci_hi):
            lines.append(f"{fmt12(r)},{fmt12(p)},{fmt12(lo)},{fmt12(hi)},{self.trials}")
        return "\n".join(lines) + "\n"


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    if trials < 1:
        raise DomainError("need at least one trial")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # round-off at the endpoints must not push the estimate outside its interval
    return min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)


def trial_seed(master_seed: int, rate_index: int, trial_index: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{rate_index}:{trial_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _one_trial(cfg: SweepConfig, rate: float, ri: int, ti: int) -> bool:
    rng = np.random.default_rng(trial_seed(cfg.master_seed, ri, ti))
    if cfg.family == "rlc":
        code = sample_rlc(cfg.q, cfg.n, rate, rng)
    else:
        code = sample_rc(cfg.q, cfg.n, rate, rng)
    if cfg.ell is None:
        return check_ld_centers(code, cfg.rho, cfg.L).decodable
    return check_lr_dp(code, cfg.rho, cfg.ell, cfg.L, cfg.work_budget,
                       want_witness=False).recoverable


def _partial_curve(cfg: SweepConfig, done: list[tuple[float, int]]) -> SatisfactionCurve:
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
                             trials=cfg.trials)


def satisfaction_curve(cfg: SweepConfig) -> SatisfactionCurve:
    """Per-rate satisfaction frequency with Wilson intervals.

    Each trial owns an RNG stream keyed by (master seed, rate index, trial
    index), so results do not depend on the order the trials run in.  On a
    blown work budget the partial curve is attached to the raised error.
    """
    done: list[tuple[float, int]] = []
    try:
        for ri, rate in enumerate(cfg.rates):
            done.append((rate, sum(_one_trial(cfg, rate, ri, ti) for ti in range(cfg.trials))))
    except WorkBudgetExceededError as err:
        err.partial = _partial_curve(cfg, done)
        raise
    return _partial_curve(cfg, done)


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


@dataclass
class GreedyResult:
    code: Code
    history: list[dict]
    k: int
    cap: int
    lprime: float
    s_initial: float
    final_max_count: int
    potential_bound: float


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
    occupancy profile at radius floor(rho*n) and L' = (L-1-2*delta)/h2(rho).
    At each step candidates v outside the current span are scanned in a seeded
    random order and the first with S_new <= S_prev^2 is accepted.  Such a v
    always exists in exact arithmetic: S_new summed over all v is 2^n S^2 and
    every v inside the span gives S_new >= S^2, so some v outside gives at
    most S^2.  NoCandidateError, whose `history` holds the steps done, can
    therefore only come from round-off or a restricted candidate order.

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
        raise SizeCapError(f"2^n = {N} exceeds the center cap")
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

    idx = np.arange(N, dtype=np.int64)
    P = (np.bitwise_count(idx) <= r).astype(np.int64)

    with mpmath.workdps(50):
        alpha = mpmath.mpf(n) / mpmath.mpf(lprime)

        def potential(profile: np.ndarray) -> mpmath.mpf:
            vals, cnts = np.unique(profile, return_counts=True)
            acc = mpmath.mpf(0)
            for v, c in zip(vals, cnts):
                acc += int(c) * mpmath.power(2, alpha * int(v))
            return acc / mpmath.power(2, n)

        S = potential(P)
        s_initial = float(S)
        span = {0}
        basis: list[int] = []
        history: list[dict] = []
        order = rng.permutation(N - 1) + 1
        for step in range(1, k + 1):
            target = S * S
            accepted = None
            for v in order:
                v = int(v)
                if v in span:
                    continue
                Pn = P + P[idx ^ v]
                Sn = potential(Pn)
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
                    P, S = Pn, Sn
                    span |= {w ^ v for w in span}
                    basis.append(v)
                    break
            if accepted is None:
                raise NoCandidateError(
                    f"no extension at step {step} keeps the potential squared", history
                )

        potential_bound = float(lprime * (1 + mpmath.log(S, 2) / n))
    cap = math.floor(lprime * h + 1.0 + delta)
    final_max = int(P.max())
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
                        potential_bound=potential_bound)
