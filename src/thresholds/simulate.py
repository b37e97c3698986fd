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
other trials from the codewords' list balls; when the balls cover the cells
more than L - 1 times the pigeonhole bound decides, before a random code
draws a word, and when the cells do not fit a dynamic program over the
L-subsets of codewords decides without enumerating them.  The rest are
decided in blocks of sorted ball stamps, each code's stamps offset into a
slot of its own and stamped by growing prefixes of its words, so a code
leaves the block as soon as a prefix puts L words in one cell.  Each trial
still draws from its own seeded stream, so a sweep's output is the same,
byte for byte, as one profile per code gives; a block holds at most
`_STAMP_CHUNK` stamps, or one code's stamps when that code alone has more,
or one dense profile.  A random linear code's words are the image of GF(q)^k
under its generator, listed by `fields.matvec_all`, and a code is linear
exactly when it has q^rank words.  Codewords are held as packed indices;
`fields.digits_of` and `fields.pack_digits` turn them into digit rows and back.

The greedy constructor grows a binary linear code one basis vector at a time,
accepting a vector only when the potential of the doubled code stays at most
the square of the previous potential, summed in `engine`'s double-double
arithmetic and settled from integer counts at an exact tie.  The profile of
a linear code is constant on its cosets, a centre holding the ball vectors
congruent to it, so the greedy keeps only the V coset labels of B(0, r) and
scores a candidate in O(V) rather than O(2^n).  Its candidates come in a
random order
drawn lazily, one Fisher-Yates step per candidate scanned, so a run that
accepts after a few candidates never materializes the 2^n - 1 vectors.  The
code it returns carries its parity check, so its list size over all 2^n
centres is the `largest_fiber` of its V syndromes.  `check_ld_centers`, which
counts the dense profile, is the oracle of that and of the sweeps' deciders.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .engine import _LN2, _dd_add, _dd_div, _dd_exp, _dd_ldexp, _dd_log, _dd_mul, _weight
from .errors import DomainError, NoCandidateError, SizeCapError, WorkBudgetExceededError
from .fields import digits_of, make_field, matvec_all, pack_digits, row_reduce
from .infomeasures import ball_volume, hq
from .subspaces import map_with_kernel, rref_of

_SPAN_CAP = 2**24
_CENTER_CAP = 2**22
# ball cells per sorted stamping block, 128 KiB of stamps; a dense profile
# bincounts max(_STAMP_CHUNK, its cells) of them at a time
_STAMP_CHUNK = 2**14
_PREFIX = 64  # codewords per code in a block's first sorted round
_SPACE_CAP = 2**24
_PACK_CAP = 2**63 - 1  # largest q^m whose syndromes pack into int64
_SEED_BLOCK = 4096  # trial seeds hashed per `_pcg64_states` call
_LABEL_BITS = 62  # the greedy's coset labels are int64
# the greedy's double-double potentials are good to far better than this
# relative error while alpha top < 2^30; a comparison closer than it to S^2
# is settled from the integer counts
_DD_TOLERANCE = 2.0**-64
DEFAULT_WORK_BUDGET = 2**29

WILSON_Z = 1.96


def radius_of(rho: float, n: int) -> int:
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [0, 1], got {rho}")
    return min(n, math.floor(rho * n))


@dataclass
class Code:
    """A subset of GF(q)^n held as sorted packed indices.

    Linear codes carry the generator rows (a basis, as digit vectors) and a
    parity-check matrix H with C = ker H: the uniform draw of `sample_rlc`, or
    for the greedy's codes the quotient map of `subspaces.map_with_kernel`
    (0 rows when C is the whole space).  `largest_fiber` counts a code's
    fullest ball from H alone.
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
        w = self.words
        if (w[1:] <= w[:-1]).any():
            raise DomainError("codeword indices must be strictly increasing")
        if w.size and (w[0] < 0 or w[-1] >= self.q**self.n):
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
        comma-separated above.  For q <= 10 the file is written as one block
        of bytes: the digit array plus ord("0"), with a newline column."""
        if self.q > 10:
            with open(path, "w") as fh:
                fh.write("".join(",".join(map(str, row)) + "\n"
                                 for row in self.digits().tolist()))
            return
        text = np.full((self.size, self.n + 1), ord("\n"), dtype=np.uint8)
        text[:, :-1] = self.digits() + ord("0")
        with open(path, "wb") as fh:
            fh.write(text.tobytes())

    @classmethod
    def load(cls, path: str, q: int) -> "Code":
        """Read a file `dump` wrote; q fixes the format, as it does there."""
        rows = []
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append([int(t) for t in (line.split(",") if q > 10 else line)])
                except ValueError:
                    raise DomainError(f"non-digit token on line {number} of {path}: "
                                      f"{line!r}") from None
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
    """Each vector of GF(q)^n included independently with probability q^{(R-1)n}.

    Independent Bernoulli(p) inclusion of N = q^n vectors is a Binomial(N, p)
    count k followed by a uniform k-subset, so the code is drawn that way:
    `draw_rc_size`, then `draw_rc_words`.
    """
    return draw_rc_words(q, n, draw_rc_size(q, n, R, rng), rng)


def draw_rc_size(q: int, n: int, R: float, rng: np.random.Generator) -> int:
    """The Binomial(q^n, q^{(R-1)n}) size of a random code: the first draw
    of `sample_rc`, which a sweep makes alone when the size decides a trial."""
    if not 0.0 < R <= 1.0:
        raise DomainError(f"rate must lie in (0, 1], got {R}")
    N = q**n
    if N > _SPACE_CAP:
        raise SizeCapError(f"q^n = {N} exceeds the enumeration cap")
    return int(rng.binomial(N, float(q) ** ((R - 1.0) * n)))


def draw_rc_words(q: int, n: int, k: int, rng: np.random.Generator) -> Code:
    """A uniform k-subset of GF(q)^n, the second draw of `sample_rc`: O(k log
    k) work, plus one shuffle of the q^n indices when q^n > 10,000 and k >
    q^n // 20, where numpy leaves Floyd's hash set for a shuffle of the tail."""
    words = np.sort(rng.choice(q**n, size=k, replace=False, shuffle=False))
    return Code(q=q, n=n, words=words, kind="plain")


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
    ell = 1 the cells are the q^n centers and the balls Hamming balls.  Every
    codeword's list ball is stamped by `_ball_stamper`, at a cost of |C| times
    the ball volume V, and counted by bincount into the N cells, at most
    max(_STAMP_CHUNK, N) ball cells at a time.
    """
    q, n = code.q, code.n
    if not 1 <= ell < q:
        raise DomainError(f"need 1 <= ell < q, got ell={ell}, q={q}")
    N = math.comb(q, ell) ** n
    if N > _CENTER_CAP:
        raise SizeCapError(f"cell space C(q, ell)^n = {N} exceeds the cap")
    balls, V = _ball_stamper(q, n, r, ell)
    rows = max(1, max(_STAMP_CHUNK, N) // V)
    words = code.words
    P = np.bincount(balls(words[:rows]).ravel(), minlength=N)
    for start in range(rows, words.size, rows):
        P += np.bincount(balls(words[start:start + rows]).ravel(), minlength=N)
    return P


def _ball_stamper(q: int, n: int, r: int, ell: int):
    """The radius-r list balls of codewords as packed cells: a function from
    k words to their cells, shape (k, V), and the ball volume V.

    T lies in the ball of c exactly when T - c lies in the ball of 0, so the
    ball of c is the zero word's ball with coordinate i's subsets translated
    by c_i: one gather per coordinate from the shift table, packed in base
    C(q, ell).  For ell = 1 over GF(2^m) a translate is the XOR of packed
    indices, so the ball is one XOR of the codeword with packed offsets.
    """
    offsets, shift = _zero_list_ball(q, n, r, ell)
    radix = math.comb(q, ell) ** np.arange(n, dtype=np.int64)
    if ell == 1 and make_field(q).p == 2:
        packed = radix @ offsets
        return (lambda words: words[:, None] ^ packed), offsets.shape[1]
    scaled = shift[None, :, :] * radix[:, None, None]

    def balls(words):
        dig = digits_of(words, q, n)
        out = scaled[0][dig[:, :1], offsets[0]]
        for i in range(1, n):
            out += scaled[i][dig[:, i:i + 1], offsets[i]]
        return out
    return balls, offsets.shape[1]


def _block_overflows(q: int, n: int, r: int, ell: int, L: int,
                     codes: list[Code]) -> tuple[np.ndarray, int]:
    """Which of the codes have L codewords in one cell, and the ball cells
    stamped to tell.

    Code t's stamps are offset by t * N, N = C(q, ell)^n, and the block's
    stamps sorted once: a cell holds L of code t's words exactly when
    cells[i] == cells[i + L - 1] inside t's slot.  Counts only grow as words
    are added, so each round stamps the first s words of the codes still
    undecided, s = max(`_PREFIX`, L) and then four times more, until a
    prefix puts L words in a cell or covers its code.  A code under L words
    is not stamped; one whose |C| * V stamps exceed its N cells takes its
    dense `occupancy_profile`, as in `check_ld_centers`.  So the block holds
    at most its codes' stamps, or one dense profile.
    """
    balls, V = _ball_stamper(q, n, r, ell)
    N = math.comb(q, ell) ** n
    sizes = np.asarray([c.size for c in codes], dtype=np.int64)
    dense = sizes * V > N
    full = np.zeros(len(codes), dtype=bool)
    for t in np.flatnonzero(dense):
        full[t] = occupancy_profile(codes[t], r, ell).max() >= L
    stamped = int(sizes[dense].sum()) * V
    # a live code has at least L words, so each round sorts at least L cells
    live, s = np.flatnonzero(~dense & (sizes >= L)), max(_PREFIX, L)
    while live.size:
        cells = balls(np.concatenate([codes[t].words[:s] for t in live]))
        cells += np.repeat(live * N, np.minimum(sizes[live], s))[:, None]
        cells = cells.ravel()
        cells.sort()
        stamped += cells.size
        head = cells[:cells.size - L + 1]
        full[head[head == cells[L - 1:]] // N] = True
        live = live[~full[live] & (sizes[live] > s)]
        s *= 4
    return full, stamped


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
    on violation the fullest center and its codeword list are returned, the
    smallest center when several are fullest.  The counts are the dense
    profile of `occupancy_profile`, at O(|C| V + q^n) time and q^n words of
    memory, V = |B(0, r)|, so SizeCapError is raised when q^n exceeds
    `_CENTER_CAP`.  It is the oracle of the sweeps' deciders and of
    `largest_fiber`, which a code with a parity check takes instead.
    """
    if L < 1:
        raise DomainError("list size must be >= 1")
    q, n = code.q, code.n
    r = radius_of(rho, n)
    P = occupancy_profile(code, r)
    mx = int(P.max())
    z = int(P.argmax())
    if mx < L:
        return LDReport(decodable=True, radius=r, max_count=mx)
    dz = digits_of(np.asarray([z]), q, n)[0]
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

    Sweeps decide from the sorted ball stamps of `_block_overflows` and come
    here only when the cells exceed the cap or the cells plus stamps the
    budget.  Sharing nothing with the stamps or the profile, this is also
    their independent oracle.
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
        if self.work_budget < 0:
            raise DomainError(f"work budget must be >= 0, got {self.work_budget}")


@dataclass
class SatisfactionCurve:
    family: str
    rates: np.ndarray
    p_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    trials: int
    routes: dict[str, int]
    stamp_blocks: int
    stamps: int

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


def _pcg64_states(seeds: list[int]) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that `np.random.default_rng(s)` starts from,
    for each seed s in [0, 2^64).

    default_rng(s) seeds PCG64 from NumPy's SeedSequence(s).  Its pool is
    s's two 32-bit words, low first, padded with zeros to four; each word
    is hashed, then every word is mixed with the hash of every other.
    generate_state(4, uint64) hashes the pool, cycled, out into eight
    32-bit words, read in pairs as four little-endian 64-bit words a, b, c,
    d.  PCG64 takes the 128-bit initial state a:b and stream c:d, sets
    inc = 2 (c:d) + 1 and runs two LCG steps: state = ((inc + a:b) M + inc)
    mod 2^128.  The hash constants step through the same sequence for every
    seed, so the pool runs as uint32 numpy ops over all seeds at once,
    wrapping mod 2^32 as NumPy's C code does; the 128-bit steps run on
    Python ints.
    """
    def hasher(h, mult):
        # SeedSequence's hash of a uint32 word, its constant stepped per call
        def hash32(v):
            nonlocal h
            v = v ^ h
            h = h * mult & 0xFFFFFFFF
            v = v * h
            return v ^ v >> 16
        return hash32

    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    s = np.asarray(seeds, dtype=np.uint64)
    pool[0], pool[1] = s & 0xFFFFFFFF, s >> 32
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    for i in range(4):
        pool[i] = hashmix(pool[i])
    for i in range(4):
        for j in range(4):
            if i != j:
                x = pool[j] * 0xCA01F9DD - hashmix(pool[i]) * 0x4973F715
                pool[j] = x ^ x >> 16
    out_hash = hasher(0x8B51F9DD, 0x58F38DED)
    words = np.stack([out_hash(pool[i % 4]) for i in range(8)]).astype(np.uint64)
    a, b, c, d = (words[0::2] | words[1::2] << 32).tolist()
    mask, mult = 2**128 - 1, 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier
    out = []
    for a_, b_, c_, d_ in zip(a, b, c, d):
        inc = (c_ << 65 | d_ << 1 | 1) & mask
        out.append((((inc + (a_ << 64 | b_)) * mult + inc) & mask, inc))
    return out


def _trial_rngs(master_seed: int, ri: int, trials: int) -> Iterator[np.random.Generator]:
    """The streams of one rate's trials: the i-th yield draws as
    `np.random.default_rng(trial_seed(master_seed, ri, i))` does.

    One Generator serves every trial, its PCG64 set to the trial's state
    from `_pcg64_states` with no buffered 32-bit half left over, so a trial
    must finish its draws before asking for the next.  The Generator's only
    other state, the binomial setup it caches, is rebuilt whenever (n, p)
    changes and depends on nothing else, so it carries no draw between
    trials.  Seeds are hashed `_SEED_BLOCK` at a time, which keeps memory
    flat in the number of trials.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    for start in range(0, trials, _SEED_BLOCK):
        stop = min(start + _SEED_BLOCK, trials)
        seeds = [trial_seed(master_seed, ri, ti) for ti in range(start, stop)]
        for state, inc in _pcg64_states(seeds):
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            yield rng


def _decide_rate(cfg: SweepConfig, ri: int, rate: float, work: dict) -> int:
    """How many of one rate's sampled codes satisfy the property.

    The property holds exactly when no cell of the occupancy profile holds L
    codewords.  A random linear code's list decoding (ell = 1) is decided
    from its parity-check matrix H alone when the zero word's ball, n * V
    digits for V = |B(0, r)|, fits the work budget and q^m fits in int64:
    the fullest ball holds `largest_fiber(H, q, r)` codewords, so the trial
    draws H and builds no code ("fiber").  Otherwise a random linear code
    is sampled, and a random code draws its size alone (`draw_rc_size`).
    The codewords' list balls cover the cells |C| * ball volume times, so
    past L - 1 times the number of cells some cell holds L of them and the
    trial fails ("pigeonhole"), a random code without drawing a word.
    Otherwise its words are drawn (`draw_rc_words`, as `sample_rc` does),
    `check_lr_dp` decides when the cells exceed the cap or cells plus stamps
    the work budget ("dp"), and `_block_overflows` the rest ("stamp").
    Every route is exact, so the route never changes a decision.

    Stamp-route codes queue until the next would take the queue's stamps
    past `_STAMP_CHUNK`, so a block holds at most max(`_STAMP_CHUNK`, one
    code's stamps) stamps, or one dense profile.  Routes are counted into
    `work["routes"]`, blocks into `work["stamp_blocks"]` and their stamped
    ball cells into `work["stamps"]`.
    """
    q, n, ell, L = cfg.q, cfg.n, cfg.ell, cfg.L
    r = radius_of(cfg.rho, n)
    V = ball_volume(q, n, r, ell)
    cells = math.comb(q, ell) ** n
    fiber = (cfg.family == "rlc" and ell == 1 and n * V <= cfg.work_budget
             and q ** parity_rows(n, rate) <= _PACK_CAP)
    ok = 0
    queue: list[Code] = []
    queued = 0

    def flush() -> int:
        full, stamped = _block_overflows(q, n, r, ell, L, queue)
        work["stamp_blocks"] += 1
        work["stamps"] += stamped
        return len(queue) - int(np.count_nonzero(full))

    for rng in _trial_rngs(cfg.master_seed, ri, cfg.trials):
        if fiber:
            route, decided = "fiber", largest_fiber(draw_parity_check(q, n, rate, rng), q, r) < L
        else:
            if cfg.family == "rlc":
                code = sample_rlc(q, n, rate, rng)
                size, words = code.size, lambda: code
            else:
                size = draw_rc_size(q, n, rate, rng)
                words = functools.partial(draw_rc_words, q, n, size, rng)
            stamps = size * V
            if stamps > (L - 1) * cells:
                route, decided = "pigeonhole", False
            elif cells > _CENTER_CAP or cells + stamps > cfg.work_budget:
                route, decided = "dp", check_lr_dp(words(), cfg.rho, ell, L,
                                                   cfg.work_budget).recoverable
            else:
                route, decided = "stamp", False
                if queue and queued + stamps > _STAMP_CHUNK:
                    ok += flush()
                    queue, queued = [], 0
                queue.append(words())
                queued += stamps
        work["routes"][route] += 1
        ok += decided
    if queue:
        ok += flush()
    return ok


def _partial_curve(cfg: SweepConfig, done: list[tuple[float, int]],
                   work: dict) -> SatisfactionCurve:
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
                             trials=cfg.trials, routes=dict(work["routes"]),
                             stamp_blocks=work["stamp_blocks"], stamps=work["stamps"])


def satisfaction_curve(cfg: SweepConfig) -> SatisfactionCurve:
    """Per-rate satisfaction frequency with Wilson intervals.

    Each trial owns an RNG stream keyed by (master seed, rate index, trial
    index), so results do not depend on the order the trials run in.  The
    streams are computed per rate by `_trial_rngs`, and the stream of trial
    ti at rate ri equals `np.random.default_rng(trial_seed(master_seed, ri,
    ti))`.  The curve counts the trials each route of `_decide_rate`
    decided: "stamp", "pigeonhole", "dp" or "fiber"; a random linear code's
    list-decoding trials take "fiber" whenever the n * |B(0, r)| digits of
    the zero word's ball fit the work budget and q^m fits in int64.
    Stamp-route codes are decided in blocks of at most `_STAMP_CHUNK`
    stamps, one sort of their growing prefixes' ball stamps per round, which
    spares the numpy call overhead of one profile per code; as every trial
    keeps its own stream and its own decision, the curve is the same, byte
    for byte, as one profile per code gives.  `stamp_blocks` counts the
    blocks and `stamps` the ball cells they stamped.  On a blown work budget
    the curve of the rates completed so far is attached to the raised error.
    """
    done: list[tuple[float, int]] = []
    work = {"routes": dict.fromkeys(("stamp", "pigeonhole", "dp", "fiber"), 0),
            "stamp_blocks": 0, "stamps": 0}
    try:
        for ri, rate in enumerate(cfg.rates):
            done.append((rate, _decide_rate(cfg, ri, rate, work)))
    except WorkBudgetExceededError as err:
        err.partial = _partial_curve(cfg, done, work)
        raise
    return _partial_curve(cfg, done, work)


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

    The profile holds `fibers`, the sizes of the ball's label classes
    `classes`, on the cosets classes + C and 0 elsewhere; `cells` (the
    support) and `counts` list it centre by centre when read.  `scanned`
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
    classes: np.ndarray
    fibers: np.ndarray

    @property
    def support(self) -> int:
        return self.code.size * int(self.classes.size)

    @property
    def cells(self) -> np.ndarray:
        return (self.classes[:, None] ^ self.code.words).ravel()

    @property
    def counts(self) -> np.ndarray:
        return np.repeat(self.fibers, self.code.size)


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
    than shuffling all 2^n - 1.  Such a v always exists: S_new summed over
    all v is 2^n S^2 and every v inside the span gives S_new >= S^2, so some
    v outside gives at most S^2.

    S is held as 2^(alpha top - n) M, alpha = n/L' and top the largest
    fiber, with M = sum_v hist[v] 2^(alpha (v - top)) in [1, 2^n] a
    double-double over the centres hist[v] of each profile value v and each
    2^(alpha d) cached.  A comparison within `_DD_TOLERANCE` of S^2 is
    settled from the integer counts: P^2 - 2^n P_new, P the polynomial in
    2^alpha whose coefficients are hist, is formed exactly and then summed,
    so an exact tie (P^2 = 2^n P_new) accepts, and a near tie is not lost
    to the cancellation of its terms of order 2^(2n).  So NoCandidateError,
    whose `history` holds the steps done, comes only from a restricted
    candidate order, barring round-off in that last sum.  Potentials past
    the float range report inf.

    For a linear C, P(z) = #{y in B(0, r) : y = z mod C}: each coset that
    meets the ball holds |C| centres of value its fiber size, the rest 0.  The
    run keeps a reduced echelon basis of C, each row's top bit its pivot, and
    each ball vector's label, the vector reduced against that basis.  A
    candidate v reduces to u: u = 0 means v lies in the span, and otherwise
    the labels mod C + {0, v} gain u wherever u's pivot bit is set, so a
    candidate costs O(V) for the V ball vectors, whatever n and |C| are.

    The target dimension defaults to the theorem's floor((1 - h2(rho) - 1/L'
    - delta) n), clamped up to 1 so that small-n demonstrations still run a
    step.  Since S_k >= 2^-n 2^((n/L') max P), the final list size always
    obeys max P <= L' (1 + log2(S_k) / n) = top + L' log2(M) / n, the
    `potential_bound`; the squared chain implies the theorem's cap
    floor(L' h2(rho) + 1 + delta) only at the theorem's dimension, so only
    there is the cap asserted, never at the clamp.  The code carries its
    parity check, so its list size can be read from the V syndromes by
    `largest_fiber`.  No 2^n array is held: a run is refused only when the
    V ball labels or the 2^k codewords pass `_CENTER_CAP`, or n passes the
    `_LABEL_BITS` of an int64 label.
    """
    if not 0.0 < rho < 0.5:
        raise DomainError("rho must lie in (0, 1/2)")
    if L < 2:
        raise DomainError("list size must be >= 2")
    if not delta > 0.0:
        raise DomainError("delta must be positive")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if n > _LABEL_BITS:
        raise SizeCapError(f"n = {n} exceeds the {_LABEL_BITS} bits of a coset label")
    h = hq(2, rho)
    num = L - 1 - 2.0 * delta
    if not num > 0.0:
        raise DomainError("need L - 1 - 2 delta > 0")
    lprime = num / h
    theorem_k = math.floor((1.0 - h - 1.0 / lprime - delta) * n)
    k = max(1, theorem_k) if k is None else k
    if not 1 <= k <= n:
        raise DomainError(f"target dimension must lie in [1, {n}], got {k}")
    r = radius_of(rho, n)
    V = ball_volume(2, n, r)
    if V > _CENTER_CAP:
        raise SizeCapError(f"|B(0, r)| = {V} exceeds the cap of {_CENTER_CAP} ball cells")
    if 1 << k > _CENTER_CAP:
        raise SizeCapError(f"2^k = {1 << k} exceeds the cap of {_CENTER_CAP} codewords")
    N = 1 << n

    offsets, _ = _zero_list_ball(2, n, r, 1)
    labels = 2 ** np.arange(n - 1, -1, -1, dtype=np.int64) @ offsets
    alpha = _dd_div((float(n), 0.0), (lprime, 0.0))

    @functools.cache
    def power(d: int) -> tuple[int, tuple[float, float]]:
        # 2^(alpha d) = 2^e m: e an integer nearest alpha d, m = 2^(alpha d - e),
        # both parts of the double-double rounded, since past 2^53 its low
        # part may exceed 1
        x = _dd_mul(alpha, (float(d), 0.0))
        e = (round(x[0]), round(x[1]))
        return sum(e), _dd_exp(_dd_mul(_dd_add(x, (-float(e[0]), -float(e[1]))), _LN2))

    @functools.cache
    def below(d: int) -> tuple[float, float]:
        # 2^(-alpha d) for d >= 0, 0 below the float range
        e, m = power(-d)
        return _dd_ldexp(m, float(e))

    def potential(fibers: np.ndarray, size: int):
        # S = 2^(alpha top - n) M, top the largest fiber; |C| = size centres
        # per class of each fiber size, 0 elsewhere
        hist = size * np.bincount(fibers)
        hist[0] = N - size * fibers.size
        top = hist.size - 1
        M = (0.0, 0.0)
        for v in np.flatnonzero(hist).tolist():
            M = _dd_add(M, _dd_mul(_weight(int(hist[v])), below(top - v)))
        return top, M, hist

    def excess(hist: np.ndarray, new: np.ndarray) -> float:
        # P^2 - 2^n P_new at 2^alpha, scaled by 2^(-2 alpha top), summed from
        # its exact integer coefficients, in which the terms of order 2^(2n)
        # have cancelled: 0 at an exact tie; top_new <= 2 top
        old = hist.astype(object)
        coeffs = np.convolve(old, old)
        coeffs[:new.size] -= new.astype(object) << n
        acc = (0.0, 0.0)
        for j, c in enumerate(coeffs.tolist()):
            if c:
                t = _dd_mul(_weight(abs(c)), below(coeffs.size - 1 - j))
                acc = _dd_add(acc, t if c > 0 else (-t[0], -t[1]))
        return acc[0]

    def value(top: int, M) -> float:
        # the float nearest 2^(alpha top - n) M >= 1: rounded once, scaled exactly
        e, m = power(top)
        x = _dd_mul(m, M)
        try:
            return math.ldexp(x[0] + x[1], e - n)
        except OverflowError:
            return math.inf

    top, M, hist = potential(np.ones(labels.size, dtype=np.int64), 1)
    s_initial = value(top, M)
    echelon: list[int] = []  # reduced: no row holds another's pivot bit
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
        # S_new <= S^2 reads M_new 2^(alpha (top_new - 2 top)) 2^n <= M^2,
        # where top_new <= 2 top
        square = _dd_mul(M, M)
        s_before, s_squared = value(top, M), value(2 * top, _dd_ldexp(square, -float(n)))
        for v in order():
            u = v
            for b in echelon:
                if u >> (b.bit_length() - 1) & 1:
                    u ^= b
            if not u:
                continue
            scanned += 1
            p = u.bit_length() - 1
            moved = np.where(labels >> p & 1, labels ^ u, labels)
            classes, fibers = np.unique(moved, return_counts=True)
            top_new, M_new, hist_new = potential(fibers, 1 << step)
            lhs = _dd_ldexp(_dd_mul(M_new, below(2 * top - top_new)), float(n))
            gap = _dd_add(lhs, (-square[0], -square[1]))[0]
            if abs(gap) <= _DD_TOLERANCE * square[0]:
                gap = -excess(hist, hist_new)
            if gap <= 0.0:
                history.append(dict(step=step, vector=v, s_before=s_before,
                                    s_after=value(top_new, M_new),
                                    s_before_squared=s_squared, ok=True))
                echelon = [b ^ u if b >> p & 1 else b for b in echelon] + [u]
                basis.append(v)
                labels, top, M, hist = moved, top_new, M_new, hist_new
                break
        else:
            raise NoCandidateError(
                f"no extension at step {step} keeps the potential squared", history
            )

    # max P <= top + L' log2(M) / n, log2 M taken from M = 2^e m, m in [1, 2),
    # so that a uniform profile, M = 2^n, gives top + L' rounded once
    e = math.frexp(M[0])[1]
    m = _dd_ldexp(M, float(1 - e))
    log2_M = _dd_add((float(e - 1), 0.0), _dd_div(_dd_log(m), _LN2))
    bound = _dd_add((float(top), 0.0),
                    _dd_mul((lprime, 0.0), _dd_div(log2_M, (float(n), 0.0))))
    potential_bound = bound[0] + bound[1]
    cap = math.floor(lprime * h + 1.0 + delta)
    final_max = int(fibers.max())
    if final_max > potential_bound * (1 + 1e-12):
        raise AssertionError(f"list size {final_max} exceeds the potential bound "
                             f"{potential_bound}")
    if k == theorem_k and final_max > cap:
        raise AssertionError(f"potential chain held but list size {final_max} exceeds cap {cap}")
    gen = digits_of(np.asarray(basis, dtype=np.int64), 2, n)
    H = map_with_kernel(rref_of(gen, 2)) if k < n else np.zeros((0, n), dtype=np.int16)
    code = Code(q=2, n=n, words=np.sort(matvec_all(gen.T, make_field(2))), kind="linear",
                generator=gen, parity_check=H)
    return GreedyResult(code=code, history=history, k=k, cap=cap, lprime=lprime,
                        s_initial=s_initial, final_max_count=final_max,
                        potential_bound=potential_bound, scanned=scanned,
                        classes=classes, fibers=fibers)
