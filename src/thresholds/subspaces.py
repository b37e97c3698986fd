"""Canonical enumeration of subspaces of GF(q)^L and quotient maps.

Subspaces are represented by their reduced-row-echelon basis, which makes the
representation canonical: two subspaces are equal iff their RREF bases are
equal; `rref_of` computes it with `fields.row_reduce`.  One enumeration visits
every k-dim subspace once (counts match the Gaussian binomials): the pivot
patterns in turn, each with its free entries filled from blocks of base-q
counter digits.  Two index templates per pattern read a block's RREF bases
(`iter_rref_bases`, `kernel_at`) and its quotient matrices off the same
digits; `kernel_entropy_table` pushes a type through the quotients of all
k-dim kernels, about `_CHUNK` cells per `fields.matvec_all` call, and
`map_with_kernel` applies the quotient template to one basis, which is also
how `simulate.sample_rlc` turns a parity-check matrix into a generator.

`ones_kernel_table` pushes a type through the k-dim kernels that contain the
all-ones vector only, [L-1, k-1]_q of the [L, k]_q, each built from a
(k-1)-dim subspace of GF(q)^(L-1) and carrying its index in the full
enumeration.  `engine.kernel_slack_report` reads the zero kernel and these
tables: over GF(2), 2,825 of the 29,211 proper kernels at L = 7 and 29,212
of 417,198 at L = 8.  Their quotient images do not depend on the type, so
they are kept per (q, L, k), read-only and in the smallest unsigned dtype
that holds q^(L-k), while all kept tables fit in `_IMAGE_BYTES` (32 MiB); a
table that would not fit streams block by block, as the full tables do, and
is not kept.  A further radius then costs one bincount per block.  Acceptance
criterion 6 (every L in 2..8 at three radii) took 5.2 s when every kernel was
swept, 0.49 s with these tables and takes 0.27 s with the cache, on 2 CPU
cores (Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fields import digits_of, make_field, matvec_all, pack_digits, row_reduce, vec_table
from .infomeasures import entropy
from .typespace import TypeDist

_CHUNK = 1 << 14  # kernels x q^L cells pushed forward per numpy block
_IMAGE_BYTES = 32 << 20  # bytes of ones-kernel quotient images kept across calls

# (q, L, k) -> (image blocks, index blocks) of `_ones_images`, and its hits
_images: dict[tuple[int, int, int], tuple[list[np.ndarray], list[np.ndarray]]] = {}
_image_hits = 0


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n, as an exact integer."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


@dataclass(frozen=True)
class SubspaceRREF:
    """A subspace of GF(q)^ambient given by its RREF basis (rows of digits)."""

    q: int
    ambient: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        piv_prev = -1
        for r, row in enumerate(self.basis):
            if len(row) != self.ambient:
                raise DomainError("basis row length differs from ambient dimension")
            if any(not 0 <= x < self.q for x in row):
                raise DomainError(f"basis entry outside [0, {self.q})")
            piv = next((j for j, x in enumerate(row) if x), None)
            if piv is None:
                raise DomainError("zero row in an RREF basis")
            if piv <= piv_prev:
                raise DomainError("pivot columns must strictly increase")
            if row[piv] != 1:
                raise DomainError("pivot entries must be 1")
            for r2, other in enumerate(self.basis):
                if r2 != r and other[piv] != 0:
                    raise DomainError("pivot column must be zero in other rows")
            piv_prev = piv

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.basis)


def rref_of(rows, q: int) -> SubspaceRREF:
    """Canonical RREF subspace spanned by generator rows (an (m, L) array-like;
    a numpy array with m = 0 spans the zero subspace of GF(q)^L)."""
    fs = make_field(q)
    try:
        M = np.asarray(rows, dtype=np.int64)
    except ValueError as err:
        raise DomainError("ragged generator rows") from err
    if M.ndim != 2:
        raise DomainError("need a two-dimensional array of generator rows")
    R, _ = row_reduce(M, fs)
    return SubspaceRREF(q=q, ambient=M.shape[1], basis=tuple(map(tuple, R.tolist())))


def _templates(L: int, pivots) -> tuple[np.ndarray, np.ndarray]:
    """Where a pivot pattern's RREF basis and quotient matrix read their
    entries: 0 and 1 stand for themselves, 2 + f for the f-th free entry
    (right of a row's pivot, outside the pivot columns; row by row).  Quotient
    row r has 1 in the r-th free column c and minus basis entry (i, c) in the
    pivot column of basis row i, so it kills every basis row."""
    k = len(pivots)
    free_cols = [j for j in range(L) if j not in pivots]
    basis = np.zeros((k, L), dtype=np.intp)
    quotient = np.zeros((L - k, L), dtype=np.intp)
    basis[np.arange(k), list(pivots)] = 1
    quotient[np.arange(L - k), free_cols] = 1
    f = 2
    for i, p in enumerate(pivots):
        for r, j in enumerate(free_cols):
            if j > p:
                basis[i, j] = quotient[r, p] = f
                f += 1
    return basis, quotient


def _fill(template: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The int64 matrices a template reads off each row of free digits."""
    ones = np.ones((len(digits), 1), dtype=np.int64)
    return np.concatenate([ones - 1, ones, digits], axis=1)[:, template]


def _rref_blocks(q: int, L: int, k: int, step: int, start: int = 0):
    """Yield (templates, digits) for the k-dim subspaces of GF(q)^L from the
    start-th on: the `_templates` of a pivot pattern and a (B, F) block of
    B <= step rows of its F free digits.  Pivot patterns come in
    `itertools.combinations` order; within one the free digits run through
    GF(q) like a base-q counter, the last fastest."""
    for pivots in itertools.combinations(range(L), k):
        templates = _templates(L, pivots)
        F = int((templates[0] > 1).sum())
        for t0 in range(start, q**F, step):
            yield templates, digits_of(np.arange(t0, min(t0 + step, q**F)), q, F)[:, ::-1]
        start = max(0, start - q**F)


def iter_rref_bases(q: int, L: int, k: int):
    """Yield the RREF basis (tuple of row tuples) of every k-dim subspace of
    GF(q)^L, in the enumeration order of every kernel table."""
    for (basis, _), digits in _rref_blocks(q, L, k, _CHUNK):
        yield from (tuple(map(tuple, b)) for b in _fill(basis, digits).tolist())


def kernel_at(q: int, L: int, k: int, t: int) -> SubspaceRREF:
    """The t-th k-dim subspace of `iter_rref_bases(q, L, k)`, decoded from t
    (0 <= k <= L, 0 <= t < [L, k]_q)."""
    if not 0 <= k <= L:
        raise DomainError(f"subspace dimension {k} outside [0, {L}]")
    count = gaussian_binomial(L, k, q)
    if not 0 <= t < count:
        raise DomainError(f"index {t} outside [0, {count}) of the {k}-dim subspaces "
                          f"of GF({q})^{L}")
    (basis, _), digits = next(_rref_blocks(q, L, k, 1, t))
    rows = _fill(basis, digits)[0].tolist()
    return SubspaceRREF(q=q, ambient=L, basis=tuple(map(tuple, rows)))


def map_with_kernel(s: SubspaceRREF) -> np.ndarray:
    """Deterministic surjection GF(q)^L -> GF(q)^(L-dim) with kernel s.

    Returns its (L - dim, L) int16 matrix, the `_templates` quotient read off
    the basis's free digits; for the zero subspace this is the identity.
    """
    L = s.ambient
    if s.dim == L:
        raise DomainError("the full space leaves no quotient to map onto")
    basis, quotient = _templates(L, s.pivots)
    digits = np.asarray(s.basis, dtype=np.int64).reshape(s.dim, L)[basis > 1]
    return _fill(quotient, make_field(s.q).neg_table[digits][None])[0].astype(np.int16)


def _regroup(stacks, step: int):
    """The rows of a stream of arrays, regrouped into blocks of `step` rows
    (the last block may be shorter)."""
    held = None
    for a in stacks:
        held = a if held is None else np.concatenate([held, a])
        full = len(held) - len(held) % step
        yield from (held[i:i + step] for i in range(0, full, step))
        held = held[full:]
    if held is not None and len(held):
        yield held


def _quotient_images(q: int, L: int, stacks):
    """Yield the packed images (`fields.matvec_all`) of a stream of (B, L', L)
    quotient stacks, regrouped across stack boundaries into blocks of
    max(1, _CHUNK // q^L) matrices, each block cast to the smallest unsigned
    dtype that holds q^L' values."""
    fs = make_field(q)
    for quotients in _regroup(stacks, max(1, _CHUNK // q**L)):
        yield matvec_all(quotients, fs).astype(np.min_scalar_type(q ** quotients.shape[1] - 1))


def _push_images(tau: TypeDist, Lp: int, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Base-q entropies and image dimensions of tau pushed through each
    quotient map of a stream of `_quotient_images` blocks, in stream order.

    A block's masses come from one bincount with a per-kernel offset.  The
    image dimension is Lp for every row when the support of tau spans
    GF(q)^L, which is checked once; otherwise each image without full support
    is ranked.
    """
    q, L = tau.q, tau.b
    fs = make_field(q)
    N, M = q**L, q**Lp
    step = max(1, _CHUNK // N)
    weights = np.tile(tau.probs, step)
    offsets = (np.arange(step) * M)[:, None]
    spans = tau.probs.all() or len(row_reduce(vec_table(q, L)[tau.probs > 0], fs)[1]) == L
    entropies, dims = [], []
    for images in blocks:
        B = len(images)
        masses = np.bincount((images + offsets[:B]).ravel(), weights=weights[:B * N],
                             minlength=B * M).reshape(B, M)
        entropies.append(entropy(masses, q))
        dim = np.full(B, Lp)
        if not spans:
            full = masses > 0
            for b in np.flatnonzero(~full.all(axis=1)):
                dim[b] = len(row_reduce(vec_table(q, Lp)[full[b]], fs)[1])
        dims.append(dim)
    return np.concatenate(entropies), np.concatenate(dims)


def kernel_entropy_table(tau: TypeDist, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pushforward entropies and image dimensions of all k-dim kernels.

    Row t of the (entropy, dim_image) arrays belongs to the t-th basis of
    `iter_rref_bases(q, L, k)`: the base-q entropy of tau pushed through that
    kernel's `map_with_kernel` quotient map, and the dimension of the span
    of its support, both from `_push_images`.
    """
    q, L = tau.q, tau.b
    if not 0 <= k < L:
        raise DomainError(f"kernel dimension {k} outside [0, {L})")
    neg = make_field(q).neg_table
    stacks = (_fill(quotient, neg[digits])
              for (_, quotient), digits in _rref_blocks(q, L, k, _CHUNK))
    return _push_images(tau, L - k, _quotient_images(q, L, stacks))


def _ones_kernels(q: int, L: int, k: int):
    """Yield (bases, quotients, index) blocks over the k-dim subspaces of
    GF(q)^L that contain the all-ones vector 1 (1 <= k <= L).

    Such a K meets {x_0 = 0} in 0 x W for one (k-1)-dim W of GF(q)^(L-1) and
    is span(1, 0 x W), so there are [L-1, k-1]_q of them, one per W of
    `_rref_blocks(q, L-1, k-1)`.  The RREF of K is W's rows shifted right by
    one column under the row 1 - (sum of those rows); its pivots are
    (0, 1 + pivots of W).  A block holds the (B, k, L) RREF bases, the
    (B, L-k, L) `_templates` quotient matrices and the (B,) indices of the
    kernels in `iter_rref_bases(q, L, k)`: the offset of the pivot pattern
    plus the free digits read most significant first.  The first row's
    digits lead, so the order of the indices is not W's order.  A block
    holds at most _CHUNK // L kernels, which keeps its int64 stacks to a few
    MB at q = 2, L = 9.
    """
    fs = make_field(q)
    offset, size, pattern = 0, 0, None  # first index and count of `pattern`
    for (w_basis, _), digits in _rref_blocks(q, L - 1, k - 1, _CHUNK // L):
        pivots = (0, *(1 + np.nonzero(w_basis == 1)[1]).tolist())
        if pivots != pattern:
            offset += size
            pattern = pivots
            basis, quotient = _templates(L, pivots)
            size = q ** int((basis > 1).sum())
        W = _fill(w_basis, digits)
        total = np.zeros((len(W), L - 1), dtype=np.int64)
        for i in range(k - 1):
            total = fs.add_table[total, W[:, i]]
        bases = np.zeros((len(W), k, L), dtype=np.int64)
        bases[:, 0, 0] = 1
        bases[:, 0, 1:] = fs.add_table[1, fs.neg_table[total]]
        bases[:, 1:, 1:] = W
        free = bases[:, basis > 1]
        index = offset + pack_digits(free[:, ::-1], q)
        yield bases, _fill(quotient, fs.neg_table[free]), index


def _ones_images(q: int, L: int, k: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The `_quotient_images` blocks and the index blocks of the k-dim kernels
    of `_ones_kernels(q, L, k)`, memoized per (q, L, k).

    A table is kept, read-only, while all kept tables fit in _IMAGE_BYTES;
    otherwise it streams: the image blocks come as a generator and the index
    list fills as they are consumed, so it is never held whole.
    """
    global _image_hits
    key = (q, L, k)
    if key in _images:
        _image_hits += 1
        return _images[key]
    indices = []

    def stacks():
        for _, quotients, index in _ones_kernels(q, L, k):
            indices.append(index)
            yield quotients

    blocks = _quotient_images(q, L, stacks())
    cell = np.min_scalar_type(q ** (L - k) - 1).itemsize
    held = sum(a.nbytes for table in _images.values() for part in table for a in part)
    if held + gaussian_binomial(L - 1, k - 1, q) * (q**L * cell + 8) > _IMAGE_BYTES:
        return blocks, indices
    blocks = list(blocks)
    for a in blocks + indices:
        a.flags.writeable = False
    _images[key] = blocks, indices
    return blocks, indices


def image_cache_hits() -> int:
    """How many `ones_kernel_table` calls in this process read their images
    from the cache."""
    return _image_hits


def ones_kernel_table(tau: TypeDist, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pushforward entropies, image dimensions and enumeration indices of the
    k-dim kernels that contain the all-ones vector (1 <= k < L).

    Row i is one kernel of `_ones_kernels`: its index t in
    `iter_rref_bases(q, L, k)` (so `kernel_at(q, L, k, t)` decodes it) and the
    numbers `kernel_entropy_table(tau, k)` holds in its row t, computed from
    the same quotient matrix and the same blocks.  The quotient images do not
    depend on tau, so `_ones_images` keeps them per (q, L, k), and a call on
    a kept table costs one bincount and one entropy per block.
    """
    q, L = tau.q, tau.b
    if not 1 <= k < L:
        raise DomainError(f"kernel dimension {k} outside [1, {L})")
    blocks, indices = _ones_images(q, L, k)
    H, D = _push_images(tau, L - k, blocks)
    return H, D, np.concatenate(indices)


def iter_kernel_entropies(tau: TypeDist):
    """Stream (basis, image_dim, entropy_base_q) over proper-subspace kernels.

    `basis` is the RREF basis tuple of the kernel; the numbers are the rows
    of `kernel_entropy_table`, one kernel dimension at a time.  It stays a
    generator: `perfbench/tracing.py` traces it and counts one kernel per item.
    """
    for k in range(tau.b):
        H, D = kernel_entropy_table(tau, k)
        yield from zip(iter_rref_bases(tau.q, tau.b, k), D.tolist(), H.tolist())
