"""Canonical enumeration of subspaces of GF(q)^L and quotient maps.

Subspaces are represented by their reduced-row-echelon basis, which makes the
representation canonical: two subspaces are equal iff their RREF bases are
equal; `rref_of` computes it with `fields.row_reduce`.  One enumeration visits
every k-dim subspace once (counts match the Gaussian binomials): the pivot
patterns in turn, each with its free entries filled from blocks of base-q
counter digits.  Two index templates per pattern read a block's RREF bases
(`iter_rref_bases`, `kernel_at`) and its quotient matrices off the same
digits; `kernel_entropy_table` pushes a type through a block's quotients with
one `fields.matvec_all` call, and `map_with_kernel` applies the quotient
template to one basis, which is also how `simulate.sample_rlc` turns a
parity-check matrix into a generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DigitOutOfRangeError,
    DomainError,
    FullSpaceKernelError,
    ShapeMismatchError,
)
from .fields import digits_of, make_field, matvec_all, row_reduce, vec_table
from .infomeasures import entropy
from .typespace import TypeDist

_CHUNK = 1 << 14  # kernels x q^L cells pushed forward per numpy block


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
                raise ShapeMismatchError("basis row length differs from ambient dimension")
            if any(not 0 <= x < self.q for x in row):
                raise DigitOutOfRangeError(f"basis entry outside [0, {self.q})")
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
        raise ShapeMismatchError("ragged generator rows") from err
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
    """The t-th k-dim subspace of `iter_rref_bases(q, L, k)`, decoded from t."""
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
        raise FullSpaceKernelError("the full space leaves no quotient to map onto")
    basis, quotient = _templates(L, s.pivots)
    digits = np.asarray(s.basis, dtype=np.int64).reshape(s.dim, L)[basis > 1]
    return _fill(quotient, make_field(s.q).neg_table[digits][None])[0].astype(np.int16)


def kernel_entropy_table(tau: TypeDist, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pushforward entropies and image dimensions of all k-dim kernels.

    Row t of the (entropy, dim_image) arrays belongs to the t-th basis of
    `iter_rref_bases(q, L, k)`: the base-q entropy of tau pushed through that
    kernel's `map_with_kernel` quotient map, and the dimension of the span
    of its support.  That is L - k for every kernel when the support of tau
    spans GF(q)^L, which is checked once; otherwise each image without full
    support is ranked.  Kernels sharing a pivot pattern are pushed forward
    together, _CHUNK kernels x q^L cells at most: their (B, L - k, L) stack
    of quotient matrices goes through one `fields.matvec_all` call, and the
    masses come from one bincount with a per-kernel offset.
    """
    q, L = tau.q, tau.b
    if not 0 <= k < L:
        raise DomainError(f"kernel dimension {k} outside [0, {L})")
    fs = make_field(q)
    Lp = L - k
    N, M = q**L, q**Lp
    step = max(1, _CHUNK // N)
    weights = np.tile(tau.probs, step)
    spans = tau.probs.all() or len(row_reduce(vec_table(q, L)[tau.probs > 0], fs)[1]) == L
    entropies, dims = [], []
    for (_, quotient), digits in _rref_blocks(q, L, k, step):
        B = digits.shape[0]
        images = matvec_all(_fill(quotient, fs.neg_table[digits]), fs)
        images += (np.arange(B) * M)[:, None]
        masses = np.bincount(images.ravel(), weights=weights[:B * N],
                             minlength=B * M).reshape(B, M)
        entropies.append(entropy(masses, q))
        dim = np.full(B, Lp)
        if not spans:
            full = masses > 0
            for b in np.flatnonzero(~full.all(axis=1)):
                dim[b] = len(row_reduce(vec_table(q, Lp)[full[b]], fs)[1])
        dims.append(dim)
    return np.concatenate(entropies), np.concatenate(dims)


def iter_kernel_entropies(tau: TypeDist, dims=None):
    """Stream (basis, image_dim, entropy_base_q) over proper-subspace kernels.

    `basis` is the RREF basis tuple of the kernel; the numbers are the rows
    of `kernel_entropy_table`, one kernel dimension at a time.  It stays a
    generator: `perfbench/tracing.py` traces it and counts one kernel per item.
    """
    for k in range(tau.b) if dims is None else sorted(set(dims)):
        H, D = kernel_entropy_table(tau, k)
        yield from zip(iter_rref_bases(tau.q, tau.b, k), D.tolist(), H.tolist())
