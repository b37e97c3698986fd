"""Canonical enumeration of subspaces of GF(q)^L and quotient maps.

Subspaces are represented by their reduced-row-echelon basis, which makes the
representation canonical: two subspaces are equal iff their RREF bases are
equal.  `rref_of` validates generator rows and hands them to
`fields.row_reduce`; `map_with_kernel` reads a quotient matrix off an RREF
basis, which is also how `simulate.sample_rlc` turns a parity-check matrix
into a generator.  Enumeration walks pivot-column combinations and fills the
free entries, which visits every subspace exactly once; counts per dimension
match the Gaussian binomials.

`kernel_entropy_table` pushes a type through the quotient map of every
k-dimensional kernel at once: the kernels that share a pivot pattern are
stacked into blocks of quotient matrices, and `fields.matvec_all` gives the
images of one block; `iter_kernel_entropies` and `entropy_over_kernels` pair
its rows with the kernel bases.
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
    SizeCapError,
)
from .fields import make_field, matvec_all, row_reduce, vec_table
from .infomeasures import entropy
from .typespace import TypeDist

_ENUM_CAP = 200_000


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


def _pivot_patterns(L: int, k: int):
    """Yield (pivots, free positions) of each k-row RREF pattern, in enumeration
    order.  Free positions are the (row, column) entries a pattern leaves open."""
    for pivots in itertools.combinations(range(L), k):
        yield pivots, [
            (i, j) for i in range(k) for j in range(pivots[i] + 1, L) if j not in pivots
        ]


def iter_rref_bases(q: int, L: int, k: int):
    """Yield the RREF basis (tuple of row tuples) of every k-dim subspace of GF(q)^L.

    Within a pivot pattern the free entries run through GF(q) like the digits
    of a base-q counter, the last free position fastest.
    """
    for pivots, freepos in _pivot_patterns(L, k):
        base = [[int(j == p) for j in range(L)] for p in pivots]
        for assignment in itertools.product(range(q), repeat=len(freepos)):
            rows = [r[:] for r in base]
            for (i, j), v in zip(freepos, assignment):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def map_with_kernel(s: SubspaceRREF) -> np.ndarray:
    """Deterministic surjection GF(q)^L -> GF(q)^(L-dim) with kernel s.

    Returns its (L - dim, L) int16 matrix: the nullspace basis of the RREF
    basis matrix, one row per free column in ascending order, with 1 in that
    column and minus the basis entries in the pivot columns; for the zero
    subspace this is the identity.
    """
    L = s.ambient
    if s.dim == L:
        raise FullSpaceKernelError("the full space leaves no quotient to map onto")
    free = [j for j in range(L) if j not in s.pivots]
    out = np.zeros((len(free), L), dtype=np.int16)
    out[np.arange(len(free)), free] = 1
    if s.dim:
        out[:, list(s.pivots)] = make_field(s.q).neg_table[np.asarray(s.basis)[:, free].T]
    return out


_CHUNK = 1 << 14  # kernels x q^L cells pushed forward per numpy block


def kernel_entropy_table(tau: TypeDist, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pushforward entropies and image dimensions of all k-dim kernels.

    Row t of the (entropy, dim_image) arrays belongs to the t-th basis of
    `iter_rref_bases(q, L, k)`: the base-q entropy of tau pushed through that
    kernel's `map_with_kernel` quotient map, and L - k, or for an image
    without full support the rank of its support.  Kernels sharing a pivot
    pattern are pushed forward together, _CHUNK kernels x q^L cells at most:
    their (B, L - k, L) stack of quotient matrices goes through one
    `fields.matvec_all` call, and the masses come from one bincount with a
    per-kernel offset.
    """
    q, L = tau.q, tau.b
    if not 0 <= k < L:
        raise DomainError(f"kernel dimension {k} outside [0, {L})")
    fs = make_field(q)
    Lp = L - k
    N, M = q**L, q**Lp
    step = max(1, _CHUNK // N)
    weights = np.tile(tau.probs, step)
    entropies, dims = [], []
    for pivots, freepos in _pivot_patterns(L, k):
        F = len(freepos)
        free_cols = [j for j in range(L) if j not in pivots]
        # quotient-map entry (row r, pivot column p) = -(free digit f)
        entries = [(free_cols.index(j), pivots[i], f) for f, (i, j) in enumerate(freepos)]
        for t0 in range(0, q**F, step):
            t = np.arange(t0, min(t0 + step, q**F))
            B = t.size
            digits = (t[:, None] // q ** np.arange(F - 1, -1, -1)) % q
            maps = np.zeros((B, Lp, L), dtype=np.int64)
            maps[:, np.arange(Lp), free_cols] = 1
            for r, p, f in entries:
                maps[:, r, p] = fs.neg_table[digits[:, f]]
            images = matvec_all(maps, fs)
            images += (np.arange(B) * M)[:, None]
            masses = np.bincount(images.ravel(), weights=weights[:B * N],
                                 minlength=B * M).reshape(B, M)
            entropies.append(entropy(masses, q))
            full = masses > 0
            dim = np.full(B, Lp)
            for b in np.flatnonzero(~full.all(axis=1)):
                dim[b] = len(row_reduce(vec_table(q, Lp)[full[b]], fs)[1])
            dims.append(dim)
    return np.concatenate(entropies), np.concatenate(dims)


def iter_kernel_entropies(tau: TypeDist, dims=None):
    """Stream (basis, image_dim, entropy_base_q) over proper-subspace kernels.

    `basis` is the RREF basis tuple of the kernel; the numbers are the rows
    of `kernel_entropy_table`, one kernel dimension at a time.
    """
    for k in range(tau.b) if dims is None else sorted(set(dims)):
        H, D = kernel_entropy_table(tau, k)
        yield from zip(iter_rref_bases(tau.q, tau.b, k), D.tolist(), H.tolist())


def entropy_over_kernels(tau: TypeDist, dims=None) -> list[dict]:
    """Pushforward entropy and image dimension for every proper kernel.

    Returns a list of {"kernel": SubspaceRREF, "entropy": float, "dim_image":
    int}; entropies in base-q units.  Capped; use `iter_kernel_entropies` for
    the large streaming sweeps.
    """
    q, L = tau.q, tau.b
    dims = list(range(L)) if dims is None else sorted(set(dims))
    total = sum(gaussian_binomial(L, k, q) for k in dims)
    if total > _ENUM_CAP:
        raise SizeCapError(f"{total} kernels exceed the list cap; use iter_kernel_entropies")
    return [{"kernel": SubspaceRREF(q=q, ambient=L, basis=basis), "entropy": H, "dim_image": d}
            for basis, d, H in iter_kernel_entropies(tau, dims=dims)]
