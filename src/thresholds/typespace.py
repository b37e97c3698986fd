"""Distributions over GF(q)^b ("types"), their linear images, and the
canonical boundary type that drives the threshold optimizations.

A TypeDist is a probability vector over all q^b column vectors, indexed by the
little-endian packing from `fields`, validated by the same rule as every
`infomeasures.JointTable`.  `bad_type` builds the joint type of (u, S) on the
boundary of the list-recovery constraints, as a JointTable with axis x the
vector u in GF(q)^L and axis y the ell-subset S; the kernel sweep of
`engine.kernel_slack_report` reads its u-marginal.  All masses are floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, ShapeMismatchError, SizeCapError, UnsupportedError
from .fields import make_field, matvec_all, row_reduce, vec_table
from .infomeasures import JointTable, _checked_masses, entropy

_ORBIT_L_CAP = 6


# ---------------------------------------------------------------------------
# containers


@dataclass
class TypeDist:
    """Distribution over GF(q)^b, indexed by packed vector index."""

    q: int
    b: int
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.shape != (self.q**self.b,):
            raise ShapeMismatchError(
                f"expected {self.q ** self.b} masses for q={self.q}, b={self.b}, "
                f"got shape {self.probs.shape}"
            )
        self.probs = _checked_masses(self.probs)

    def entropy(self) -> float:
        """Entropy in base-q units."""
        return float(entropy(self.probs, self.q))


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


# ---------------------------------------------------------------------------
# linear images and ranks


def pushforward(tau: TypeDist, A) -> TypeDist:
    """Image distribution of tau under the linear map with matrix A (rows x b)."""
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != 2 or A.shape[1] != tau.b:
        raise ShapeMismatchError(f"matrix shape {A.shape} incompatible with b={tau.b}")
    rows = A.shape[0]
    images = matvec_all(A, make_field(tau.q))
    probs = np.bincount(images, weights=tau.probs, minlength=tau.q**rows)
    return TypeDist(q=tau.q, b=rows, probs=probs)


def dim_of_type(tau: TypeDist) -> int:
    """Dimension of the span of the support of tau."""
    return len(row_reduce(vec_table(tau.q, tau.b)[tau.probs > 0], make_field(tau.q))[1])


# ---------------------------------------------------------------------------
# the canonical boundary family


def bad_type(spec: LRSpec) -> JointTable:
    """The canonical joint type sitting on the boundary of the constraint set.

    Cell [u, s] of the table is the mass of the vector u in GF(q)^L (packed
    index) with the s-th ell-subset in lexicographic order, that of
    `itertools.combinations`.  S is uniform over ell-subsets of the alphabet;
    given S the L coordinates are i.i.d. with mass (1-rho)/ell on each symbol
    inside S and rho/(q-ell) on each symbol outside.  A cell's mass depends
    only on how many of its coordinates lie in S, so the L + 1 possible masses
    are computed exactly (rho taken as the binary rational of the float) and
    each rounded once.
    """
    q, ell, L = spec.q, spec.ell, spec.L
    subsets = list(itertools.combinations(range(q), ell))
    C = len(subsets)
    if q**L * C > 1 << 22:
        raise SizeCapError(f"joint table with {q**L * C} cells exceeds the cap")
    rho_f = Fraction(spec.rho)
    inside = (1 - rho_f) / ell
    outside = rho_f / (q - ell)
    masses = np.array([float(Fraction(1, C) * inside**k * outside ** (L - k))
                       for k in range(L + 1)])
    member = np.zeros((q, C), dtype=np.int8)
    for sidx, S in enumerate(subsets):
        member[list(S), sidx] = 1
    inside_count = np.zeros((q**L, C), dtype=np.int8)
    for digits in vec_table(q, L).T:
        inside_count += member[digits]
    return JointTable(masses[inside_count])


# ---------------------------------------------------------------------------
# coincidence orbits


@dataclass(frozen=True)
class OrbitClass:
    """Vectors in GF(q)^L sharing a coincidence pattern (which coordinates agree).

    `shape` is the multiset of value multiplicities, largest first; the class
    of constant vectors has shape (L,).
    """

    shape: tuple[int, ...]
    size: int
    indices: np.ndarray = field(compare=False, repr=False)


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
