"""Distributions over GF(q)^b ("types"), their linear images, and the
canonical boundary type that drives the threshold optimizations.

A TypeDist is a probability vector over all q^b column vectors, indexed by the
little-endian packing from `fields`, validated by the same rule as every
`infomeasures.JointTable`.  `bad_type` builds the joint type of (u, S) on the
boundary of the list-recovery constraints, as a JointTable with axis x the
vector u in GF(q)^L and axis y the ell-subset S; the kernel sweep of
`engine.kernel_slack_report` reads its u-marginal.  All masses are floats.
`shape_tally` counts the vectors of GF(q)^L per coincidence shape, the
classes whose masses are the free variables of every threshold optimization
in `engine`, from the integer partitions of L without visiting a vector.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, SizeCapError
from .fields import make_field, matvec_all, vec_table
from .infomeasures import JointTable, _checked_masses, entropy


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
            raise DomainError(
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
# linear images


def pushforward(tau: TypeDist, A) -> TypeDist:
    """Image distribution of tau under the linear map with matrix A (rows x b)."""
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != 2 or A.shape[1] != tau.b:
        raise DomainError(f"matrix shape {A.shape} incompatible with b={tau.b}")
    rows = A.shape[0]
    images = matvec_all(A, make_field(tau.q))
    probs = np.bincount(images, weights=tau.probs, minlength=tau.q**rows)
    return TypeDist(q=tau.q, b=rows, probs=probs)


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
# coincidence classes


def _partitions(n: int, parts: int, most: int):
    """Partitions of n into at most `parts` parts of at most `most` each,
    largest part first, in decreasing lexicographic order."""
    if n == 0:
        yield ()
    elif parts:
        least = -(-n // parts)  # the largest of `parts` parts is at least n/parts
        for first in range(min(n, most), least - 1, -1):
            for rest in _partitions(n - first, parts - 1, first):
                yield (first, *rest)


def shape_tally(q: int, L: int) -> dict[tuple[int, ...], int]:
    """The number of vectors of GF(q)^L with each coincidence shape.

    A shape is the multiset of a vector's symbol multiplicities, largest
    first: a partition lambda of L into k <= q parts, (L,) for the constant
    vectors.  Its vectors split the coordinates into blocks of sizes
    lambda_1..lambda_k, L!/prod lambda_i! ways, and give the blocks k distinct
    values, q!/(q-k)! ways; blocks of equal size are interchangeable, so the
    product is divided by prod_j m_j!, m_j the number of parts equal to j.
    """
    make_field(q)
    if L < 1:
        raise DomainError(f"need L >= 1, got {L}")
    tally = {}
    for sh in _partitions(L, q, L):
        reorderings = math.prod(map(math.factorial, (*sh, *Counter(sh).values())))
        tally[sh] = math.factorial(L) * math.perm(q, len(sh)) // reorderings
    return tally
