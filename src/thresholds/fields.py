"""Arithmetic over GF(q) for prime powers q <= 256, plus vector indexing.

Field elements are integer codes in [0, q).  For prime q the code is the
residue itself; for q = p^m the code packs the polynomial coefficients
c_0 + c_1 p + ... + c_{m-1} p^{m-1}.  `make_field` builds the add, mul, neg
and inverse tables once per q, vectorized; extension-field products come
from exp/log tables of the lexicographically least primitive polynomial, so
every run of the library uses the same tables.  All arithmetic, scalar or
array, reads these tables.  Beside `row_reduce`, the one Gauss-Jordan
elimination over GF(q) behind RREF bases, ranks and quotient maps, stands
`matvec_all`, the one routine for linear images: the images of all of
GF(q)^b under a stack of matrices, behind pushforwards, the kernel sweep and
the words of a random linear code.

Vectors over GF(q) of length b are identified with indices in [0, q^b) by the
little-endian radix-q packing: coordinate i is the i-th base-q digit.
`digits_of` and `pack_digits` convert whole arrays either way; the field
codes' base-p digits, `vec_table` and the kernel enumeration's free entries
all come from them.  `vec_encode`/`vec_decode` are the one-vector forms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DigitOutOfRangeError,
    LengthMismatchError,
    NotPrimePowerError,
    ShapeMismatchError,
    SizeCapError,
    UnsupportedError,
)

MAX_ORDER = 256


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q == p**m, or raise NotPrimePowerError."""
    if q < 2:
        raise NotPrimePowerError(f"field order must be >= 2, got {q}")
    p = None
    for d in range(2, q + 1):
        if q % d == 0:
            p = d
            break
    m = 0
    rest = q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise NotPrimePowerError(f"{q} is not a prime power")
    return p, m


def _powers_of_x(modulus: list[int], p: int) -> list[int]:
    """Codes of x^0, x^1, ... modulo the monic `modulus`, up to the first repeat.

    Multiplying by x shifts the coefficients up one place; the coefficient
    that leaves the top, of x^m, comes back as minus itself times `modulus`.
    """
    cur = [1] + [0] * (len(modulus) - 1)
    seen: dict[int, None] = {}
    while (packed := sum(c * p**i for i, c in enumerate(cur))) not in seen:
        seen[packed] = None
        top = cur[-1]
        cur = [(c - top * a) % p for c, a in zip([0] + cur[:-1], modulus)]
    return list(seen)


def _find_primitive_modulus(p: int, m: int) -> tuple[list[int], list[int]]:
    """Lowest-code monic polynomial of degree m >= 2 over GF(p) whose root x
    generates the multiplicative group, and the codes of x^0, ..., x^(q-2).
    The polynomial is returned as [c_0, ..., c_{m-1}] (x^m coefficient
    implicit); the code of a candidate is sum c_i p^i, scanned ascending."""
    q = p**m
    for code in range(1, q):
        coeffs = [(code // p**i) % p for i in range(m)]
        if coeffs[0] == 0:
            continue  # x would not be invertible
        # primitive iff the powers of x run through all q - 1 nonzero codes
        # before repeating (a reducible modulus repeats sooner)
        exp = _powers_of_x(coeffs, p)
        if len(exp) == q - 1:
            return coeffs, exp
    raise AssertionError(f"no primitive polynomial found for p={p}, m={m}")


def _table(values) -> np.ndarray:
    tab = np.asarray(values, dtype=np.int16)
    tab.setflags(write=False)
    return tab


@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of GF(q) with its arithmetic tables.

    Attributes
    ----------
    q, p, m : int
        Field order and its prime-power factorization q = p^m.
    modulus : tuple[int, ...]
        Low coefficients of the defining polynomial (empty for prime fields).
    add_table, mul_table : np.ndarray
        q x q read-only int16 tables of sums and products.
    neg_table, inv_table : np.ndarray
        Length-q read-only int16 tables of negatives and inverses
        (inv_table[0] is 0, a placeholder: 0 has no inverse).
    """

    q: int
    p: int
    m: int
    modulus: tuple[int, ...]
    add_table: np.ndarray = field(repr=False, compare=False)
    mul_table: np.ndarray = field(repr=False, compare=False)
    neg_table: np.ndarray = field(repr=False, compare=False)
    inv_table: np.ndarray = field(repr=False, compare=False)

    def _check(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise DigitOutOfRangeError(f"element code {a} outside [0, {self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return int(self.mul_table[a, b])


@functools.lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Build (and cache) the FieldSpec for GF(q), q a prime power <= 256.

    Sums and negatives act digit-wise mod p on the base-p codes; products
    come from the exp/log tables of the primitive element x (plain residues
    for prime q); inverses are read off the product table.
    """
    if q > MAX_ORDER:
        raise UnsupportedError(f"field order {q} exceeds the cap {MAX_ORDER}")
    p, m = _factor_prime_power(q)
    codes = np.arange(q)
    digits = digits_of(codes, p, m)
    add = pack_digits((digits[:, None, :] + digits[None, :, :]) % p, p)
    neg = pack_digits(-digits % p, p)
    if m == 1:
        modulus: list[int] = []
        mul = np.outer(codes, codes) % p
    else:
        modulus, exp = _find_primitive_modulus(p, m)
        exp = np.asarray(exp)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
        mul[0, :] = mul[:, 0] = 0
    inv = (mul == 1).argmax(axis=1)
    return FieldSpec(q=q, p=p, m=m, modulus=tuple(modulus), add_table=_table(add),
                     mul_table=_table(mul), neg_table=_table(neg), inv_table=_table(inv))


def row_reduce(M, fs: FieldSpec) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of the matrix M over GF(q), and its pivots.

    Gauss-Jordan elimination on an integer array, with every sum, product,
    negative and inverse read from the field tables.  Returns the nonzero
    rows of the RREF, shape (rank, columns), and the pivot column of each.
    """
    A = np.array(M, dtype=np.int64)
    if A.ndim != 2:
        raise ShapeMismatchError("matrix must be two-dimensional")
    if A.size and (A.min() < 0 or A.max() >= fs.q):
        raise DigitOutOfRangeError(f"matrix entry outside [0, {fs.q})")
    # int64 copies of the tables keep every lookup result an int64 index
    # array, which numpy indexes with faster than the stored int16
    add, mul, neg, inv = (tab.astype(np.int64) for tab in
                          (fs.add_table, fs.mul_table, fs.neg_table, fs.inv_table))
    pivots: list[int] = []
    for c in range(A.shape[1]):
        r = len(pivots)
        nonzero = np.flatnonzero(A[r:, c])
        if not nonzero.size:
            continue
        if nonzero[0]:
            A[[r, r + nonzero[0]]] = A[[r + nonzero[0], r]]
        A[r] = mul[inv[A[r, c]], A[r]]
        # row i -= A[i, c] * row r, for every i != r
        factors = neg[A[:, c]]
        factors[r] = 0
        A = add[A, mul[factors[:, None], A[r]]]
        pivots.append(c)
    return A[:len(pivots)], tuple(pivots)


# -- vector <-> index packing ----------------------------------------------


def vec_encode(v, q: int, b: int | None = None) -> int:
    """Pack a length-b digit sequence into its little-endian radix-q index."""
    v = [int(d) for d in v]
    if b is not None and len(v) != b:
        raise LengthMismatchError(f"expected {b} coordinates, got {len(v)}")
    for d in v:
        if not 0 <= d < q:
            raise DigitOutOfRangeError(f"digit {d} outside [0, {q})")
    return sum(d * q**i for i, d in enumerate(v))


def vec_decode(idx: int, q: int, b: int) -> tuple[int, ...]:
    """Inverse of vec_encode; raises if idx needs more than b digits."""
    if not 0 <= idx < q**b:
        raise DigitOutOfRangeError(f"index {idx} outside [0, {q}^{b})")
    return tuple(idx // q**i % q for i in range(b))


def digits_of(idx, q: int, n: int) -> np.ndarray:
    """Little-endian radix-q digits of each index, shape (len(idx), n), int16."""
    cur = np.asarray(idx, dtype=np.int64)
    out = np.empty((cur.shape[0], n), dtype=np.int16)
    for i in range(n):
        cur, out[:, i] = np.divmod(cur, q)
    return out


def pack_digits(digits, q: int) -> np.ndarray:
    """Inverse of digits_of: the radix-q index of each row of digits (last axis)."""
    digits = np.asarray(digits, dtype=np.int64)
    return digits @ q ** np.arange(digits.shape[-1], dtype=np.int64)


@functools.lru_cache(maxsize=64)
def vec_table(q: int, b: int) -> np.ndarray:
    """(q^b, b) array whose row i holds the digits of index i.  Read-only."""
    n = q**b
    if n > 1 << 24:
        raise SizeCapError(f"q^b = {n} exceeds the vector-table cap 2^24")
    tab = digits_of(np.arange(n), q, b)
    tab.setflags(write=False)
    return tab


def matvec_all(A, fs: FieldSpec) -> np.ndarray:
    """Packed image of every vector in GF(q)^b under each matrix of a stack.

    A has shape (..., rows, b) with entries in [0, q); the int64 result has
    shape (..., q^b), entry v holding the little-endian index of A times the
    vector with index v.  Doubling over the input coordinates: the images of
    the first q^c vectors are extended by every multiple of column c.  For
    q = 2 the images are XORs of packed columns; otherwise the digit sums come
    from the field tables and are packed at the end.
    """
    A = np.asarray(A, dtype=np.int64)
    if A.ndim < 2:
        raise ShapeMismatchError("need a matrix or a stack of matrices")
    if A.size and (A.min() < 0 or A.max() >= fs.q):
        raise DigitOutOfRangeError(f"matrix entry outside [0, {fs.q})")
    q = fs.q
    *batch, rows, b = A.shape
    place = q ** np.arange(rows, dtype=np.int64)
    if q == 2:
        packed = place @ A  # the packed columns of every matrix
        images = np.zeros((*batch, 1 << b), dtype=np.int64)
        for c in range(b):
            w = 1 << c
            images[..., w:2 * w] = images[..., :w] ^ packed[..., c, None]
        return images
    ys = np.zeros((*batch, rows, q**b), dtype=np.int16)
    for c in range(b):
        w = q**c
        scaled = fs.mul_table[A[..., c]][..., 1:, None]
        sums = fs.add_table[ys[..., None, :w], scaled]
        ys[..., w:q * w] = sums.reshape(*batch, rows, (q - 1) * w)
    return np.einsum("...rn,r->...n", ys.astype(np.int64), place)
