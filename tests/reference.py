"""Reference implementations that the tests check the library against.

Each is a direct, unvectorized form of something the library computes in
bulk: `_poly_mul_mod` multiplies polynomials over GF(p) modulo the defining
polynomial, the product rule behind an extension field's tables;
`matvec_apply` applies one matrix to one vector with the scalar field
operations, the rule behind `fields.matvec_all`; `dim_of_type` ranks the
support of a type, the image dimension of a kernel table row.
"""

from __future__ import annotations

from thresholds.errors import LengthMismatchError, ShapeMismatchError
from thresholds.fields import FieldSpec, make_field, row_reduce, vec_table
from thresholds.typespace import TypeDist


def _poly_mul_mod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    """Multiply coefficient lists a*b modulo the monic `modulus`, coefficients mod p."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    # reduce: x^m = -(modulus[0] + ... + modulus[m-1] x^{m-1})
    for deg in range(len(prod) - 1, m - 1, -1):
        c = prod[deg]
        if c == 0:
            continue
        prod[deg] = 0
        for j in range(m):
            prod[deg - m + j] = (prod[deg - m + j] - c * modulus[j]) % p
    out = prod[:m]
    out += [0] * (m - len(out))
    return out



def matvec_apply(A, v, fs: FieldSpec) -> tuple[int, ...]:
    """Apply a rows x cols matrix (list of rows of element codes) to a vector."""
    A = [list(row) for row in A]
    v = list(v)
    if not A:
        raise ShapeMismatchError("matrix must have at least one row")
    cols = len(A[0])
    if any(len(row) != cols for row in A):
        raise ShapeMismatchError("ragged matrix rows")
    if len(v) != cols:
        raise LengthMismatchError(f"matrix has {cols} columns, vector has {len(v)}")
    out = []
    for row in A:
        acc = 0
        for a, x in zip(row, v):
            acc = fs.add(acc, fs.mul(a, x))
        out.append(acc)
    return tuple(out)



def dim_of_type(tau: TypeDist) -> int:
    """Dimension of the span of the support of tau."""
    return len(row_reduce(vec_table(tau.q, tau.b)[tau.probs > 0], make_field(tau.q))[1])
