"""Reference implementations that the tests check the library against.

Each is a direct, unvectorized form of something the library computes in
bulk: `_poly_mul_mod` multiplies polynomials over GF(p) modulo the defining
polynomial, the product rule behind an extension field's tables;
`matvec_apply` applies one matrix to one vector with the scalar field
operations, the rule behind `fields.matvec_all`; `dim_of_type` ranks the
support of a type, the image dimension of a kernel table row;
`coincidence_walk` sorts every vector of GF(q)^L by its coincidence shape,
the classes `typespace.coincidence_orbits` generates from partitions;
`all_kernel_slack_report` takes the minima of `engine.kernel_slack_report`
over every proper kernel, not only the zero kernel and those through the
all-ones vector; `dual_30` evaluates `engine.max_entropy`'s dual one point
at a time in 30-digit mpmath, and `rate_columns_30` forms the rate columns
from it, where the library uses one double-double pass per grid.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from thresholds.errors import LengthMismatchError, ShapeMismatchError
from thresholds.fields import FieldSpec, make_field, row_reduce, vec_table
from thresholds.infomeasures import hql
from thresholds.subspaces import kernel_at, kernel_entropy_table
from thresholds.typespace import LRSpec, TypeDist, bad_type


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



def coincidence_walk(q: int, L: int) -> list[tuple[tuple[int, ...], int]]:
    """(shape, size) of each coincidence class of GF(q)^L, found by visiting
    all q^L vectors; constant class first, then by number of parts, then by
    decreasing parts."""
    sizes: dict[tuple[int, ...], int] = {}
    for digits in vec_table(q, L):
        counts: dict[int, int] = {}
        for d in digits.tolist():
            counts[d] = counts.get(d, 0) + 1
        shape = tuple(sorted(counts.values(), reverse=True))
        sizes[shape] = sizes.get(shape, 0) + 1
    order = sorted(sizes, key=lambda sh: (len(sh), tuple(-c for c in sh)))
    return [(sh, sizes[sh]) for sh in order]



def all_kernel_slack_report(q: int, ell: int, rho: float, L: int, delta: float) -> dict:
    """The minima of `engine.kernel_slack_report` over every proper kernel:
    each `kernel_entropy_table` read whole, the worst kernel the first strict
    minimum in enumeration order."""
    tau = TypeDist(q, L, bad_type(LRSpec(q=q, ell=ell, L=L, rho=rho)).marginal("x"))
    h = hql(q, ell, rho)
    logc = math.log(math.comb(q, ell)) / math.log(q)
    out = {"min_slack": math.inf, "worst_kernel": None, "kernels": 0,
           "per_dim_min_slack": {}, "identity_kernel_entropy": None,
           "per_dimension_floor_min_slack": math.inf}
    per_dim = out["per_dim_min_slack"]
    for k in range(L):
        H, D = kernel_entropy_table(tau, k)
        out["kernels"] += H.size
        slack = H - (D * h + logc - 1.0 + h - delta)
        t = int(np.argmin(slack))
        if slack[t] < out["min_slack"]:
            out["min_slack"], out["worst_kernel"] = float(slack[t]), kernel_at(q, L, k, t)
        for d in set(D.tolist()):
            per_dim[d] = min(per_dim.get(d, math.inf), float(slack[D == d].min()))
        out["per_dimension_floor_min_slack"] = min(
            out["per_dimension_floor_min_slack"],
            float((H - D * (h + (logc - 1.0 + h - delta) / L)).min()))
        if k == 0 and D[0] == L:
            out["identity_kernel_entropy"] = float(H[0])
    return out


def dual_30(weights, gaps, lam: float, budget: float, q: int) -> mpmath.mpf:
    """The dual log_q Z(lam) + lam * budget at 30 digits, Z(lam) =
    1 + sum w exp(-lam g ln q) over the classes, weights taken unrounded."""
    with mpmath.workdps(30):
        lnq = mpmath.log(q)
        lam_mp = mpmath.mpf(lam)
        z = 1 + mpmath.fsum(w * mpmath.exp(-lam_mp * g * lnq) for w, g in zip(weights, gaps))
        return mpmath.log(z) / lnq + lam_mp * budget


def rate_columns_30(value: mpmath.mpf, L: int, low: float | None = None) -> dict[str, float]:
    """The rates 1 - value/(L - 1) and 1 - (1 + value)/L of a dual value over
    GF(q)^L and, given the low-dimension case, the margin value/2 - low, each
    formed at 30 digits and rounded once."""
    with mpmath.workdps(30):
        out = {"rlc": float(1 - value / (L - 1)), "rc": float(1 - (1 + value) / L)}
        if low is not None:
            out["dominance"] = float(value / 2 - low)
    return out
