"""Entropy functionals on distributions over finite alphabets.

`entropy` is the one -sum m log m in the package: natural logs, converted to
the requested base at the end, with the 0 * log(1/0) = 0 convention applied
by a masked log (zero cells take log 0 := 0), not by nan-patching.
`_checked_masses` is the one validation rule for every mass array, that of a
`JointTable` here and of a `typespace.TypeDist`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_MASS_TOL = 1e-12  # allowed negative round-off and drift of the total from 1


def entropy(masses, base: float):
    """-sum m log m / log(base) over the last axis of a mass array.

    Zero cells contribute nothing: their log is masked to 0.  A 1-D array
    gives a numpy scalar, a 2-D array one entropy per row.
    """
    m = np.asarray(masses, dtype=np.float64)
    logm = np.log(m, out=np.zeros_like(m), where=m > 0)
    # 0.0 - s rather than -s, so that a point mass gives 0.0 and not -0.0
    return (0.0 - (m * logm).sum(axis=-1)) / math.log(base)


def _checked_masses(masses: np.ndarray, rows: bool = False) -> np.ndarray:
    """Masses with round-off negatives (down to -1e-12) clipped to zero; they
    must sum to 1 within 1e-12, so a NaN mass is refused.  With `rows`, each
    row along the last axis is a distribution and must sum to 1."""
    if np.any(masses < -_MASS_TOL):
        raise DomainError("negative probability mass")
    masses = np.clip(masses, 0.0, None)
    totals = np.atleast_1d(masses.sum(axis=-1 if rows else None))
    off = ~(np.abs(totals - 1.0) <= _MASS_TOL)  # a NaN total fails too
    if off.any():
        raise DomainError(f"masses sum to {float(totals[off][0])}, outside 1 +- {_MASS_TOL}")
    return masses


# ---------------------------------------------------------------------------
# closed-form alphabet entropies


def _check_base_q(q: int) -> None:
    if q < 2:
        raise DomainError(f"alphabet size must be >= 2, got {q}")


def hq(q: int, rho: float) -> float:
    """Entropy of the radius-rho sphere-uniform distribution, in base-q units.

    hq(q, rho) = rho * log_q((q-1)/rho) + (1-rho) * log_q(1/(1-rho)),
    with the endpoint conventions hq(q, 0) = 0 and hq(q, 1) = log_q(q-1);
    this is hql(q, 1, rho).
    """
    return hql(q, 1, rho)


def hql(q: int, ell: int, rho: float) -> float:
    """Generalization of hq with an ell-element "inside" set.

    hql(q, ell, rho) = rho * log_q((q-ell)/rho) + (1-rho) * log_q(ell/(1-rho));
    hql(q, ell, 0) == log_q(ell).  Where (q-ell)/rho overflows, at a
    subnormal rho, its log is taken as log(q-ell) - log(rho).
    """
    _check_base_q(q)
    if not 1 <= ell < q:
        raise DomainError(f"need 1 <= ell < q, got ell={ell}, q={q}")
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [0, 1], got {rho}")
    lq = math.log(q)
    out = 0.0
    if rho > 0.0:
        ratio = float(q - ell) / float(rho)
        out += rho * (math.log(ratio) if ratio < math.inf else math.log(q - ell) - math.log(rho))
    if rho < 1.0:
        out += (1.0 - rho) * math.log(ell / (1.0 - rho))
    return out / lq


def hq_multi(q: int, xs) -> float:
    """Entropy, in base q, of the distribution (x_1, ..., x_t, 1 - sum x_i).

    The xs are the masses of t distinguished outcomes; the remainder goes to a
    single residual outcome.  Accepts any t >= 1.  The t + 1 masses are
    checked by `_checked_masses`, so a residual below -1e-12 (xs summing past
    1) is rejected.
    """
    _check_base_q(q)
    xs = [float(x) for x in xs]
    return float(entropy(_checked_masses(np.array(xs + [1.0 - sum(xs)])), q))


# ---------------------------------------------------------------------------
# joint tables


@dataclass
class JointTable:
    """Joint distribution over two or three named axes ('x', 'y'[, 'z'])."""

    masses: np.ndarray
    axes: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=np.float64)
        if self.masses.ndim not in (2, 3):
            raise DomainError("JointTable needs a 2- or 3-axis mass array")
        self.masses = _checked_masses(self.masses)
        self.axes = ("x", "y", "z")[: self.masses.ndim]

    def marginal(self, *keep: str) -> np.ndarray:
        for a in keep:
            if a not in self.axes:
                raise DomainError(f"axis {a!r} not present in {self.axes}")
        drop = tuple(i for i, a in enumerate(self.axes) if a not in keep)
        return self.masses.sum(axis=drop) if drop else self.masses


def joint_measures(jt: JointTable, base: float | None = None) -> dict[str, float]:
    """Entropies, conditionals, and mutual informations of a joint table.

    Returns H(x), H(y), H(x,y), H(x|y), H(y|x), I(x;y); with a third axis also
    H(z), H(x,y,z), H(x|y,z), I(x;y|z).  Conditional quantities are computed by
    entropy differences, so the chain rule holds exactly up to float rounding.
    """
    if base is not None and base <= 1:
        raise DomainError(f"log base must exceed 1, got {base}")

    def ent(arr):
        return float(entropy(arr.ravel(), math.e if base is None else base))

    out = {
        "H_x": ent(jt.marginal("x")),
        "H_y": ent(jt.marginal("y")),
        "H_xy": ent(jt.marginal("x", "y")),
    }
    out["H_x_given_y"] = out["H_xy"] - out["H_y"]
    out["H_y_given_x"] = out["H_xy"] - out["H_x"]
    out["I_xy"] = out["H_x"] + out["H_y"] - out["H_xy"]
    if len(jt.axes) == 3:
        out["H_z"] = ent(jt.marginal("z"))
        out["H_xyz"] = ent(jt.masses)
        out["H_xz"] = ent(jt.marginal("x", "z"))
        out["H_yz"] = ent(jt.marginal("y", "z"))
        out["H_x_given_yz"] = out["H_xyz"] - out["H_yz"]
        out["I_xy_given_z"] = out["H_xz"] + out["H_yz"] - out["H_z"] - out["H_xyz"]
    return out


def fano_bound(p_err: float, M: int, base: float = 2.0) -> float:
    """Upper bound h(p_err) + p_err * log(M-1) on a conditional entropy, given
    error probability p_err against M candidate values."""
    if not 0.0 <= p_err <= 1.0:
        raise DomainError(f"p_err must lie in [0, 1], got {p_err}")
    if M < 2:
        raise DomainError(f"need at least 2 candidate values, got M={M}")
    if base <= 1:
        raise DomainError(f"log base must exceed 1, got {base}")
    h = float(entropy([p_err, 1.0 - p_err], base))
    return h + p_err * math.log(M - 1) / math.log(base)


def ball_volume(q: int, n: int, r: int, ell: int = 1) -> int:
    """Exact size of the radius-r list ball of a point of GF(q)^n.

    The ball holds the tuples of ell-subsets, one per coordinate, that miss
    the point at no more than r coordinates; for ell = 1 these are the
    length-n q-ary words within Hamming distance r of it.
    """
    _check_base_q(q)
    if n < 0 or r < 0:
        raise DomainError("n and r must be nonnegative")
    if not 1 <= ell < q:
        raise DomainError(f"need 1 <= ell < q, got ell={ell}, q={q}")
    r = min(r, n)
    miss, hit = math.comb(q - 1, ell), math.comb(q - 1, ell - 1)
    return sum(math.comb(n, i) * miss**i * hit ** (n - i) for i in range(r + 1))
