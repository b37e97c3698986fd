"""Threshold bounds and verification reports.

Every threshold optimization has the same shape: maximize H_q(x) + x.log_q w
over the masses x of the free classes, with weights w, subject to x >= 0,
sum x <= 1 and one error budget g.x <= L rho.  The entropy's slope is
infinite on every face but the budget, so the maximizer is a Gibbs point
with one multiplier, the multiplier the float bisection of the monotone
budget equation ends at.  `max_entropy` solves a whole array of budgets at
once: one vectorized Newton pass finds each root, a band around it settles
every bisection step outside it, so only the steps inside take a load, and
one double-double pass (about 32 digits from pairs of floats) gives the
dual values, so a rho grid costs one call; `opt_polytope_2d` is its
one-budget form.  The test suite certifies the solver against the plain
bisection bit for bit and an independent nested golden-section maximum on
random instances, against 50-digit mpmath on the bench grids, and its dual
against a 30-digit mpmath evaluation per point (`tests/reference.py`).

Threshold bounds follow from the orbit reduction: averaging a type over
coordinate permutations and alphabet relabelings preserves the defining
constraints and cannot decrease entropy, so the outer maximization may be
restricted to types that are uniform on each coincidence class.  Classes
with the same gap then merge, so every solve reads one gap enumerator,
`_class_problem`: at most L + 1 exact integer weights at any (q, ell, L).
Every case of the linear ensemble's bound (`rlc_lower_generic`) quotients by
span{1}, the kernel that binds by the lemma in `kernel_slack_report`'s
docstring.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DomainError, SizeCapError, UnsupportedError
from .fields import make_field
from .infomeasures import _checked_masses, entropy, hq, hql, joint_measures
from .subspaces import (
    SubspaceRREF,
    gaussian_binomial,
    kernel_at,
    ones_kernel_table,
    rref_of,
)
from .typespace import LRSpec, TypeDist, bad_type, shape_tally

STRICT_MARGIN = 1e-9  # relative: see `clears_margin`
# cells the kernel-slack sweep may push forward: q = 2, L = 9 pushes 213 M
# and L = 10 about 8 G
_PUSH_CAP = 2**28


def clears_margin(diff: float, scale: float) -> bool:
    """Whether a difference of two values is positive beyond round-off: by
    more than `STRICT_MARGIN` times `scale`, the larger of the values'
    magnitudes.  A margin relative to the values reads the same at every
    rho, where an absolute one fails once the values themselves shrink
    toward 1e-9."""
    return bool(diff > STRICT_MARGIN * scale)


def fmt12(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# double-double arithmetic
#
# A number is an unevaluated sum hi + lo of two floats with |lo| <= ulp(hi)/2,
# about 32 significant digits (Dekker 1971; Hida, Li and Bailey 2001).  The
# routines use + - * / only, besides exact scaling by powers of 2 and the
# float log that seeds `_dd_log`, so they take floats and numpy arrays alike
# and give the same bits on both: a lone point runs on floats, at a tenth of
# the cost of numpy calls on length-1 arrays.

_SPLIT = 134217729.0  # 2^27 + 1, splits a float into two 26-bit halves
_ROUND = 6755399441055744.0  # 1.5 * 2^52: (x + _ROUND) - _ROUND rounds x to an integer
# the dual's range limit: past it, splitting Z(0) by _SPLIT overflows
_Z_LIMIT = 2.0**996
_PAST_THE_RANGE = "Z(0) = 1 + the sum of the weights passes the dual's range limit 2^996"
_LN2 = (0.6931471805599453, 2.3190468138462996e-17)
_INV_LN2 = 1.4426950408889634
# 1/k! for k = 7 down to 1 as double-doubles, and for k = 14 down to 8 as floats:
# past 1/7! a term of exp(r), |r| <= ln(2)/32, is below 1e-16 of r
_INV_FACT = ((1.984126984126984e-04, 1.7209558293420705e-22),
             (1.388888888888889e-03, -5.300543954373577e-20),
             (8.333333333333333e-03, 1.1564823173178714e-19),
             (4.1666666666666664e-02, 2.3129646346357427e-18),
             (1.6666666666666666e-01, 9.25185853854297e-18),
             (0.5, 0.0), (1.0, 0.0))
_INV_FACT_TAIL = (1.1470745597729725e-11, 1.6059043836821613e-10, 2.08767569878681e-09,
                  2.505210838544172e-08, 2.755731922398589e-07, 2.7557319223985893e-06,
                  2.48015873015873e-05)


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    """`_two_sum` for |a| >= |b|: the renormalization of a + b."""
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker's splitting)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    t, f = _two_sum(x[1], y[1])
    s, e = _fast_two_sum(s, e + t)
    return _fast_two_sum(s, e + f)


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    return _fast_two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_div(x, y):
    q1 = x[0] / y[0]
    p, e = _two_prod(q1, y[0])
    s, f = _two_sum(x[0], -p)
    return _fast_two_sum(q1, (s + (f - e - q1 * y[1] + x[1])) / y[0])


def _dd_ldexp(x, k):
    """x * 2^k, exactly, for an integral float k or an array of them."""
    if isinstance(k, float):
        return math.ldexp(x[0], int(k)), math.ldexp(x[1], int(k))
    k = k.astype(np.int64)
    return np.ldexp(x[0], k), np.ldexp(x[1], k)


def _dd_exp_parts(x):
    """(k, s) with exp(x) = 2^k (1 + s), |s| < 0.42, s to double-double accuracy
    relative to itself.

    r = (x - k ln 2) / 16 is summed by Horner's rule, the terms past 1/7! in
    floats, and 1 + s is squared four times as s <- s (2 + s), so s keeps its
    relative accuracy near x = 0.
    """
    k = (x[0] * _INV_LN2 + _ROUND) - _ROUND
    p, e = _two_prod(k, _LN2[0])
    rh, rl = _dd_add(x, (-p, -e - k * _LN2[1]))
    rh, rl = rh * 0.0625, rl * 0.0625
    ph = 0.0
    for c in _INV_FACT_TAIL:
        ph = c + rh * ph
    r, p = (rh, rl), (ph, 0.0)
    for c in _INV_FACT:
        p = _dd_add(c, _dd_mul(r, p))
    s = _dd_mul(r, p)
    for _ in range(4):
        s = _dd_mul(s, _dd_add((2.0, 0.0), s))
    return k, s


def _dd_exp(x):
    k, s = _dd_exp_parts(x)
    return _dd_ldexp(_dd_add((1.0, 0.0), s), k)


def _dd_log(x):
    """ln x for x > 0: one Newton step y0 + log(x e^-y0) from the float log y0
    of x's leading float, with log(1 + d) taken as d - d^2/2.  With
    e^-y0 = 2^k (1 + s), d = (x 2^k - 1) + x 2^k s has no cancelling rounding,
    so the result keeps its relative accuracy near x = 1."""
    if isinstance(x[0], float):
        y0 = math.log(x[0])
    else:  # math.log elementwise, so that an array gives a float's bits
        y0 = np.array([math.log(v) for v in x[0].tolist()])
    k, s = _dd_exp_parts((-y0, 0.0))
    u = _dd_ldexp(x, k)
    d = _dd_add(_dd_add(u, (-1.0, 0.0)), _dd_mul(u, s))
    return _dd_add((y0, 0.0), _dd_add(d, (-0.5 * d[0] * d[0], 0.0)))


@functools.lru_cache(maxsize=None)
def _dd_ln(q: int) -> tuple[float, float]:
    return _LN2 if q == 2 else _dd_log((float(q), 0.0))


def _dd_stack(pairs):
    """Double-doubles as one: a pair of floats for one, of arrays for more."""
    if len(pairs) == 1:
        return pairs[0]
    return tuple(np.array(part) for part in zip(*pairs))


def _as_list(v) -> list[float]:
    return v.tolist() if isinstance(v, np.ndarray) else [v]


def _dd_round(x) -> list[float]:
    """The floats nearest each double-double, +0.0 in place of -0.0."""
    return _as_list(x[0] + x[1] + 0.0)


# ---------------------------------------------------------------------------
# the threshold optimizer


@dataclass
class OptResult:
    x: tuple[float, ...]
    value: float
    method: str
    deficit: tuple[float, float]  # value - log_q Z(0), as a double-double: 0.0 if interior
    lam: float  # the multiplier: 0.0 if interior
    rounds: int  # the length of the bisection lam ends: bracket doublings and halvings
    budget_evals: int  # evaluations of the budget equation taken: 1 if interior


def _gibbs(w: np.ndarray, g: np.ndarray, lam: np.ndarray, q: int):
    """The Gibbs masses w q^(-lam g) / Z(lam) at each multiplier, shape
    (classes, points), and their loads g.x; w and g are columns.  The sums
    run over classes one row at a time, so a point's masses do not depend on
    the other points of the grid."""
    x = w * np.power(float(q), -g * lam)
    x = x / sum(x, 1.0)
    return x, sum(gap * row for gap, row in zip(g[:, 0], x))


@functools.lru_cache(maxsize=256)
def _dual_terms(weights: tuple, gaps: tuple, q: int):
    """The budget-free terms of `max_entropy`'s dual, as double-doubles: the
    coefficients [1 + M_0, M_1, ..., M_G] of Z(lam) in t = q^-lam, M_g the
    weights of gap g summed; Z(0); and log_q Z(0).  Cached, since a problem
    is solved at many budgets and one at a time."""
    lnq = _dd_ln(q)
    poly = [(1.0, 0.0)] + [(0.0, 0.0)] * max(gaps, default=0)
    for w, gap in zip(weights, gaps):
        poly[gap] = _dd_add(poly[gap], w)
    z0 = _horner(poly, (1.0, 0.0))
    return tuple(poly), z0, _dd_div(_dd_log(z0), lnq)


def _horner(poly, t):
    z = poly[-1]
    for m in poly[-2::-1]:
        z = _dd_add(_dd_mul(z, t), m)
    return z


def _deficit(poly, z0, lam, budget, lnq):
    """D = log_q(Z(lam)/Z(0)) + lam * budget in double-double, on floats or
    arrays: the dual's drop below its value at lam = 0, exactly 0.0 there."""
    z = _horner(poly, _dd_exp(_dd_mul(lnq, (-lam, 0.0))))
    return _dd_add(_dd_div(_dd_log(_dd_div(z, z0)), lnq), _two_prod(lam, budget))


def _gap(g) -> int:
    """A class's gap as an int: an integer, or a number with an integral value."""
    try:
        n = int(g)
        if n == g:
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"need integer gaps, got {g!r}")


def _weight(w) -> tuple[float, float]:
    """A class's weight as a double-double: a positive finite number, an int
    taken to its first 106 bits."""
    try:
        hi = float(w)
    except OverflowError:  # an int past the float range
        raise DomainError(_PAST_THE_RANGE) from None
    except (TypeError, ValueError):
        hi = math.nan
    if 0.0 < hi < math.inf:
        return hi, float(w - int(hi)) if isinstance(w, int) else 0.0
    raise DomainError(f"need positive finite weights, got {w!r}")


# the replayed bisection
#
# The bisection of the budget equation asks at each step whether the load
# g.x(lam), computed in floats by `_gibbs`, exceeds b.  The exact load falls
# strictly with lam, and the computed one is within a relative r(lam) of it
# (`_load_error`), so a load checked to exceed b by a margin of a few r at a
# point a settles the answer at every lam <= a, and one checked to fall short
# of b by as much at c settles it at every lam >= c (`_band`).  Only the
# steps whose point lies in the band (a, c) need a load; the others follow in
# closed form, so the bisection's end and length come out unchanged.

_U = 2.0**-53  # the unit roundoff of a float
_NEWTON_CAP = 64  # Newton steps per point; past it the estimate stands as it is
_BAND_CHECKS = 4  # checks of each band end; past them that end is 0 or inf


def _load_error(w, gmax: float, lam, b, lnq: float):
    """A bound r on the error of `_gibbs`' load, relative to the budget b,
    at multipliers up to lam, for the weights w and gaps up to gmax.

    Each class's w q^(-g lam) carries a unit roundoff u from the product
    -g lam, magnified to g lam ln q u by q^(-g lam), 8u from np.power and u
    from the product by w; its mass carries that twice, once through Z, with
    k u from Z's additions and u from the division; the load adds k u for its
    products and additions.  That is (2 gmax lam ln q + 2k + 19) u to first
    order, and 5u more covers the rest.  A power or product that falls below
    the normal range is off by at most 4 ulps of 2^-1074 instead, which adds
    at most gmax (k + sum w) 2^-1071 / Z <= gmax (k + sum w) 2^-1068 / 8 to
    the load, with room to spare.
    """
    k = w.shape[0]
    return (_U * (2.0 * gmax * lnq * lam + 2 * k + 24)
            + gmax * (k + float(w.sum())) * 2.0**-1068 / b)


def _budget_terms(w, g, b):
    """The budget equation sum_i (g_i - b) w_i t^g_i = 0, t = q^-lam, split
    by sign at each budget, the constant class a row of gap 0 and weight 1.

    N sums (g - b) w t^g over the rows above b, D sums (b - g) w t^g over the
    others; each is written relative to its leading term, N's the least gap
    g1 above b and D's the constant class, so that no power underflows.
    Returns the coefficients of N, D, their gap moments and Z's terms above
    and below b, shape (rows, 6, points); each row's gap less the leading gap
    of its sum, its power of t in that sum; and g1.
    """
    rows = np.vstack(([[0.0]], g))
    wts = np.vstack(([[1.0]], w))
    coef = (rows - b) * wts
    up = coef > 0.0
    g1 = np.where(up, rows, np.inf).min(axis=0)
    n, d = np.where(up, coef, 0.0), np.where(up, 0.0, -coef)
    terms = np.stack([n, d, rows * n, rows * d, np.where(up, wts, 0.0), np.where(up, 0.0, wts)], 1)
    return terms, np.where(up, rows - g1, rows), g1


def _budget_sums(terms, shift, lam, lnq: float):
    """The sums of `_budget_terms`' coefficients at each multiplier, taken
    one row at a time so that a point does not depend on the others."""
    return sum(terms * np.exp(shift * (-lnq * lam))[:, None, :])


def _newton_root(terms, shift, g1, b, lnq: float):
    """Safeguarded Newton on f(lam) = ln N(lam) - ln D(lam), and the steps
    each point took.

    f falls strictly, since N's gaps exceed D's, from f(0) > 0 at an edge
    budget, so it has one root.  N(lam) lies between its leading term N_1
    and N(0) q^(-g1 lam), and D between b and D(0), so the root lies in
    [ln(N_1 / D(0)), ln(N(0) / b)] / (g1 ln q), and Newton starts from its
    left end or 0.  A step that leaves the bracket the signs of f keep is
    replaced by its midpoint; a point stops once its step is within 2^-13 of
    lam, which quadratic convergence, with `_band`'s last step, makes about
    2^-52 of lam.
    """
    steps = np.zeros(b.size, dtype=np.int64)
    live = np.ones(b.size, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        unit = g1 * lnq
        lo = np.maximum((np.log(sum(terms[:, 0] * (shift == 0.0)))
                         - np.log(sum(terms[:, 1]))) / unit, 0.0)
        hi = (np.log(sum(terms[:, 0])) - np.log(b)) / unit
        lam, terms = lo, terms[:, :4]
        for _ in range(_NEWTON_CAP):
            n, d, gn, gd = _budget_sums(terms, shift, lam, lnq)
            f = np.log(n) - np.log(d) - unit * lam
            lo, hi = np.where(f > 0.0, lam, lo), np.where(f > 0.0, hi, lam)
            new = lam + f / (lnq * (gn / n - gd / d))
            new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            steps += live
            lam, live = np.where(live, new, lam), live & (np.abs(new - lam) > 2.0**-13 * new)
            if not live.any():
                break
    return lam, steps


def _band(w, g, b, q: int, lnq: float):
    """The band (a, c) of each edge budget outside which every step of the
    bisection is settled, and the loads of the budget equation it took.

    One more Newton step from `_newton_root`'s estimate centres the band,
    wide enough that the load differs from b by about 3r at its ends: by the
    identity g.x/b - 1 = (e^f - 1) D / (b Z), a margin of 3 r b Z / D in f,
    over |f'|, plus the rounding of f.  A load checked to exceed b by more
    than 2.5r at a settles every lam <= a, as the exact load falls with lam
    and 2.5 (1 - r) >= 2; one checked to fall short by as much at c settles
    every lam >= c.  An end that fails its check moves out 16 times as far,
    up to `_BAND_CHECKS` times, and then to 0 or inf.  A point whose estimate
    or width is not finite, or whose bound r is too loose for a check to
    hold, gets the band (0, inf): the plain bisection.
    """
    gmax = float(g.max())
    terms, shift, g1 = _budget_terms(w, g, b)
    lam, evals = _newton_root(terms, shift, g1, b, lnq)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        n, d, gn, gd, za, zb = _budget_sums(terms, shift, lam, lnq)
        evals += 1
        ln_n, ln_d = np.log(n) - g1 * lnq * lam, np.log(d)
        kappa = b * (zb / d + np.exp(ln_n - ln_d) * za / n)
        slope = lnq * (gn / n - gd / d)
        r = _load_error(w, gmax, 2.0 * lam + 2.0, b, lnq)
        width = (3.0 * r * kappa + 8.0 * _U * (np.abs(ln_n) + np.abs(ln_d) + 4.0)) / slope
        lam = lam + (ln_n - ln_d) / slope
        # past r = 0.1 a check at c cannot hold, and any a the check holds at
        # is too far out to settle much
        ok = np.isfinite(lam) & np.isfinite(width) & (width > 0.0) & (r < 0.1)
    a = np.where(ok, np.maximum(lam - width, 0.0), 0.0)
    c = np.where(ok, lam + width, np.inf)
    open_a, open_c = a > 0.0, c < np.inf  # the ends not yet checked
    for _ in range(_BAND_CHECKS):
        if not (open_a.any() or open_c.any()):
            break
        # the bound must hold up to a on the left, and on the right up to the
        # farthest point the search may ask past c, below 2 max(c, 1)
        right = 2.0 * np.maximum(c, 1.0)
        evals += open_a
        evals += open_c
        with np.errstate(invalid="ignore", over="ignore"):
            load = _gibbs(w, g, np.concatenate((np.where(open_a, a, 1.0),
                                                np.where(open_c, c, 1.0))), q)[1]
        open_a &= ~(load[:b.size] > b * (1.0 + 2.5 * _load_error(w, gmax, a, b, lnq)))
        open_c &= ~(load[b.size:] + 2.5 * b * _load_error(w, gmax, right, b, lnq) < b)
        a = np.where(open_a, np.maximum(lam - 16.0 * (lam - a), 0.0), a)
        c = np.where(open_c, lam + 16.0 * (c - lam), c)
        open_a &= a > 0.0
    return np.where(open_a, 0.0, a), np.where(open_c, np.inf, c), evals


def _search_exponent(w, g, b, q: int, a, c):
    """The e of the bracket [2^e, 2^(e+1)] by which the bisection's search
    over powers of 2 ends, the rounds it took, and the loads it asked for.

    The search asks for the load at 1, then at 2, 4, ... while it exceeds b,
    ending after e + 1 rounds, or at 1/2, 1/4, ... while it does not, ending
    after -e.  2^j is above the budget for j <= ja, the floor of log2(a), and
    below it for j >= jc, the ceiling of log2(c); only the powers between
    need a load, and there are none while (a, c) holds no power of 2.  The
    search stays within [2^-1074, 2^1023], since q^(-g 2^-1074) rounds to 1
    and q^(-g 2^1023) to 0.
    """
    ja = np.where(a > 0.0, np.frexp(a)[1] - 1, -1074).clip(-1074, 1023)
    mc, ec = np.frexp(np.where(c < np.inf, c, 1.0))
    jc = np.where(c < np.inf, np.where(mc == 0.5, ec - 1, ec), 1023).clip(-1074, 1023)
    e = ja.astype(np.int64)
    asked = np.zeros(b.size, dtype=np.int64)
    i = np.flatnonzero(jc - ja > 1)
    j = np.zeros(i.size, dtype=np.int64)
    up = np.zeros(i.size, dtype=bool)
    first = True
    while i.size:  # j moves one way within [ja, jc] at every step
        lo, hi = ja[i], jc[i]
        j = np.where(first, 0, np.where(up, np.maximum(j + 1, lo + 1), np.minimum(j - 1, hi - 1)))
        above = j <= lo
        ask = (lo < j) & (j < hi)
        asked[i[ask]] += 1
        above[ask] = _gibbs(w, g, np.ldexp(1.0, j[ask]), q)[1] > b[i[ask]]
        if first:
            up, first = above, False
            continue
        done = above != up
        e[i[done]] = np.where(up, j - 1, j)[done]
        i, j, up = i[~done], j[~done], up[~done]
    return e, np.where(e >= 0, e + 1, -e), asked


def _descend(lo, hi, a, c):
    """The node of the halving's tree below [lo, hi] at which the halving
    first needs a load, given that every midpoint outside (a, c) is settled,
    and the halvings that take it there.

    The floats of [lo, hi] have bit patterns one apart and [lo, hi] spans a
    power of 2 of them, aligned, so the halvings walk a complete binary tree.
    The node sought is the one whose midpoint is the point of (a, c) in
    [lo, hi] with the most trailing zero bits; with no such point the walk
    is settled down to adjacent floats.
    """
    base = lo.view(np.int64)
    size = hi.view(np.int64) - base
    depth = np.frexp(size.astype(np.float64))[1] - 1
    first = np.maximum(a.view(np.int64) + 1 - base, 1)
    last = np.minimum(c.view(np.int64) - 1 - base, size - 1)
    leaf = first > last
    top = np.frexp(np.where(leaf, 0, first ^ last).astype(np.float64))[1]
    aligned = (first & ((np.int64(1) << top) - 1)) == 0
    cut = np.maximum(top - 1, 0)
    mid = np.where(aligned, first, (last >> cut) << cut)
    zeros = np.frexp((mid & -mid).astype(np.float64))[1] - 1
    half = np.int64(1) << np.maximum(zeros, 0)
    start = np.where(leaf, np.clip(a.view(np.int64), base, base + size - 1), base + mid - half)
    end = np.where(leaf, start + 1, start + 2 * half)
    left = np.where(leaf, 0, zeros + 1)
    return start.view(np.float64), end.view(np.float64), depth - left, left


def _replayed_bisection(w, g, b, q: int):
    """The end `hi` and length `rounds` of the bisection of each edge
    budget's equation, and the loads of it that this took.

    The bisection searches powers of 2 for a bracket [2^e, 2^(e+1)]
    (`_search_exponent`), then halves it down to adjacent floats.  Each
    halving whose midpoint lies outside `_band`'s (a, c) is settled, so the
    walk down is taken in closed form (`_descend`) to the first midpoint that
    needs a load.  From there the halving runs as it always did.
    """
    lnq = math.log(q)
    a, c, evals = _band(w, g, b, q, lnq)
    e, rounds, asked = _search_exponent(w, g, b, q, a, c)
    lo, hi, settled, left = _descend(np.ldexp(1.0, e), np.ldexp(1.0, e + 1), a, c)
    # the halving, as it always ran, for the `left` rounds each node's tree
    # is deep: lo is above the budget and hi below it, and both stay so; at
    # a point already down to adjacent floats mid equals one of them, which
    # the update leaves in place
    for _ in range(int(left.max())):
        mid = 0.5 * (lo + hi)
        above = _gibbs(w, g, mid, q)[1] > b
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return hi, rounds + settled + left, evals + asked + left


def max_entropy(weights, gaps, budgets, q: int) -> list[OptResult]:
    """Maximum of H_q(x, 1 - sum x) + x.log_q w over x >= 0, sum x <= 1,
    g.x <= b, one result per budget b of the 1-D array `budgets`.

    x holds the masses of the free classes, of weights w, and 1 - sum x that
    of the constant class, of weight 1.  The entropy's slope is infinite on
    every face but the budget, so the maximizer is the Gibbs point
    x_i = w_i q^(-lam g_i) / Z(lam), Z(lam) = 1 + sum_j w_j q^(-lam g_j).
    lam = 0 ("interior") when that point fits the budget; otherwise ("edge")
    lam is the root of the decreasing budget equation g.x(lam) = b, taken
    as the bisection of it in floats would take it: from the bracket
    [0, 1], doubled while the load exceeds b, halved down to adjacent floats
    and read on the feasible side, each budget on its own bracket, so that a
    point does not depend on the others.  `_replayed_bisection` gives that
    bisection's end and length (`rounds`) from a safeguarded Newton root and
    the loads of the steps near it; `budget_evals` counts the evaluations of
    the budget equation each point took: the load at 0, the Newton steps,
    the band's checks and the steps inside the band.

    The value is the dual log_q Z(lam) + lam * b, the objective at the Gibbs
    point, written as log_q Z(0) + D with the deficit
    D = log_q(Z(lam)/Z(0)) + lam * b <= 0.  Z is a polynomial in t = q^-lam
    with the weights summed per gap as coefficients, so gaps must be integers
    (an integral float is taken as its int).  D is evaluated in double-double
    for the whole grid in one numpy pass, or on floats for a lone budget,
    with the same bits either way; the solve reads each weight as a float,
    the dual an int weight at 106 bits.  `deficit` keeps D unrounded,
    exactly 0.0 at an interior point; `value` is log_q Z(0) + D rounded once.
    Z(0) must not pass 2^996, where Dekker's splitting of it would overflow;
    a larger problem (q = 2, ell = 1 from L = 998) raises DomainError.
    """
    b = np.asarray(budgets, dtype=np.float64)
    if b.ndim != 1 or b.size == 0 or not np.all(b > 0.0):
        raise DomainError(f"need a nonempty 1-D array of positive error budgets, got {budgets}")
    gaps = tuple(_gap(v) for v in gaps)
    if len(weights) != len(gaps) or any(g < 0 for g in gaps):
        raise DomainError(f"need one nonnegative gap per class, got {gaps}")
    dd = tuple(_weight(v) for v in weights)
    if not 1.0 + sum(hi for hi, _ in dd) <= _Z_LIMIT:
        raise DomainError(_PAST_THE_RANGE)
    w = np.array([hi for hi, _ in dd]).reshape(-1, 1)
    g = np.array(gaps, dtype=np.float64).reshape(-1, 1)

    edge = _gibbs(w, g, np.zeros(b.size), q)[1] > b
    hi = np.zeros(b.size)
    rounds = np.zeros(b.size, dtype=np.int64)
    evals = np.ones(b.size, dtype=np.int64)
    if edge.any():
        hi[edge], rounds[edge], more = _replayed_bisection(w, g, b[edge], q)
        evals[edge] += more
    x = _gibbs(w, g, hi, q)[0].T.tolist()

    poly, z0, logz0 = _dual_terms(dd, gaps, q)
    lam, bud = (float(hi[0]), float(b[0])) if b.size == 1 else (hi, b)
    d = _deficit(poly, z0, lam, bud, _dd_ln(q))
    value = _dd_round(_dd_add(logz0, d))
    deficits = list(zip(_as_list(d[0]), _as_list(d[1])))
    return [OptResult(x=tuple(x[i]), value=value[i], method="edge" if edge[i] else "interior",
                      deficit=deficits[i], lam=lam_i, rounds=int(rounds[i]),
                      budget_evals=int(evals[i]))
            for i, lam_i in enumerate(hi.tolist())]


def opt_polytope_2d(weights, gaps, budget: float, q: int) -> OptResult:
    """`max_entropy` at one budget.  The name is kept because
    `perfbench/tracing.py` wraps it and counts `.method`; grid callers use
    `max_entropy`, which it does not trace."""
    return max_entropy(weights, gaps, [budget], q)[0]


def each_rho(rhos, fn) -> list:
    """[fn(rho) for rho in rhos], a DomainError naming the first rho it arose at."""
    out = []
    for rho in rhos:
        try:
            out.append(fn(rho))
        except DomainError as err:
            raise DomainError(f"at rho={fmt12(rho)}: {err}") from err
    return out


# ---------------------------------------------------------------------------
# closed-form families


@functools.lru_cache(maxsize=None)
def _class_problem(q: int, ell: int, L: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The gap enumerator of GF(q)^L: (weights, gaps) over its distinct gaps,
    ascending, the weight of gap g the sum of |A_w|/q over the free
    coincidence classes A_w with that gap, folded from `shape_tally(q, L)`
    with the constant shape (L,) left out.

    A type uniform on each class has entropy 1 + H_q(x) + sum_w x_w log_q
    (|A_w|/q) in the class masses x, as the constant class holds q vectors;
    |A_w|/q is an integer because adding a constant vector moves each class
    onto itself without fixed points.  The gap of w, L minus the sum of its
    ell largest parts, is the fewest coordinates a subset coupling leaves
    uncovered, so the error budget reads g.x <= L rho.  The optimum splits a
    gap's mass among its classes in proportion to their sizes.
    """
    tally: dict[int, int] = {}
    for shape, size in shape_tally(q, L).items():
        if shape != (L,):
            gap = L - sum(shape[:ell])
            tally[gap] = tally.get(gap, 0) + size // q
    gaps = tuple(sorted(tally))
    return tuple(tally[g] for g in gaps), gaps


def _solve_classes(q: int, ell: int, L: int, rhos) -> list[OptResult]:
    """The optimum of `_class_problem(q, ell, L)` at each rho of the grid,
    budget L rho, from one `max_entropy` call."""
    weights, gaps = _class_problem(q, ell, L)
    return max_entropy(weights, gaps, L * np.asarray(rhos, dtype=np.float64), q)


def _rate_rows(solves: list[OptResult], L: int) -> list[dict[str, float]]:
    """The rates of each optimum over GF(q)^L.  "rc" is the plain ensemble's
    threshold 1 - (1 + max)/L; "rlc", for L >= 2, the full-support case of
    the linear ensemble's bound, 1 - max/(L - 1).  With max = L - 1 + D they
    are -D/L and -D/(L - 1), formed from the deficit D in double-double and
    rounded once: near rho = 5/16 the binary list-of-4 columns are about 1e-6
    from an optimum about 3, where floats would lose their last printed
    digits, and at an interior point (D = 0) both are exactly 0.0.
    """
    d = _dd_stack([s.deficit for s in solves])
    neg = (-d[0], -d[1])
    rc = _dd_round(_dd_div(neg, (float(L), 0.0)))
    if L == 1:
        return [{"rc": v} for v in rc]
    rlc = _dd_round(_dd_div(neg, (float(L - 1), 0.0)))
    return [{"rlc": a, "rc": b} for a, b in zip(rlc, rc)]


def _ld4_domain(rho: float) -> None:
    if not 0.0 < rho < 5.0 / 16.0:
        raise DomainError(f"rho must lie in (0, 5/16) for the binary list-of-4 family, got {rho}")


def _ld3_domain(q: int, rho: float) -> None:
    if q < 3:
        raise DomainError(f"this family needs q >= 3, got q={q}")
    make_field(q)
    if not 0.0 < rho < 1.0 / 3.0:
        raise DomainError(f"rho must lie in (0, 1/3) for the 3-list family, got {rho}")


def _low_dimension_case(q: int, L: int, rho: float) -> float | None:
    """The linear ensemble's low-dimension case: the largest quotient entropy
    per dimension of a type whose support spans fewer than L dimensions, at
    a rho inside the family's domain.  For binary lists of 4 two coordinate
    pairs collapse, giving (h2(min(2 rho, 1/2)) + 2 rho log2 3)/2; for q-ary
    lists of 3, h_q(min(3 rho/2, 1 - 1/q)).  Lists of 2 have none."""
    if L == 2:
        return None
    if q == 2:  # L = 4
        return (hq(2, min(2.0 * rho, 0.5)) + 2.0 * rho * math.log2(3.0)) / 2.0
    return hql(q, 1, min(1.5 * rho, 1.0 - 1.0 / q))


def ld4_binary_rows(rhos) -> tuple[list[dict[str, float]], list[OptResult]]:
    """The binary list-of-4 bounds at each rho of the grid, and the solves.

    One `max_entropy` call serves the grid.  "rlc" is the lower bound on the
    linear ensemble's threshold rate and "rc" the threshold rate of the plain
    random ensemble, both from `_rate_rows`.  A rho outside the domain is
    named in the DomainError.
    """
    each_rho(rhos, _ld4_domain)
    solves = _solve_classes(2, 1, 4, rhos)
    return _rate_rows(solves, 4), solves


def ld3_qary_rows(q: int, rhos) -> tuple[list[dict[str, float]], list[OptResult]]:
    """The q-ary list-of-3 bounds at each rho of the grid, and the solves.

    "rlc" and "rc" as in `ld4_binary_rows`; "dominance" is the margin
    maxF/2 - h_q(3 rho/2) of the full-support case over `_low_dimension_case`,
    1 + D/2 - h_q(3 rho/2) with `_rate_rows`' deficit D, formed in
    double-double and rounded once; the linear bound is valid only where it
    is positive.
    """
    each_rho(rhos, functools.partial(_ld3_domain, q))
    solves = _solve_classes(q, 1, 3, rhos)
    rows = _rate_rows(solves, 3)
    d = _dd_stack([s.deficit for s in solves])
    low = _dd_stack([(-_low_dimension_case(q, 3, rho), 0.0) for rho in rhos])
    margin = _dd_add(_dd_add((1.0, 0.0), (0.5 * d[0], 0.5 * d[1])), low)
    for row, v in zip(rows, _dd_round(margin)):
        row["dominance"] = v
    return rows, solves


def bound_rlc_binary_l4(rho: float) -> float:
    """Lower bound on the binary list-of-4 threshold rate of the linear ensemble."""
    return ld4_binary_rows([rho])[0][0]["rlc"]


def threshold_rc_binary_l4(rho: float) -> float:
    """Threshold rate of the plain random ensemble, binary, list of 4."""
    return ld4_binary_rows([rho])[0][0]["rc"]


def bound_rlc_qary_l3(q: int, rho: float) -> float:
    """Lower bound on the q-ary list-of-3 threshold rate of the linear ensemble."""
    return ld3_qary_rows(q, [rho])[0][0]["rlc"]


def threshold_rc_qary_l3(q: int, rho: float) -> float:
    """Threshold rate of the plain random ensemble, q-ary, list of 3."""
    return ld3_qary_rows(q, [rho])[0][0]["rc"]


# ---------------------------------------------------------------------------
# reports and generic thresholds


@dataclass
class ThresholdReport:
    family: str
    q: int
    ell: int
    L: int
    rho: float
    value: float
    method: str
    argmax: dict = dc_field(default_factory=dict)
    inner_kernel: SubspaceRREF | None = None
    details: dict = dc_field(default_factory=dict)


@dataclass
class BoundCurve:
    family: str
    method: str
    rho_grid: np.ndarray
    values: np.ndarray
    solves: list[OptResult] = dc_field(default_factory=list)  # the optima behind the values

    def __post_init__(self):
        self.rho_grid = np.asarray(self.rho_grid, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.rho_grid.shape != self.values.shape:
            raise DomainError("grid and values differ in length")
        if np.any(np.diff(self.rho_grid) <= 0):
            raise DomainError("rho grid must be strictly increasing")


def rc_threshold_generic(spec: LRSpec) -> ThresholdReport:
    """Threshold rate 1 - max H_q(tau)/L of the plain random ensemble.

    The maximum of `_class_problem` at any list size is taken by
    `opt_polytope_2d`; with no free class it is the constant type.  The rate
    is `_rate_rows`' "rc", so it equals the family rows' column, and it is
    exactly 0.0 where the optimum is interior.  `free_class_masses` holds the
    merged mass of each gap, in the order of `budget_coeffs`.
    """
    L, q = spec.L, spec.q
    weights, gaps = _class_problem(q, spec.ell, L)
    res = opt_polytope_2d(weights, gaps, L * spec.rho, q)
    raw = _rate_rows([res], L)[0]["rc"]
    return ThresholdReport(
        family="rc", q=q, ell=spec.ell, L=L, rho=spec.rho,
        value=min(max(raw, 0.0), 1.0),
        method="kkt" if weights else "closed_form",
        argmax={"free_class_masses": res.x, "constant_class_mass": 1.0 - sum(res.x)},
        details={"max_entropy": 1.0 + res.value, "raw_value": raw, "budget_coeffs": list(gaps)},
    )


def rlc_lower_generic(spec: LRSpec) -> ThresholdReport:
    """Lower bound 1 - max_tau min_kernels H_q(A tau)/dim(A tau), linear ensemble.

    The outer maximum is split by the dimension of the support span, and the
    bound subtracts the larger case.  Exact case splits exist for every
    list-of-2 family, the binary list-of-4 family and the q-ary list-of-3
    family, and each makes one solve: the full-support case is the optimum
    of `_class_problem(q, 1, L)` at budget L rho over dim = L - 1 (the
    `_rate_rows` "rlc" column), the other case is `_low_dimension_case`.

    Every case quotients by span{1}, the reported `inner_kernel`: the
    boundary type and the class-uniform optimum are invariant under
    u -> u + a*1, so by the lemma in `kernel_slack_report`'s docstring
    span{1} is a 1-dim kernel of least quotient entropy, H_q(tau) - 1, the
    solve's maximum.  Dividing by L instead (`identity_kernel_reading`)
    gives the plain ensemble's threshold, which is strictly weaker.
    """
    if spec.ell != 1:
        raise UnsupportedError("the linear-ensemble case analysis is derived for ell = 1")
    q, L, rho = spec.q, spec.L, spec.rho
    if L == 2:
        if not 2.0 * rho < 1.0:
            raise DomainError("rho too large for the list-of-2 case (needs 2 rho < 1)")
    elif (q, L) == (2, 4):
        each_rho([rho], _ld4_domain)
    elif q >= 3 and L == 3:
        each_rho([rho], functools.partial(_ld3_domain, q))
    else:
        raise UnsupportedError(
            f"no established case analysis for q={q}, L={L}; "
            "supported: (q=2, L in {2,4}) and (q>=3, L in {2,3})"
        )
    res = opt_polytope_2d(*_class_problem(q, 1, L), L * rho, q)
    row = _rate_rows([res], L)[0]
    cases = {"full_support_compression": res.value / (L - 1)}
    bound = row["rlc"]
    low = _low_dimension_case(q, L, rho)
    if low is not None:
        cases["low_dimension_boundary"] = low
        bound = min(bound, 1.0 - low)
    return ThresholdReport(
        family="rlc-lower", q=q, ell=1, L=L, rho=rho,
        value=min(max(bound, 0.0), 1.0), method="kkt",
        argmax={"free_class_masses": res.x},
        inner_kernel=rref_of([[1] * L], q),
        details={"case_values": cases, "identity_kernel_reading": row["rc"]},
    )


# ---------------------------------------------------------------------------
# curves and checks


def dominance_curves(rho_grid) -> tuple[BoundCurve, BoundCurve, list[bool]]:
    """The binary list-of-4 lower bound's two comparison curves.

    Blue: the full-support compression optimum divided by 3, the optima
    taken by one `max_entropy` call and kept in blue's `solves`.  Orange: the
    low-dimension boundary curve (h2(2 rho) + 2 rho log2 3)/2.  The third
    return lists, per grid point, whether blue exceeds orange by the
    relative margin of `clears_margin`; the subtracted bound is valid
    exactly because blue dominates.

    Past rho = 1/4 orange is the vertex value: it reads h2(2 rho) where
    2 rho > 1/2, so it falls below the face maximum h2(min(2 rho, 1/2)) that
    `rlc_lower_generic` subtracts (`_low_dimension_case`).  The
    `figure1.csv` fixture pins orange as it is; the test suite checks that
    blue dominates the face maximum too.
    """
    grid = np.asarray(list(rho_grid), dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 5.0 / 16.0):
        raise DomainError("grid must lie inside (0, 5/16)")
    solves = _solve_classes(2, 1, 4, grid)
    blue = np.array([s.value / 3.0 for s in solves])
    orange = np.array([(hq(2, 2.0 * r) + 2.0 * r * math.log2(3.0)) / 2.0 for r in grid])
    ok = [clears_margin(b - o, max(abs(b), abs(o))) for b, o in zip(blue, orange)]
    return (
        BoundCurve(family="figure1", method="blue", rho_grid=grid, values=blue, solves=solves),
        BoundCurve(family="figure1", method="orange", rho_grid=grid, values=orange),
        ok,
    )


def negativity_values(rho_grid) -> np.ndarray:
    """2 H2(0, 3r/2) - H2(3r, 0) - 3r log2(3) on the grid (base-2 units).

    The subtracted term is the objective of `_class_problem(2, 1, 3)`, of
    weight 3, F(x1) = h2(x1) + x1 log2(3), at the vertex x1 = 3r.  F peaks at
    x1 = 3/4 with value 2, so the vertex is the optimum only for r <= 1/4
    (the binary Plotkin point for list size 2).  Beyond that this is a vertex
    value, not the comparison against the optimum, and it turns nonnegative
    near r = 0.281; `negativity_optimum_values` compares on all of (0, 1/3).
    """
    grid = np.asarray(list(rho_grid), dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 1.0 / 3.0):
        raise DomainError("grid must lie inside (0, 1/3)")
    # one row per point, (x_1, x_2, 1 - x_1 - x_2) as `hq_multi` forms it
    half, vertex, zero = 1.5 * grid, 3.0 * grid, np.zeros(grid.size)
    split = _checked_masses(np.stack([zero, half, 1.0 - half], axis=-1), rows=True)
    peak = _checked_masses(np.stack([vertex, zero, 1.0 - vertex], axis=-1), rows=True)
    return 2.0 * entropy(split, 2) - entropy(peak, 2) - vertex * math.log2(3.0)


def negativity_optimum_values(rho_grid) -> np.ndarray:
    """2 h2(3r/2) - max F on the grid, F = h2(x1) + x1 log2(3) over x1 <= 3r.

    The maxima are taken by one `max_entropy` call; F is the objective of
    `_class_problem(2, 1, 3)`, the q = 2 case of the list-of-3 family, whose
    class of three distinct values is empty.  It equals
    `negativity_values` for r <= 1/4, where the optimum is the vertex x1 = 3r,
    and past that the optimum is x1 = 3/4 with value 2.
    """
    grid = np.asarray(list(rho_grid), dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 1.0 / 3.0):
        raise DomainError("grid must lie inside (0, 1/3)")
    opt = _solve_classes(2, 1, 3, grid)
    return np.asarray([2.0 * hq(2, 1.5 * r) - o.value for r, o in zip(grid, opt)])


# ---------------------------------------------------------------------------
# list sizes and the large-list regime


def _listsize_logc(q: int, ell: int, rho: float, eps: float, delta: float) -> float:
    """log_q C(q, ell), once eps, delta, q, ell and rho are validated and the
    list sizes it gives are finite."""
    if not 0.0 < eps < math.inf:
        raise DomainError("eps must be positive and finite")
    if not 0.0 <= delta < math.inf:
        raise DomainError("delta must be nonnegative and finite")
    LRSpec(q=q, ell=ell, L=1, rho=rho)  # validates q, ell, rho
    logc = math.log(math.comb(q, ell)) / math.log(q)
    # both ensembles' list sizes are at most logc / eps + 1
    if logc / eps == math.inf:
        raise DomainError(f"eps = {eps} gives a list size that is not finite")
    return logc


def lr_listsize_lower_rlc(q: int, ell: int, rho: float, eps: float, delta: float) -> int:
    """Output list size forced on the linear ensemble at rate capacity - eps.

    The rate in the formula is R = 1 - h_{q,ell}(rho), capacity itself: the
    value is floor((log_q C(q, ell) - (1 - h))/eps - delta).  Reading R as the
    code rate 1 - h - eps instead adds exactly 1 before the floor; at q = 2,
    rho = 0.1, eps = 0.05 the two readings are 9.38 and 10.38, and this
    returns 9.
    """
    logc = _listsize_logc(q, ell, rho, eps, delta)
    return math.floor((logc - (1.0 - hql(q, ell, rho))) / eps - delta)


def lr_listsize_rc(q: int, ell: int, rho: float, eps: float, delta: float) -> tuple[int, int]:
    """(lower, upper) list sizes for the plain ensemble near capacity."""
    logc = _listsize_logc(q, ell, rho, eps, delta)
    lower = math.floor(logc / eps - delta)
    upper = math.ceil(logc / eps) + 1
    return lower, upper


def _check_largelist(rho: float, L: int, delta: float) -> None:
    if L < 2:
        raise DomainError("list size must be >= 2")
    if not delta > 0.0:
        raise DomainError("delta must be positive")
    if not 0.0 < rho < 0.5:
        raise DomainError("rho must lie in (0, 1/2)")
    if not L - 1 - 2 * delta > 0.0:
        raise DomainError("need L - 1 - 2 delta > 0")


def rate_rlc_binary_largeL(rho: float, L: int, delta: float) -> float:
    """Binary linear-ensemble achievable rate in the large-list regime."""
    _check_largelist(rho, L, delta)
    h = hq(2, rho)
    return 1.0 - h - h / (L - 1 - 2.0 * delta) - delta


def rate_rc_binary_largeL(rho: float, L: int, delta: float) -> float:
    """Binary plain-ensemble rate that already fails list-of-L decodability.

    Built from a pair construction whose joint entropy is 1 + h2(2 rho - 2 rho^2).
    """
    _check_largelist(rho, L, delta)
    h = hq(2, rho)
    hpair = hq(2, 2.0 * rho - 2.0 * rho * rho)
    return (L - 1.0) / L * (1.0 - h) - (hpair - h) / L + delta


# ---------------------------------------------------------------------------
# kernel-slack verification (the bad type against the entropy floor)


def kernel_slack_report(q: int, ell: int, rho: float, L: int, delta: float) -> dict:
    """Minimum slack of H_q(A tau) against the floor L'*h + logC - 1 + h - delta.

    tau is the u-marginal of the canonical boundary type; A ranges over the
    quotient maps of every proper kernel, L' = dim(A tau).  `min_slack`, and
    `pass` with it, are taken against this flat floor, whose constant
    c = logC - 1 + h - delta does not scale with L'; for ell = 1 its binding
    kernel is a sum of two coordinates, so it does not depend on L.  The
    report carries the worst kernel, per-dimension minima, the identity-kernel
    entropy identity H(tau) = L*h + logC - H(S|u), and, as a diagnostic,
    `per_dimension_floor_min_slack`: the minimum slack against the
    rank-normalised floor L'*(h + c/L), which shares c out in proportion to L'.

    Only the zero kernel and the kernels that contain the all-ones vector 1
    are pushed forward (`subspaces.ones_kernel_table`); `kernels` counts them.
    Every minimum above is reached among them.  Lemma: for a k-dim kernel
    K != 0 with 1 not in K, some k-dim K'' containing 1 has
    H(A_K'' tau) <= H(A_K tau), with the same image dimension L - k.
      1. tau is invariant under u -> u + a*1 (S -> S + a permutes the
         ell-subsets), so A_K tau is uniform along A_K span(1), a line, and
         H(A_K tau) = H(A_{K+<1>} tau) + 1.
      2. K + <1> contains a k-dim K'' that contains 1; quotienting by K'' and
         then by the line (K + <1>)/K'' loses at most one q-ary unit, so
         H(A_K'' tau) <= H(A_{K+<1>} tau) + 1 = H(A_K tau).
      3. The support of tau spans GF(q)^L (0 and every unit vector have
         mass), so every k-dim image has dimension L - k, and each floor is
         the same at K and K''.
    Among exactly equal float minima the worst kernel is the first in
    `iter_rref_bases` order, as in a sweep of every kernel.  That rule picks
    by rounding among mathematical ties: at (2, 1, 5, 0.2) the C(5, 2)
    two-coordinate-sum kernels tie, one of them rounds 2 ulp lower, and the
    report names it (4-dim index 29, kernel 371 counting all proper kernels
    from 0), not the first of the ten (index 1, kernel 343).

    The zero kernel's row is H(tau) itself, with image dimension L (step 3).
    The quotient images of the kernels through 1 do not depend on rho, so
    `subspaces.ones_kernel_table` keeps them per (q, L, k) while all kept
    images fit in 32 MiB, and a further radius at the same (q, L) costs one
    bincount per block of them; a table over that bound streams unkept.  The
    report is bit for bit the same either way.  A sweep that would push more
    than `_PUSH_CAP` cells, [L-1, k-1]_q kernels of q^L cells for each k,
    raises SizeCapError before any kernel is built.
    """
    if not 0.0 <= delta < math.inf:
        raise DomainError("delta must be nonnegative and finite")
    spec = LRSpec(q=q, ell=ell, L=L, rho=rho)
    pushed = sum(gaussian_binomial(L - 1, k - 1, q) for k in range(1, L)) * q**L
    if pushed > _PUSH_CAP:
        raise SizeCapError(f"q = {q}, L = {L} would push {pushed:,} cells through the "
                           f"kernels that contain the all-ones vector, past the cap of "
                           f"{_PUSH_CAP:,}")
    jt = bad_type(spec)
    tau = TypeDist(q, L, jt.marginal("x"))
    h = hql(q, ell, rho)
    logc = math.log(math.comb(q, ell)) / math.log(q)

    min_slack = math.inf
    worst = None
    per_dim: dict[int, float] = {}
    alt_min = math.inf
    kernels = 0
    identity_H = float(entropy(tau.probs, q))
    zero = np.zeros(1, dtype=np.int64)
    tables = [(0, np.array([identity_H]), zero + L, zero)]
    tables += [(k, *ones_kernel_table(tau, k)) for k in range(1, L)]
    for k, H, D, T in tables:
        kernels += H.size
        slack = H - (D * h + logc - 1.0 + h - delta)
        ties = np.flatnonzero(slack == slack.min())
        i = ties[np.argmin(T[ties])]  # first minimum, as in enumeration order
        if slack[i] < min_slack:
            min_slack = float(slack[i])
            worst = (k, int(T[i]))
        for d in set(D.tolist()):
            per_dim[d] = min(per_dim.get(d, math.inf), float(slack[D == d].min()))
        alt_min = min(alt_min, float((H - D * (h + (logc - 1.0 + h - delta) / L)).min()))

    hsu = joint_measures(jt, base=q)["H_y_given_x"]  # H(S|u) = H(u, S) - H(u)

    return {
        "min_slack": min_slack,
        "worst_kernel": None if worst is None else kernel_at(q, L, *worst),
        "pass": bool(min_slack >= 0.0),
        "kernels": kernels,
        "details": {
            "q": q, "ell": ell, "rho": rho, "L": L, "delta": delta,
            "per_dim_min_slack": {int(k): float(v) for k, v in sorted(per_dim.items())},
            "identity_kernel_entropy": identity_H,
            "identity_predicted": L * h + logc - hsu,
            "cond_entropy_s_given_u": hsu,
            "fano_term_ok": bool(hsu <= delta),
            "per_dimension_floor_min_slack": alt_min,
        },
    }


def shifted_sum_entropy_ratio(q: int, ell: int, rho: float, beta: int) -> float:
    """lambda = H_q(u + beta*alpha | S) / h_{q,ell}(rho) for the boundary type.

    u and alpha are conditionally i.i.d. single coordinates of the canonical
    boundary type given the subset S; values above 1 mean the shifted sum is
    strictly more spread than a single coordinate.
    """
    fs = make_field(q)
    if not 0 < beta < q:
        raise DomainError(f"beta must be a nonzero field element, got {beta}")
    LRSpec(q=q, ell=ell, L=1, rho=rho)
    shifted = fs.add_table[:, fs.mul_table[beta]].ravel()  # (u, a) -> u + beta*a
    total = 0.0
    for S in itertools.combinations(range(q), ell):
        ps = np.full(q, rho / (q - ell))
        ps[list(S)] = (1.0 - rho) / ell
        pt = np.bincount(shifted, weights=np.outer(ps, ps).ravel(), minlength=q)
        total += float(entropy(pt, q))
    return (total / math.comb(q, ell)) / hql(q, ell, rho)
