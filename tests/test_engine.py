import functools
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thresholds.cli import _decimal_grid
from thresholds.errors import DomainError, UnsupportedError
from thresholds.fields import make_field
from thresholds.engine import (
    BoundCurve,
    _max_binary_l4,
    _max_qary_l3,
    bound_rlc_binary_l4,
    bound_rlc_qary_l3,
    dominance_curves,
    fmt12,
    kernel_slack_report,
    ld3_qary_rows,
    ld4_binary_rows,
    lr_listsize_lower_rlc,
    lr_listsize_rc,
    max_entropy,
    negativity_values,
    opt_polytope_2d,
    rate_rc_binary_largeL,
    rate_rlc_binary_largeL,
    rc_threshold_generic,
    rlc_lower_generic,
    shifted_sum_entropy_ratio,
    threshold_rc_binary_l4,
    threshold_rc_qary_l3,
)
from thresholds.infomeasures import hq, hql
from thresholds.subspaces import SubspaceRREF, iter_rref_bases, map_with_kernel
from thresholds.typespace import LRSpec, TypeDist, bad_type, pushforward

from reference import dim_of_type

# Reference values below were frozen from a separate stationary-point
# calculation (quadratic in the edge parameter) before this module existed.
BINARY_L4 = {
    0.05: (0.621901567188024, 0.466426175391018),
    0.10: (0.390423737618296, 0.292817803213722),
    0.25: (0.033343791015669, 0.025007843261752),
    0.31: (0.000054871215680, 0.000041153411760),
}
QARY_L3 = {
    (3, 0.15): (0.311405232454887, 0.207603488303258),
    (3, 0.33): (0.010408361902842, 0.006938907935228),
    (5, 0.20): (0.309546436134790, 0.206364290756527),
}


def test_fmt12():
    assert fmt12(0.1) == "0.1"
    assert fmt12(1 / 3) == "0.333333333333"


# ---------------------------------------------------------------------------
# the threshold optimizer
# ---------------------------------------------------------------------------


def _golden(f, lo, hi):
    """Golden-section maximum of a concave f on [lo, hi], to a 1e-13 bracket."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    while b - a > 1e-13:
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        if f(c) >= f(d):
            b = d
        else:
            a = c
    return max(f(lo), f(hi), f(0.5 * (a + b)))


def _objective(q, coeffs, x):
    rest = 1.0 - sum(x)
    return (-sum(m * math.log(m) for m in (*x, rest) if m > 0.0) / math.log(q)
            + sum(c * m for c, m in zip(coeffs, x)))


def _nested_golden_max(q, coeffs, gaps, budget):
    """max of the objective by golden sections, innermost class first; the
    partial maxima of a concave function stay concave."""

    def cap(g, left):  # largest mass a class with gap g can take
        return 1.0 if g == 0 else max(0.0, min(1.0, left / g))

    if len(coeffs) == 1:
        return _golden(lambda x1: _objective(q, coeffs, (x1,)), 0.0, cap(gaps[0], budget))

    def inner(x2):
        hi = max(0.0, min(1.0 - x2, cap(gaps[0], budget - gaps[1] * x2)))
        return _golden(lambda x1: _objective(q, coeffs, (x1, x2)), 0.0, hi)

    return _golden(inner, 0.0, cap(gaps[1], budget))


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 5, 7]),
    classes=st.lists(st.tuples(st.floats(-3.0, 3.0), st.integers(0, 3)), min_size=1, max_size=2),
    budget=st.floats(0.0, 3.0, exclude_min=True),
)
def test_optimizer_matches_nested_golden_sections(q, classes, budget):
    coeffs = tuple(c for c, _ in classes)
    gaps = tuple(g for _, g in classes)
    res = opt_polytope_2d(coeffs, gaps, budget, q)
    assert res.method in ("interior", "edge")
    assert all(m >= 0.0 for m in res.x) and sum(res.x) <= 1.0
    load = sum(g * m for g, m in zip(gaps, res.x))
    assert load <= budget + 1e-12
    if res.method == "edge":
        assert load == pytest.approx(budget, abs=1e-12)
    assert res.value == pytest.approx(_objective(q, coeffs, res.x), abs=1e-12)
    assert res.value == pytest.approx(_nested_golden_max(q, coeffs, gaps, budget), abs=1e-9)


def _edge_max_mp(q, c1, c2, budget):
    """50-digit maximum on the two-class polytope with gaps (1, 2): the Gibbs
    point when it fits the budget, else the stationary point of the objective
    along the budget line x1 = budget - 2 x2, found by a bracketing root.
    The caller computes c1, c2 and budget at 50 digits too."""
    with mpmath.workdps(50):
        q, c1, c2, b = (mpmath.mpf(v) for v in (q, c1, c2, budget))
        lq = mpmath.log(q)

        def value(x1, x2):
            ms = (x1, x2, 1 - x1 - x2)
            return -mpmath.fsum(m * mpmath.log(m) for m in ms if m > 0) / lq + c1 * x1 + c2 * x2

        z = 1 + q**c1 + q**c2
        x1, x2 = q**c1 / z, q**c2 / z
        if x1 + 2 * x2 <= b:
            return value(x1, x2)
        # d/dx2 on the line; it decreases from +inf to -inf on (lo, hi)
        lo, hi = max(mpmath.mpf(0), b - 1), b / 2

        def slope(t):
            return (2 * mpmath.log(b - 2 * t) - mpmath.log(t) - mpmath.log(1 - b + t)) / lq \
                - 2 * c1 + c2

        tiny = mpmath.mpf(10) ** -45
        t = mpmath.findroot(slope, (lo + tiny, hi - tiny), solver="anderson")
        return value(b - 2 * t, t)


# the grid of the `bounds` bench jobs; `figure1` and ordering use subsets
BINARY_L4_GRID = _decimal_grid(0.001, 0.312, 0.001)


@functools.lru_cache(maxsize=None)
def _binary_l4_ref(rho):
    with mpmath.workdps(50):
        return _edge_max_mp(2, 2, mpmath.log(3, 2), 4 * mpmath.mpf(rho))


def test_binary_l4_optimum_to_50_digits():
    for rho, res in zip(BINARY_L4_GRID, _max_binary_l4(BINARY_L4_GRID)):
        assert abs(res.value - _binary_l4_ref(rho)) <= 1e-15, rho


def test_binary_l4_columns_print_their_50_digit_values():
    # near rho = 5/16 the columns 1 - v/3 and 1 - (1 + v)/4 are about 1e-6
    # with v about 3, so forming them in floats from a rounded v loses their
    # last printed digits; each printed value must be the 50-digit one
    for rho, row in zip(BINARY_L4_GRID, ld4_binary_rows(BINARY_L4_GRID)[0]):
        v = _binary_l4_ref(rho)
        with mpmath.workdps(50):
            want = (fmt12(float(1 - v / 3)), fmt12(float(1 - (1 + v) / 4)))
        assert (fmt12(row["rlc"]), fmt12(row["rc"])) == want, rho


# the grids of the `bounds` (q = 3) and `verify --check ordering` bench jobs
@pytest.mark.parametrize("q,grid", [(3, (0.001, 0.333, 0.001))]
                         + [(q, (0.01, 0.33, 0.005)) for q in (3, 4, 5, 7, 8, 9)],
                         ids=["3-bounds"] + [f"{q}-ordering" for q in (3, 4, 5, 7, 8, 9)])
def test_qary_l3_optimum_to_50_digits(q, grid):
    # and the ordering check's dominance margin maxF/2 - h_q(3 rho/2) with it
    rhos = _decimal_grid(*grid)
    for rho, res, row in zip(rhos, _max_qary_l3(q, rhos), ld3_qary_rows(q, rhos)[0]):
        with mpmath.workdps(50):
            c1, c2 = mpmath.log(3 * (q - 1), q), mpmath.log((q - 1) * (q - 2), q)
            ref = _edge_max_mp(q, c1, c2, 3 * mpmath.mpf(rho))
            x = 1.5 * mpmath.mpf(rho)
            h = (x * mpmath.log((q - 1) / x) - (1 - x) * mpmath.log(1 - x)) / mpmath.log(q)
        assert abs(res.value - ref) <= 1e-15, (q, rho)
        assert abs(row["dominance"] - (ref / 2 - h)) <= 1e-14, (q, rho)


def test_optimizer_domain_errors():
    for budget in (0.0, -0.5):
        with pytest.raises(DomainError):
            opt_polytope_2d((0.0,), (1,), budget, 2)
    with pytest.raises(DomainError):
        opt_polytope_2d((0.0, 0.0), (1, -1), 0.5, 3)


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 5, 7]),
    classes=st.lists(st.tuples(st.floats(-3.0, 3.0), st.integers(0, 3)), min_size=1, max_size=3),
    budgets=st.lists(st.floats(0.0, 3.0, exclude_min=True), min_size=1, max_size=6),
    data=st.data(),
)
def test_grid_solve_equals_one_budget_solves(q, classes, budgets, data):
    coeffs = tuple(c for c, _ in classes)
    gaps = tuple(g for _, g in classes)
    # the Gibbs point's load at lam = 0 parts interior budgets from edge ones
    w = [q**c for c in coeffs]
    load0 = sum(g * v for g, v in zip(gaps, w)) / (1.0 + sum(w))
    if load0 > 0.0:
        budgets = budgets + [0.5 * load0, load0, 2.0 * load0]
    grid = max_entropy(coeffs, gaps, budgets, q)
    if load0 > 0.0:
        assert {r.method for r in grid} == {"interior", "edge"}
    for budget, res in zip(budgets, grid):
        one = opt_polytope_2d(coeffs, gaps, budget, q)
        assert (res.value, res.exact, res.method, res.rounds) == (
            one.value, one.exact, one.method, one.rounds)
        assert max(abs(a - b) for a, b in zip(res.x, one.x)) <= 1e-15
    order = data.draw(st.permutations(range(len(budgets))))
    permuted = max_entropy(coeffs, gaps, [budgets[i] for i in order], q)
    assert [(r.value, r.exact, r.x) for r in permuted] == [
        (grid[i].value, grid[i].exact, grid[i].x) for i in order]


def test_grid_solve_domain_errors():
    for budgets in ([], [0.5, 0.0], [0.5, -1.0], [float("nan")], [[0.5]]):
        with pytest.raises(DomainError):
            max_entropy((0.0,), (1,), budgets, 2)
    with pytest.raises(DomainError):
        ld4_binary_rows([])
    with pytest.raises(DomainError, match="at rho=0.4"):
        ld4_binary_rows([0.1, 0.4, 0.5])


def test_interior_stationary_point():
    res = opt_polytope_2d((0.0, 0.0), (1, 1), 1.0, 2)
    assert res.method == "interior"
    assert res.x[0] == pytest.approx(1 / 3, abs=1e-12)
    assert res.value == pytest.approx(math.log2(3), abs=1e-12)


def test_edge_maximum_matches_stationary_closed_form():
    # active budget edge x1 + 2 x2 = 4 rho of the binary list-of-4 family:
    # eliminating x1 gives a quadratic stationary condition with root
    # x2* = 2(rho - 1) + 2 sqrt(1 - 2 rho + 4 rho^2)
    rho = 0.1
    res = opt_polytope_2d((2.0, math.log2(3.0)), (1, 2), 4 * rho, 2)
    assert res.method == "edge"
    x2_star = 2 * (rho - 1) + 2 * math.sqrt(1 - 2 * rho + 4 * rho * rho)
    assert res.x[1] == pytest.approx(x2_star, abs=1e-8)
    assert res.value == pytest.approx(1.828728787145112, abs=1e-10)


# ---------------------------------------------------------------------------
# closed-form families against frozen references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rho", sorted(BINARY_L4))
def test_binary_l4_frozen(rho):
    rlc_ref, rc_ref = BINARY_L4[rho]
    assert bound_rlc_binary_l4(rho) == pytest.approx(rlc_ref, abs=1e-9)
    assert threshold_rc_binary_l4(rho) == pytest.approx(rc_ref, abs=1e-9)


@pytest.mark.parametrize("q,rho", sorted(QARY_L3))
def test_qary_l3_frozen(q, rho):
    rlc_ref, rc_ref = QARY_L3[(q, rho)]
    assert bound_rlc_qary_l3(q, rho) == pytest.approx(rlc_ref, abs=1e-9)
    assert threshold_rc_qary_l3(q, rho) == pytest.approx(rc_ref, abs=1e-9)


def test_family_domain_errors():
    with pytest.raises(DomainError):
        bound_rlc_binary_l4(0.4)
    with pytest.raises(DomainError):
        threshold_rc_binary_l4(0.0)
    with pytest.raises(DomainError):
        bound_rlc_qary_l3(2, 0.1)
    with pytest.raises(DomainError):
        threshold_rc_qary_l3(3, 1 / 3)


# ---------------------------------------------------------------------------
# generic routes
# ---------------------------------------------------------------------------


def test_generic_rc_agrees_with_binary_closed_form():
    for rho in np.arange(0.01, 0.31, 0.02):
        rep = rc_threshold_generic(LRSpec(q=2, ell=1, L=4, rho=float(rho)))
        assert rep.value == pytest.approx(threshold_rc_binary_l4(float(rho)), abs=1e-9)


def test_generic_rc_agrees_with_qary_closed_form():
    for q in (3, 5):
        for rho in (0.05, 0.15, 0.3):
            rep = rc_threshold_generic(LRSpec(q=q, ell=1, L=3, rho=rho))
            assert rep.value == pytest.approx(threshold_rc_qary_l3(q, rho), abs=1e-9)


def test_generic_rlc_agrees_with_closed_forms():
    for rho in (0.05, 0.15, 0.25):
        rep = rlc_lower_generic(LRSpec(q=2, ell=1, L=4, rho=rho))
        assert rep.value == pytest.approx(bound_rlc_binary_l4(rho), abs=1e-12)
        assert rep.inner_kernel.basis == ((1, 1, 1, 1),)
    rep = rlc_lower_generic(LRSpec(q=3, ell=1, L=3, rho=0.2))
    assert rep.value == pytest.approx(bound_rlc_qary_l3(3, 0.2), abs=1e-12)
    assert rep.inner_kernel.basis == ((1, 1, 1),)


def test_generic_single_codeword_lists_are_free():
    rep = rc_threshold_generic(LRSpec(q=3, ell=1, L=1, rho=0.2))
    assert rep.value == pytest.approx(0.0, abs=1e-12)


def test_generic_pair_list_with_two_slots_is_degenerate():
    # ell = 2 pairs can always cover both coordinates of a pair: budget-free
    rep = rc_threshold_generic(LRSpec(q=4, ell=2, L=2, rho=0.2))
    assert rep.value == pytest.approx(0.0, abs=1e-12)
    assert rep.details["budget_coeffs"] == [0]


def test_generic_one_free_class_closed_form():
    # lists of 2: the free class is the off-diagonal, x = min(2 rho, 1 - 1/q),
    # and H_q plus its coefficient log_q(q - 1) is h_q(x)
    for q in (2, 3, 5):
        for rho in (0.1, 0.3, 0.45):
            if rho >= 1 - 1 / q:
                continue
            rep = rc_threshold_generic(LRSpec(q=q, ell=1, L=2, rho=rho))
            x = min(2 * rho, 1 - 1 / q)
            assert rep.argmax["free_class_masses"][0] == pytest.approx(x, abs=1e-15)
            assert rep.value == pytest.approx(max(0.0, 1 - (1 + hq(q, x)) / 2), abs=1e-12)
    # binary lists of 3: the (2, 1) class, x = min(3 rho, 3/4)
    for rho in (0.05, 0.2, 0.3):
        rep = rc_threshold_generic(LRSpec(q=2, ell=1, L=3, rho=rho))
        x = min(3 * rho, 0.75)
        assert rep.argmax["free_class_masses"][0] == pytest.approx(x, abs=1e-15)
        F = hq(2, x) + x * math.log2(3)
        assert rep.value == pytest.approx(1 - (1 + F) / 3, abs=1e-12)


def test_rlc_pair_closed_form():
    rho = 0.11
    rep = rlc_lower_generic(LRSpec(q=2, ell=1, L=2, rho=rho))
    assert rep.value == pytest.approx(1 - hq(2, 2 * rho), abs=1e-12)
    assert rep.inner_kernel.basis == ((1, 1),)
    rep3 = rlc_lower_generic(LRSpec(q=3, ell=1, L=2, rho=rho))
    assert rep3.value == pytest.approx(1 - hq(3, 2 * rho), abs=1e-12)
    assert rep3.inner_kernel.basis == ((1, 2),)


def test_rlc_dim3_alternative_reading_is_weaker():
    rep = rlc_lower_generic(LRSpec(q=3, ell=1, L=3, rho=0.15))
    alt = rep.details["identity_kernel_reading"]
    assert alt < rep.value
    assert alt == pytest.approx(threshold_rc_qary_l3(3, 0.15), abs=1e-12)


def test_unsupported_combinations():
    with pytest.raises(UnsupportedError):
        rlc_lower_generic(LRSpec(q=2, ell=1, L=3, rho=0.1))
    with pytest.raises(UnsupportedError):
        rlc_lower_generic(LRSpec(q=4, ell=2, L=3, rho=0.1))
    with pytest.raises(UnsupportedError):
        rc_threshold_generic(LRSpec(q=2, ell=1, L=5, rho=0.1))
    with pytest.raises(UnsupportedError):
        rc_threshold_generic(LRSpec(q=3, ell=1, L=4, rho=0.1))


def test_rc_threshold_decreasing_in_rho():
    vals = [threshold_rc_binary_l4(r) for r in np.arange(0.01, 0.31, 0.01)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_rlc_dominates_rc_everywhere_sampled():
    for rho in (0.02, 0.1, 0.2, 0.3):
        assert bound_rlc_binary_l4(rho) > threshold_rc_binary_l4(rho) + 1e-9
    for q in (3, 4, 5, 7, 8, 9):
        for rho in (0.05, 0.2, 0.3):
            assert bound_rlc_qary_l3(q, rho) > threshold_rc_qary_l3(q, rho) + 1e-9


# ---------------------------------------------------------------------------
# curves and comparison expressions
# ---------------------------------------------------------------------------


def test_dominance_curves_hold_on_the_grid():
    grid = np.arange(0.005, 0.3101, 0.005)
    blue, orange, ok = dominance_curves(grid)
    assert all(ok)
    assert blue.values.shape == grid.shape
    assert np.all(blue.values > orange.values)
    with pytest.raises(DomainError):
        dominance_curves([0.1, 0.35])


def test_bound_curve_validation():
    with pytest.raises(DomainError):
        BoundCurve(family="x", method="m", rho_grid=[0.2, 0.1], values=[0, 0])
    with pytest.raises(DomainError):
        BoundCurve(family="x", method="m", rho_grid=[0.1, 0.2], values=[0.0])


def test_negativity_frozen_values():
    vals = negativity_values([0.001, 0.2, 0.3])
    assert vals[0] == pytest.approx(-0.001752, abs=1e-6)
    assert vals[1] == pytest.approx(-0.159346, abs=1e-6)
    assert vals[2] == pytest.approx(+0.090087, abs=1e-6)


def test_negativity_sign_flips_inside_the_interval():
    # negative early on, but crosses zero near 0.281: negativity over the
    # full interval does not hold for the vertex form
    vals = negativity_values([0.05, 0.2, 0.28, 0.285, 0.3])
    assert np.all(vals[:3] < -1e-9)
    assert np.all(vals[3:] > 0)


def test_qary_boundary_dominance():
    for q in (3, 4, 5, 7, 8, 9):
        for row in ld3_qary_rows(q, [0.02, 0.15, 0.3])[0]:
            assert row["dominance"] > 1e-9


# ---------------------------------------------------------------------------
# list sizes
# ---------------------------------------------------------------------------


def test_listsize_lower_formula():
    q, ell, rho, eps, delta = 4, 2, 0.2, 0.1, 0.0
    logc = math.log(math.comb(q, ell)) / math.log(q)
    cap_gap = logc - (1 - hql(q, ell, rho))
    assert lr_listsize_lower_rlc(q, ell, rho, eps, delta) == math.floor(cap_gap / eps)
    with pytest.raises(DomainError):
        lr_listsize_lower_rlc(q, ell, rho, 0.0, delta)
    with pytest.raises(DomainError):  # C(3, 5) = 0 has no logarithm
        lr_listsize_lower_rlc(3, 5, rho, eps, delta)


def test_listsize_rc_sandwich():
    lower, upper = lr_listsize_rc(3, 1, 0.2, 0.07, 0.5)
    assert lower <= upper
    logc = math.log(3, 3)
    assert lower == math.floor(logc / 0.07 - 0.5)
    assert upper == math.ceil(logc / 0.07) + 1


@pytest.mark.parametrize("eps", [0.3, 0.1, 1 / 7, 0.25, 1.0])
def test_listsize_upper_variants_coincide(eps):
    # ceil(x) + 1 == ceil(x + 1) for every real x, so the two published
    # readings of the upper bound, x = log_q C / eps, are the same number
    for q, ell in [(2, 1), (4, 2), (5, 3)]:
        x = math.log(math.comb(q, ell)) / math.log(q) / eps
        assert lr_listsize_rc(q, ell, 0.1, eps, 0.0)[1] == math.ceil(x + 1.0)


# ---------------------------------------------------------------------------
# the large-list regime
# ---------------------------------------------------------------------------


def test_largelist_rates():
    h = hq(2, 0.1)
    assert rate_rlc_binary_largeL(0.1, 10, 0.01) == pytest.approx(
        1 - h - h / (10 - 1 - 0.02) - 0.01, abs=1e-12
    )
    hpair = hq(2, 2 * 0.1 - 2 * 0.01)
    assert rate_rc_binary_largeL(0.1, 10, 0.01) == pytest.approx(
        9 / 10 * (1 - h) - (hpair - h) / 10 + 0.01, abs=1e-12
    )
    with pytest.raises(DomainError):
        rate_rlc_binary_largeL(0.1, 1, 0.01)
    with pytest.raises(DomainError):
        rate_rlc_binary_largeL(0.1, 3, 1.5)  # L - 1 - 2 delta <= 0


def largelist_condition(rho, L):
    """The large-list separation condition (3 + 1/(L-1)) h2(rho) - h2(2 rho - 2 rho^2) < 1."""
    return (3.0 + 1.0 / (L - 1.0)) * hq(2, rho) - hq(2, 2.0 * rho - 2.0 * rho * rho) < 1.0


def test_largelist_separation_flips():
    assert largelist_condition(0.1, 3)
    assert not largelist_condition(0.45, 2)
    assert not largelist_condition(0.3, 2)
    # at fixed small rho the condition survives arbitrarily large L
    assert largelist_condition(0.1, 12)
    # but no list size rescues rho = 0.2
    assert not largelist_condition(0.2, 12)


def test_largelist_separation_when_condition_holds():
    # whenever the condition holds the linear rate exceeds the plain one
    # for all small enough delta
    for rho, L in [(0.05, 3), (0.1, 4), (0.2, 16)]:
        if largelist_condition(rho, L):
            delta = 1e-4
            assert rate_rlc_binary_largeL(rho, L, delta) > rate_rc_binary_largeL(
                rho, L, delta
            )


# ---------------------------------------------------------------------------
# kernel-slack reports
# ---------------------------------------------------------------------------


def test_kernel_slack_frozen_binary_l3():
    rep = kernel_slack_report(2, 1, 0.1, 3, 0.1)
    assert rep["min_slack"] == pytest.approx(-0.15791414145028282, abs=1e-9)
    assert not rep["pass"]
    # worst case is a two-coordinate sum: image dimension 1
    assert rep["worst_kernel"].dim == 2
    d = rep["details"]
    assert d["per_dim_min_slack"][1] == pytest.approx(rep["min_slack"], abs=1e-12)
    assert d["per_dim_min_slack"][3] > 0
    assert d["identity_kernel_entropy"] == pytest.approx(
        d["identity_predicted"], abs=1e-9
    )
    assert d["cond_entropy_s_given_u"] == pytest.approx(0.137582269365, abs=1e-9)
    assert not d["fano_term_ok"]  # 0.1376 > delta = 0.1


def test_kernel_slack_constant_in_list_size():
    # the worst kernel is always a two-coordinate sum, so the minimum slack
    # does not move as L grows
    slacks = [kernel_slack_report(2, 1, 0.05, L, 0.1)["min_slack"] for L in (2, 3, 4)]
    for s in slacks:
        assert s == pytest.approx(-0.01985136604462895, abs=1e-9)


def test_kernel_slack_per_dimension_rescaling_is_positive():
    # rescaling the constant part of the floor by dim/L flips every slack
    # positive at these parameters (diagnostic only)
    for L in (2, 3, 4):
        rep = kernel_slack_report(2, 1, 0.05, L, 0.1)
        assert rep["details"]["per_dimension_floor_min_slack"] > 0


def reference_slack_report(q, rho, L, delta):
    """Kernel-by-kernel sweep: one quotient map and one pushforward per kernel."""
    tau = TypeDist(q, L, bad_type(LRSpec(q=q, ell=1, L=L, rho=rho)).marginal("x"))
    h = hql(q, 1, rho)
    c = math.log(math.comb(q, 1)) / math.log(q) - 1.0 + h - delta
    out = {"min_slack": math.inf, "worst": None, "per_dim": {},
           "identity": None, "alt": math.inf}
    for k in range(L):
        for basis in iter_rref_bases(q, L, k):
            image = pushforward(tau, map_with_kernel(SubspaceRREF(q, L, basis)))
            H, d = image.entropy(), dim_of_type(image)
            slack = H - (d * h + c)
            if slack < out["min_slack"]:
                out["min_slack"], out["worst"] = slack, basis
            out["per_dim"][d] = min(out["per_dim"].get(d, math.inf), slack)
            out["alt"] = min(out["alt"], H - d * (h + c / L))
            if k == 0:
                out["identity"] = H
    return out


@pytest.mark.parametrize("q,L_max", [(2, 6), (3, 4)])
@pytest.mark.parametrize("rho", [0.05, 0.1, 0.2])
def test_kernel_slack_report_matches_per_kernel_sweep(q, L_max, rho):
    for L in range(1, L_max + 1):
        rep = kernel_slack_report(q, 1, rho, L, 0.1)
        ref = reference_slack_report(q, rho, L, 0.1)
        d = rep["details"]
        assert rep["min_slack"] == pytest.approx(ref["min_slack"], abs=1e-12)
        assert rep["worst_kernel"].basis == ref["worst"]
        assert d["per_dim_min_slack"].keys() == ref["per_dim"].keys()
        for dim, slack in ref["per_dim"].items():
            assert d["per_dim_min_slack"][dim] == pytest.approx(slack, abs=1e-12)
        assert d["identity_kernel_entropy"] == pytest.approx(ref["identity"], abs=1e-12)
        assert d["per_dimension_floor_min_slack"] == pytest.approx(ref["alt"], abs=1e-12)


def test_kernel_slack_rejects_negative_delta():
    with pytest.raises(DomainError):
        kernel_slack_report(2, 1, 0.1, 3, -0.1)


# ---------------------------------------------------------------------------
# the shifted-sum entropy ratio
# ---------------------------------------------------------------------------

LAMBDA_WORST = {
    (2, 1): 1.0059560754668906,
    (3, 1): 1.0073148418518474,
    (3, 2): 1.0019109610418782,
    (4, 2): 1.002969121993162,
    (5, 3): 1.0017301859517593,
}


@pytest.mark.parametrize("q,ell", sorted(LAMBDA_WORST))
def test_lambda_ratio_frozen_minima(q, ell):
    rho = 10 / 11 * (1 - ell / q)
    got = min(shifted_sum_entropy_ratio(q, ell, rho, b) for b in range(1, q))
    assert got == pytest.approx(LAMBDA_WORST[(q, ell)], abs=1e-9)


def test_lambda_ratio_exceeds_one_on_grid():
    for (q, ell) in LAMBDA_WORST:
        for i in range(1, 11):
            rho = i / 11 * (1 - ell / q)
            for b in range(1, q):
                assert shifted_sum_entropy_ratio(q, ell, rho, b) > 1 + 1e-6


def reference_lambda(q, ell, rho, beta):
    """The ratio with the law of u + beta*alpha summed cell by cell in the field."""
    fs = make_field(q)
    total = 0.0
    subsets = list(itertools.combinations(range(q), ell))
    for S in subsets:
        ps = [(1.0 - rho) / ell if a in S else rho / (q - ell) for a in range(q)]
        pt = [0.0] * q
        for u in range(q):
            for a in range(q):
                pt[fs.add(u, fs.mul(beta, a))] += ps[u] * ps[a]
        total -= sum(p * math.log(p) for p in pt if p > 0.0) / math.log(q)
    return total / len(subsets) / hql(q, ell, rho)


@pytest.mark.parametrize("q,ell", sorted(LAMBDA_WORST) + [(8, 3), (9, 4)])
def test_lambda_ratio_matches_the_cell_by_cell_sum(q, ell):
    rho = 0.4 * (1 - ell / q)
    for b in range(1, q):
        assert shifted_sum_entropy_ratio(q, ell, rho, b) == pytest.approx(
            reference_lambda(q, ell, rho, b), abs=1e-12)


def test_lambda_ratio_beta_domain():
    with pytest.raises(DomainError):
        shifted_sum_entropy_ratio(2, 1, 0.2, 0)
    with pytest.raises(DomainError):
        shifted_sum_entropy_ratio(3, 1, 0.2, 3)
