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
    STRICT_MARGIN,
    BoundCurve,
    _class_problem,
    _gibbs,
    _dd_exp,
    _dd_log,
    _fast_two_sum,
    _low_dimension_case,
    _rate_rows,
    _solve_classes,
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
from thresholds import subspaces
from thresholds.infomeasures import hq, hq_multi, hql
from thresholds.subspaces import (
    SubspaceRREF,
    gaussian_binomial,
    image_cache_hits,
    iter_rref_bases,
    kernel_entropy_table,
    map_with_kernel,
    rref_of,
)
from thresholds.typespace import LRSpec, TypeDist, bad_type, pushforward, shape_tally

from reference import (
    all_kernel_slack_report,
    bisection_max_entropy,
    coincidence_walk,
    dim_of_type,
    dual_30,
    rate_columns_30,
)

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
    res = opt_polytope_2d(tuple(q**c for c in coeffs), gaps, budget, q)
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
    for rho, res in zip(BINARY_L4_GRID, _solve_classes(2, 1, 4, BINARY_L4_GRID)):
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
    for rho, res, row in zip(rhos, _solve_classes(q, 1, 3, rhos), ld3_qary_rows(q, rhos)[0]):
        with mpmath.workdps(50):
            c1, c2 = mpmath.log(3 * (q - 1), q), mpmath.log((q - 1) * (q - 2), q)
            ref = _edge_max_mp(q, c1, c2, 3 * mpmath.mpf(rho))
            x = 1.5 * mpmath.mpf(rho)
            h = (x * mpmath.log((q - 1) / x) - (1 - x) * mpmath.log(1 - x)) / mpmath.log(q)
        assert abs(res.value - ref) <= 1e-15, (q, rho)
        assert abs(row["dominance"] - (ref / 2 - h)) <= 1e-14, (q, rho)


# (q, L, grid): the grids of the `bounds`, `figure1` and `negativity` bench
# jobs, which hold those of `verify --check ordering`
BENCH_DUAL_GRIDS = ([(2, 4, (0.001, 0.312, 0.001))]
                    + [(q, 3, (0.001, 0.333, 0.001)) for q in (3, 4, 5, 7, 8, 9)]
                    + [(2, 3, (0.001, 0.333, 0.001))])


@pytest.mark.parametrize("q,L,grid", BENCH_DUAL_GRIDS,
                         ids=[f"q{q}-L{L}" for q, L, _ in BENCH_DUAL_GRIDS])
def test_double_double_dual_equals_the_30_digit_dual(q, L, grid):
    # the one double-double pass gives, bit for bit, what a 30-digit mpmath
    # evaluation per point gives, except at interior points, where the
    # 30-digit rates are rounding noise about 1e-31 and the pass gives 0.0
    rhos = _decimal_grid(*grid)
    weights, gaps = _class_problem(q, 1, L)
    if L == 3 and q >= 3:
        rows, solves = ld3_qary_rows(q, rhos)
    else:
        solves = _solve_classes(q, 1, L, rhos)
        rows = _rate_rows(solves, L)
    for i, (rho, res, row) in enumerate(zip(rhos, solves, rows)):
        exact = dual_30(weights, gaps, res.lam, L * rho, q)
        assert res.value == float(exact), rho
        if i % 25 == 0:  # a lone budget runs the same arithmetic on floats
            one = _solve_classes(q, 1, L, [rho])[0]
            assert (one.value, one.deficit, one.lam, one.rounds) == (
                res.value, res.deficit, res.lam, res.rounds), rho
        if res.method == "interior":
            assert res.deficit == (0.0, 0.0)
            assert [math.copysign(1.0, v) for v in (row["rlc"], row["rc"])] == [1.0, 1.0]
            assert (row["rlc"], row["rc"]) == (0.0, 0.0)
            continue
        low = _low_dimension_case(q, L, rho) if "dominance" in row else None
        assert row == rate_columns_30(exact, L, low), rho


def test_int_weights_past_float_precision_enter_the_dual_at_106_bits():
    # at (4, 2, 64) the gap weights run up to 4^63, far past 2^53, and just
    # below the interior boundary a weight rounded to a float would move the
    # tiny rates: each value and rate is still the 30-digit one
    weights, gaps = _class_problem(4, 2, 64)
    assert max(weights) > 2**106
    boundary = sum(g * w for g, w in zip(gaps, weights)) / (64 * (1 + sum(weights)))
    rhos = _decimal_grid(0.01, 0.29, 0.01) + [boundary * (1 - 10.0**-k) for k in (3, 5, 7)]
    solves = _solve_classes(4, 2, 64, rhos)
    for rho, res, row in zip(rhos, solves, _rate_rows(solves, 64)):
        exact = dual_30(weights, gaps, res.lam, 64 * rho, 4)
        assert res.method == "edge" and res.value == float(exact), rho
        assert row == rate_columns_30(exact, 64), rho


def test_interior_points_have_rate_exactly_zero():
    # at (2, 1, 12) the optimum is interior from rho = 0.388 on: the rates are
    # exactly +0.0, where a 30-digit value of L - 1 left 9.86e-32
    rhos = _decimal_grid(0.388, 0.4, 0.001)
    assert len(rhos) == 13
    assert {s.method for s in _solve_classes(2, 1, 12, rhos)} == {"interior"}
    for rho in rhos:
        rep = rc_threshold_generic(LRSpec(q=2, ell=1, L=12, rho=rho))
        for v in (rep.value, rep.details["raw_value"]):
            assert v == 0.0 and math.copysign(1.0, v) == 1.0, rho
    assert rc_threshold_generic(LRSpec(q=2, ell=1, L=12, rho=0.387)).value > 0.0


def test_lists_past_the_dual_range_raise_a_domain_error():
    # Z(0) = 2^(L - 1) at (2, 1, L), and splitting it overflows past 2^996:
    # L = 998 and 1000 pass that limit, and from L = 1030 a gap weight passes
    # the float range; each names the limit, and L = 997 still solves
    assert rc_threshold_generic(LRSpec(q=2, ell=1, L=600, rho=0.1)).value == 0.5293377397440521
    assert 0.0 < rc_threshold_generic(LRSpec(q=2, ell=1, L=997, rho=0.1)).value < 1.0
    for L in (998, 1000, 1100):
        with pytest.raises(DomainError, match=r"passes the dual.s range limit 2\^996"):
            rc_threshold_generic(LRSpec(q=2, ell=1, L=L, rho=0.1))


def _dd_draw(hi: float, frac: float) -> tuple[float, float]:
    """The double-double hi + frac * ulp(hi)/2, renormalized."""
    return _fast_two_sum(hi, hi * frac * 2.0**-53)


def _dd_exact(x, shift=0) -> mpmath.mpf:
    """x[0] + x[1] + shift, exactly."""
    return mpmath.fadd(mpmath.fadd(x[0], x[1], exact=True), shift, exact=True)


def _dd_relative_error(got, want) -> mpmath.mpf:
    with mpmath.workdps(50):
        return abs(_dd_exact(got) / want - 1)


@settings(max_examples=200, deadline=None)
@given(hi=st.floats(-40.0, 40.0), frac=st.floats(-1.0, 1.0))
def test_double_double_exp_to_50_digits(hi, frac):
    # over the arguments the solver takes: -lam ln q and a log's seed
    x = _dd_draw(hi, frac)
    got = _dd_exp(x)
    with mpmath.workdps(50):
        assert _dd_relative_error(got, mpmath.exp(_dd_exact(x))) <= 1e-30
    arr = _dd_exp((np.array([x[0], 0.5]), np.array([x[1], 0.0])))
    assert (arr[0][0], arr[1][0]) == got  # an array gives a float's bits


@settings(max_examples=200, deadline=None)
@given(e=st.one_of(st.floats(-700.0, 700.0), st.floats(-1e-3, 1e-3)), frac=st.floats(-1.0, 1.0))
def test_double_double_log_to_50_digits(e, frac):
    # relative accuracy holds near x = 1 too, where log x is near 0
    x = _dd_draw(math.exp(e) if abs(e) > 1e-3 else 1.0 + e, frac)
    got = _dd_log(x)
    with mpmath.workdps(50):
        want = mpmath.log1p(_dd_exact(x, -1))
        if want == 0:
            assert got == (0.0, 0.0)
        else:
            assert _dd_relative_error(got, want) <= 1e-30
    arr = _dd_log((np.array([x[0], 2.0]), np.array([x[1], 0.0])))
    assert (arr[0][0], arr[1][0]) == got


def test_optimizer_domain_errors():
    for budget in (0.0, -0.5):
        with pytest.raises(DomainError):
            opt_polytope_2d((1.0,), (1,), budget, 2)
    with pytest.raises(DomainError):
        opt_polytope_2d((1.0, 1.0), (1, -1), 0.5, 3)
    # the dual is a polynomial in q^-lam, so a gap must be an integer
    for gap in (0.5, float("nan"), float("inf"), "1", None):
        with pytest.raises(DomainError):
            opt_polytope_2d((1.0, 2.0), (1, gap), 0.5, 2)
    # an integral float is its int
    assert opt_polytope_2d((1.0, 2.0), (1.0, np.float64(2.0)), 0.5, 2) == opt_polytope_2d(
        (1.0, 2.0), (1, 2), 0.5, 2)
    # a weight is a class's size: positive and finite, also as a float
    for weight in (-1.0, 0, 0.0, float("nan"), float("inf"), -math.inf, 10**400, "x", None):
        with pytest.raises(DomainError):
            opt_polytope_2d((1.0, weight), (1, 2), 0.5, 2)
    with pytest.raises(DomainError):
        opt_polytope_2d((1.0,), (1, 2), 0.5, 2)


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 5, 7]),
    classes=st.lists(st.tuples(st.floats(-3.0, 3.0), st.integers(0, 3)), min_size=1, max_size=3),
    budgets=st.lists(st.floats(0.0, 3.0, exclude_min=True), min_size=1, max_size=6),
    data=st.data(),
)
def test_grid_solve_equals_one_budget_solves(q, classes, budgets, data):
    w = tuple(q**c for c, _ in classes)
    gaps = tuple(g for _, g in classes)
    # the Gibbs point's load at lam = 0 parts interior budgets from edge ones
    load0 = sum(g * v for g, v in zip(gaps, w)) / (1.0 + sum(w))
    if load0 > 0.0:
        budgets = budgets + [0.5 * load0, load0, 2.0 * load0]
    grid = max_entropy(w, gaps, budgets, q)
    if load0 > 0.0:
        assert {r.method for r in grid} == {"interior", "edge"}
    for budget, res in zip(budgets, grid):
        one = opt_polytope_2d(w, gaps, budget, q)
        assert (res.value, res.deficit, res.lam, res.method, res.rounds) == (
            one.value, one.deficit, one.lam, one.method, one.rounds)
        assert max(abs(a - b) for a, b in zip(res.x, one.x)) <= 1e-15
    order = data.draw(st.permutations(range(len(budgets))))
    permuted = max_entropy(w, gaps, [budgets[i] for i in order], q)
    assert [(r.value, r.deficit, r.x) for r in permuted] == [
        (grid[i].value, grid[i].deficit, grid[i].x) for i in order]


def test_grid_solve_domain_errors():
    for budgets in ([], [0.5, 0.0], [0.5, -1.0], [float("nan")], [[0.5]]):
        with pytest.raises(DomainError):
            max_entropy((1.0,), (1,), budgets, 2)
    with pytest.raises(DomainError):
        ld4_binary_rows([])
    with pytest.raises(DomainError, match="at rho=0.4"):
        ld4_binary_rows([0.1, 0.4, 0.5])


def _fields(res) -> tuple:
    return (res.x, res.value, res.method, res.deficit, res.lam, res.rounds)


# (q, L, grid) of each distinct grid solve of a `bounds-verify` pass, 13 in
# all: the ld4-binary and figure1 jobs, the ld3-qary jobs (q = 3), the
# figure1 fixture and the ordering checks
REPLAY_BENCH_GRIDS = [(2, 4, (0.001, 0.312, 0.001)), (3, 3, (0.001, 0.333, 0.001)),
                      (2, 4, (0.005, 0.31, 0.005)), (2, 4, (0.01, 0.31, 0.005))] + [
                         (q, 3, (0.01, 0.33, 0.005)) for q in (3, 4, 5, 7, 8, 9)]


@pytest.mark.parametrize("q, L, grid", REPLAY_BENCH_GRIDS)
def test_max_entropy_replays_the_bisection_on_the_bench_grids(q, L, grid):
    weights, gaps = _class_problem(q, 1, L)
    budgets = L * np.asarray(_decimal_grid(*grid))
    got = max_entropy(weights, gaps, budgets, q)
    # repr tells every float apart, -0.0 from 0.0 too
    assert repr([_fields(r) for r in got]) == repr(bisection_max_entropy(weights, gaps, budgets, q))
    edge = [r for r in got if r.method == "edge"]
    assert edge and sum(r.budget_evals for r in edge) < sum(r.rounds for r in edge) / 2


def _hard_budgets(w, gaps, q: int) -> list[float]:
    """Budgets at the bisection's corners: a few ulps below the load at
    lam = 0, so that lam is a few ulps of the loads' resolution above 0; far
    below every load, so that lam is large, subnormal budgets included; at a
    gap; and at the load of a power of 2 and its neighbours, so that the band
    around lam straddles a step of the bracket's doubling."""
    wc, gc = np.array(w, dtype=np.float64).reshape(-1, 1), np.array(gaps, float).reshape(-1, 1)
    out = [1e-300, 1e-310, 5e-324] + [float(g) for g in gaps if g > 0]
    lam = np.ldexp(1.0, np.arange(-6, 5))
    for load in [float(_gibbs(wc, gc, np.zeros(1), q)[1][0])] + _gibbs(wc, gc, lam, q)[1].tolist():
        near = load
        for _ in range(3):
            near = math.nextafter(near, 0.0)
            out += [near]
        out += [load, math.nextafter(load, math.inf)]
    return [v for v in out if v > 0.0]


@settings(max_examples=120, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 7, 8, 9]), L=st.integers(1, 12), data=st.data())
def test_max_entropy_replays_the_bisection_on_random_problems(q, L, data):
    k = data.draw(st.integers(1, L + 1))
    gaps = data.draw(st.lists(st.integers(0, L), min_size=k, max_size=k))
    # weights up to just under the dual's limit: 1 + sum w < 2^996
    top = 995.9 - math.log2(k)
    w = [2.0**v for v in data.draw(st.lists(st.floats(-60.0, top), min_size=k, max_size=k))]
    budgets = data.draw(st.lists(st.floats(0.0, float(L), exclude_min=True), max_size=6))
    budgets += _hard_budgets(w, gaps, q)
    got = max_entropy(w, gaps, budgets, q)
    assert repr([_fields(r) for r in got]) == repr(bisection_max_entropy(w, gaps, budgets, q))
    # a point's loads do not depend on the rest of the grid
    for budget, res in zip(budgets[::3], got[::3]):
        one = opt_polytope_2d(w, gaps, budget, q)
        assert (one.lam, one.rounds, one.budget_evals) == (res.lam, res.rounds, res.budget_evals)
    for res in got:
        assert res.budget_evals >= 1
        assert res.method == "edge" or (res.budget_evals, res.rounds) == (1, 0)


def test_interior_stationary_point():
    res = opt_polytope_2d((1.0, 1.0), (1, 1), 1.0, 2)
    assert res.method == "interior"
    assert res.x[0] == pytest.approx(1 / 3, abs=1e-12)
    assert res.value == pytest.approx(math.log2(3), abs=1e-12)


def test_edge_maximum_matches_stationary_closed_form():
    # active budget edge x1 + 2 x2 = 4 rho of the binary list-of-4 family:
    # eliminating x1 gives a quadratic stationary condition with root
    # x2* = 2(rho - 1) + 2 sqrt(1 - 2 rho + 4 rho^2)
    rho = 0.1
    res = opt_polytope_2d((4, 3), (1, 2), 4 * rho, 2)
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
    # the same class table, solve and deficit column: equal to the last bit
    for rho in np.arange(0.01, 0.31, 0.02):
        rep = rc_threshold_generic(LRSpec(q=2, ell=1, L=4, rho=float(rho)))
        assert rep.value == threshold_rc_binary_l4(float(rho))


def test_generic_rc_agrees_with_qary_closed_form():
    for q in (3, 5):
        for rho in (0.05, 0.15, 0.3):
            rep = rc_threshold_generic(LRSpec(q=q, ell=1, L=3, rho=rho))
            assert rep.value == threshold_rc_qary_l3(q, rho)


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
    assert rep3.inner_kernel.basis == ((1, 1),)


RLC_CASES = [(q, 2) for q in (2, 3, 4, 5, 7)] + [(2, 4)] + [(q, 3) for q in (3, 4, 5)]


@pytest.mark.parametrize("q,L", RLC_CASES)
@pytest.mark.parametrize("rho", [0.11, 0.2])
def test_rlc_inner_kernel_is_the_binding_line(q, L, rho):
    # the reported kernel is a 1-dim kernel of least quotient entropy for the
    # boundary type: span{1}, not the difference line through which the
    # boundary pair is uniform for q >= 3
    spec = LRSpec(q=q, ell=1, L=L, rho=rho)
    rep = rlc_lower_generic(spec)
    tau = TypeDist(q, L, bad_type(spec).marginal("x"))
    H = pushforward(tau, map_with_kernel(rep.inner_kernel)).entropy()
    assert H == pytest.approx(kernel_entropy_table(tau, 1)[0].min(), abs=1e-12)
    assert rep.inner_kernel.basis == ((1,) * L,)


@pytest.mark.parametrize("q,rho", [(2, 0.3), (3, 0.4), (2, 0.26), (3, 0.49)])
def test_rlc_pair_is_zero_past_the_entropy_peak(q, rho):
    # past 2 rho = 1 - 1/q the off-diagonal mass no longer binds, h_q peaks
    # at 1, and the bound is 0, as for the plain ensemble
    assert 2 * rho > 1 - 1 / q
    rep = rlc_lower_generic(LRSpec(q=q, ell=1, L=2, rho=rho))
    assert rep.value == 0.0
    assert rc_threshold_generic(LRSpec(q=q, ell=1, L=2, rho=rho)).value == 0.0


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
    # the plain ensemble has no such limit: one list size past each family,
    # the threshold lies between the family's and capacity
    for q, L, below in [(2, 5, threshold_rc_binary_l4(0.1)),
                        (3, 4, threshold_rc_qary_l3(3, 0.1))]:
        rep = rc_threshold_generic(LRSpec(q=q, ell=1, L=L, rho=0.1))
        assert rep.method == "kkt"
        assert below < rep.value < 1 - hq(q, 0.1)


def _rc_rate(q, ell, L, rho):
    return rc_threshold_generic(LRSpec(q=q, ell=ell, L=L, rho=rho)).value


@pytest.mark.parametrize("q,ell", [(2, 1), (3, 1), (4, 2)])
def test_rc_list_size_lies_in_the_closed_bracket(q, ell):
    # the smallest L whose threshold reaches the rate 1 - h - eps
    h = hql(q, ell, 0.1)
    for eps in (0.2, 0.1, 0.05, 0.03):
        L = 1
        while _rc_rate(q, ell, L, 0.1) < 1 - h - eps:
            L += 1
        lower, upper = lr_listsize_rc(q, ell, 0.1, eps, 0)
        assert lower <= L <= upper, (eps, L, lower, upper)


@pytest.mark.parametrize("q,ell,L", [(2, 1, 16), (4, 2, 64)])
def test_rc_gap_to_capacity_tends_to_the_list_size_law(q, ell, L):
    # L * eps_RC(L) -> log_q C(q, ell), eps_RC = 1 - h - R_RC
    gap = 1 - hql(q, ell, 0.1) - _rc_rate(q, ell, L, 0.1)
    assert abs(L * gap - math.log(math.comb(q, ell), q)) <= 1e-3


def test_class_problem_hand_derived_coefficients():
    # binary lists of 4: |(3,1)| = 8 and |(2,2)| = 6 against the 2 constant
    # vectors; q-ary lists of 3: |(2,1)| = 3q(q-1), |(1,1,1)| = q(q-1)(q-2)
    # against q; binary lists of 3: |(2,1)| = 6 against 2
    assert _class_problem(2, 1, 4) == ((4, 3), (1, 2))
    for q in (3, 4, 5, 7, 8, 9):
        assert _class_problem(q, 1, 3) == ((3 * (q - 1), (q - 1) * (q - 2)), (1, 2))
    assert _class_problem(2, 1, 3) == ((3,), (1,))


@pytest.mark.parametrize("q,L", [(2, L) for L in range(1, 9)] + [(3, L) for L in range(1, 7)]
                         + [(4, L) for L in range(1, 6)] + [(5, 4)])
def test_class_problem_is_the_walks_gap_tally(q, L):
    # the weights summed per gap from a walk over all q^L vectors
    walk = coincidence_walk(q, L)
    del walk[(L,)]
    for ell in range(1, q):
        tally = {}
        for shape, size in walk.items():
            gap = L - sum(shape[:ell])
            tally[gap] = tally.get(gap, 0) + size // q
        gaps = tuple(sorted(tally))
        assert _class_problem(q, ell, L) == (tuple(tally[g] for g in gaps), gaps), ell


@pytest.mark.parametrize("q,ell,L", [(2, 1, 1), (2, 1, 16), (3, 1, 9), (3, 2, 12), (4, 2, 24),
                                     (4, 2, 64), (5, 3, 20)])
def test_class_problem_counts_every_vector(q, ell, L):
    weights, gaps = _class_problem(q, ell, L)
    assert all(type(w) is int for w in weights)
    assert len(gaps) <= L + 1 and list(gaps) == sorted(set(gaps))
    assert q * (1 + sum(weights)) == q**L


@pytest.mark.parametrize("q,ell,L,grid", [(3, 1, 4, (0.002, 0.664, 0.002)),
                                          (3, 1, 5, (0.002, 0.664, 0.002)),
                                          (4, 2, 24, (0.002, 0.3, 0.002))])
def test_merged_problem_equals_the_per_class_problem(q, ell, L, grid):
    # one row per coincidence class, several of them sharing a gap, gives the
    # same optimum as the gap enumerator
    free = shape_tally(q, L)
    del free[(L,)]
    weights = [size // q for size in free.values()]
    gaps = [L - sum(shape[:ell]) for shape in free]
    assert len(set(gaps)) < len(gaps)
    rhos = _decimal_grid(*grid)
    per_class = max_entropy(weights, gaps, L * np.asarray(rhos), q)
    merged = _solve_classes(q, ell, L, rhos)
    assert [s.value for s in per_class] == [s.value for s in merged]
    assert _rate_rows(per_class, L) == _rate_rows(merged, L)


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
    # past rho = 1/4 orange is the vertex value h2(2 rho); the bound subtracts
    # the face maximum h2(min(2 rho, 1/2)), which blue must dominate too
    for g in (grid, BINARY_L4_GRID):
        b = dominance_curves(g)[0].values
        low = np.array([_low_dimension_case(2, 4, r) for r in g])
        assert np.all(b - low > STRICT_MARGIN)
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


def _negativity_per_point(grid) -> np.ndarray:
    return np.asarray([2.0 * hq_multi(2, [0.0, 1.5 * r]) - hq_multi(2, [3.0 * r, 0.0])
                       - 3.0 * r * math.log2(3.0) for r in grid])


def test_negativity_values_equal_the_per_point_formula_on_the_default_grid():
    grid = _decimal_grid(0.001, 0.333, 0.001)  # the `verify --check negativity` grid
    got = negativity_values(grid)
    assert got.view(np.int64).tolist() == _negativity_per_point(grid).view(np.int64).tolist()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0 / 3.0, exclude_min=True, exclude_max=True), min_size=1,
                max_size=40))
def test_negativity_values_equal_the_per_point_formula(rhos):
    got = negativity_values(rhos)
    assert got.view(np.int64).tolist() == _negativity_per_point(rhos).view(np.int64).tolist()


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


@pytest.mark.parametrize("listsize", [lr_listsize_lower_rlc, lr_listsize_rc])
@pytest.mark.parametrize("eps,delta", [(math.inf, 0.0), (0.1, math.inf), (math.inf, math.inf)])
def test_listsizes_reject_infinite_eps_and_delta(listsize, eps, delta):
    with pytest.raises(DomainError):
        listsize(2, 1, 0.1, eps, delta)


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


REDUCTION_CASES = [(q, ell, L) for q, L in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3),
                                             (3, 4), (4, 3)]
                   for ell in (1, 2) if ell < q]


@pytest.mark.parametrize("q,ell,L", REDUCTION_CASES)
def test_quotient_by_the_ones_line_drops_one_unit(q, ell, L):
    # the boundary marginal is invariant under u -> u + a*1, so for a kernel
    # K != 0 without 1 its image is uniform along A_K span(1):
    # H(A_K tau) = H(A_{K+<1>} tau) + 1, step 1 of kernel_slack_report's lemma
    tau = TypeDist(q, L, bad_type(LRSpec(q=q, ell=ell, L=L, rho=0.2)).marginal("x"))
    tables = [kernel_entropy_table(tau, k)[0] for k in range(L)] + [np.zeros(1)]
    checked = 0
    for k in range(1, L):
        wider_index = {b: t for t, b in enumerate(iter_rref_bases(q, L, k + 1))}
        for t, basis in enumerate(iter_rref_bases(q, L, k)):
            wider = rref_of([*basis, (1,) * L], q)
            if wider.dim > k:
                assert tables[k][t] == pytest.approx(
                    tables[k + 1][wider_index[wider.basis]] + 1.0, abs=1e-12)
                checked += 1
    assert checked == sum(gaussian_binomial(L, k, q) - gaussian_binomial(L - 1, k - 1, q)
                          for k in range(1, L))


SLACK_RADII = (0.05, 0.1, 0.2)  # the radii of the bench's lemma33 jobs
SLACK_ORACLE_CASES = (
    [(3, 2, L) for L in range(2, 6)] + [(q, 2, L) for q in (4, 5) for L in (2, 3)]
    + [(q, 1, L) for q in (4, 5, 7) for L in (1, 2, 3)] + [(2, 1, 7), (3, 1, 5)])


@pytest.mark.parametrize("q,ell,L", SLACK_ORACLE_CASES)
def test_kernel_slack_report_matches_the_all_kernel_sweep(q, ell, L):
    # the zero kernel and the kernels through 1 give every minimum of the
    # sweep over all proper kernels, and the same first worst kernel
    for rho in SLACK_RADII:
        rep = kernel_slack_report(q, ell, rho, L, 0.1)
        ref = all_kernel_slack_report(q, ell, rho, L, 0.1)
        d = rep["details"]
        assert rep["min_slack"] == ref["min_slack"]
        assert rep["worst_kernel"] == ref["worst_kernel"]
        assert d["identity_kernel_entropy"] == ref["identity_kernel_entropy"]
        assert d["per_dim_min_slack"].keys() == ref["per_dim_min_slack"].keys()
        for dim, slack in ref["per_dim_min_slack"].items():
            assert d["per_dim_min_slack"][dim] == pytest.approx(slack, abs=1e-12)
        assert d["per_dimension_floor_min_slack"] == pytest.approx(
            ref["per_dimension_floor_min_slack"], abs=1e-12)
        assert rep["kernels"] == 1 + sum(gaussian_binomial(L - 1, k - 1, q)
                                         for k in range(1, L))
        assert ref["kernels"] == sum(gaussian_binomial(L, k, q) for k in range(L))


SLACK_BENCH_CASES = [(2, L) for L in range(2, 8)] + [(3, L) for L in range(2, 6)]  # bench's lemma33


def test_kernel_slack_reports_agree_cold_warm_and_streamed(monkeypatch):
    # the quotient images kept per (q, L, k) across radii change no bit of a
    # report, whether the tables are built, read back or streamed unkept
    def reports():
        before = image_cache_hits()
        out = [kernel_slack_report(q, 1, rho, L, 0.1)
               for rho in SLACK_RADII for q, L in SLACK_BENCH_CASES]
        return out, image_cache_hits() - before

    tables = sum(L - 1 for _, L in SLACK_BENCH_CASES)
    monkeypatch.setattr(subspaces, "_images", {})
    cold, cold_hits = reports()
    warm, warm_hits = reports()
    kept = [a for table in subspaces._images.values() for part in table for a in part]
    assert len(subspaces._images) == tables
    assert kept and not any(a.flags.writeable for a in kept)
    monkeypatch.setattr(subspaces, "_images", {})
    monkeypatch.setattr(subspaces, "_IMAGE_BYTES", 0)
    streamed, streamed_hits = reports()
    assert not subspaces._images
    assert (cold_hits, warm_hits, streamed_hits) == (2 * tables, 3 * tables, 0)
    assert cold == warm == streamed


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
