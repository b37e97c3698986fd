import math

import numpy as np
import pytest

from thresholds.errors import DomainError, EmptyPolytopeError, UnsupportedError
from thresholds.engine import (
    BoundCurve,
    Polytope2D,
    bound_rlc_binary_l4,
    bound_rlc_qary_l3,
    boundary_dominance_qary,
    dominance_curves,
    fmt12,
    kernel_slack_report,
    largeL_compare,
    lr_listsize_lower_rlc,
    lr_listsize_rc,
    lr_rate_rc_upper,
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
from thresholds.typespace import LRSpec, TypeDist, bad_type, dim_of_type, pushforward

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
# the planar optimizer
# ---------------------------------------------------------------------------


def test_polytope_membership_and_vertices():
    P = Polytope2D([(1.0, 1.0, 1.0)])
    assert P.contains(0.2, 0.3)
    assert not P.contains(0.8, 0.4)
    verts = sorted(P.vertices())
    assert verts == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]


def test_empty_polytope_raises():
    P = Polytope2D([(1.0, 1.0, -1.0)])
    with pytest.raises(EmptyPolytopeError):
        P.vertices()


def test_unbounded_polytope_raises():
    P = Polytope2D([(1.0, -1.0, 1.0)])  # free along (1, 1)
    with pytest.raises(DomainError):
        opt_polytope_2d((0.0, 0.0), 2, P)


def test_interior_stationary_point():
    res = opt_polytope_2d((0.0, 0.0), 2, Polytope2D([(1.0, 1.0, 1.0)]))
    assert res.method == "interior"
    assert res.x[0] == pytest.approx(1 / 3, abs=1e-12)
    assert res.value == pytest.approx(math.log2(3), abs=1e-12)


def test_edge_maximum_matches_stationary_closed_form():
    # active budget edge x1 + 2 x2 = 4 rho of the binary list-of-4 family:
    # eliminating x1 gives a quadratic stationary condition with root
    # x2* = 2(rho - 1) + 2 sqrt(1 - 2 rho + 4 rho^2)
    rho = 0.1
    P = Polytope2D([(1.0, 2.0, 4 * rho), (1.0, 1.0, 1.0)])
    res = opt_polytope_2d((2.0, math.log2(3.0)), 2, P)
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


def test_report_serialization():
    rep = rlc_lower_generic(LRSpec(q=2, ell=1, L=4, rho=0.1))
    d = rep.to_json_dict()
    assert d["family"] == "rlc-lower"
    assert d["inner_kernel"] == [[1, 1, 1, 1]]
    assert isinstance(d["argmax"]["free_class_masses"], list)


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


def test_bound_curve_validation_and_csv():
    with pytest.raises(DomainError):
        BoundCurve(family="x", method="m", rho_grid=[0.2, 0.1], values=[0, 0])
    with pytest.raises(DomainError):
        BoundCurve(family="x", method="m", rho_grid=[0.1, 0.2], values=[0.0])
    c = BoundCurve(family="x", method="m", rho_grid=[0.1, 0.2], values=[0.5, 0.25])
    lines = c.to_csv().strip().splitlines()
    assert lines[0] == "rho,value,family,method"
    assert lines[1] == "0.1,0.5,x,m"


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
        for rho in (0.02, 0.15, 0.3):
            assert boundary_dominance_qary(q, rho) > 1e-9


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


def test_rate_rc_upper_value():
    h = hq(2, 0.1)
    assert lr_rate_rc_upper(2, 1, 0.1, 4) == pytest.approx(1 - h - 1 / 4, abs=1e-12)
    # larger lists push the failure rate toward capacity from below
    assert lr_rate_rc_upper(2, 1, 0.1, 8) > lr_rate_rc_upper(2, 1, 0.1, 4)


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


def test_largelist_separation_flips():
    assert largeL_compare(0.1, 3)
    assert not largeL_compare(0.45, 2)
    assert not largeL_compare(0.3, 2)
    # at fixed small rho the condition survives arbitrarily large L
    assert largeL_compare(0.1, 12)
    # but no list size rescues rho = 0.2
    assert not largeL_compare(0.2, 12)


def test_largelist_separation_when_condition_holds():
    # whenever the condition holds the linear rate exceeds the plain one
    # for all small enough delta
    for rho, L in [(0.05, 3), (0.1, 4), (0.2, 16)]:
        if largeL_compare(rho, L):
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
    u = bad_type(LRSpec(q=q, ell=1, L=L, rho=rho)).u_marginal()
    tau = TypeDist(q=q, b=L, probs=u.probs)
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


def test_lambda_ratio_beta_domain():
    with pytest.raises(DomainError):
        shifted_sum_entropy_ratio(2, 1, 0.2, 0)
    with pytest.raises(DomainError):
        shifted_sum_entropy_ratio(3, 1, 0.2, 3)
