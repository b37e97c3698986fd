import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thresholds.errors import DomainError
from thresholds.infomeasures import (
    JointTable,
    ball_volume,
    entropy,
    fano_bound,
    hq,
    hq_multi,
    hql,
    joint_measures,
)
from thresholds.subspaces import kernel_entropy_table
from thresholds.typespace import TypeDist


def random_joint(shape, seed):
    rng = np.random.default_rng(seed)
    t = rng.random(shape)
    return t / t.sum()


# ---------------------------------------------------------------------------
# the scalar entropy functions
# ---------------------------------------------------------------------------


def test_hq_binary_midpoint():
    assert hq(2, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_hq_endpoints():
    for q in (2, 3, 5, 8):
        assert hq(q, 0.0) == 0.0
        assert hq(q, 1.0) == pytest.approx(math.log(q - 1) / math.log(q), abs=1e-15)


def test_hq_peak_at_plotkin_radius():
    # maximized at 1 - 1/q where it equals 1
    for q in (2, 3, 7):
        assert hq(q, 1 - 1 / q) == pytest.approx(1.0, abs=1e-14)
        assert hq(q, 1 - 1 / q - 0.05) < 1.0


def test_hq_domain():
    with pytest.raises(DomainError):
        hq(2, -0.01)
    with pytest.raises(DomainError):
        hq(2, 1.01)
    with pytest.raises(DomainError):
        hq(1, 0.3)


def test_hql_reduces_to_hq_at_ell_one():
    # hq is hql(q, 1, .); check both against the sphere-entropy formula
    for q in (2, 5):
        for rho in (0.01, 0.2, 0.45):
            direct = (rho * math.log((q - 1) / rho)
                      + (1 - rho) * math.log(1 / (1 - rho))) / math.log(q)
            assert hql(q, 1, rho) == pytest.approx(direct, abs=1e-15)
            assert hq(q, rho) == pytest.approx(direct, abs=1e-15)


def test_hql_endpoints():
    q, ell = 5, 2
    assert hql(q, ell, 0.0) == pytest.approx(math.log(ell) / math.log(q), abs=1e-15)
    assert hql(q, ell, 1.0) == pytest.approx(math.log(q - ell) / math.log(q), abs=1e-15)


@pytest.mark.parametrize("q, ell", [(2, 1), (3, 1), (5, 2), (9, 4)])
def test_hql_is_finite_at_subnormal_radii(q, ell):
    # (q - ell) / rho overflows below rho = (q - ell) / 1.8e308; its log is
    # then log(q - ell) - log(rho), and the quotient's log everywhere else
    for rho in (1e-310, 5e-324, 2.2e-308):
        split = (rho * (math.log(q - ell) - math.log(rho))
                 + (1 - rho) * math.log(ell / (1 - rho))) / math.log(q)
        assert hql(q, ell, rho) == split
        assert 0.0 <= hql(q, ell, rho) < math.inf
    for rho in (1e-300, 1e-5, 0.3):
        quotient = (rho * math.log((q - ell) / rho)
                    + (1 - rho) * math.log(ell / (1 - rho))) / math.log(q)
        assert hql(q, ell, rho) == quotient


def test_hql_midpoint_symmetric_case():
    assert hql(4, 2, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_hq_multi_known_value():
    assert hq_multi(2, [0.25, 0.25]) == pytest.approx(1.5, abs=1e-15)
    assert hq_multi(2, [0.0, 0.0]) == 0.0


def test_hq_multi_mass_filtering():
    # zero masses contribute nothing rather than NaN
    assert hq_multi(3, [0.5, 0.0, 0.5]) == pytest.approx(
        math.log(2) / math.log(3), abs=1e-14
    )


def test_hq_multi_domain():
    with pytest.raises(DomainError):
        hq_multi(2, [0.7, 0.7])
    with pytest.raises(DomainError):
        hq_multi(2, [-0.1])


@pytest.mark.parametrize("xs, ok", [
    ([-5e-13, 0.5], True), ([-2e-12, 0.5], False),
    ([0.5, 0.5 + 5e-13], True), ([0.5, 0.5 + 2e-12], False),
])
def test_hq_multi_shares_the_mass_rule_at_the_edge(xs, ok):
    # hq_multi(q, xs) and a TypeDist over the same q masses accept alike
    masses = xs + [1.0 - sum(xs)]
    for build in (lambda: hq_multi(3, xs), lambda: TypeDist(3, 1, masses)):
        if ok:
            build()
        else:
            with pytest.raises(DomainError):
                build()


# ---------------------------------------------------------------------------
# the one entropy routine
# ---------------------------------------------------------------------------

ENTROPY_QS = [2, 3, 4, 5, 8, 9]


def oracle_entropy(ps, base):
    """-sum p log p over the positive masses, one Python term at a time."""
    return -sum(p * math.log(p) for p in ps if p > 0.0) / math.log(base)


def draw_masses(data, size, zeros=True):
    """A probability vector of the given size; zero cells when zeros is set."""
    weights = data.draw(st.lists(st.integers(0 if zeros else 1, 6), min_size=size,
                                 max_size=size))
    w = np.asarray(weights, dtype=np.float64)
    w[0] += not w.any()
    return w / w.sum()


@pytest.mark.parametrize("q", ENTROPY_QS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_entropy_rows_match_single_rows_and_the_oracle(q, data):
    rows, size = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 2 * q))
    M = np.stack([draw_masses(data, size) for _ in range(rows)])
    H = entropy(M, q)
    assert H.shape == (rows,)
    for i in range(rows):
        assert H[i] == entropy(M[i], q)
        assert H[i] == pytest.approx(oracle_entropy(M[i], q), abs=1e-12)


@pytest.mark.parametrize("q", ENTROPY_QS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_entropy_zero_cells_add_nothing(q, data):
    p = draw_masses(data, data.draw(st.integers(1, q)), zeros=False)
    at = data.draw(st.lists(st.integers(0, p.size), min_size=1, max_size=6))
    padded = np.insert(p, at, 0.0)
    assert entropy(padded, q) == pytest.approx(entropy(p, q), abs=1e-14)
    # a point mass has entropy 0.0, not -0.0, which would print as "-0"
    assert math.copysign(1.0, entropy(np.eye(q)[0], q)) == 1.0
    assert math.copysign(1.0, hq_multi(q, [0.0] * (q - 1))) == 1.0


@pytest.mark.parametrize("q", ENTROPY_QS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_entropy_base_conversion(q, data):
    p = draw_masses(data, data.draw(st.integers(1, 2 * q)))
    nats = entropy(p, math.e)
    assert entropy(p, q) == pytest.approx(nats / math.log(q), abs=1e-14)
    assert entropy(p, 2) == pytest.approx(entropy(p, q) * math.log2(q), abs=1e-12)
    assert entropy(np.full(q, 1.0 / q), q) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("q", ENTROPY_QS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_entropy_agrees_with_its_callers(q, data):
    b = 1 if q > 3 else data.draw(st.integers(1, 2))
    p = draw_masses(data, q**b)
    want = oracle_entropy(p, q)
    assert hq_multi(q, p[:-1]) == pytest.approx(want, abs=1e-12)
    tau = TypeDist(q, b, p)
    assert tau.entropy() == entropy(tau.probs, q)
    # the identity kernel pushes tau onto itself, so its row is H(tau)
    assert kernel_entropy_table(tau, 0)[0][0] == entropy(tau.probs, q)
    assert tau.entropy() == pytest.approx(want, abs=1e-12)


def test_typedist_and_jointtable_share_the_validation_rule():
    jitter = np.array([0.5, 0.5 + 4e-13, -4e-13, 0.0])
    assert TypeDist(2, 2, jitter).probs.min() == 0.0
    assert JointTable(jitter.reshape(2, 2)).masses.min() == 0.0
    off = np.array([0.5, 0.5 + 1e-11, 0.0, 0.0])
    with pytest.raises(DomainError):
        TypeDist(2, 2, off)
    with pytest.raises(DomainError):
        JointTable(off.reshape(2, 2))


# ---------------------------------------------------------------------------
# distributions and joint tables
# ---------------------------------------------------------------------------


def test_chain_rule_two_axes():
    jt = JointTable(random_joint((4, 5), seed=1))
    m = joint_measures(jt, base=2)
    assert m["H_xy"] == pytest.approx(m["H_x"] + m["H_y_given_x"], abs=1e-12)
    assert m["I_xy"] == pytest.approx(m["H_x"] - m["H_x_given_y"], abs=1e-12)
    assert m["I_xy"] >= -1e-12


def test_chain_rule_three_axes():
    jt = JointTable(random_joint((3, 4, 3), seed=2))
    m = joint_measures(jt, base=2)
    assert m["H_xyz"] <= m["H_x"] + m["H_y"] + m["H_z"] + 1e-12
    assert m["H_x_given_yz"] <= m["H_x_given_y"] + 1e-12


def test_independent_table_has_zero_mi():
    px = np.array([0.3, 0.7])
    py = np.array([0.2, 0.5, 0.3])
    jt = JointTable(np.outer(px, py))
    m = joint_measures(jt, base=2)
    assert m["I_xy"] == pytest.approx(0.0, abs=1e-12)


def test_a_nan_mass_is_refused():
    # NaN compares false both ways, so the total's check is written to fail on it
    for build in (lambda: JointTable(np.array([[0.5, np.nan], [0.25, 0.25]])),
                  lambda: hq_multi(2, [0.5, np.nan])):
        with pytest.raises(DomainError, match="masses sum to nan"):
            build()


def test_marginal_axis_errors():
    jt = JointTable(random_joint((3, 3), seed=3))
    with pytest.raises(DomainError, match="axis 'z' not present"):
        jt.marginal("z")


def test_conditional_mi_nonnegative():
    for seed in range(5):
        jt = JointTable(random_joint((3, 3, 4), seed=seed))
        assert joint_measures(jt, base=2)["I_xy_given_z"] >= -1e-12


def test_fano_bound_values():
    # H(X|Y) <= h2(pe) + pe log2(M-1)
    assert fano_bound(0.0, 4) == pytest.approx(0.0, abs=1e-15)
    assert fano_bound(0.5, 2) == pytest.approx(1.0, abs=1e-15)
    assert fano_bound(0.1, 5) == pytest.approx(
        hq(2, 0.1) * 0 + (-0.1 * math.log2(0.1) - 0.9 * math.log2(0.9)) + 0.1 * 2.0,
        abs=1e-12,
    )


# ---------------------------------------------------------------------------
# ball volumes
# ---------------------------------------------------------------------------


def test_ball_volume_small_cases():
    assert ball_volume(2, 10, 0) == 1
    assert ball_volume(2, 10, 2) == 56
    assert ball_volume(3, 4, 1) == 9
    assert ball_volume(2, 6, 6) == 64


def test_ball_volume_radius_clamped():
    assert ball_volume(2, 5, 12) == 32


def test_list_ball_volume_counts_subset_tuples():
    # pairs from GF(3) that hold 0: {0,1} and {0,2}; the one that misses it: {1,2}
    assert ball_volume(3, 2, 0, ell=2) == 4
    assert ball_volume(3, 2, 1, ell=2) == 4 + 2 * 2
    assert ball_volume(5, 3, 3, ell=2) == math.comb(5, 2) ** 3
    assert ball_volume(4, 5, 2, ell=1) == ball_volume(4, 5, 2)
    for ell in (0, 3):
        with pytest.raises(DomainError):
            ball_volume(3, 2, 1, ell=ell)


def test_ball_volume_exact_big():
    # exact integers well past float precision
    v = ball_volume(4, 60, 30)
    assert v == sum(math.comb(60, i) * 3**i for i in range(31))
