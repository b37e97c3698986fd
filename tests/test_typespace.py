from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thresholds.errors import DomainError, ShapeMismatchError, UnsupportedError
from thresholds.fields import make_field, vec_decode, vec_encode
from thresholds.infomeasures import hql
from thresholds.typespace import (
    JointTypeDist,
    LRSpec,
    MatrixInstance,
    TypeDist,
    bad_type,
    coincidence_orbits,
    dim_of_type,
    empirical_type,
    pushforward,
    realize_matrix,
    sample_rows,
    t_membership,
)

# ---------------------------------------------------------------------------
# TypeDist basics
# ---------------------------------------------------------------------------


def test_typedist_shape_validation():
    with pytest.raises(ShapeMismatchError):
        TypeDist(q=2, b=2, probs=np.ones(3) / 3)


def test_typedist_entropy_is_base_q():
    uniform = TypeDist(q=3, b=2, probs=np.full(9, 1 / 9))
    assert uniform.entropy() == pytest.approx(2.0, abs=1e-12)


def test_typedist_json_roundtrip():
    tau = TypeDist(q=2, b=2, probs=np.array([0.1, 0.2, 0.3, 0.4]))
    back = TypeDist.from_json(tau.to_json())
    assert np.allclose(back.probs, tau.probs)
    assert back.q == 2 and back.b == 2


def test_lrspec_validation():
    LRSpec(q=4, ell=2, L=3, rho=0.3)
    with pytest.raises(DomainError):
        LRSpec(q=4, ell=4, L=3, rho=0.3)
    with pytest.raises(DomainError):
        LRSpec(q=4, ell=2, L=3, rho=0.6)  # past 1 - ell/q
    with pytest.raises(DomainError):
        LRSpec(q=6, ell=1, L=2, rho=0.1)


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------


def brute_pushforward(tau, A, q, b):
    fs = make_field(q)
    rows = len(A)
    out = np.zeros(q**rows)
    for idx in range(q**b):
        v = vec_decode(idx, q, b)
        img = tuple(
            # sum_j A[i][j] * v[j] in the field
            _dot(fs, A[i], v)
            for i in range(rows)
        )
        out[vec_encode(img, q, rows)] += tau.probs[idx]
    return out


def _dot(fs, row, v):
    acc = 0
    for a, x in zip(row, v):
        acc = fs.add(acc, fs.mul(int(a), int(x)))
    return acc


def test_pushforward_matches_brute_force_spot():
    rng = np.random.default_rng(4)
    for q, b in [(2, 3), (3, 2)]:
        probs = rng.random(q**b)
        tau = TypeDist(q=q, b=b, probs=probs / probs.sum())
        A = [[int(x) for x in rng.integers(0, q, size=b)] for _ in range(2)]
        img = pushforward(tau, A)
        assert np.allclose(img.probs, brute_pushforward(tau, A, q, b), atol=1e-12)


def test_pushforward_preserves_exact_masses():
    tau = TypeDist(
        q=2, b=2,
        probs=np.array([0.25, 0.25, 0.25, 0.25]),
        exact=(Fraction(1, 4),) * 4,
    )
    img = pushforward(tau, [[1, 1]])
    assert img.exact == (Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pushforward_composes(q, data):
    # (A B) tau = A (B tau), with the product A B taken column by column
    # through the scalar field ops
    fs = make_field(q)
    a, c, b = (data.draw(st.integers(1, 3)) for _ in range(3))
    entries = st.integers(0, q - 1)
    A = data.draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=a, max_size=a))
    B = data.draw(st.lists(st.lists(entries, min_size=b, max_size=b), min_size=c, max_size=c))
    weights = data.draw(st.lists(st.integers(0, 4), min_size=q**b, max_size=q**b))
    probs = np.asarray(weights, dtype=float) + (not any(weights))
    tau = TypeDist(q=q, b=b, probs=probs / probs.sum())
    AB = [[_dot(fs, A[i], [B[t][j] for t in range(c)]) for j in range(b)] for i in range(a)]
    assert np.allclose(pushforward(tau, AB).probs, pushforward(pushforward(tau, B), A).probs,
                       atol=1e-12)


def test_dim_of_type():
    # support {00, 11} spans one dimension
    tau = TypeDist(q=2, b=2, probs=np.array([0.5, 0.0, 0.0, 0.5]))
    assert dim_of_type(tau) == 1
    assert dim_of_type(TypeDist(q=2, b=2, probs=np.array([1.0, 0, 0, 0]))) == 0


# ---------------------------------------------------------------------------
# matrices and empirical types
# ---------------------------------------------------------------------------


def test_realize_matrix_largest_remainder():
    tau = TypeDist(q=2, b=2, probs=np.array([0.5, 0.3, 0.2, 0.0]))
    M = realize_matrix(tau, 10)
    counts = np.bincount(M.row_indices(), minlength=4)
    assert list(counts) == [5, 3, 2, 0]


def test_empirical_roundtrip_exact():
    tau = TypeDist(q=3, b=2, probs=np.array([0.25, 0.25, 0, 0, 0.25, 0, 0, 0.25, 0]))
    M = realize_matrix(tau, 8)
    back = empirical_type(M)
    assert np.array_equal(back.probs, tau.probs)


def test_sample_rows_hits_support_only():
    rng = np.random.default_rng(9)
    tau = TypeDist(q=2, b=2, probs=np.array([0.7, 0.0, 0.0, 0.3]))
    M = sample_rows(tau, 200, rng)
    assert set(np.unique(M.row_indices())) <= {0, 3}


def test_matrix_csv_roundtrip():
    M = MatrixInstance(q=3, b=2, entries=np.array([[0, 1], [2, 2], [1, 0]]))
    back = MatrixInstance.from_csv(M.to_csv(), q=3, b=2)
    assert np.array_equal(back.entries, M.entries)


# ---------------------------------------------------------------------------
# the canonical boundary type
# ---------------------------------------------------------------------------


def test_bad_type_binary_pair_marginal():
    # q=2, ell=1, L=2 at rho=0.3: weight-w mass (1/2)(rho^w (1-rho)^{2-w} + ...)
    jt = bad_type(LRSpec(q=2, ell=1, L=2, rho=0.3))
    marg = jt.u_marginal()
    assert np.allclose(marg.probs, [0.29, 0.21, 0.21, 0.29], atol=1e-12)
    assert marg.exact is not None
    assert sum(marg.exact) == 1


def test_bad_type_coordinate_entropy_identity():
    # a single coordinate given the subset carries exactly h_{q,ell}(rho)
    for q, ell, L, rho in [(2, 1, 3, 0.2), (4, 2, 2, 0.25)]:
        jt = bad_type(LRSpec(q=q, ell=ell, L=L, rho=rho))
        for i in range(L):
            assert jt.coord_entropy_given_subset(i) == pytest.approx(
                hql(q, ell, rho), abs=1e-12
            )


def test_bad_type_subset_marginal_uniform():
    jt = bad_type(LRSpec(q=3, ell=1, L=2, rho=0.2))
    assert np.allclose(jt.subset_marginal(), np.full(3, 1 / 3), atol=1e-14)


def test_bad_type_json_roundtrip():
    jt = bad_type(LRSpec(q=2, ell=1, L=2, rho=0.25))
    back = JointTypeDist.from_json(jt.to_json())
    assert np.allclose(back.table, jt.table)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_accepts_the_boundary_type():
    spec = LRSpec(q=2, ell=1, L=2, rho=0.3)
    tau = bad_type(spec).u_marginal()
    rep = t_membership(tau, spec)
    assert rep.member and rep.lp_feasible and rep.distinct_ok
    assert rep.witness is not None


def test_membership_rejects_coincident_point_mass():
    # all mass on the all-ones pair: coordinates coincide with probability 1
    spec = LRSpec(q=2, ell=1, L=2, rho=0.3)
    probs = np.zeros(4)
    probs[3] = 1.0
    rep = t_membership(TypeDist(q=2, b=2, probs=probs), spec)
    assert not rep.member and not rep.distinct_ok
    assert rep.refutation["coincident_pair"] == (0, 1)


def test_membership_infeasible_budget_has_farkas_certificate():
    # antidiagonal pair type needs disagreement mass 1 > 2 rho
    spec = LRSpec(q=2, ell=1, L=2, rho=0.3)
    probs = np.array([0.0, 0.5, 0.5, 0.0])
    rep = t_membership(TypeDist(q=2, b=2, probs=probs), spec)
    assert not rep.member and rep.distinct_ok and not rep.lp_feasible
    # Farkas certificate: y.rhs must come out strictly positive
    y = rep.refutation["farkas"]
    rhs = list(probs) + [spec.rho] * spec.L
    assert len(y) == len(rhs)
    assert sum(a * b for a, b in zip(y, rhs)) > 0


def test_membership_exact_at_the_budget_boundary():
    # realizable with per-coordinate miss probability exactly rho
    spec = LRSpec(q=2, ell=1, L=2, rho=0.25)
    tau = bad_type(spec).u_marginal()
    assert t_membership(tau, spec).member


# ---------------------------------------------------------------------------
# coincidence orbits
# ---------------------------------------------------------------------------


def test_orbit_shapes_binary_four():
    orbits = coincidence_orbits(2, 4)
    assert [o.shape for o in orbits] == [(4,), (3, 1), (2, 2)]
    assert [o.size for o in orbits] == [2, 8, 6]
    assert [o.plurality_gap for o in orbits] == [0, 1, 2]
    assert sum(o.size for o in orbits) == 16


def test_orbit_shapes_ternary_three():
    orbits = coincidence_orbits(3, 3)
    assert [o.shape for o in orbits] == [(3,), (2, 1), (1, 1, 1)]
    assert [o.size for o in orbits] == [3, 18, 6]
    assert sum(o.size for o in orbits) == 27


def test_orbit_indices_partition_the_space():
    for q, L in [(2, 3), (3, 2), (4, 3)]:
        orbits = coincidence_orbits(q, L)
        seen = sorted(i for o in orbits for i in o.indices)
        assert seen == list(range(q**L))


def test_orbit_cap():
    with pytest.raises(UnsupportedError):
        coincidence_orbits(2, 9)
