import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thresholds.errors import (
    DigitOutOfRangeError,
    DomainError,
    ShapeMismatchError,
    UnsupportedError,
)
from thresholds.fields import make_field, vec_decode, vec_encode, vec_table
from thresholds.infomeasures import JointTable, hql
from thresholds.typespace import (
    LRSpec,
    TypeDist,
    bad_type,
    coincidence_orbits,
    pushforward,
)

from reference import dim_of_type

# ---------------------------------------------------------------------------
# TypeDist basics
# ---------------------------------------------------------------------------


def test_typedist_shape_validation():
    with pytest.raises(ShapeMismatchError):
        TypeDist(q=2, b=2, probs=np.ones(3) / 3)


def test_typedist_entropy_is_base_q():
    uniform = TypeDist(q=3, b=2, probs=np.full(9, 1 / 9))
    assert uniform.entropy() == pytest.approx(2.0, abs=1e-12)


def test_typedist_clips_jitter_and_validates():
    p = TypeDist(q=3, b=1, probs=np.array([0.5, 0.5 + 4e-13, -4e-13]))
    assert p.probs.min() >= 0.0
    with pytest.raises(DomainError):
        TypeDist(q=2, b=1, probs=np.array([0.6, 0.6]))
    with pytest.raises(DomainError):
        TypeDist(q=2, b=1, probs=np.array([1.1, -0.1]))
    with pytest.raises(DomainError):
        JointTable(np.array([[0.6, 0.0], [0.0, 0.6]]))


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


@pytest.mark.parametrize("bad", [-1, 3])
def test_pushforward_rejects_entries_outside_the_field(bad):
    # a negative entry must not read the table row from the end (-1 as 2)
    tau = TypeDist(q=3, b=2, probs=np.full(9, 1 / 9))
    with pytest.raises(DigitOutOfRangeError):
        pushforward(tau, [[bad, 1]])


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
# the canonical boundary type
# ---------------------------------------------------------------------------


def test_bad_type_binary_pair_marginal():
    # q=2, ell=1, L=2 at rho=0.3: weight-w mass (1/2)(rho^w (1-rho)^{2-w} + ...)
    jt = bad_type(LRSpec(q=2, ell=1, L=2, rho=0.3))
    marg = TypeDist(2, 2, jt.marginal("x"))
    assert np.allclose(marg.probs, [0.29, 0.21, 0.21, 0.29], atol=1e-12)


def test_bad_type_coordinate_entropy_identity():
    # a single coordinate given the subset carries exactly h_{q,ell}(rho)
    for q, ell, L, rho in [(2, 1, 3, 0.2), (4, 2, 2, 0.25)]:
        jt = bad_type(LRSpec(q=q, ell=ell, L=L, rho=rho))
        ps = jt.marginal("y")
        for i in range(L):
            h = 0.0  # H(u_i | S), base q
            for sidx in range(jt.masses.shape[1]):
                cond = np.bincount(vec_table(q, L)[:, i], weights=jt.masses[:, sidx],
                                   minlength=q) / ps[sidx]
                cond = cond[cond > 0]
                h -= ps[sidx] * float((cond * np.log(cond)).sum()) / math.log(q)
            assert h == pytest.approx(hql(q, ell, rho), abs=1e-12)


def test_bad_type_subset_marginal_uniform():
    for q, ell in [(3, 1), (4, 2), (5, 3)]:
        jt = bad_type(LRSpec(q=q, ell=ell, L=2, rho=0.2))
        C = math.comb(q, ell)
        assert np.allclose(jt.marginal("y"), np.full(C, 1 / C), atol=1e-14)


# ---------------------------------------------------------------------------
# the boundary type satisfies the list-recovery constraints
# ---------------------------------------------------------------------------


def miss_masses(jt, q, ell, L):
    """Pr[u_i not in S] for each coordinate i, summed over the table."""
    digits = vec_table(q, L)
    subsets = list(itertools.combinations(range(q), ell))
    return [sum(jt.masses[v, s] for v in range(q**L) for s, S in enumerate(subsets)
                if digits[v, i] not in S) for i in range(L)]


def test_membership_accepts_the_boundary_type():
    # every coordinate spends exactly the error budget rho, and no two
    # coordinates coincide almost surely
    for q, ell, L, rho in [(2, 1, 2, 0.3), (2, 1, 4, 0.1), (3, 1, 3, 0.2),
                           (4, 2, 2, 0.25), (5, 3, 2, 0.3)]:
        jt = bad_type(LRSpec(q=q, ell=ell, L=L, rho=rho))
        assert miss_masses(jt, q, ell, L) == pytest.approx([rho] * L, abs=1e-12)
        tau = TypeDist(q, L, jt.marginal("x"))
        digits = vec_table(q, L)
        for i, j in itertools.combinations(range(L), 2):
            assert tau.probs[digits[:, i] != digits[:, j]].sum() > 0


def test_membership_exact_at_the_budget_boundary():
    # the same masses in exact arithmetic, built cell by cell: the miss mass
    # is exactly rho, and each float cell is its exact mass rounded once
    for q, ell, L, rho in [(2, 1, 2, 0.25), (2, 1, 3, 0.1), (4, 2, 2, 0.3)]:
        jt = bad_type(LRSpec(q=q, ell=ell, L=L, rho=rho))
        subsets = list(itertools.combinations(range(q), ell))
        inside, outside = (1 - Fraction(rho)) / ell, Fraction(rho) / (q - ell)
        exact = [[Fraction(1, len(subsets)) * math.prod(
            inside if d in S else outside for d in vec_decode(v, q, L)) for S in subsets]
            for v in range(q**L)]
        assert np.array_equal(jt.masses, [[float(m) for m in row] for row in exact])
        for i in range(L):
            assert sum(exact[v][s] for v in range(q**L) for s, S in enumerate(subsets)
                       if vec_decode(v, q, L)[i] not in S) == Fraction(rho)


# ---------------------------------------------------------------------------
# coincidence orbits
# ---------------------------------------------------------------------------


def test_orbit_shapes_binary_four():
    orbits = coincidence_orbits(2, 4)
    assert [o.shape for o in orbits] == [(4,), (3, 1), (2, 2)]
    assert [o.size for o in orbits] == [2, 8, 6]
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
