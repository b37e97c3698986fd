import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thresholds.errors import (
    DigitOutOfRangeError,
    DomainError,
    FullSpaceKernelError,
    ShapeMismatchError,
)
from thresholds.fields import make_field, row_reduce
from thresholds.subspaces import (
    SubspaceRREF,
    gaussian_binomial,
    iter_kernel_entropies,
    iter_rref_bases,
    kernel_at,
    kernel_entropy_table,
    map_with_kernel,
    rref_of,
)
from thresholds.typespace import LRSpec, TypeDist, bad_type, pushforward

from reference import dim_of_type, matvec_apply


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 5, 7) == 1
    assert gaussian_binomial(3, 4, 2) == 0


def test_enum_counts_match_gaussian_binomials():
    subs = [SubspaceRREF(q=2, ambient=4, basis=basis)
            for k in range(5) for basis in iter_rref_bases(2, 4, k)]
    assert len(subs) == 67  # 1 + 15 + 35 + 15 + 1
    by_dim = {}
    for s in subs:
        by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
    assert by_dim == {k: gaussian_binomial(4, k, 2) for k in range(5)}
    # canonical representation: no duplicates
    assert len({s.basis for s in subs}) == 67


def test_enum_counts_q3():
    assert len(list(iter_rref_bases(3, 3, 1))) == gaussian_binomial(3, 1, 3)
    assert len(list(iter_rref_bases(3, 3, 2))) == gaussian_binomial(3, 2, 3)


@pytest.mark.parametrize("q,L", [(2, 4), (3, 3), (4, 2)])
def test_kernel_at_decodes_every_index(q, L):
    for k in range(L + 1):
        for t, basis in enumerate(iter_rref_bases(q, L, k)):
            assert kernel_at(q, L, k, t) == SubspaceRREF(q=q, ambient=L, basis=basis)


def test_rref_validation():
    with pytest.raises(DomainError):
        SubspaceRREF(q=2, ambient=2, basis=((1, 1), (0, 1)))
    with pytest.raises(DomainError):
        SubspaceRREF(q=2, ambient=3, basis=((0, 0, 0),))
    with pytest.raises(DomainError):
        SubspaceRREF(q=3, ambient=2, basis=((2, 0),))
    with pytest.raises(DigitOutOfRangeError):
        SubspaceRREF(q=2, ambient=3, basis=((1, 5, 0),))


def test_rref_of_canonicalizes():
    s = rref_of([[1, 1, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1]], 2)
    assert s.basis == ((1, 1, 1, 1),)
    # different generators, same subspace, same canonical form
    t = rref_of([[2, 1], [1, 2]], 3)
    u = rref_of([[1, 2]], 3)
    assert t.basis == u.basis == ((1, 2),)


# ---------------------------------------------------------------------------
# the GF(q) row reduction behind rref_of, ranks and quotient maps

CORE_QS = [2, 3, 4, 5, 8, 9]


@st.composite
def small_matrices(draw, q):
    """Up to 5 rows of width 1..4 over GF(q), some rows forced to zero."""
    width = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 5))
    M = np.array(draw(st.lists(st.integers(0, q - 1), min_size=rows * width,
                               max_size=rows * width)), dtype=np.int64).reshape(rows, width)
    zero = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    M[np.asarray(zero, dtype=bool)] = 0
    return M


def brute_span(rows, fs, width):
    """Every GF(q)-combination of the rows, as a set of digit tuples."""
    words = np.zeros((1, width), dtype=np.int64)
    for row in rows:
        scaled = [fs.add_table[words, fs.mul_table[c, row]] for c in range(fs.q)]
        words = np.unique(np.concatenate(scaled), axis=0)
    return set(map(tuple, words.tolist()))


@pytest.mark.parametrize("q", CORE_QS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_reduce_is_a_canonical_basis_of_the_row_space(q, data):
    fs = make_field(q)
    M = data.draw(small_matrices(q))
    R, pivots = row_reduce(M, fs)
    s = SubspaceRREF(q=q, ambient=M.shape[1], basis=tuple(map(tuple, R.tolist())))
    assert s.pivots == pivots
    assert brute_span(R, fs, M.shape[1]) == brute_span(M, fs, M.shape[1])
    R2, pivots2 = row_reduce(R, fs)
    assert np.array_equal(R2, R) and pivots2 == pivots
    assert rref_of(M, q) == s


@pytest.mark.parametrize("q", CORE_QS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quotient_map_annihilates_the_rows(q, data):
    fs = make_field(q)
    M = data.draw(small_matrices(q))
    s = rref_of(M, q)
    width = M.shape[1]
    if s.dim == width:
        with pytest.raises(FullSpaceKernelError):
            map_with_kernel(s)
        return
    K = map_with_kernel(s)
    assert K.shape == (width - s.dim, width)
    # full row rank, and every row kills every input row: the kernel of K is
    # exactly the row space of M
    assert len(row_reduce(K, fs)[1]) == K.shape[0]
    for row in M:
        assert matvec_apply(K.tolist(), row.tolist(), fs) == (0,) * K.shape[0]


def test_row_reduce_leaves_its_input_alone():
    M = np.array([[0, 2], [1, 1]])
    R, pivots = row_reduce(M, make_field(3))
    assert M.tolist() == [[0, 2], [1, 1]]
    assert R.tolist() == [[1, 0], [0, 1]] and pivots == (0, 1)


def test_rref_of_rejects_malformed_rows():
    with pytest.raises(DomainError):
        rref_of([], 2)
    with pytest.raises(ShapeMismatchError):
        rref_of([[1, 0], [1]], 2)
    with pytest.raises(DigitOutOfRangeError):
        rref_of([[1, 3]], 3)
    assert rref_of(np.zeros((0, 3), dtype=np.int64), 2).basis == ()


def test_quotient_of_repetition_kernel():
    s = rref_of([[1, 1, 1, 1]], 2)
    qm = map_with_kernel(s)
    assert qm.tolist() == [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]]
    # every row kills the kernel generator
    for row in qm:
        assert sum(a * b for a, b in zip(row, (1, 1, 1, 1))) % 2 == 0


def test_quotient_of_zero_kernel_is_identity():
    s = SubspaceRREF(q=3, ambient=2, basis=())
    qm = map_with_kernel(s)
    assert qm.tolist() == [[1, 0], [0, 1]]


def test_full_space_has_no_quotient():
    s = rref_of([[1, 0], [0, 1]], 2)
    with pytest.raises(FullSpaceKernelError):
        map_with_kernel(s)


def test_identity_kernel_entropy_equals_type_entropy():
    tau = TypeDist(2, 2, bad_type(LRSpec(q=2, ell=1, L=2, rho=0.3)).marginal("x"))
    H, D = kernel_entropy_table(tau, 0)
    assert H.size == D.size == 1
    assert H[0] == pytest.approx(tau.entropy(), abs=1e-12)
    assert D[0] == 2


def test_difference_kernel_entropy_ternary():
    # pair type at rho = 0.2 over GF(3); quotienting by the repetition line
    # leaves the coordinate difference, whose law is ((1-rho)^2 + rho^2/2,
    # ...) split evenly over the nonzero values
    rho = 0.2
    tau = TypeDist(3, 2, bad_type(LRSpec(q=3, ell=1, L=2, rho=rho)).marginal("x"))
    kernel = rref_of([[1, 1]], 3)
    H, _ = kernel_entropy_table(tau, 1)
    match = [h for basis, h in zip(iter_rref_bases(3, 2, 1), H.tolist())
             if basis == kernel.basis]
    assert len(match) == 1
    p0 = (1 - rho) ** 2 + rho**2 / 2
    p1 = (1 - p0) / 2
    expected = -(p0 * math.log(p0) + 2 * p1 * math.log(p1)) / math.log(3)
    assert match[0] == pytest.approx(expected, abs=1e-12)
    assert match[0] == pytest.approx(0.798012, abs=1e-6)


def test_uniform_type_saturates_every_kernel():
    tau = TypeDist(q=2, b=3, probs=np.full(8, 1 / 8))
    for _, dim_image, H in iter_kernel_entropies(tau):
        assert H == pytest.approx(dim_image, abs=1e-12)


def test_image_dimension_tracks_support():
    # mass confined to the repetition line: identity quotient sees dim 1
    probs = np.zeros(8)
    probs[0] = probs[7] = 0.5
    tau = TypeDist(q=2, b=3, probs=probs)
    H, D = kernel_entropy_table(tau, 0)
    assert D[0] == 1
    assert H[0] == pytest.approx(1.0, abs=1e-12)


def test_iter_matches_list_form():
    # the stream is the tables of every kernel dimension, row t paired with
    # the t-th basis
    tau = TypeDist(2, 3, bad_type(LRSpec(q=2, ell=1, L=3, rho=0.25)).marginal("x"))
    listed = [(basis, d, H) for k in range(3) for basis, d, H in zip(
        iter_rref_bases(2, 3, k), *(a.tolist() for a in kernel_entropy_table(tau, k)[::-1]))]
    streamed = list(iter_kernel_entropies(tau))
    assert len(listed) == len(streamed) == sum(
        gaussian_binomial(3, k, 2) for k in range(3)
    )
    for (basis, dim_img, H), (s_basis, s_dim, s_H) in zip(listed, streamed):
        assert basis == s_basis
        assert dim_img == s_dim
        assert H == pytest.approx(s_H, abs=1e-12)


# ---------------------------------------------------------------------------
# the batched kernel-entropy table against a brute pushforward per kernel

TABLE_CASES = [(2, 1), (2, 3), (2, 4), (3, 3), (4, 2), (4, 3), (5, 2), (8, 2), (9, 2)]


def brute_kernel_rows(tau, k):
    """(basis, dim_image, entropy) per kernel through map_with_kernel."""
    rows = []
    for basis in iter_rref_bases(tau.q, tau.b, k):
        image = pushforward(tau, map_with_kernel(SubspaceRREF(tau.q, tau.b, basis)))
        rows.append((basis, dim_of_type(image), image.entropy()))
    return rows


def assert_matches_brute(tau):
    for k in range(tau.b):
        streamed = list(iter_kernel_entropies(tau, dims=[k]))
        brute = brute_kernel_rows(tau, k)
        assert len(streamed) == len(brute) == gaussian_binomial(tau.b, k, tau.q)
        for (basis, dim_img, H), (b_basis, b_dim, b_H) in zip(streamed, brute):
            assert basis == b_basis
            assert dim_img == b_dim
            assert H == pytest.approx(b_H, abs=1e-12)


@st.composite
def sparse_types(draw, q, L):
    """Types over GF(q)^L with random support (zero cells likely) and weights."""
    N = q**L
    support = draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=N, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(support), max_size=len(support)))
    probs = np.zeros(N)
    probs[support] = weights
    return TypeDist(q=q, b=L, probs=probs / probs.sum())


@pytest.mark.parametrize("q,L", TABLE_CASES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_table_matches_brute_pushforward(q, L, data):
    assert_matches_brute(data.draw(sparse_types(q, L)))


@pytest.mark.parametrize("q,L", TABLE_CASES)
def test_table_rank_path_on_a_two_point_type(q, L):
    # mass on 0 and e_0 only: every image has at most two support points, so
    # every row with a zero mass goes through the rank computation
    probs = np.zeros(q**L)
    probs[[0, 1]] = [0.3, 0.7]
    tau = TypeDist(q=q, b=L, probs=probs)
    assert_matches_brute(tau)
    for k in range(L):
        H, D = kernel_entropy_table(tau, k)
        assert set(D.tolist()) <= {0, 1}


def test_table_of_a_full_support_type_has_full_images():
    tau = TypeDist(3, 3, bad_type(LRSpec(q=3, ell=1, L=3, rho=0.2)).marginal("x"))
    assert_matches_brute(tau)
    for k in range(3):
        assert (kernel_entropy_table(tau, k)[1] == 3 - k).all()


def test_table_of_a_sparse_spanning_type_has_full_images():
    # 7 of 32 cells: zero, the unit vectors and the all-ones vector.  The
    # support spans GF(2)^5, so every image has dimension 5 - k even where
    # it misses cells
    probs = np.zeros(32)
    probs[[0, 1, 2, 4, 8, 16, 31]] = [1, 2, 3, 1, 2, 3, 4]
    tau = TypeDist(q=2, b=5, probs=probs / probs.sum())
    assert_matches_brute(tau)
    for k in range(5):
        assert (kernel_entropy_table(tau, k)[1] == 5 - k).all()


def test_table_rejects_improper_kernels():
    tau = TypeDist(q=2, b=2, probs=np.full(4, 0.25))
    for k in (-1, 2):
        with pytest.raises(DomainError):
            kernel_entropy_table(tau, k)


def test_kernel_dims_bounds_checked():
    tau = TypeDist(q=2, b=2, probs=np.full(4, 0.25))
    with pytest.raises(DomainError):
        list(iter_kernel_entropies(tau, dims=[2]))  # full space is not a kernel
