import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thresholds.errors import DomainError, NotPrimePowerError, UnsupportedError
from thresholds.fields import (
    FieldSpec,
    make_field,
    matvec_all,
    vec_decode,
    vec_encode,
    vec_table,
)

from reference import _poly_mul_mod, matvec_apply

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def all_elements(fs):
    return list(range(fs.q))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_prime_fields_use_modular_arithmetic():
    fs = make_field(7)
    assert fs.p == 7 and fs.m == 1
    for a in all_elements(fs):
        for b in all_elements(fs):
            assert fs.add(a, b) == (a + b) % 7
            assert fs.mul(a, b) == (a * b) % 7


@pytest.mark.parametrize("q", [1, 6, 10, 12, 100])
def test_non_prime_powers_rejected(q):
    with pytest.raises(NotPrimePowerError):
        make_field(q)


def test_order_cap():
    with pytest.raises(UnsupportedError):
        make_field(257)


def test_known_gf4_tables():
    fs = make_field(4)
    # x^2 + x + 1, elements as little-endian base-2 digit codes
    assert fs.mul(2, 2) == 3
    assert fs.mul(2, 3) == 1
    assert fs.add(2, 3) == 1
    assert fs.inv_table[2] == 3


def test_gf256_modulus_is_the_standard_one():
    fs = make_field(256)
    # x^8 + x^4 + x^3 + x^2 + 1 encodes to 0x11D
    code = sum(c << i for i, c in enumerate(fs.modulus)) | (1 << 8)
    assert code == 0x11D


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 49, 64, 81, 128, 243, 256])
def test_field_axioms(q):
    fs = make_field(q)
    add, mul, neg, inv = fs.add_table, fs.mul_table, fs.neg_table, fs.inv_table
    elems = all_elements(fs) if q <= 32 else [0, 1] + [
        int(x) for x in np.random.default_rng(q).integers(0, q, size=12)
    ]
    for a in elems:
        assert add[a, 0] == a
        assert mul[a, 1] == a
        assert mul[a, 0] == 0
        assert add[a, neg[a]] == 0
        if a != 0:
            assert mul[a, inv[a]] == 1
    for a in elems:
        for b in elems:
            assert add[a, b] == add[b, a]
            assert mul[a, b] == mul[b, a]
            for c in elems[:6]:
                assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]


def test_scalar_ops_are_range_checked():
    fs = make_field(9)
    with pytest.raises(DomainError, match=r"element code 9 outside \[0, 9\)"):
        fs.add(9, 0)
    with pytest.raises(DomainError, match=r"element code -1 outside \[0, 9\)"):
        fs.mul(0, -1)


@pytest.mark.parametrize("q", [4, 8, 9, 27, 256])
def test_x_generates_the_multiplicative_group(q):
    # the element x has code p; its powers, by repeated table products, run
    # through every nonzero code once before returning to 1
    fs = make_field(q)
    acc, seen = 1, []
    for _ in range(q - 1):
        seen.append(acc)
        acc = int(fs.mul_table[acc, fs.p])
    assert acc == 1
    assert sorted(seen) == list(range(1, q))


@pytest.mark.parametrize("q", [4, 8, 9])
def test_tables_match_digit_and_polynomial_oracle(q):
    # sums and negatives digit-wise mod p, products as polynomial products
    # modulo the defining polynomial, inverses by search
    fs = make_field(q)
    p, m = fs.p, fs.m

    def digits(a):
        return [(a // p**i) % p for i in range(m)]

    def pack(ds):
        return sum(d * p**i for i, d in enumerate(ds))

    for a in range(q):
        assert fs.neg_table[a] == pack([-d % p for d in digits(a)])
        for b in range(q):
            s = pack([(x + y) % p for x, y in zip(digits(a), digits(b))])
            prod = pack(_poly_mul_mod(digits(a), digits(b), list(fs.modulus) + [1], p))
            assert fs.add_table[a, b] == fs.add(a, b) == s
            assert fs.mul_table[a, b] == fs.mul(a, b) == prod
        if a:
            assert fs.mul_table[a, fs.inv_table[a]] == 1
            assert sum(fs.mul_table[a, b] == 1 for b in range(q)) == 1


# ---------------------------------------------------------------------------
# packed vectors
# ---------------------------------------------------------------------------


def test_vec_encode_decode_roundtrip():
    for q, b in [(2, 5), (3, 4), (4, 3)]:
        for idx in range(q**b):
            v = vec_decode(idx, q, b)
            assert vec_encode(v, q, b) == idx


def test_vec_encode_is_little_endian():
    assert vec_encode((1, 0, 1), 2, 3) == 5
    assert vec_encode((2, 1), 3, 2) == 5


def test_vec_table_matches_decode():
    tbl = vec_table(3, 3)
    for idx in (0, 5, 13, 26):
        assert tuple(tbl[idx]) == vec_decode(idx, 3, 3)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_matvec_all_agrees_with_apply(data):
    # every image of every matrix in a stack, against the scalar oracle
    q = data.draw(st.sampled_from([2, 3, 4, 5, 8, 9]))
    fs = make_field(q)
    batch = data.draw(st.sampled_from([(), (1,), (3,)]))
    rows, b = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 4))
    flat = data.draw(st.lists(st.integers(0, q - 1), min_size=int(np.prod(batch)) * rows * b,
                              max_size=int(np.prod(batch)) * rows * b))
    A = np.asarray(flat, dtype=np.int64).reshape(*batch, rows, b)
    images = matvec_all(A, fs)
    assert images.shape == (*batch, q**b)
    for i in np.ndindex(*batch):
        for idx in range(q**b):
            v = vec_decode(idx, q, b)
            want = vec_encode(matvec_apply(A[i].tolist(), v, fs), q, rows) if rows else 0
            assert images[i][idx] == want


@pytest.mark.parametrize("bad", [-1, 3])
def test_matvec_all_rejects_entries_outside_the_field(bad):
    with pytest.raises(DomainError, match=r"matrix entry outside \[0, 3\)"):
        matvec_all([[bad, 1]], make_field(3))


def test_field_cache_is_shared():
    assert make_field(5) is make_field(5)
    assert isinstance(make_field(5), FieldSpec)
