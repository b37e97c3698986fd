import functools
import hashlib
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thresholds import simulate
from thresholds.errors import (
    DomainError,
    NoCandidateError,
    SizeCapError,
    WorkBudgetExceededError,
)
from thresholds.fields import digits_of, make_field, pack_digits
from thresholds.infomeasures import ball_volume, hq
from thresholds.simulate import (
    _CENTER_CAP,
    _PREFIX,
    Code,
    SweepConfig,
    _ball_slots,
    _ball_stamper,
    _block_overflows,
    _candidate_order,
    _pcg64_states,
    _trial_rngs,
    _zero_list_ball,
    check_ld_centers,
    check_lr_dp,
    draw_parity_check,
    greedy_potential_code,
    half_crossing,
    largest_fiber,
    occupancy_profile,
    parity_rows,
    radius_of,
    sample_rc,
    sample_rlc,
    satisfaction_curve,
    trial_seed,
    wilson_interval,
)

from reference import dense_greedy, is_tie


def make_code(q, n, indices):
    return Code(q=q, n=n, words=np.asarray(sorted(indices), dtype=np.int64))


def brute_occupancy(code, r, ell=1):
    """Reference profile by direct counting: for every cell, decoded into its
    ell-subsets, the codewords whose symbols miss them at <= r coordinates."""
    q, n = code.q, code.n
    subsets = list(itertools.combinations(range(q), ell))
    holds = np.asarray([[a in s for a in range(q)] for s in subsets])
    cells = digits_of(np.arange(len(subsets) ** n), len(subsets), n)
    out = np.zeros(cells.shape[0], dtype=np.int64)
    for word in code.digits():
        out += (~holds[cells, word]).sum(axis=1) <= r
    return out


# ---------------------------------------------------------------------------
# packing and radii
# ---------------------------------------------------------------------------


def test_digit_pack_roundtrip():
    rng = np.random.default_rng(0)
    for q, n in [(2, 7), (3, 4), (4, 3)]:
        idx = rng.integers(0, q**n, size=40)
        d = digits_of(idx, q, n)
        assert d.shape == (40, n)
        assert d.min() >= 0 and d.max() < q
        assert np.array_equal(pack_digits(d, q), idx)


def test_radius_floor():
    assert radius_of(0.5, 4) == 2
    assert radius_of(0.1, 18) == 1
    assert radius_of(0.49, 10) == 4
    assert radius_of(1.0, 5) == 5
    with pytest.raises(DomainError):
        radius_of(1.2, 5)


# ---------------------------------------------------------------------------
# Code containers
# ---------------------------------------------------------------------------


def test_code_validation():
    with pytest.raises(DomainError):
        Code(q=2, n=3, words=np.asarray([3, 1]))
    with pytest.raises(DomainError):
        Code(q=2, n=3, words=np.asarray([1, 1, 2]))
    with pytest.raises(DomainError):
        Code(q=2, n=3, words=np.asarray([0, 8]))
    with pytest.raises(DomainError):
        Code(q=2, n=3, words=np.asarray([0]), kind="affine")
    with pytest.raises(DomainError):
        Code(q=2, n=3, words=np.asarray([8]))
    with pytest.raises(DomainError):
        Code(q=2, n=3, words=np.asarray([-1]))
    assert Code(q=2, n=3, words=np.asarray([], dtype=np.int64)).size == 0
    assert Code(q=2, n=3, words=np.asarray([7])).size == 1


def test_empty_code_is_allowed():
    c = Code(q=2, n=4, words=np.asarray([], dtype=np.int64))
    assert c.size == 0
    assert check_ld_centers(c, 0.5, 1).decodable


def test_dump_load_roundtrip(tmp_path):
    # one codeword per line, little-endian digits run together up to q = 10
    # and comma-separated above
    for q, n, indices, text in [
        (2, 5, [0, 1, 6, 19, 31], "00000\n10000\n01100\n11001\n11111\n"),
        (3, 4, [0, 5, 17, 80], "0000\n2100\n2210\n2222\n"),
        (13, 3, [0, 12, 170, 2196], "0,0,0\n12,0,0\n1,0,1\n12,12,12\n"),
        # one coordinate: q fixes the format, not whether a line has a comma
        (11, 1, [0, 10], "0\n10\n"),
        (16, 1, [12], "12\n"),
    ]:
        c = make_code(q, n, indices)
        p = tmp_path / f"q{q}.txt"
        c.dump(str(p))
        assert p.read_bytes() == text.encode()
        assert np.array_equal(Code.load(str(p), q=q).words, c.words)
    make_code(2, 4, []).dump(str(p))
    assert p.read_bytes() == b""


@pytest.mark.parametrize("q,text", [(2, "0101\n01x1\n"), (13, "1,0,0\n1,,0\n")])
def test_load_names_the_line_of_a_non_digit_token(q, text, tmp_path):
    p = tmp_path / "code.txt"
    p.write_text(text)
    with pytest.raises(DomainError, match="non-digit token on line 2 of"):
        Code.load(str(p), q=q)


def test_linearity_check():
    rng = np.random.default_rng(3)
    lin = sample_rlc(2, 8, 0.5, rng)
    assert lin.linearity_ok()
    # drop a nonzero word: closure fails
    broken = Code(q=2, n=8, words=lin.words[:-1])
    assert not broken.linearity_ok()
    # missing zero is an immediate failure
    assert not make_code(2, 4, [1, 2, 3]).linearity_ok()


def test_linearity_check_is_exact_on_large_codes():
    # one non-codeword among 2,048 words, which a spot check of pairs misses
    lin = sample_rlc(2, 12, 0.85, np.random.default_rng(5))
    assert lin.size == 2048 and lin.linearity_ok()
    words = set(lin.words.tolist())
    outside = next(w for w in range(2**12) if w not in words)
    broken = Code(q=2, n=12, words=np.sort(np.append(lin.words[:-1], outside)))
    assert broken.size == 2048
    assert not broken.linearity_ok(rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_rlc_dimension_and_membership():
    rng = np.random.default_rng(11)
    for q, n, R in [(2, 10, 0.5), (3, 6, 0.4)]:
        code = sample_rlc(q, n, R, rng)
        k = code.dim
        assert k >= math.ceil(R * n)
        assert code.size == q**k
        assert code.words[0] == 0
        assert code.linearity_ok()
        # every word lies in the kernel of the drawn parity-check matrix
        if code.parity_check is not None and code.parity_check.size:
            from thresholds.fields import digits_of, make_field, pack_digits

            fs = make_field(q)
            dig = code.digits()
            for row in code.parity_check:
                acc = np.zeros(code.size, dtype=np.int64)
                for j, h in enumerate(row):
                    acc = fs.add_table[acc, fs.mul_table[int(h), dig[:, j]]]
                assert not acc.any()


# sha256 over the words and generators of sample_rlc for seeds 0..seeds-1,
# recorded before sample_rlc's elimination moved onto fields.row_reduce
RLC_DIGESTS = [
    (2, 18, 0.5, 20, "a11476fedc31af009f94db7a06ba9164ee8a38ebf942fd4721169804a9ffd8dd"),
    (3, 9, 0.4, 20, "c68659eebbb40adf8ae868c16be10c759aff3017822a6e8cf6166040937798bd"),
    (3, 8, 0.125, 20, "3f70acb6835772fec4a19a3a72a933bcce793e258eb719128718d984173ab1c4"),
    # seeds 11, 24, 30, 34, 35, 36 and 38 draw an all-zero parity check
    (2, 2, 0.4, 40, "9b038e8926d3a46d0f225682bdc4d468de3ee27a4748425824e32769c2c769ab"),
    # no parity rows at all: ceil(R n) = n
    (2, 4, 0.99, 20, "f0e202b8aa82640fd289c114a93493a08bbe1ed3d24d663d7b97edd1973daa43"),
]


@pytest.mark.parametrize("q,n,R,seeds,want", RLC_DIGESTS)
def test_rlc_samples_are_pinned(q, n, R, seeds, want):
    h = hashlib.sha256()
    for seed in range(seeds):
        code = sample_rlc(q, n, R, np.random.default_rng(seed))
        gen = np.asarray(code.generator, dtype=np.int64)
        h.update(np.asarray(code.words, dtype=np.int64).tobytes())
        h.update(repr(gen.shape).encode())
        h.update(gen.tobytes())
    assert h.hexdigest() == want


# sha256 over the sizes and words of sample_rc for seeds 0..seeds-1, recorded
# when sample_rc first drew a binomial count and then a uniform subset
RC_DIGESTS = [
    (2, 18, 0.5, 20, "fd08e0a25d7edc9f93e821ca3854f669201ccfff35b6b7400c311c84cb9cc65b"),
    (3, 9, 0.4, 20, "acf7da312a58d2dbbe1ca442f0dfc0e908ac0095913bc2b42480b03ed8b50183"),
    # half the space: the subset comes from a permutation rather than a set
    (2, 10, 0.9, 20, "5199e443bf46f2f94c453cd0700c676332330deb1a8bcd9f96acd1fe9f7a5ad9"),
    (5, 7, 0.12, 20, "c5ebd5e671d2bc887931e569afa74962072c47f7c297c2166b02f017fb3897fd"),
    # rate 1: every vector is kept
    (2, 4, 1.0, 5, "b9dfb0ac8a8d26d25bf456f426d67ddddc5893cda596dd07a88b84d70ef2e1ef"),
]


@pytest.mark.parametrize("q,n,R,seeds,want", RC_DIGESTS)
def test_rc_samples_are_pinned(q, n, R, seeds, want):
    h = hashlib.sha256()
    for seed in range(seeds):
        words = np.asarray(sample_rc(q, n, R, np.random.default_rng(seed)).words, dtype=np.int64)
        h.update(repr(words.shape).encode())
        h.update(words.tobytes())
    assert h.hexdigest() == want


@pytest.mark.parametrize("R", [0.25, 0.5, 0.75])
def test_rc_draws_every_subset_with_its_bernoulli_probability(R):
    # each of the 4 vectors of GF(2)^2 is kept with probability p = 2^(2(R-1)),
    # so subset S has probability p^|S| (1-p)^(4-|S|); chi-square over the 16
    # subsets, 15 degrees of freedom, against its 0.999 quantile 37.70
    draws = 16_000
    p = 2.0 ** (2 * (R - 1))
    rng = np.random.default_rng(0)
    masks = [int(np.sum(1 << sample_rc(2, 2, R, rng).words)) for _ in range(draws)]
    observed = np.bincount(masks, minlength=16)
    sizes = np.asarray([bin(s).count("1") for s in range(16)])
    expected = draws * p**sizes * (1 - p) ** (4 - sizes)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < 37.70


def test_rc_draw_holds_no_array_over_the_space():
    # at q^n = 2^24 and about 130 words the draw's peak is a few kB; one
    # float or mask per vector of the space would take megabytes
    tracemalloc.start()
    try:
        sample_rc(2, 24, 0.3, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_rlc_of_a_zero_parity_check_is_the_whole_space():
    for R, seed in [(0.4, 11), (0.99, 0)]:
        code = sample_rlc(2, 2, R, np.random.default_rng(seed))
        assert not code.parity_check.any()
        assert code.generator.tolist() == [[1, 0], [0, 1]]
        assert code.words.tolist() == [0, 1, 2, 3]


def test_rlc_rank_distribution():
    # chance that all m = 4 parity rows are independent over GF(2)^8:
    # prod_{i<4} (1 - 2^{i-8}) ~ 0.9414, so dim > ceil(Rn) should be rare
    rng = np.random.default_rng(5)
    exact = sum(sample_rlc(2, 8, 0.5, rng).dim == 4 for _ in range(400)) / 400
    pred = 1.0
    for i in range(4):
        pred *= 1 - 2.0 ** (i - 8)
    assert abs(exact - pred) < 0.05


def test_rc_mean_size():
    rng = np.random.default_rng(17)
    sizes = [sample_rc(2, 10, 0.5, rng).size for _ in range(200)]
    mean = 1024 * 2.0**-5
    se = math.sqrt(1024 * 2.0**-5 * (1 - 2.0**-5) / 200)
    assert abs(np.mean(sizes) - mean) < 5 * se


def test_sampling_is_seed_deterministic():
    a = sample_rlc(2, 9, 0.4, np.random.default_rng(42))
    b = sample_rlc(2, 9, 0.4, np.random.default_rng(42))
    assert np.array_equal(a.words, b.words)
    c = sample_rc(3, 5, 0.5, np.random.default_rng(42))
    d = sample_rc(3, 5, 0.5, np.random.default_rng(42))
    assert np.array_equal(c.words, d.words)


# ---------------------------------------------------------------------------
# occupancy profiles and the exhaustive checker
# ---------------------------------------------------------------------------


def test_profile_matches_brute_force():
    rng = np.random.default_rng(23)
    for q, n in [(2, 6), (3, 4), (4, 3)]:
        words = np.sort(rng.choice(q**n, size=9, replace=False))
        code = Code(q=q, n=n, words=words)
        for r in (0, 1, 2):
            assert np.array_equal(occupancy_profile(code, r), brute_occupancy(code, r))
    # a dense binary code, its balls overlapping many times over
    dense = Code(q=2, n=6, words=np.sort(rng.choice(64, size=48, replace=False)))
    for r in (3, 4):
        assert np.array_equal(occupancy_profile(dense, r), brute_occupancy(dense, r))


def test_profile_mass_identity():
    code = make_code(2, 8, [0, 1, 37, 200, 255])
    for r in (0, 1, 3):
        P = occupancy_profile(code, r)
        assert P.sum() == code.size * ball_volume(2, 8, r)


def test_ball_profile_single_center():
    code = make_code(2, 4, [0b0000, 0b1111, 0b1100])
    assert occupancy_profile(code, radius_of(0.25, 4))[0b1110] == 2  # 1111 and 1100 at distance 1
    assert occupancy_profile(code, radius_of(0.0, 4))[0b0000] == 1


def test_three_words_packed_into_one_ball():
    # {0000, 1111, 0011} at rho = 1/2 packs three words into one ball
    code = make_code(2, 4, [0b0000, 0b1111, 0b0011])
    rep = check_ld_centers(code, 0.5, 3)
    assert not rep.decodable
    assert rep.radius == 2
    assert rep.max_count == 3
    assert sorted(rep.witness_list) == sorted(code.words.tolist())
    # the witness is the earliest fullest center; the word 0011 itself is
    # another center of the same occupancy
    P = occupancy_profile(code, 2)
    assert P[rep.witness_center] == 3
    assert P[0b0011] == 3
    assert all(P[z] < 3 for z in range(rep.witness_center))
    # one more list slot clears it
    assert check_ld_centers(code, 0.5, 4).decodable


def test_decodability_is_translation_invariant():
    rng = np.random.default_rng(31)
    words = np.sort(rng.choice(2**7, size=10, replace=False))
    code = Code(q=2, n=7, words=words)
    base = check_ld_centers(code, 0.2, 2)
    for v in (1, 77, 100):
        shifted = check_ld_centers(Code(q=2, n=7, words=np.sort(words ^ v)), 0.2, 2)
        assert shifted.decodable == base.decodable
        assert shifted.max_count == base.max_count


def test_max_count_monotone_in_radius():
    rng = np.random.default_rng(37)
    words = np.sort(rng.choice(3**4, size=8, replace=False))
    code = Code(q=3, n=4, words=words)
    counts = [int(occupancy_profile(code, r).max()) for r in range(5)]
    assert counts == sorted(counts)
    assert counts[-1] == code.size


def test_single_codeword_is_always_coverable():
    code = make_code(2, 5, [7])
    assert check_ld_centers(code, 0.4, 2).decodable
    # with list size 1 even a lone codeword overflows its own ball
    assert not check_ld_centers(code, 0.0, 1).decodable


def dense_ld_report(code, r, L):
    """`check_ld_centers`' fields read off the dense profile: the first
    fullest center and the codewords within r of it."""
    P = occupancy_profile(code, r)
    mx, z = int(P.max()), int(P.argmax())
    if mx < L:
        return (True, mx, None, None)
    near = (code.digits() != digits_of(np.asarray([z]), code.q, code.n)).sum(axis=1) <= r
    return (False, mx, z, code.words[near].tolist())


def test_ld_reports_read_the_dense_profile():
    # codes of every size up to the whole space, the empty code, one word, a
    # cluster whose fullest ball holds 13 words, and a greedy code at n = 22
    rng = np.random.default_rng(41)
    codes = [make_code(q, n, rng.choice(q**n, size=size, replace=False))
             for q, n in [(2, 7), (3, 4), (4, 3), (5, 3)]
             for size in (0, 1, 2, 5, 12, q**n // 3, q**n)]
    codes.append(make_code(2, 12, [0] + [1 << i for i in range(12)]))
    codes.append(greedy_potential_code(22, 0.1, 6, 0.1, np.random.default_rng(5)).code)
    for code in codes:
        q, n = code.q, code.n
        for r in range(4):
            rho = (r + 0.5) / n if r < n else 1.0
            for L in (1, 2, 3):
                rep = check_ld_centers(code, rho, L)
                assert rep.radius == r
                assert (rep.decodable, rep.max_count, rep.witness_center,
                        rep.witness_list) == dense_ld_report(code, r, L), (q, n, code.size, r, L)
    assert check_ld_centers(codes[-2], 2.5 / 12, 3).max_count == 13


def random_code(data, q, n, max_size):
    size = data.draw(st.integers(0, min(q**n, max_size)))
    words = data.draw(st.lists(st.integers(0, q**n - 1), min_size=size, max_size=size,
                               unique=True))
    return make_code(q, n, words)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_list_profile_decides_like_the_dp(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5]))
    ell = data.draw(st.integers(1, q - 1))
    n = data.draw(st.integers(1, 6))
    code = random_code(data, q, n, 7)
    rho = data.draw(st.sampled_from([0.0, 0.15, 0.2, 0.34, 0.5, 0.75, 1.0]))
    L = data.draw(st.integers(1, 4))
    rep = check_lr_dp(code, rho, ell, L)
    P = occupancy_profile(code, rep.radius, ell)
    assert (int(P.max()) < L) == rep.recoverable
    volume = sum(math.comb(n, j) * math.comb(q - 1, ell) ** j * math.comb(q - 1, ell - 1) ** (n - j)
                 for j in range(rep.radius + 1))
    assert P.sum() == code.size * volume


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stamp_route_matches_brute_force(data):
    q = data.draw(st.sampled_from([3, 4, 5]))
    ell = data.draw(st.integers(1, q - 1))
    n = data.draw(st.integers(1, 6 if math.comb(q, ell) <= 4 else 4))
    code = random_code(data, q, n, 40)
    r = data.draw(st.integers(0, n))
    assert np.array_equal(occupancy_profile(code, r, ell), brute_occupancy(code, r, ell))


def _prefix_grown_ball(q, n, r, ell):
    """The zero word's list ball as first built: every step re-concatenates
    all prefix rows, C(q, ell) children per prefix, then drops the prefixes
    that miss 0 more than r times."""
    subsets = list(itertools.combinations(range(q), ell))
    misses_zero = np.asarray([0 not in s for s in subsets], dtype=np.int64)
    C = len(subsets)
    cells = np.zeros((0, 1), dtype=np.int64)
    misses = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        width = misses.size
        cells = np.concatenate([np.repeat(cells, C, axis=1),
                                np.tile(np.arange(C, dtype=np.int64), width)[None, :]])
        misses = np.repeat(misses, C) + np.tile(misses_zero, width)
        keep = misses <= r
        cells, misses = cells[:, keep], misses[keep]
    return cells


@pytest.mark.parametrize("q,ell", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_zero_list_ball_matches_the_prefix_grown_ball(q, ell):
    for n in range(0, 6):
        for r in range(0, n + 2):
            got, _ = _zero_list_ball(q, n, r, ell)
            want = _prefix_grown_ball(q, n, r, ell)
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, r)


def test_stamp_blocks_add_up(monkeypatch):
    # a chunk of 1 leaves blocks of max(1, 81 cells) // 72 ball cells, one
    # codeword each; the default chunk stamps all five in one block
    code = make_code(3, 4, [0, 7, 40, 41, 80])
    whole = occupancy_profile(code, 2, 2)
    monkeypatch.setattr("thresholds.simulate._STAMP_CHUNK", 1)
    assert np.array_equal(occupancy_profile(code, 2, 2), whole)
    assert np.array_equal(whole, brute_occupancy(code, 2, 2))


@pytest.mark.parametrize("q,n,ell", [(2, 6, 1), (3, 4, 1), (3, 4, 2), (4, 3, 1), (4, 3, 2)])
def test_block_profiles_are_the_codes_profiles(q, n, ell, monkeypatch):
    # one sorted pass over T codes, the empty code among them, tells each
    # whether a cell holds L of its codewords, as its own profile does; at
    # a chunk of 16 ball cells the codes past their cells are counted over
    # several chunks
    rng = np.random.default_rng(q * 10 + ell)
    codes = [make_code(q, n, rng.choice(q**n, size=k, replace=False)) for k in (3, 0, 1, 7)]
    for r in range(n + 1):
        peaks = [int(brute_occupancy(c, r, ell).max()) for c in codes]
        for chunk in (16, 2**16):
            monkeypatch.setattr("thresholds.simulate._STAMP_CHUNK", chunk)
            for L in (1, 2, 3):
                full, _ = _block_overflows(q, n, r, ell, L, codes)
                assert full.tolist() == [p >= L for p in peaks], (r, chunk, L)


# (q, ell) -> (n, r): at ell = 1 more than _PREFIX words pack below the top
# of the space; at ell = 2 the balls are large, so a few words pass the cells
DECIDER_SHAPES = {(2, 1): (12, 1), (3, 1): (9, 1), (4, 1): (7, 1), (3, 2): (5, 1),
                  (4, 2): (4, 0)}
# L past _PREFIX: at r = 0 a ball is one cell, so the first round of a code
# of L or more words would sort fewer than L cells if it stamped _PREFIX
# words; at n = 14, r = 2 a ball of 106 cells takes L of the words near the top
WIDE_SHAPES = {(2, 1): ((10, 0), (14, 2))}


def _late_overflow(q, n, r, ell, L, rng):
    """A code that only its whole decides: _PREFIX + 4 words from the lower
    half of the space with fewer than L in every cell, then the L largest
    words within r of the top word q^n - 1, which share its cell.  None when
    the packing falls short."""
    balls, _ = _ball_stamper(q, n, r, ell)
    P = np.zeros(math.comb(q, ell) ** n, dtype=np.int64)
    low = []
    for w in rng.permutation(q**n // 2):
        cells = balls(np.asarray([w]))[0]
        if P[cells].max() < L - 1:
            P[cells] += 1
            low.append(int(w))
            if len(low) == _PREFIX + 4:
                break
    top = np.arange(q**n // 2, q**n)
    near = top[(digits_of(top, q, n) != q - 1).sum(axis=1) <= r]
    if len(low) < _PREFIX + 4 or near.size < L:
        return None
    return make_code(q, n, low + near[-L:].tolist())


def test_block_overflows_decide_like_the_dense_profile(monkeypatch):
    # against occupancy_profile(c, r, ell).max() >= L, one block of every
    # code and each code alone, on codes that are empty, smaller than L,
    # decided by their first _PREFIX words, decided only by the whole code,
    # or past their cells (sent to the dense profile); a code alone stamps
    # only the rounds it needs
    seen = set()
    shapes = [(q, ell, n, r, (1, 2, 3, 5)) for (q, ell), (n, r) in DECIDER_SHAPES.items()]
    shapes += [(q, ell, n, r, (65, 100)) for (q, ell), nrs in WIDE_SHAPES.items()
               for n, r in nrs]
    for q, ell, n, r, Ls in shapes:
        V = ball_volume(q, n, r, ell)
        N = math.comb(q, ell) ** n
        for L in Ls:
            rng = np.random.default_rng(100 * q + 10 * ell + L)
            sizes = (0, L - 1, 8, max(1, N // V // 2), N // V, 2 * N // V + 1)
            codes = [make_code(q, n, rng.choice(q**n, size=min(k, q**n), replace=False))
                     for k in sizes]
            codes.append(make_code(q, n, range(min(q**n, _PREFIX + 8))))
            late = _late_overflow(q, n, r, ell, L, rng)
            codes += [] if late is None else [late]
            want = [int(occupancy_profile(c, r, ell).max()) >= L for c in codes]
            for c, full in zip(codes, want):
                if c.size < L or c.size * V > N:
                    seen.add("empty" if c.size == 0 else "small" if c.size < L else "dense")
                    continue
                # prefixes of max(_PREFIX, L), four times more, ... words until
                # one overflows or covers the code: the stamps of the code's rounds
                first = s = max(_PREFIX, L)
                stamps = 0
                while True:
                    stamps += min(s, c.size) * V
                    prefix = Code(q=q, n=n, words=c.words[:s])
                    if c.size <= s or int(occupancy_profile(prefix, r, ell).max()) >= L:
                        break
                    s *= 4
                if c.size > first and s == first and full:
                    seen.add("first")
                elif c.size > first and full and c.size <= s:
                    seen.add("whole" if L <= _PREFIX else "whole past the prefix")
                assert _block_overflows(q, n, r, ell, L, [c])[1] == stamps, (q, ell, L, c.size)
            for chunk in (1, 16, 2**14):
                monkeypatch.setattr("thresholds.simulate._STAMP_CHUNK", chunk)
                full, _ = _block_overflows(q, n, r, ell, L, codes)
                assert full.tolist() == want, (q, ell, L, chunk)
                assert [bool(_block_overflows(q, n, r, ell, L, [c])[0][0])
                        for c in codes] == want, (q, ell, L, chunk)
    assert seen >= {"empty", "small", "first", "whole", "dense", "whole past the prefix"}


def test_sweep_blocks_hold_one_code_or_one_dense_profile_at_a_chunk_of_1(monkeypatch):
    # q = 3, n = 5, ell = 2, r = 1: a ball has 112 of the 243 cells, so two
    # words stamp 224 cells and are sorted while three pass the cells and
    # take the dense profile, whose bincount chunks stay at the 243 cells
    cfg = SweepConfig(q=3, n=5, family="rc", rho=0.2, L=3, rates=[0.2, 0.3], trials=30,
                      master_seed=8, ell=2)
    want = _profile_decisions(cfg)
    V, cells = ball_volume(3, 5, 1, 2), 3**5
    stamped = []
    real = simulate._ball_stamper

    def recording(*args):
        balls, volume = real(*args)
        return (lambda words: stamped.append(words.size * volume) or balls(words)), volume

    monkeypatch.setattr("thresholds.simulate._ball_stamper", recording)
    monkeypatch.setattr("thresholds.simulate._STAMP_CHUNK", 1)
    curve = satisfaction_curve(cfg)
    assert [round(p * cfg.trials) for p in curve.p_hat] == want
    sizes = {c.size for ri, rate in enumerate(cfg.rates) for c in _oracle_codes(cfg, ri, rate)
             if c.size * V <= 2 * cells}
    assert {2, 3} <= sizes  # sorted and dense codes both ran
    assert stamped and max(stamped) <= cells
    assert set(stamped) <= {V, 2 * V, cells}  # one word, one code of two, one dense chunk


def test_rc_pigeonhole_trials_draw_no_words(monkeypatch):
    # a radius-3 ball has 93 of the 2^8 centers, so from 3 words on the
    # bound decides a list-of-2 trial from the drawn size alone; the counts
    # are the per-trial sample_rc oracle's
    cfg = SweepConfig(q=2, n=8, family="rc", rho=0.4, L=2, rates=[0.2, 0.9], trials=4,
                      master_seed=21)
    want = _profile_decisions(cfg)
    drawn = []
    real = simulate.draw_rc_words
    monkeypatch.setattr("thresholds.simulate.draw_rc_words",
                        lambda q, n, k, rng: drawn.append(k) or real(q, n, k, rng))
    curve = satisfaction_curve(cfg)
    assert curve.routes == {"stamp": 1, "pigeonhole": 7, "dp": 0, "fiber": 0}
    assert len(drawn) == 1 and drawn[0] * ball_volume(2, 8, 3) <= 2**8
    assert [round(p * cfg.trials) for p in curve.p_hat] == want


def _oracle_codes(cfg, ri, rate):
    sample = sample_rlc if cfg.family == "rlc" else sample_rc
    return [sample(cfg.q, cfg.n, rate, np.random.default_rng(trial_seed(cfg.master_seed, ri, ti)))
            for ti in range(cfg.trials)]


def _profile_decisions(cfg):
    """Per rate, the trials' codes whose fullest cell holds fewer than L
    codewords, one profile per code."""
    r = radius_of(cfg.rho, cfg.n)
    return [sum(int(occupancy_profile(c, r, cfg.ell).max()) < cfg.L
                for c in _oracle_codes(cfg, ri, rate))
            for ri, rate in enumerate(cfg.rates)]


def _blocks_at_chunk(cfg, chunk):
    """Stamping blocks of a sweep whose budget and cap leave no trial to the
    dp: per rate, the stamp-route codes in trial order, a block closed
    before a code whose stamps would take it past `chunk` stamps."""
    r = radius_of(cfg.rho, cfg.n)
    V = ball_volume(cfg.q, cfg.n, r, cfg.ell)
    cells = math.comb(cfg.q, cfg.ell) ** cfg.n
    blocks = 0
    for ri, rate in enumerate(cfg.rates):
        queued = None  # stamps of the open block, None before the rate's first
        for code in _oracle_codes(cfg, ri, rate):
            stamps = code.size * V
            if stamps > (cfg.L - 1) * cells:
                continue
            if queued is None or queued + stamps > chunk:
                blocks, queued = blocks + 1, 0
            queued += stamps
    return blocks


# (q, n, ell, family, rho, rates): q = 4, ell = 1 stamps by XOR; rlc with
# ell = 2 stamps linear codes; low rates draw empty plain codes
BLOCK_SWEEPS = [
    (2, 8, 1, "rc", 0.125, [0.1, 0.3, 0.5]),
    (3, 6, 1, "rc", 0.2, [0.1, 0.3, 0.5]),
    (3, 5, 2, "rc", 0.2, [0.1, 0.3]),
    (3, 5, 2, "rlc", 0.1, [0.2, 0.4]),
    (4, 4, 1, "rc", 0.25, [0.2, 0.5]),
    (4, 4, 2, "rc", 0.25, [0.2, 0.5]),
]


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("q,n,ell,family,rho,rates", BLOCK_SWEEPS,
                         ids=["q2", "q3", "q3-l2", "q3-l2-rlc", "q4-xor", "q4-l2"])
def test_block_decisions_match_one_profile_per_code(q, n, ell, family, rho, rates, L,
                                                    monkeypatch):
    cfg = SweepConfig(q=q, n=n, family=family, rho=rho, L=L, rates=rates, trials=12,
                      master_seed=5, ell=ell)
    curve = satisfaction_curve(cfg)
    assert [round(p * cfg.trials) for p in curve.p_hat] == _profile_decisions(cfg)
    assert (curve.routes["stamp"] > 0 or L == 1) and curve.routes["fiber"] == 0
    # a chunk of 1 closes a block before every code with a stamp, 2^22 leaves
    # one block per rate, and a chunk of two codes' cells leaves queues that
    # straddle a flush
    cells = math.comb(q, ell) ** n
    for chunk in (1, 2 * cells, 2**22):
        monkeypatch.setattr("thresholds.simulate._STAMP_CHUNK", chunk)
        again = satisfaction_curve(cfg)
        assert again.to_csv() == curve.to_csv() and again.routes == curve.routes
        assert again.stamp_blocks == _blocks_at_chunk(cfg, chunk), chunk
    assert again.stamp_blocks <= len(rates)


# ---------------------------------------------------------------------------
# the recovery dynamic program
# ---------------------------------------------------------------------------


def test_dp_agrees_with_centers_for_singleton_lists():
    rng = np.random.default_rng(41)
    mismatch = 0
    for _ in range(20):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(4, 7))
        size = int(rng.integers(2, 7))
        words = np.sort(rng.choice(q**n, size=size, replace=False))
        code = Code(q=q, n=n, words=words)
        rho = float(rng.choice([0.15, 0.3, 0.5]))
        L = int(rng.integers(1, 4))
        a = check_ld_centers(code, rho, L).decodable
        b = check_lr_dp(code, rho, 1, L).recoverable
        mismatch += a != b
    assert mismatch == 0


def test_dp_pair_lists_cover_more():
    # ell = 2 lists over GF(3) cover what singleton lists cannot
    code = make_code(3, 4, [0, 40, 80])
    assert check_lr_dp(code, 0.0, 1, 3).recoverable
    rep = check_lr_dp(code, 0.25, 2, 3)
    assert rep.subsets_checked >= 1


def test_dp_work_budget():
    rng = np.random.default_rng(43)
    words = np.sort(rng.choice(2**10, size=24, replace=False))
    code = Code(q=2, n=10, words=words)
    with pytest.raises(WorkBudgetExceededError):
        check_lr_dp(code, 0.3, 1, 4, work_budget=10)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_wilson_values():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0
    assert hi == pytest.approx(1.96**2 / (100 + 1.96**2), abs=1e-12)
    lo2, hi2 = wilson_interval(100, 100)
    assert lo2 == pytest.approx(1 - hi, abs=1e-12)
    assert hi2 == 1.0
    lo3, hi3 = wilson_interval(50, 100)
    assert lo3 < 0.5 < hi3
    with pytest.raises(DomainError):
        wilson_interval(0, 0)


def test_trial_seed_distinct_and_stable():
    s = trial_seed(123, 0, 0)
    assert s == trial_seed(123, 0, 0)
    seeds = {trial_seed(123, ri, ti) for ri in range(4) for ti in range(50)}
    assert len(seeds) == 200
    assert all(0 <= x < 2**64 for x in seeds)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def test_pcg64_states_are_the_default_rng_states():
    seeds = [trial_seed(m, ri, ti) for m in (0, -5, 2026) for ri in range(3)
             for ti in range(300)] + EDGE_SEEDS
    for s, (state, inc) in zip(seeds, _pcg64_states(seeds), strict=True):
        want = np.random.default_rng(s).bit_generator.state
        assert want["state"] == {"state": state, "inc": inc}, s
        assert want["has_uint32"] == want["uinteger"] == 0


def _sweep_draws(rng, t):
    """One trial's draws, made by every sampler call a sweep makes; the
    binomial and choice parameters change from trial to trial."""
    return [
        # draw_parity_check: 15 bounded 32-bit draws leave half a 64-bit word
        rng.integers(0, 3, size=(3, 5)),
        # binomial by inversion, n p < 30
        rng.binomial(3**8, 3.0 ** (-0.875 * 8 + t % 3)),
        # binomial by BTPE, at two (n, p) in alternating order
        rng.binomial(2**18, 2**-3.6) if t % 2 else rng.binomial(2**17, 2**-3.1),
        rng.binomial(2**17, 2**-3.1) if t % 2 else rng.binomial(2**18, 2**-3.6),
        # choice by Floyd's hash set (N <= 10,000), then by the tail
        # shuffle (N > 10,000 and, unshuffled, k > N // 20)
        rng.choice(6561, size=3000 + t, replace=False, shuffle=False),
        rng.choice(2**18, size=2**18 // 20 + 1 + t, replace=False, shuffle=False),
        rng.integers(0, 5, size=7),
    ]


def test_choice_takes_both_numpy_paths():
    # the draws above reach both of numpy's paths: Floyd's algorithm, one
    # bounded draw per step from N - k to N - 1, and a shuffle of the tail
    # of all N indices, which holds an int64 array of length N
    def floyd(rng, N, k):
        chosen, out = set(), []
        for j in range(N - k, N):
            v = int(rng.integers(0, j + 1))
            v = j if v in chosen else v
            chosen.add(v)
            out.append(v)
        return out

    got = np.random.default_rng(5).choice(6561, size=3000, replace=False, shuffle=False)
    assert got.tolist() == floyd(np.random.default_rng(5), 6561, 3000)
    for k, whole in ((2**18 // 20, False), (2**18 // 20 + 1, True)):
        tracemalloc.start()
        try:
            np.random.default_rng(0).choice(2**18, size=k, replace=False, shuffle=False)
            assert (tracemalloc.get_traced_memory()[1] >= 8 * 2**18) == whole, k
        finally:
            tracemalloc.stop()


def test_one_reseeded_generator_draws_as_fresh_streams():
    buffered = 0
    for t, rng in enumerate(_trial_rngs(11, 2, 24)):
        assert rng.bit_generator.state["has_uint32"] == 0
        got = _sweep_draws(rng, t)
        buffered += rng.bit_generator.state["has_uint32"]
        want = _sweep_draws(np.random.default_rng(trial_seed(11, 2, t)), t)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True)), t
    # some trials end on a buffered 32-bit half word, which the next drops
    assert buffered > 0
    for family in (sample_rc, sample_rlc):
        codes = [family(3, 6, 0.4, rng).words for rng in _trial_rngs(4, 1, 30)]
        assert all(np.array_equal(c, family(3, 6, 0.4, np.random.default_rng(
            trial_seed(4, 1, t))).words) for t, c in enumerate(codes))


def test_seed_blocks_keep_memory_flat(monkeypatch):
    # 23 trials in blocks of 5: no call hashes more than one block, and the
    # curve is the one fresh `default_rng` streams give, one profile per code
    cfg = SweepConfig(q=2, n=6, family="rc", rho=0.2, L=2, rates=[0.3, 0.6], trials=23,
                      master_seed=3)
    whole = satisfaction_curve(cfg)
    sizes = []

    def record(seeds):
        sizes.append(len(seeds))
        return _pcg64_states(seeds)

    monkeypatch.setattr("thresholds.simulate._pcg64_states", record)
    monkeypatch.setattr("thresholds.simulate._SEED_BLOCK", 5)
    blocked = satisfaction_curve(cfg)
    assert sizes == [5, 5, 5, 5, 3] * 2
    assert blocked.to_csv() == whole.to_csv() and blocked.routes == whole.routes
    assert [round(p * cfg.trials) for p in whole.p_hat] == _profile_decisions(cfg)


def test_sweep_config_validation():
    with pytest.raises(DomainError):
        SweepConfig(q=2, n=6, family="rm", rho=0.1, L=2, rates=[0.5], trials=3,
                    master_seed=0)
    with pytest.raises(DomainError):
        SweepConfig(q=2, n=6, family="rc", rho=0.1, L=2, rates=[], trials=3,
                    master_seed=0)
    with pytest.raises(DomainError):
        SweepConfig(q=2, n=6, family="rc", rho=0.1, L=2, rates=[1.5], trials=3,
                    master_seed=0)


def test_satisfaction_curve_deterministic():
    cfg = SweepConfig(q=2, n=6, family="rlc", rho=0.1, L=2,
                      rates=[0.3, 0.5, 0.8], trials=6, master_seed=99)
    a = satisfaction_curve(cfg)
    b = satisfaction_curve(cfg)
    assert np.array_equal(a.p_hat, b.p_hat)
    assert np.all(a.ci_lo <= a.p_hat) and np.all(a.p_hat <= a.ci_hi)
    lines = a.to_csv().strip().splitlines()
    assert lines[0] == "rate,p_hat,ci_lo,ci_hi,trials"
    assert len(lines) == 4


def test_curve_attaches_partial_results_on_blown_budget():
    cfg = SweepConfig(q=2, n=8, family="rc", rho=0.3, L=2,
                      rates=[0.3], trials=4, master_seed=7, ell=1,
                      work_budget=10)
    with pytest.raises(WorkBudgetExceededError) as exc:
        satisfaction_curve(cfg)
    assert exc.value.partial.rates.size == 0


def test_curve_counts_the_route_of_every_trial():
    # where the codewords' balls cover the cells more than L - 1 times the
    # pigeonhole bound decides, elsewhere the profile; the counts add up to
    # the trials run.  q = 3: a radius-1 ball has 11 of the 243 centers, so
    # the about 5 words of rate 0.3 stamp and the about 47 of rate 0.7 do not
    cfg = SweepConfig(q=3, n=5, family="rc", rho=0.2, L=2, rates=[0.3, 0.7], trials=5,
                      master_seed=1)
    assert satisfaction_curve(cfg).routes == {"stamp": 5, "pigeonhole": 5, "dp": 0, "fiber": 0}
    # q = 2: a radius-3 ball has 93 of the 256 centers, so the bound fires
    # from 3 words on: on three of the rate-0.2 codes and every rate-0.9 one
    cfg = SweepConfig(q=2, n=8, family="rc", rho=0.4, L=2, rates=[0.2, 0.9], trials=4,
                      master_seed=21)
    curve = satisfaction_curve(cfg)
    assert curve.routes == {"stamp": 1, "pigeonhole": 7, "dp": 0, "fiber": 0}
    assert curve.p_hat.tolist() == _dp_decisions(cfg)


# the [7,4] Hamming code: column i of its parity check is i + 1 in binary
HAMMING_H = np.asarray([[(i + 1) >> b & 1 for i in range(7)] for b in range(3)], dtype=np.int16)


def hamming_code():
    syndrome = [functools.reduce(lambda a, b: a ^ b, (i + 1 for i in range(7) if w >> i & 1), 0)
                for w in range(2**7)]
    return make_code(2, 7, [w for w in range(2**7) if syndrome[w] == 0])


def test_pigeonhole_bound_is_strict(monkeypatch):
    # the perfect [7,4] Hamming code at radius 1: its 16 balls of 8 words
    # tile the 2^7 centers exactly once, so with L = 2 the bound is met with
    # equality and must leave the decision to the profile, which finds every
    # ball holding one word; with L = 1 every ball overflows.  Plain-code
    # trials (and list recovery) still go through the bound
    hamming = hamming_code()
    assert hamming.size * ball_volume(2, 7, 1) == 2**7
    monkeypatch.setattr("thresholds.simulate.draw_rc_size", lambda q, n, R, rng: hamming.size)
    monkeypatch.setattr("thresholds.simulate.draw_rc_words", lambda q, n, k, rng: hamming)
    cfg = SweepConfig(q=2, n=7, family="rc", rho=0.15, L=2, rates=[0.5], trials=3,
                      master_seed=0)
    curve = satisfaction_curve(cfg)
    assert curve.p_hat.tolist() == [1.0]
    assert curve.routes == {"stamp": 3, "pigeonhole": 0, "dp": 0, "fiber": 0}
    curve = satisfaction_curve(SweepConfig(**{**vars(cfg), "L": 1}))
    assert curve.p_hat.tolist() == [0.0]
    assert curve.routes == {"stamp": 0, "pigeonhole": 3, "dp": 0, "fiber": 0}


def test_hamming_fibers_are_single_words(monkeypatch):
    # the Hamming parity check sends the 8 words of B(0, 1) to the 8 distinct
    # syndromes, so every fiber, and every radius-1 ball, holds one codeword
    hamming = hamming_code()
    assert hamming.size == 16 and not (hamming.digits() @ HAMMING_H.T % 2).any()
    assert largest_fiber(HAMMING_H, 2, 1) == 1
    assert int(occupancy_profile(hamming, 1).max()) == 1
    monkeypatch.setattr("thresholds.simulate.draw_parity_check", lambda q, n, R, rng: HAMMING_H)
    # rate 0.5 at n = 7 asks for the 3 parity rows the matrix has
    cfg = SweepConfig(q=2, n=7, family="rlc", rho=0.15, L=2, rates=[0.5], trials=3,
                      master_seed=0)
    assert parity_rows(7, 0.5) == 3
    curve = satisfaction_curve(cfg)
    assert curve.p_hat.tolist() == [1.0]
    assert curve.routes == {"stamp": 0, "pigeonhole": 0, "dp": 0, "fiber": 3}
    curve = satisfaction_curve(SweepConfig(**{**vars(cfg), "L": 1}))
    assert curve.p_hat.tolist() == [0.0]
    assert curve.routes == {"stamp": 0, "pigeonhole": 0, "dp": 0, "fiber": 3}


# q^n <= 4096 keeps the profile oracle's |C| * V stamps small at every radius
FIBER_NMAX = {2: 12, 3: 7, 4: 6, 5: 5}


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from(sorted(FIBER_NMAX)), n=st.integers(1, 12),
       R=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9, 0.99]), seed=st.integers(0, 2**32),
       r=st.integers(0, 12))
@example(q=2, n=2, R=0.4, seed=11, r=1)  # a zero parity-check row
@example(q=2, n=4, R=0.99, seed=0, r=2)  # no parity rows: the whole space
@example(q=3, n=4, R=0.5, seed=0, r=1)
def test_largest_fiber_is_the_fullest_ball(q, n, R, seed, r):
    # same seed, same matrix: the fiber count from H alone equals the fullest
    # ball of the enumerated kernel's occupancy profile, whatever H's rank
    n = min(n, FIBER_NMAX[q])
    r = min(r, n)
    H = draw_parity_check(q, n, R, np.random.default_rng(seed))
    code = sample_rlc(q, n, R, np.random.default_rng(seed))
    assert np.array_equal(code.parity_check, H) and H.shape[0] == parity_rows(n, R)
    fullest = int(occupancy_profile(code, r).max())
    assert largest_fiber(H, q, r) == fullest
    if H.shape[0] == 0:
        assert fullest == ball_volume(q, n, r)


def _column_rule(H, q):
    """The fullest radius-1 ball of ker H: a centre in the code holds
    1 + (q - 1) z0 codewords, z0 the zero columns, and a centre with nonzero
    syndrome s one codeword per column on the line through s."""
    fs = make_field(q)
    zero = int((~H.any(axis=0)).sum())
    lines = []
    for col in H.T[H.any(axis=0)]:
        lead = int(col[np.flatnonzero(col)[0]])
        lines.append(tuple(int(fs.mul_table[fs.inv_table[lead], int(c)]) for c in col))
    most = max(np.unique(np.asarray(lines), axis=0, return_counts=True)[1], default=0)
    return max(1 + (q - 1) * zero, int(most))


def _transposed_ball_slots(q, n, r):
    """The slots by one nonzero over the transposed ball: its entries by cell,
    then coordinate, each cell's j-th entry going to slot j."""
    ball, _ = _zero_list_ball(q, n, r, 1)
    cell, coord = np.nonzero(ball.T)
    weight = np.bincount(cell, minlength=ball.shape[1])
    slot = np.arange(cell.size) - np.repeat(np.cumsum(weight) - weight, weight)
    slots = np.zeros((min(r, n), ball.shape[1]), dtype=np.int64)
    slots[slot, cell] = coord * q + ball[coord, cell]
    return slots


@pytest.mark.parametrize("q, n, r", [(2, 12, 3), (3, 9, 2), (4, 7, 3), (2, 40, 4), (3, 40, 4)])
def test_ball_slots_match_the_transposed_construction(q, n, r):
    # the n = 40 balls hold up to 1.5 million cells; they are dropped from
    # the caches afterwards rather than kept for the rest of the session
    try:
        got = _ball_slots.__wrapped__(q, n, r)
        want = _transposed_ball_slots(q, n, r)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    finally:
        if n == 40:
            _zero_list_ball.cache_clear()


@pytest.mark.parametrize("q", [2, 3])
def test_largest_fiber_at_radius_one_follows_the_column_rule(q):
    # n = 40: neither the q^k codewords nor the q^40 centres can be listed;
    # the high rates leave few rows, so columns collide on lines and zero
    # columns occur
    seen = set()
    for R in (0.3, 0.6, 0.85, 0.9, 0.95):
        for seed in range(12):
            H = draw_parity_check(q, 40, R, np.random.default_rng(seed))
            want = _column_rule(H, q)
            assert largest_fiber(H, q, 1) == want, (R, seed)
            seen.add(want)
    assert len(seen) >= 4


class Sampled(Exception):
    pass


def test_syndromes_past_int64_leave_the_trial_to_the_sampler(monkeypatch):
    # 62 parity rows pack into int64 and H decides; 66 rows do not, so the
    # trial samples its code as the other routes need
    def sample(q, n, R, rng):
        raise Sampled

    monkeypatch.setattr("thresholds.simulate.sample_rlc", sample)
    cfg = SweepConfig(q=2, n=70, family="rlc", rho=0.0, L=2, rates=[0.11], trials=2,
                      master_seed=0)
    assert parity_rows(70, 0.11) == 62
    curve = satisfaction_curve(cfg)
    assert curve.routes == {"stamp": 0, "pigeonhole": 0, "dp": 0, "fiber": 2}
    assert curve.p_hat.tolist() == [1.0]
    assert parity_rows(70, 0.05) == 66
    with pytest.raises(Sampled):
        satisfaction_curve(SweepConfig(**{**vars(cfg), "rates": [0.05]}))


def _dp_decisions(cfg):
    hits = []
    for ri, rate in enumerate(cfg.rates):
        ok = 0
        for ti in range(cfg.trials):
            rng = np.random.default_rng(trial_seed(cfg.master_seed, ri, ti))
            sample = sample_rlc if cfg.family == "rlc" else sample_rc
            code = sample(cfg.q, cfg.n, rate, rng)
            ok += check_lr_dp(code, cfg.rho, cfg.ell, cfg.L).recoverable
        hits.append(ok / cfg.trials)
    return hits


def test_sweep_falls_back_to_the_dp_past_the_cell_cap():
    # C(5, 2)^7 = 10^7 input-list tuples exceed the cap, so every trial goes
    # to the DP and the curve is the DP's
    cfg = SweepConfig(q=5, n=7, family="rc", rho=0.15, L=3, rates=[0.12, 0.2], trials=6,
                      master_seed=4, ell=2)
    assert math.comb(5, 2) ** 7 > _CENTER_CAP
    curve = satisfaction_curve(cfg)
    assert curve.routes == {"stamp": 0, "pigeonhole": 0, "dp": 12, "fiber": 0}
    assert curve.p_hat.tolist() == _dp_decisions(cfg)
    code = sample_rc(5, 7, 0.12, np.random.default_rng(trial_seed(4, 0, 0)))
    with pytest.raises(SizeCapError):
        occupancy_profile(code, 1, 2)


def test_sweep_falls_back_to_the_dp_past_the_profile_budget():
    # 3^12 = 531,441 cells exceed the budget; the DP's C(|C|, 2) * 900 units
    # of work fit it for the few words a rate-0.1 code holds
    cfg = SweepConfig(q=3, n=12, family="rc", rho=0.25, L=2, rates=[0.1], trials=8,
                      master_seed=5, ell=1, work_budget=500_000)
    curve = satisfaction_curve(cfg)
    assert curve.routes == {"stamp": 0, "pigeonhole": 0, "dp": 8, "fiber": 0}
    free = satisfaction_curve(SweepConfig(**{**vars(cfg), "work_budget": 2**29}))
    assert free.routes == {"stamp": 8, "pigeonhole": 0, "dp": 0, "fiber": 0}
    assert curve.p_hat.tolist() == free.p_hat.tolist() == _dp_decisions(cfg)


def test_half_crossing_interpolates():
    assert half_crossing([0.1, 0.2, 0.3, 0.4], [1.0, 0.8, 0.2, 0.0]) == pytest.approx(
        0.25, abs=1e-12
    )
    assert half_crossing([0.1, 0.2], [0.4, 0.1]) == 0.1
    assert half_crossing([0.1, 0.2], [1.0, 0.9]) is None


# ---------------------------------------------------------------------------
# the potential greedy
# ---------------------------------------------------------------------------


def test_greedy_reference_run():
    g = greedy_potential_code(12, 0.125, 4, 0.2, np.random.default_rng(7))
    assert g.k == 1 and g.cap == 3
    assert g.s_initial == pytest.approx(1.0148893891448054, abs=1e-9)
    # the one-codeword start obeys S_0 <= 1 + 2^{n (h + 1/L' - 1)}
    h = hq(2, 0.125)
    assert g.s_initial <= 1 + 2 ** (12 * (h + 1 / g.lprime - 1))
    assert len(g.history) == g.k
    for rec in g.history:
        assert rec["ok"]
        assert rec["s_after"] <= rec["s_before_squared"] + 1e-12
        assert rec["s_before_squared"] == pytest.approx(
            rec["s_before"] ** 2, rel=1e-12
        )
    assert g.final_max_count <= g.cap
    assert g.code.size == 2**g.k
    assert g.code.linearity_ok()
    # recomputed occupancy agrees with the final profile maximum
    assert int(occupancy_profile(g.code, 1).max()) == g.final_max_count


def test_greedy_deterministic():
    a = greedy_potential_code(10, 0.1, 3, 0.2, np.random.default_rng(5))
    b = greedy_potential_code(10, 0.1, 3, 0.2, np.random.default_rng(5))
    assert np.array_equal(a.code.words, b.code.words)
    assert a.history == b.history


def test_greedy_explicit_dimension():
    g = greedy_potential_code(10, 0.1, 3, 0.2, np.random.default_rng(5), k=3)
    assert g.k == 3
    assert g.code.size == 8
    assert g.final_max_count <= g.cap


def test_greedy_past_the_theorem_dimension_keeps_the_potential_bound():
    # at k = 9 the final list size exceeds the theorem cap, but never the
    # bound max P <= L' (1 + log2(S_k) / n) that S_k >= 2^-n 2^((n/L') max P) gives
    g = greedy_potential_code(10, 0.1, 2, 0.3, np.random.default_rng(0), k=9)
    assert g.final_max_count > g.cap
    assert g.final_max_count <= g.potential_bound
    s_k = g.history[-1]["s_after"]
    assert g.potential_bound == pytest.approx(g.lprime * (1 + math.log2(s_k) / 10), rel=1e-9)
    assert int(occupancy_profile(g.code, 1).max()) == g.final_max_count


def test_greedy_past_the_float_range_reports_inf():
    # from step 8 the potential passes the float range: the trace reports
    # inf, never nan, and the bound still follows from the final profile
    g = greedy_potential_code(16, 0.4, 2, 0.01, np.random.default_rng(1), k=16)
    assert [rec["vector"] for rec in g.history] == [
        62289, 31011, 2288, 33543, 49491, 9452, 53933, 62171,
        16340, 20443, 56953, 27750, 54246, 17911, 16853, 5636]
    assert g.scanned == 22 and g.final_max_count == 14893
    assert g.potential_bound == 14894.009320150373
    assert g.history[6]["s_after"] == 2.4205211316470955e+169
    assert g.history[-1]["s_after"] == math.inf
    # n / L' > 2^51: every potential is past the float range from the start;
    # at k = n each centre holds the V = 9 ball words, so the bound is 9 + L'
    g = greedy_potential_code(8, 0.2, 2, 0.4999999999999999, np.random.default_rng(2), k=8)
    assert 8 / g.lprime > 2**51
    assert [rec["vector"] for rec in g.history] == [214, 30, 79, 68, 108, 119, 209, 3]
    assert g.scanned == 11 and g.final_max_count == 9
    assert g.potential_bound == 9.0 and g.s_initial == math.inf
    assert all(rec["s_after"] == math.inf for rec in g.history)
    # there alpha top passes 2^64 as the ball grows, and 2^(alpha top) still
    # reads as past the float range, never as 0 or an overflow
    for n, rho, V in ((16, 0.25, 2517), (20, 0.2, 6196)):
        g = greedy_potential_code(n, rho, 2, 0.4999999999999999, np.random.default_rng(0), k=n)
        assert g.final_max_count == V and g.potential_bound == float(V)
        assert all(rec["s_after"] == math.inf for rec in g.history)


def test_greedy_settles_a_near_tie_from_the_integer_counts(monkeypatch):
    # at n = 62 the ball is 2^-56 of the space, and a candidate that keeps
    # its 63 cells apart leaves S_new short of S^2 by a relative 2^-111,
    # past what the double-double resolves; P^2 - 2^n P_new, formed from the
    # integer counts, settles each step.  The order is cut at 64 candidates,
    # so a misjudged step raises instead of rescanning 2^62 of them
    monkeypatch.setattr("thresholds.simulate._candidate_order",
                        lambda rng, m: itertools.islice(_candidate_order(rng, m), 64))
    g = greedy_potential_code(62, 0.02, 8, 0.05, np.random.default_rng(3), k=4)
    assert g.scanned == 4 and g.final_max_count == 1
    assert largest_fiber(g.code.parity_check, 2, 1) == 1


def profile_hist(n, r, span):
    """The number of centres at each value of the dense profile of a span."""
    code = Code(q=2, n=n, words=np.sort(np.asarray(span, dtype=np.int64)))
    return [int(c) for c in np.bincount(occupancy_profile(code, r))]


@pytest.mark.parametrize("n, rho, L, delta, seed, k, vectors", [
    # at step 3 each of the 27 candidates left ties
    (5, 0.42494131999467394, 6, 0.6588183578319702, 1295490800, 3, None),
    # the first candidate drawn, 6, ties
    (3, 0.33435437930089734, 6, 0.7934779381397341, 1772215235, None, [6]),
])
def test_greedy_accepts_exact_ties(n, rho, L, delta, seed, k, vectors):
    g = greedy_potential_code(n, rho, L, delta, np.random.default_rng(seed), k=k)
    assert len(g.history) == g.k and g.code.size == 2**g.k
    if vectors is not None:
        assert [rec["vector"] for rec in g.history] == vectors and g.scanned == 1
    r = radius_of(rho, n)
    span = [0]
    ties = 0
    for rec in g.history:
        hist = profile_hist(n, r, span)
        span += [w ^ rec["vector"] for w in span]
        if is_tie(n, hist, profile_hist(n, r, span)):
            ties += 1
            assert rec["s_after"] == rec["s_before_squared"]
    assert ties == 1


def dense_potential(code, r, lprime):
    """The potential 2^-n sum_z 2^((n/L') P(z)) summed over every centre z,
    grouped by value as np.unique lists them."""
    profile = occupancy_profile(code, r)
    with mpmath.workdps(50):
        alpha = mpmath.mpf(code.n) / mpmath.mpf(lprime)
        vals, cnts = np.unique(profile, return_counts=True)
        acc = mpmath.mpf(0)
        for v, c in zip(vals, cnts):
            acc += int(c) * mpmath.power(2, alpha * int(v))
        return float(acc / mpmath.power(2, code.n)), profile


@pytest.mark.parametrize("n, rho, L, delta, seed, k, full", [
    (12, 0.125, 4, 0.2, 7, None, False),  # the theorem's dimension
    (12, 0.1, 4, 0.1, 3, 6, False),
    (11, 0.15, 5, 0.2, 2, 6, False),
    # past it, where the balls cover every centre and no centre holds 0
    (10, 0.1, 2, 0.3, 0, 9, True),
    (11, 0.3, 8, 0.1, 3, 8, True),
])
def test_greedy_support_profile_matches_the_dense_potential(n, rho, L, delta, seed, k, full):
    g = greedy_potential_code(n, rho, L, delta, np.random.default_rng(seed), k=k)
    r = radius_of(rho, n)
    span = np.zeros(1, dtype=np.int64)
    s, profile = dense_potential(Code(q=2, n=n, words=span), r, g.lprime)
    assert s == g.s_initial
    for rec in g.history:
        span = np.concatenate((span, span ^ rec["vector"]))
        s, profile = dense_potential(Code(q=2, n=n, words=np.sort(span)), r, g.lprime)
        assert s == rec["s_after"]
    assert np.array_equal(np.sort(g.cells), np.flatnonzero(profile))
    assert np.array_equal(g.counts, profile[g.cells])
    assert g.support == np.count_nonzero(profile)
    assert g.final_max_count == profile.max()
    assert g.scanned >= g.k
    assert (g.support == 2**n) == full


def test_greedy_golden_run():
    # accepted vectors and potentials of one run, pinned so that the candidate
    # order drawn from the seed and the acceptance rule stay as they are
    g = greedy_potential_code(12, 0.2, 6, 0.2, np.random.default_rng(4), k=7)
    vectors = [2975, 3610, 2096, 3862, 338, 3974, 3852]
    pinned = [
        1.1037320805572433, 1.2074641611144863, 1.457300734876751, 2.084091120344615,
        3.337671891280343, 11.121882560656372, 89.09477102063084,
    ]
    assert [rec["vector"] for rec in g.history] == vectors
    assert [rec["s_after"] for rec in g.history] == pinned
    assert g.scanned == 14 and g.final_max_count == 5
    # each pinned potential is the dense potential of the code the prefix spans
    span = np.zeros(1, dtype=np.int64)
    for v, s_after in zip(vectors, pinned):
        span = np.concatenate((span, span ^ v))
        s, _ = dense_potential(Code(q=2, n=12, words=np.sort(span)), 2, g.lprime)
        assert s == s_after


def assert_matches_dense(g, d):
    """Every field of a fiber-scored run equals the dense oracle's; the
    support is compared as a set of (cell, count) pairs."""
    assert np.array_equal(g.code.words, d.code.words)
    assert np.array_equal(g.code.generator, d.code.generator)
    assert g.code.kind == d.code.kind == "linear"
    assert g.history == d.history
    for name in ("k", "cap", "lprime", "s_initial", "final_max_count",
                 "potential_bound", "scanned", "support"):
        assert getattr(g, name) == getattr(d, name), name
    at, ref = np.argsort(g.cells), np.argsort(d.cells)
    assert np.array_equal(g.cells[at], d.cells[ref])
    assert np.array_equal(g.counts[at], d.counts[ref])


def run_both(monkeypatch, shape, order=None):
    """The fiber-scored run and the dense oracle on one shape and seed, each
    with `order`, when given, in place of the candidate order; a run that
    finds no candidate gives its error."""
    if order is not None:
        monkeypatch.setattr("thresholds.simulate._candidate_order", order)
    n, rho, L, delta, seed, k = shape
    out = []
    for run in (greedy_potential_code, dense_greedy):
        try:
            out.append(run(n, rho, L, delta, np.random.default_rng(seed), k=k))
        except NoCandidateError as err:
            out.append(err)
    return out


def test_greedy_matches_the_dense_oracle_on_random_shapes(monkeypatch):
    gen = np.random.default_rng(2028)
    seen = {"r=0": 0, "k=n": 0, "full": 0, "clamped": 0}
    for _ in range(100):
        n = int(gen.integers(2, 14))
        L = int(gen.integers(2, 9))
        rho = float(gen.uniform(0.01, 0.49))
        delta = float(gen.uniform(0.01, min(1.0, (L - 1) / 2 - 0.01)))
        k = None if gen.random() < 0.3 else int(gen.integers(1, n + 1))
        shape = (n, rho, L, delta, int(gen.integers(0, 2**31)), k)
        g, d = run_both(monkeypatch, shape)
        if isinstance(d, Exception):
            assert type(g) is type(d) and str(g) == str(d), shape
            assert getattr(g, "history", None) == getattr(d, "history", None), shape
            continue
        assert_matches_dense(g, d)
        seen["r=0"] += radius_of(rho, n) == 0
        seen["k=n"] += g.k == n
        seen["full"] += g.support == 2**n
        seen["clamped"] += k is None and (1 - hq(2, rho) - 1 / g.lprime - delta) * n < 1
    assert min(seen.values()) > 0, seen


def test_greedy_failure_matches_the_dense_oracle(monkeypatch):
    # with one candidate in the scan order, step 1 takes it and both runs
    # raise at step 2 with the same steps done
    shape = (10, 0.125, 4, 0.2, 1, 2)
    first = greedy_potential_code(*shape[:4], np.random.default_rng(1), k=1).history
    g, d = run_both(monkeypatch, shape, lambda rng, m: iter([first[0]["vector"]]))
    assert isinstance(g, NoCandidateError) and isinstance(d, NoCandidateError)
    assert str(g) == str(d) and "step 2" in str(g)
    assert g.history == d.history == first


def test_candidate_order_draws_each_vector_once():
    for n in (3, 4):
        m = 2**n - 1
        for seed in range(20):
            order = list(_candidate_order(np.random.default_rng(seed), m))
            assert sorted(order) == list(range(1, m + 1)), (n, seed)


def test_candidate_order_first_draw_is_uniform():
    # 400 fixed seeds over the 15 nonzero vectors of F_2^4; the bound is the
    # 0.999 quantile of chi-square with 14 degrees of freedom
    m = 15
    firsts = [next(_candidate_order(np.random.default_rng(seed), m)) for seed in range(400)]
    observed = np.bincount(firsts, minlength=m + 1)[1:]
    expected = 400 / m
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < 36.12


def test_greedy_never_holds_a_full_candidate_order():
    # a bench-sized run: its peak stays below 2^n bytes, an eighth of what a
    # materialized order of the 2^n - 1 candidates would take and a quarter
    # of a dense int32 profile of the 2^n centres
    n = 22
    tracemalloc.start()
    try:
        greedy_potential_code(n, 0.1, 6, 0.1, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**n


def test_greedy_failure_carries_the_steps_done(monkeypatch):
    # with one candidate in the scan order, step 1 takes it and step 2 finds
    # nothing outside the span
    first = greedy_potential_code(10, 0.125, 4, 0.2, np.random.default_rng(1), k=1).history
    monkeypatch.setattr("thresholds.simulate._candidate_order",
                        lambda rng, m: iter([first[0]["vector"]]))
    with pytest.raises(NoCandidateError, match="step 2") as exc:
        greedy_potential_code(10, 0.125, 4, 0.2, np.random.default_rng(1), k=2)
    assert exc.value.history == first


def test_greedy_rescans_the_drawn_prefix_without_redrawing(monkeypatch):
    # an order of the three vectors of one plane: steps 1 and 2 take 1 and 2,
    # step 3 rescans the prefix, finds it inside the span and ends the order
    drawn = []

    def plane(rng, m):
        for v in (1, 2, 3):
            drawn.append(v)
            yield v

    monkeypatch.setattr("thresholds.simulate._candidate_order", plane)
    with pytest.raises(NoCandidateError, match="step 3") as exc:
        greedy_potential_code(4, 0.2, 2, 0.1, np.random.default_rng(0), k=3)
    assert [rec["vector"] for rec in exc.value.history] == [1, 2]
    assert drawn == [1, 2, 3]


def test_greedy_domain_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        greedy_potential_code(8, 0.6, 4, 0.2, rng)
    with pytest.raises(DomainError):
        greedy_potential_code(8, 0.1, 1, 0.2, rng)
    with pytest.raises(DomainError):
        greedy_potential_code(8, 0.1, 4, 0.0, rng)
    with pytest.raises(DomainError):
        greedy_potential_code(8, 0.1, 4, 0.2, rng, k=9)
