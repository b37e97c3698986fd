import hashlib
import itertools
import math

import numpy as np
import pytest

from thresholds.errors import DomainError, NoCandidateError, RoundOffError, WorkBudgetExceededError
from thresholds.infomeasures import ball_volume, hq
from thresholds.simulate import (
    Code,
    SweepConfig,
    check_ld_centers,
    check_lr_dp,
    digits_of,
    greedy_potential_code,
    half_crossing,
    occupancy_profile,
    pack_digits,
    radius_of,
    sample_rc,
    sample_rlc,
    satisfaction_curve,
    trial_seed,
    wilson_interval,
)


def make_code(q, n, indices):
    return Code(q=q, n=n, words=np.asarray(sorted(indices), dtype=np.int64))


def brute_occupancy(code, r):
    """Reference profile by direct distance counting."""
    N = code.q**code.n
    dig = code.digits()
    out = np.zeros(N, dtype=np.int64)
    for z in range(N):
        dz = digits_of(np.asarray([z]), code.q, code.n)[0]
        out[z] = int(((dig != dz).sum(axis=1) <= r).sum())
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


def test_empty_code_is_allowed():
    c = Code(q=2, n=4, words=np.asarray([], dtype=np.int64))
    assert c.size == 0
    assert check_ld_centers(c, 0.5, 1).decodable


def test_dump_load_roundtrip(tmp_path):
    c = make_code(3, 4, [0, 5, 17, 80])
    p = tmp_path / "code.txt"
    c.dump(str(p))
    back = Code.load(str(p), q=3)
    assert np.array_equal(back.words, c.words)
    # wide alphabets switch to comma-separated digits
    cw = make_code(13, 3, [0, 12, 170, 2196])
    pw = tmp_path / "wide.txt"
    cw.dump(str(pw))
    assert "," in pw.read_text()
    assert np.array_equal(Code.load(str(pw), q=13).words, cw.words)


def test_linearity_check():
    rng = np.random.default_rng(3)
    lin = sample_rlc(2, 8, 0.5, rng)
    assert lin.linearity_ok()
    # drop a nonzero word: closure fails
    broken = Code(q=2, n=8, words=lin.words[:-1])
    assert not broken.linearity_ok()
    # missing zero is an immediate failure
    assert not make_code(2, 4, [1, 2, 3]).linearity_ok()


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
            from thresholds.fields import make_field

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
    # a dense binary code: at radius >= 3 stamping its balls costs more than
    # the transform, so the q = 2 FFT route runs
    dense = Code(q=2, n=6, words=np.sort(rng.choice(64, size=48, replace=False)))
    for r in (3, 4):
        assert dense.size * ball_volume(2, 6, r) > 4 * 2**6 * 6
        assert np.array_equal(occupancy_profile(dense, r), brute_occupancy(dense, r))


def test_profile_mass_identity():
    code = make_code(2, 8, [0, 1, 37, 200, 255])
    for r in (0, 1, 3):
        P = occupancy_profile(code, r)
        assert P.sum() == code.size * ball_volume(2, 8, r)


def test_fft_round_off_is_reported(monkeypatch):
    ifftn = np.fft.ifftn
    monkeypatch.setattr(np.fft, "ifftn", lambda a: ifftn(a) + 0.25)
    with pytest.raises(RoundOffError) as exc:
        occupancy_profile(make_code(3, 3, [0, 5, 13]), 1)
    assert isinstance(exc.value, ArithmeticError)


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


def test_dp_witness_is_valid():
    # two words agreeing on half the coordinates are jointly coverable
    code = make_code(2, 6, [0b000000, 0b000111])
    rep = check_lr_dp(code, 0.5, 1, 2)
    assert not rep.recoverable
    w = rep.witness
    assert w["codewords"] == [0, 7]
    assert len(w["lists"]) == 6
    r = rep.radius
    dig = code.digits()
    for row in w["rows"]:
        miss = sum(
            1 for ci in range(6) if int(dig[row, ci]) not in w["lists"][ci]
        )
        assert miss <= r


def test_dp_pair_lists_cover_more():
    # ell = 2 lists over GF(3) cover what singleton lists cannot
    code = make_code(3, 4, [0, 40, 80])
    assert check_lr_dp(code, 0.0, 1, 3).recoverable
    rep = check_lr_dp(code, 0.25, 2, 3)
    assert rep.subsets_checked >= 1
    if not rep.recoverable:
        assert rep.witness is not None


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
                      rates=[0.9], trials=4, master_seed=7, ell=1,
                      work_budget=10)
    with pytest.raises(WorkBudgetExceededError) as exc:
        satisfaction_curve(cfg)
    assert exc.value.partial.rates.size == 0


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


class OneCandidate:
    """RNG stand-in whose candidate order holds the single vector v."""

    def __init__(self, v):
        self.v = v

    def permutation(self, m):
        return np.array([self.v - 1])


def test_greedy_failure_carries_the_steps_done():
    first = greedy_potential_code(10, 0.125, 4, 0.2, np.random.default_rng(1), k=1).history
    with pytest.raises(NoCandidateError, match="step 2") as exc:
        greedy_potential_code(10, 0.125, 4, 0.2, OneCandidate(first[0]["vector"]), k=2)
    assert exc.value.history == first


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
