import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divsum import segmentation as seg
from divsum.autograd import ContractError, NumericError, ShapeError
from divsum.config import TrainConfig
from divsum.data import SynthSpec, VideoRecord, synth_generate
from divsum.training import init_params

from . import oracles


# ---------------------------------------------------------------------------
# partitions


def test_partition_tiling_validation():
    with pytest.raises(ContractError):
        seg.ShotPartition([1, 4], 7)  # does not start at frame 0
    with pytest.raises(ContractError):
        seg.ShotPartition([0, 3, 3], 7)  # a zero-length shot
    with pytest.raises(ContractError):
        seg.ShotPartition([0, 5, 3], 7)  # not increasing
    with pytest.raises(ContractError):
        seg.ShotPartition([0, 7], 7)  # a start past the last frame
    with pytest.raises(ContractError):
        seg.ShotPartition([], 7)
    with pytest.raises(ShapeError):
        seg.ShotPartition([[0, 3]], 7)
    part = seg.ShotPartition(np.array([0, 3]), 7)
    assert part.total_frames == 7 and part.num_shots == 2


def test_partition_from_change_points():
    part = seg.ShotPartition([0, 4, 9], 12)
    np.testing.assert_array_equal(part.shot_lengths, [4, 5, 3])
    assert list(part.frame_ranges()) == [(0, 4), (4, 9), (9, 12)]
    with pytest.raises(TypeError):
        seg.ShotPartition([0, 4], 12, shot_lengths=np.array([4, 8]))
    with pytest.raises(AttributeError):
        part.shot_lengths = np.array([12])


# ---------------------------------------------------------------------------
# segmentation


def test_constant_features_give_one_shot():
    X = np.tile(np.array([[0.3, 0.7, 0.1]]), (24, 1))
    part = seg.kts_segment(X, max_shots=6)
    assert part.num_shots == 1
    np.testing.assert_array_equal(part.change_points, [0])


def test_two_planted_blocks_recovered_exactly():
    rng = np.random.default_rng(0)
    X, starts = oracles.planted_blocks(30, 2, 8, rng, noise=0.0)
    part = seg.kts_segment(X, max_shots=5)
    np.testing.assert_array_equal(part.change_points, starts)


def test_three_noisy_blocks_within_one_frame():
    rng = np.random.default_rng(1)
    X, starts = oracles.planted_blocks(60, 3, 12, rng, noise=0.01)
    part = seg.kts_segment(X, max_shots=8)
    assert part.num_shots == 3
    assert np.all(np.abs(part.change_points - starts) <= 1)


def test_more_shots_requested_than_frames_gives_singletons():
    X = np.random.default_rng(2).uniform(size=(4, 3))
    part = seg.kts_segment(X, max_shots=9)
    assert part.num_shots == 4
    np.testing.assert_array_equal(part.shot_lengths, np.ones(4, dtype=int))


def test_single_frame_video_is_one_shot():
    part = seg.kts_segment(np.array([[1.0, 2.0]]), max_shots=1)
    assert part.num_shots == 1 and part.total_frames == 1


def test_kts_rejects_bad_arguments():
    X = np.zeros((5, 2))
    with pytest.raises(ContractError):
        seg.kts_segment(X, max_shots=0)
    with pytest.raises(ContractError):
        seg.kts_segment(np.zeros((0, 2)), max_shots=1)


def test_kts_deterministic():
    rng = np.random.default_rng(3)
    X, _ = oracles.planted_blocks(40, 3, 6, rng, noise=0.05)
    a = seg.kts_segment(X, max_shots=6)
    b = seg.kts_segment(X.copy(), max_shots=6)
    np.testing.assert_array_equal(a.change_points, b.change_points)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(2, 40), max_shots=st.integers(1, 8))
def test_kts_output_always_tiles(seed, T, max_shots):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(T, 4))
    part = seg.kts_segment(X, max_shots=max_shots)
    assert part.total_frames == T  # construction would have raised otherwise
    assert part.num_shots <= max(max_shots, T if T < max_shots else max_shots)


def _kts_input(kind, T, d=4, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(size=(T, d))
    if kind == "zeros":
        return np.zeros((T, d))
    if kind == "constant":
        return np.full((T, d), 0.3)
    if kind == "duplicated":  # one random block repeated: many exact ties
        return np.tile(rng.normal(size=(max(1, T // 3), d)), (4, 1))[:T]
    if kind == "planted":
        return oracles.planted_blocks(T, 3, d, rng, noise=0.05)[0]
    raise ValueError(kind)


KTS_CASES = [
    ("random", 23, 5), ("random", 64, 16), ("random", 65, 16), ("random", 130, 32),
    ("zeros", 30, 7), ("constant", 30, 7), ("duplicated", 40, 10), ("duplicated", 70, 17),
    ("planted", 48, 12), ("planted", 90, 22),
    ("random", 6, 9),   # T < max_shots
    ("random", 9, 9),   # T == max_shots
    ("zeros", 9, 9),
    ("random", 1, 1),   # T == 1
    ("random", 1, 3),
    ("random", 20, 1),  # max_shots == 1
    ("duplicated", 20, 1),
]


@pytest.mark.parametrize("kind,T,max_shots", KTS_CASES)
def test_kts_matches_double_loop_oracle(kind, T, max_shots):
    X = _kts_input(kind, T)
    got = seg.kts_segment(X, max_shots).change_points
    np.testing.assert_array_equal(got, oracles.naive_kts_segment(X, max_shots))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 40), max_shots=st.integers(1, 42),
       kind=st.sampled_from(["random", "zeros", "duplicated"]))
def test_kts_matches_double_loop_oracle_on_drawn_sizes(seed, T, max_shots, kind):
    X = _kts_input(kind, T, seed=seed)
    got = seg.kts_segment(X, max_shots).change_points
    np.testing.assert_array_equal(got, oracles.naive_kts_segment(X, max_shots))


@pytest.mark.parametrize("kind,T", [("random", 1), ("random", 2), ("random", 70),
                                    ("zeros", 12), ("duplicated", 40), ("planted", 48)])
def test_scatter_table_is_the_oracle_transposed_byte_for_byte(kind, T):
    X = _kts_input(kind, T)
    K = X @ X.T
    want = oracles.naive_scatter_table(K).T
    got = seg._scatter_table(K)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def overflowing_features(kind):
    """60 or 90 x 8 features that KTS splits into several shots, and the
    factor that makes their scatter table overflow float64: through a
    synthetic video's Gram matrix itself; through +v then -v halves,
    whose total sum P[T, T] cancels to 0 while the prefix sums between
    overflow; or through a block sum, with every prefix sum finite."""
    if kind == "scaled":
        spec = SynthSpec(videos=1, frames=60, dim=8, shots_per_video=4)
        return synth_generate(spec)[0].features, 1e160
    if kind == "cancelling":
        return np.repeat(np.eye(8)[:1] * [[1.0], [-1.0]], 30, axis=0), 1e153
    return np.repeat(np.eye(8)[:1] * [[1.0], [-1.0]], [30, 60], axis=0), np.sqrt(1e305)


@pytest.mark.parametrize("kind", ["scaled", "cancelling", "block"])
def test_kts_refuses_features_whose_gram_sums_overflow(kind):
    feats, scale = overflowing_features(kind)
    assert seg.kts_segment(feats, 15).num_shots > 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal, not a RuntimeWarning
        with pytest.raises(NumericError, match="KTS: the features' scatter table"):
            seg.kts_segment(feats * scale, 15)
    off = init_params(8, 2, 0, TrainConfig(use_gda=False, use_lca=False))
    video = VideoRecord(id="v", features=feats * scale)
    with pytest.raises(NumericError, match="KTS: the features' scatter table"):
        seg.summarize_video(video, off, budget_ratio=0.2)


# ---------------------------------------------------------------------------
# shot scores


def test_shot_scores_constant():
    part = seg.ShotPartition([0, 4], 10)
    np.testing.assert_allclose(seg.shot_scores(np.full(10, 0.7), part), [0.7, 0.7])


def test_shot_scores_single_shot_is_mean():
    part = seg.ShotPartition([0], 6)
    y = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    assert seg.shot_scores(y, part)[0] == pytest.approx(y.mean(), abs=1e-15)


def test_shot_scores_match_loop_oracle():
    rng = np.random.default_rng(4)
    part = seg.ShotPartition([0, 3, 9, 10], 17)
    y = rng.uniform(size=17)
    want = oracles.loop_shot_means(y, part.change_points, part.shot_lengths)
    np.testing.assert_allclose(seg.shot_scores(y, part), want, atol=1e-12)


def test_shot_scores_length_mismatch():
    part = seg.ShotPartition([0, 3], 8)
    with pytest.raises(ShapeError):
        seg.shot_scores(np.zeros(7), part)


# ---------------------------------------------------------------------------
# knapsack


def test_knapsack_takes_everything_under_big_budget():
    sel = seg.knapsack_select([3, 2, 4], [0.5, 0.1, 0.9], budget=9)
    assert sel == [0, 1, 2]


def test_knapsack_zero_budget_selects_nothing():
    assert seg.knapsack_select([1, 2], [5.0, 5.0], budget=0) == []


def test_knapsack_matches_brute_force_values():
    rng = np.random.default_rng(5)
    for _ in range(60):
        S = int(rng.integers(1, 11))
        lengths = rng.integers(1, 9, size=S)
        scores = rng.uniform(0, 1, size=S)
        budget = int(rng.integers(0, int(lengths.sum()) + 3))
        sel = seg.knapsack_select(lengths, scores, budget)
        assert sum(lengths[i] for i in sel) <= budget
        want_val, _ = oracles.brute_force_knapsack(list(lengths), list(scores), budget)
        got_val = sum(scores[i] for i in sel)
        assert got_val == pytest.approx(want_val, abs=1e-9)


def test_knapsack_prefers_lower_indices_on_ties():
    # equal scores, equal lengths: only two of three fit
    sel = seg.knapsack_select([2, 2, 2], [1.0, 1.0, 1.0], budget=4)
    assert sel == [0, 1]


def test_knapsack_input_validation():
    with pytest.raises(ShapeError):
        seg.knapsack_select([1, 2], [0.5], budget=2)
    with pytest.raises(ContractError):
        seg.knapsack_select([0, 2], [0.5, 0.5], budget=2)
    with pytest.raises(ContractError):
        seg.knapsack_select([1], [0.5], budget=-1)


# ---------------------------------------------------------------------------
# selection and summary assembly


def test_select_frames_budget_and_shape():
    rng = np.random.default_rng(6)
    part = seg.ShotPartition([0, 5, 11, 14], 20)
    scores = rng.uniform(size=20)
    mask = seg.select_frames(scores, part, budget_ratio=0.3)
    assert mask.frame_mask.sum() <= int(0.3 * 20)
    for a, b in part.frame_ranges():
        assert len(set(mask.frame_mask[a:b])) == 1  # constant within each shot


def make_trained_like_params(d, R, seed=0):
    return init_params(d, R, seed, TrainConfig(sim_kind="l2", neighbor_R=R))


def make_video(rng, T, d, with_cps=True):
    feats = rng.uniform(0, 1, size=(T, d))
    cps = seg.ShotPartition([0, T // 3, 2 * T // 3], T) if with_cps else None
    return VideoRecord(id="v", features=feats, change_points=cps, corpus_tag="t")


def test_scoring_and_summarizing_errors_name_the_video():
    rng = np.random.default_rng(9)
    video = make_video(rng, 12, 6, with_cps=False)
    with pytest.raises(ShapeError, match=r"^video v: global attention needs T x 4 features"):
        seg.score_video(video, make_trained_like_params(4, 1))
    with pytest.raises(ContractError, match=r"^video v: budget_ratio must be in \(0, 1\]"):
        seg.summarize_scores(video, np.zeros(12), 0.0)
    huge = VideoRecord(id="w", features=video.features * 1e160, corpus_tag="t")
    with pytest.raises(NumericError, match="^video w: KTS: the features' scatter table"):
        seg.summarize_scores(huge, np.zeros(12), 0.3)


def test_summarize_video_full_budget_selects_all():
    rng = np.random.default_rng(7)
    video = make_video(rng, 18, 6)
    params = make_trained_like_params(6, 2)
    mask = seg.summarize_video(video, params, budget_ratio=1.0).mask
    np.testing.assert_array_equal(mask.frame_mask, np.ones(18, dtype=int))


def test_summarize_video_single_shot_all_or_nothing():
    rng = np.random.default_rng(8)
    feats = rng.uniform(0, 1, size=(12, 4))
    single = seg.ShotPartition([0], 12)
    video = VideoRecord(id="v", features=feats, change_points=single)
    params = make_trained_like_params(4, 2)
    small = seg.summarize_video(video, params, budget_ratio=0.5).mask  # 6 < 12, cannot fit
    np.testing.assert_array_equal(small.frame_mask, np.zeros(12, dtype=int))
    full = seg.summarize_video(video, params, budget_ratio=1.0).mask
    np.testing.assert_array_equal(full.frame_mask, np.ones(12, dtype=int))


def test_summarize_video_respects_budget_and_is_deterministic():
    rng = np.random.default_rng(9)
    video = make_video(rng, 30, 6, with_cps=False)
    params = make_trained_like_params(6, 2)
    a = seg.summarize_video(video, params, budget_ratio=0.4).mask
    b = seg.summarize_video(video, params, budget_ratio=0.4).mask
    np.testing.assert_array_equal(a.frame_mask, b.frame_mask)
    assert a.frame_mask.sum() <= int(0.4 * 30)


def test_summarize_video_rejects_bad_ratio():
    rng = np.random.default_rng(10)
    video = make_video(rng, 10, 4)
    params = make_trained_like_params(4, 2)
    with pytest.raises(ContractError):
        seg.summarize_video(video, params, budget_ratio=0.0)
    with pytest.raises(ContractError):
        seg.summarize_video(video, params, budget_ratio=1.5)


@pytest.mark.parametrize("ratio", [0.0, 1.5])
def test_summarize_scores_rejects_bad_ratio_before_segmenting(monkeypatch, ratio):
    def must_not_run(*args, **kwargs):
        raise AssertionError("kts_segment ran before the budget check")

    monkeypatch.setattr(seg, "kts_segment", must_not_run)
    video = make_video(np.random.default_rng(13), 40, 4, with_cps=False)
    with pytest.raises(ContractError, match="budget_ratio"):
        seg.summarize_scores(video, np.linspace(0.0, 1.0, 40), ratio)


def test_summarize_video_is_pure_read():
    rng = np.random.default_rng(12)
    video = make_video(rng, 15, 4, with_cps=False)
    params = make_trained_like_params(4, 1)
    before = [p.data.copy() for _, p in params.named_parameters()]
    seg.summarize_video(video, params, budget_ratio=0.3)
    for want, (_, p) in zip(before, params.named_parameters()):
        np.testing.assert_array_equal(p.data, want)
    assert all(p.grad is None for _, p in params.named_parameters())


def test_constructed_high_scoring_shot_is_selected():
    # shot 1 (frames 5..10) gets distinctly higher annotated scores and its
    # length exactly matches the budget
    part = seg.ShotPartition([0, 5, 10], 20)
    scores = np.full(20, 0.1)
    scores[5:10] = 0.9
    labels = seg.binarize_ground_truth(scores, part, budget_ratio=0.25)  # budget = 5
    want = np.zeros(20, dtype=int)
    want[5:10] = 1
    np.testing.assert_array_equal(labels, want)


def test_binarize_shares_selection_mechanics():
    rng = np.random.default_rng(11)
    part = seg.ShotPartition([0, 4, 9], 15)
    scores = rng.uniform(size=15)
    labels = seg.binarize_ground_truth(scores, part, budget_ratio=0.4)
    mask = seg.select_frames(scores, part, budget_ratio=0.4)
    np.testing.assert_array_equal(labels, mask.frame_mask)


def test_binarize_uniform_scores_prefers_early_shots():
    part = seg.ShotPartition([0, 3, 6, 9],  12)
    labels = seg.binarize_ground_truth(np.full(12, 0.5), part, budget_ratio=0.5)
    want = np.zeros(12, dtype=int)
    want[0:6] = 1  # two shots fit; lower indices win the tie
    np.testing.assert_array_equal(labels, want)
