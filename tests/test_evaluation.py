import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from divsum import evaluation as ev
from divsum.autograd import ContractError, NumericError, ShapeError
from divsum.config import TrainConfig
from divsum.data import SynthSpec, VideoRecord, synth_generate
from divsum.segmentation import ShotPartition, SummaryMask, summarize_video
from divsum.training import train

from . import oracles


# ---------------------------------------------------------------------------
# F-score


def mask(bits):
    return np.asarray(bits, dtype=int)


def test_fscore_identical_masks():
    m = mask([1, 0, 1, 1, 0])
    assert ev.fscore(m, m) == pytest.approx(100.0)


def test_fscore_disjoint_masks():
    assert ev.fscore(mask([1, 1, 0, 0]), mask([0, 0, 1, 1])) == 0.0


def test_fscore_half_coverage():
    # pred is half of user and nothing else: P=100, R=50, F=66.67
    pred = mask([1, 1, 0, 0, 0, 0])
    user = mask([1, 1, 1, 1, 0, 0])
    assert ev.fscore(pred, user) == pytest.approx(200.0 / 3.0, abs=1e-9)


def test_fscore_empty_sides_are_zero():
    assert ev.fscore(mask([0, 0, 0]), mask([1, 0, 1])) == 0.0
    assert ev.fscore(mask([1, 0, 1]), mask([0, 0, 0])) == 0.0
    assert ev.fscore(mask([0, 0, 0]), mask([0, 0, 0])) == 0.0


def test_fscore_accepts_summary_mask_type():
    sm = SummaryMask(frame_mask=mask([1, 1, 0]), selected_shots=[0])
    assert ev.fscore(sm, mask([1, 1, 0])) == pytest.approx(100.0)


def test_fscore_length_mismatch():
    with pytest.raises(ShapeError):
        ev.fscore(mask([1, 0]), mask([1, 0, 1]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=30),
       st.lists(st.integers(0, 1), min_size=1, max_size=30))
def test_fscore_symmetric_and_bounded(a, b):
    n = min(len(a), len(b))
    pa, pb = mask(a[:n]), mask(b[:n])
    f1, f2 = ev.fscore(pa, pb), ev.fscore(pb, pa)
    assert f1 == pytest.approx(f2, abs=1e-12)
    assert 0.0 <= f1 <= 100.0


def test_video_fscore_aggregation_modes():
    users = [mask([1, 1, 0, 0]), mask([0, 0, 1, 1])]
    v = VideoRecord(id="v", features=np.zeros((4, 2)), user_summaries=users)
    pred = mask([1, 1, 0, 0])
    assert ev.video_fscore(pred, v, "max_over_users") == pytest.approx(100.0)
    assert ev.video_fscore(pred, v, "mean_over_users") == pytest.approx(50.0)
    bare = VideoRecord(id="b", features=np.zeros((4, 2)), gt_binary=mask([1, 1, 0, 0]))
    assert ev.video_fscore(pred, bare, "mean_over_users") == pytest.approx(100.0)
    with pytest.raises(ContractError):
        ev.video_fscore(pred, VideoRecord(id="n", features=np.zeros((4, 2))), "mean_over_users")


def test_fscore_refuses_a_mask_that_is_not_1d():
    with pytest.raises(ShapeError, match=re.escape("summary mask must be 1-D, got shape (2, 2)")):
        ev.fscore(np.ones((2, 2), dtype=int), mask([1, 0, 1, 0]))


def test_video_fscore_refuses_an_unknown_aggregation():
    v = VideoRecord(id="v", features=np.zeros((4, 2)), user_summaries=[mask([1, 1, 0, 0])])
    with pytest.raises(ContractError, match="^unknown aggregation mode: 'median'$"):
        ev.video_fscore(mask([1, 1, 0, 0]), v, "median")


def test_random_baseline_refuses_an_empty_video_set():
    with pytest.raises(ContractError, match="^cannot evaluate an empty video set$"):
        ev.random_baseline([], ev.EvalProtocol())


# ---------------------------------------------------------------------------
# rank correlations


def test_tau_and_rho_identical_rankings():
    x = np.array([0.1, 0.4, 0.2, 0.9, 0.6])
    assert ev.kendall_tau(x, x * 3.0 + 1.0) == pytest.approx(1.0)
    assert ev.spearman_rho(x, np.exp(x)) == pytest.approx(1.0)


def test_tau_and_rho_reversed_rankings():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert ev.kendall_tau(x, -x) == pytest.approx(-1.0)
    assert ev.spearman_rho(x, -x) == pytest.approx(-1.0)


def test_constant_scores_warn_and_return_zero():
    x = np.array([0.5, 0.5, 0.5])
    y = np.array([1.0, 2.0, 3.0])
    for fn in (ev.kendall_tau, ev.spearman_rho):
        with pytest.warns(RuntimeWarning):
            assert fn(x, y) == 0.0
        with pytest.warns(RuntimeWarning):
            assert fn(y, x) == 0.0


def test_rank_metric_input_validation():
    with pytest.raises(ShapeError):
        ev.kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ContractError):
        ev.spearman_rho([1.0], [2.0])


def test_tau_matches_scipy_tau_b():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(3, 40))
        x = rng.integers(0, 6, size=n).astype(float)  # heavy ties
        y = rng.integers(0, 6, size=n).astype(float)
        if np.unique(x).size < 2 or np.unique(y).size < 2:
            continue
        want = stats.kendalltau(x, y, variant="b").statistic
        assert ev.kendall_tau(x, y) == pytest.approx(want, abs=1e-12)


def _tau_pair(kind, n, rng):
    def levels():
        return rng.integers(0, 3, size=n).astype(float)

    if kind == "distinct":
        return rng.normal(size=n), rng.normal(size=n)
    if kind == "ties_in_x":
        return levels(), rng.normal(size=n)
    if kind == "ties_in_y":
        return rng.normal(size=n), levels()
    if kind == "ties_in_both":
        x = levels()
        y = np.where(rng.random(n) < 0.5, x, levels())  # many pairs tied in both
        return x, y
    if kind == "near_collinear":
        x = rng.normal(size=n)
        return x, x + 1e-13 * rng.normal(size=n)
    # "signed_zeros": -0.0 and 0.0 are one value in both columns
    return rng.choice([-0.0, 0.0, 1.0], size=n), rng.choice([-0.0, 0.0, -1.0], size=n)


def _same_float(a, b):
    return type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("n", [2, 3, 40, 257])
@pytest.mark.parametrize("kind", ["distinct", "ties_in_x", "ties_in_y", "ties_in_both",
                                  "near_collinear", "signed_zeros"])
def test_tau_matches_pairwise_oracle_byte_for_byte(kind, n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        x, y = _tau_pair(kind, n, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # n=2 can draw a constant
            got, want = ev.kendall_tau(x, y), oracles.pairwise_kendall_tau(x, y)
        assert _same_float(got, want), (got, want)


@pytest.mark.parametrize("kind", ["distinct", "ties_in_both"])
def test_tau_matches_pairwise_oracle_on_long_vectors(kind):
    x, y = _tau_pair(kind, 5000, np.random.default_rng(5))
    assert _same_float(ev.kendall_tau(x, y), oracles.pairwise_kendall_tau(x, y))


@pytest.mark.parametrize("which", ["x", "y", "both"])
def test_tau_and_oracle_warn_and_return_zero_on_constant_scores(which):
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=9), rng.normal(size=9)
    if which in ("x", "both"):
        x = np.full(9, -0.0)
    if which in ("y", "both"):
        y = np.full(9, 3.5)
    for fn in (ev.kendall_tau, oracles.pairwise_kendall_tau):
        with pytest.warns(RuntimeWarning):
            assert _same_float(fn(x, y), 0.0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=30))
def test_tau_matches_pairwise_oracle_on_small_integer_vectors(pairs):
    x, y = np.array(pairs, dtype=float).T
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _same_float(ev.kendall_tau(x, y), oracles.pairwise_kendall_tau(x, y))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["predicted", "ground-truth"])
@pytest.mark.parametrize("metric", ["kendall_tau", "spearman_rho"])
def test_rank_metrics_refuse_non_finite_scores(metric, which, bad):
    good = [1.0, 2.0, 3.0, 4.0]
    scores = [bad, 1.0, 2.0, 3.0]
    args = (scores, good) if which == "predicted" else (good, scores)
    with pytest.raises(NumericError, match=f"{which} scores contain NaN or Inf"):
        getattr(ev, metric)(*args)


def test_rho_matches_scipy_with_and_without_ties():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(3, 40))
        tie_heavy = rng.random() < 0.5
        x = (rng.integers(0, 5, size=n).astype(float) if tie_heavy
             else rng.normal(size=n))
        y = (rng.integers(0, 5, size=n).astype(float) if tie_heavy
             else rng.normal(size=n))
        if np.unique(x).size < 2 or np.unique(y).size < 2:
            continue
        want = stats.spearmanr(x, y).statistic
        assert ev.spearman_rho(x, y) == pytest.approx(want, abs=1e-12)


def _rank_inputs(kind, n, rng):
    if kind == "distinct":
        return rng.normal(size=n)
    if kind == "few_levels":
        return rng.integers(0, 4, size=n).astype(float)
    if kind == "constant":
        return np.full(n, 2.5)
    if kind == "signed_zeros":  # -0.0 == 0.0 must share one rank block
        return rng.choice([-0.0, 0.0, 1.0], size=n)
    return np.repeat(rng.normal(size=(n + 9) // 10), 10)[:n]  # "runs"


@pytest.mark.parametrize("n", [2, 3, 17, 5000])
@pytest.mark.parametrize("kind", ["distinct", "few_levels", "constant", "signed_zeros",
                                  "runs"])
def test_mean_ranks_match_loop_oracle_and_scipy(kind, n):
    x = _rank_inputs(kind, n, np.random.default_rng(n))
    got = ev._mean_ranks(x)
    assert got.tobytes() == oracles.loop_mean_ranks(x).tobytes()
    np.testing.assert_allclose(got, stats.rankdata(x, method="average"), rtol=0, atol=1e-9)


@pytest.mark.parametrize("kind", ["few_levels", "runs"])
def test_rho_matches_scipy_on_long_tie_heavy_vectors(kind):
    rng = np.random.default_rng(4)
    x, y = _rank_inputs(kind, 5000, rng), _rank_inputs("few_levels", 5000, rng)
    want = stats.spearmanr(x, y).statistic
    assert ev.spearman_rho(x, y) == pytest.approx(want, abs=1e-12)


def test_rho_tie_free_equals_classical_formula():
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=25), rng.normal(size=25)
    rx = np.argsort(np.argsort(x)) + 1.0
    ry = np.argsort(np.argsort(y)) + 1.0
    d = rx - ry
    n = 25
    classical = 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))
    assert ev.spearman_rho(x, y) == pytest.approx(classical, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=25,
                unique=True),
       st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_rank_metrics_invariant_under_monotone_transforms(xs, which, seed):
    x = np.asarray(xs)
    y = np.random.default_rng(seed).normal(size=x.size)
    transforms = [lambda a: 3.0 * a + 2.0, np.exp, lambda a: a ** 3, np.tanh]
    f = transforms[which]
    if np.unique(y).size < 2 or np.unique(f(x)).size != x.size:
        return
    assert ev.kendall_tau(f(x), y) == pytest.approx(ev.kendall_tau(x, y), abs=1e-9)
    assert ev.spearman_rho(f(x), y) == pytest.approx(ev.spearman_rho(x, y), abs=1e-9)


def test_random_scores_average_near_zero():
    rng = np.random.default_rng(3)
    taus, rhos = [], []
    for _ in range(300):
        x, y = rng.uniform(size=30), rng.uniform(size=30)
        taus.append(ev.kendall_tau(x, y))
        rhos.append(ev.spearman_rho(x, y))
    assert abs(np.mean(taus)) < 0.05
    assert abs(np.mean(rhos)) < 0.05


# ---------------------------------------------------------------------------
# folds and splits


def corpus(name, n, seed, frames=24, dim=6):
    recs = synth_generate(SynthSpec(videos=n, frames=frames, dim=dim,
                                    shots_per_video=4, seed=seed, name=name,
                                    budget_ratio=0.3))
    return recs


def test_build_folds_partition_target_exactly():
    videos = corpus("a", 7, seed=0)
    proto = ev.EvalProtocol(mode="canonical", folds=3, seed=1)
    splits = ev.build_folds(videos, proto)
    assert len(splits) == 3
    all_test = [i for s in splits for i in s.test_ids]
    assert sorted(all_test) == sorted(v.id for v in videos)
    for s in splits:
        assert set(s.train_ids).isdisjoint(s.test_ids)
        assert sorted(s.train_ids + s.test_ids) == sorted(v.id for v in videos)


def test_build_folds_seeded_and_order_independent():
    videos = corpus("a", 6, seed=0)
    proto = ev.EvalProtocol(folds=3, seed=5)
    a = ev.build_folds(videos, proto)
    b = ev.build_folds(list(reversed(videos)), proto)
    assert [s.test_ids for s in a] == [s.test_ids for s in b]
    c = ev.build_folds(videos, ev.EvalProtocol(folds=3, seed=6))
    assert [s.test_ids for s in a] != [s.test_ids for s in c]


def test_folds_one_is_leak_mode():
    videos = corpus("a", 4, seed=0)
    splits = ev.build_folds(videos, ev.EvalProtocol(folds=1))
    assert len(splits) == 1
    assert sorted(splits[0].train_ids) == sorted(splits[0].test_ids)


def test_augmented_adds_auxiliary_to_training_only():
    videos = corpus("a", 5, seed=0) + corpus("b", 3, seed=1)
    proto = ev.EvalProtocol(mode="augmented", folds=2, target_corpus="a", seed=0)
    splits = ev.build_folds(videos, proto)
    b_ids = {v.id for v in videos if v.corpus_tag == "b"}
    for s in splits:
        assert b_ids <= set(s.train_ids)
        assert b_ids.isdisjoint(s.test_ids)
    all_test = sorted(i for s in splits for i in s.test_ids)
    assert all_test == sorted(v.id for v in videos if v.corpus_tag == "a")


def test_transfer_trains_only_on_auxiliary():
    videos = corpus("a", 4, seed=0) + corpus("b", 3, seed=1)
    proto = ev.EvalProtocol(mode="transfer", target_corpus="a")
    (split,) = ev.build_folds(videos, proto)
    assert sorted(split.train_ids) == sorted(v.id for v in videos if v.corpus_tag == "b")
    assert sorted(split.test_ids) == sorted(v.id for v in videos if v.corpus_tag == "a")


def test_transfer_requires_auxiliary_corpus():
    videos = corpus("a", 4, seed=0)
    with pytest.raises(ContractError, match="auxiliary"):
        ev.build_folds(videos, ev.EvalProtocol(mode="transfer", target_corpus="a"))


def test_fold_count_validation():
    videos = corpus("a", 3, seed=0)
    with pytest.raises(ContractError, match="folds"):
        ev.build_folds(videos, ev.EvalProtocol(folds=4))
    with pytest.raises(ContractError):
        ev.EvalProtocol(folds=0)
    with pytest.raises(ContractError):
        ev.EvalProtocol(mode="sideways")
    with pytest.raises(ContractError):
        ev.EvalProtocol(agg="median")
    for budget in (0.0, 1.5, float("nan")):
        with pytest.raises(ContractError, match=r"budget_ratio must be in \(0, 1\]"):
            ev.EvalProtocol(budget_ratio=budget)


def test_multi_corpus_needs_explicit_target():
    videos = corpus("a", 3, seed=0) + corpus("b", 3, seed=1)
    with pytest.raises(ContractError, match="target_corpus"):
        ev.build_folds(videos, ev.EvalProtocol(folds=2))
    with pytest.raises(ContractError, match=re.escape("target corpus 'c' not in dataset "
                                                      "(has ['a', 'b'])")):
        ev.build_folds(videos, ev.EvalProtocol(folds=2, target_corpus="c"))


def test_split_file_round_trip(tmp_path):
    videos = corpus("a", 6, seed=0)
    proto = ev.EvalProtocol(folds=3, seed=2)
    splits = ev.build_folds(videos, proto)
    p = ev.save_splits(tmp_path / "splits.json", splits, proto)
    got = ev.load_splits(p, proto)
    assert [s.train_ids for s in got] == [s.train_ids for s in splits]
    assert [s.test_ids for s in got] == [s.test_ids for s in splits]
    raw = json.loads(p.read_text())
    assert set(raw) == {"mode", "folds", "agg", "seed", "target_corpus", "splits"}
    assert raw["seed"] == 2 and raw["mode"] == "canonical"


def test_split_file_refuses_another_protocol(tmp_path):
    proto = ev.EvalProtocol(folds=3, seed=2)
    p = ev.save_splits(tmp_path / "splits.json", ev.build_folds(corpus("a", 6, seed=0), proto),
                       proto)
    with pytest.raises(ContractError, match=f"^{re.escape(str(p))}: split file has folds 3, "
                                            "this run has folds 2$"):
        ev.load_splits(p, replace(proto, folds=2))
    # the aggregation is a scoring choice, not part of the split
    assert len(ev.load_splits(p, replace(proto, agg="max_over_users"))) == 3


def test_split_file_errors(tmp_path):
    proto = ev.EvalProtocol()
    with pytest.raises(ContractError, match="not found"):
        ev.load_splits(tmp_path / "nope.json", proto)
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ContractError, match="JSON"):
        ev.load_splits(bad, proto)
    bad.write_text(json.dumps({"splits": [{"train": []}]}))
    with pytest.raises(ContractError, match="missing field"):
        ev.load_splits(bad, proto)


# ---------------------------------------------------------------------------
# protocol runs


def quick_cfg(**kw):
    base = dict(learning_rate=1e-3, weight_decay=0.0, epochs=2, neighbor_R=1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_evaluate_reports_every_test_video_once():
    videos = corpus("a", 4, seed=0)
    proto = ev.EvalProtocol(folds=2, seed=0, budget_ratio=0.3)
    report = ev.evaluate(videos, quick_cfg(), proto)
    assert sorted(report.per_video_f) == sorted(v.id for v in videos)
    assert 0.0 <= report.mean_f <= 100.0
    assert -1.0 <= report.kendall <= 1.0
    assert -1.0 <= report.spearman <= 1.0
    assert report.protocol is proto and report.label == "trained"


def test_evaluate_without_frame_scores_warns_and_reports_zero_rank_metrics():
    videos = [replace(v, gt_scores=None) for v in corpus("a", 4, seed=0)]
    with pytest.warns(RuntimeWarning, match="no videos carried frame-level scores"):
        report = ev.evaluate(videos, quick_cfg(), ev.EvalProtocol(folds=2, budget_ratio=0.3))
    assert report.kendall == report.spearman == 0.0
    assert report.per_video_tau == report.per_video_rho == {}
    assert sorted(report.per_video_f) == sorted(v.id for v in videos)


def test_evaluate_is_deterministic():
    videos = corpus("a", 4, seed=0)
    proto = ev.EvalProtocol(folds=2, seed=0, budget_ratio=0.3)
    a = ev.evaluate(videos, quick_cfg(), proto)
    b = ev.evaluate(videos, quick_cfg(), proto)
    assert a == b


@pytest.mark.parametrize("switch", ["use_gda", "use_lca"])
def test_evaluate_scores_test_videos_with_the_trained_paths(switch):
    videos = corpus("a", 2, seed=0)
    cfg = quick_cfg(**{switch: False})
    report = ev.evaluate(videos, cfg, ev.EvalProtocol(folds=1, budget_ratio=0.3))
    params = train(videos, cfg).params
    assert getattr(params.cfg, switch) is False
    both_on = replace(params, cfg=replace(cfg, **{switch: True}))
    for v in videos:
        detail = summarize_video(v, params, 0.3)
        assert report.per_video_tau[v.id] == ev.kendall_tau(detail.frame_scores, v.gt_scores)
        on = summarize_video(v, both_on, 0.3)
        assert not np.array_equal(on.frame_scores, detail.frame_scores)


def test_evaluate_rejects_bad_inputs():
    with pytest.raises(ContractError, match="empty"):
        ev.evaluate([], quick_cfg(), ev.EvalProtocol())
    videos = corpus("a", 3, seed=0)
    dup = videos + [videos[0]]
    with pytest.raises(ContractError, match="unique"):
        ev.evaluate(dup, quick_cfg(), ev.EvalProtocol(folds=1))
    splits = [ev.FoldSplit(train_ids=["ghost"], test_ids=[videos[0].id])]
    with pytest.raises(ContractError, match="unknown video ids"):
        ev.evaluate(videos, quick_cfg(), ev.EvalProtocol(folds=1), splits=splits)


def test_evaluate_checks_every_split_before_the_first_fold_trains(monkeypatch):
    videos = corpus("a", 4, seed=0)
    ids = [v.id for v in videos]
    splits = [ev.FoldSplit(train_ids=ids[:2], test_ids=ids[2:]),
              ev.FoldSplit(train_ids=ids[2:], test_ids=[ids[0], "ghost"])]
    calls = []
    monkeypatch.setattr(ev, "train", lambda *args: calls.append(args))
    with pytest.raises(ContractError, match=r"split references unknown video ids: \['ghost'\]$"):
        ev.evaluate(videos, quick_cfg(), ev.EvalProtocol(folds=2), splits=splits)
    assert calls == []


def test_evaluate_refuses_test_videos_without_a_reference_before_the_first_fold_trains(
        monkeypatch):
    videos = corpus("a", 4, seed=0)
    bare = {videos[1].id, videos[3].id}
    videos = [replace(v, user_summaries=None, gt_binary=None) if v.id in bare else v
              for v in videos]
    calls = []
    monkeypatch.setattr(ev, "train", lambda *args: calls.append(args))
    want = f"test videos carry no reference summaries: {sorted(bare)}"
    with pytest.raises(ContractError, match=f"^{re.escape(want)}$"):
        ev.evaluate(videos, quick_cfg(supervised=False), ev.EvalProtocol(folds=2))
    assert calls == []


@pytest.mark.parametrize("budget", [0.0, 1.5, float("nan")], ids=["zero", "over-one", "nan"])
def test_evaluate_refuses_a_bad_budget_before_the_first_fold_trains(monkeypatch, budget):
    videos = corpus("a", 4, seed=0)
    calls = []
    monkeypatch.setattr(ev, "train", lambda *args: calls.append(args))
    with pytest.raises(ContractError) as err:
        ev.evaluate(videos, quick_cfg(), ev.EvalProtocol(folds=2, budget_ratio=budget))
    assert str(err.value) == f"budget_ratio must be in (0, 1], got {budget}"
    assert calls == []


@pytest.mark.parametrize("halves, message", [
    ([], "no splits to evaluate"),
    ([((0, 2), (2, 4)), ((0, 0), (0, 2))], "split 1 has an empty train list"),
    ([((0, 2), (2, 4)), ((2, 4), (0, 0))], "split 1 has an empty test list"),
], ids=["no-splits", "empty-train", "empty-test"])
def test_evaluate_refuses_empty_splits_before_the_first_fold_trains(monkeypatch, halves,
                                                                   message):
    videos = corpus("a", 4, seed=0)
    ids = [v.id for v in videos]
    splits = [ev.FoldSplit(train_ids=ids[slice(*train)], test_ids=ids[slice(*test)])
              for train, test in halves]
    calls = []
    monkeypatch.setattr(ev, "train", lambda *args: calls.append(args))
    with pytest.raises(ContractError, match=f"^{message}$"):
        ev.evaluate(videos, quick_cfg(), ev.EvalProtocol(folds=2), splits=splits)
    assert calls == []


def test_evaluate_refuses_splits_that_test_a_video_twice_before_the_first_fold_trains(
        monkeypatch):
    # the second fold's score for a repeated id would overwrite the first's
    videos = corpus("a", 4, seed=0)
    ids = [v.id for v in videos]
    splits = [ev.FoldSplit(train_ids=ids[2:], test_ids=ids[:2]),
              ev.FoldSplit(train_ids=ids[:2], test_ids=[ids[0], ids[0]])]
    calls = []
    monkeypatch.setattr(ev, "train", lambda *args: calls.append(args))
    with pytest.raises(ContractError, match=f"^splits test a video more than once: {ids[0]!r}$"):
        ev.evaluate(videos, quick_cfg(), ev.EvalProtocol(folds=2), splits=splits)
    assert calls == []


def test_evaluate_refuses_a_split_that_trains_on_a_video_twice_before_the_first_fold_trains(
        monkeypatch):
    # the repeated video would be trained on twice per epoch
    videos = corpus("a", 4, seed=0)
    ids = [v.id for v in videos]
    splits = [ev.FoldSplit(train_ids=ids[2:], test_ids=ids[:2]),
              ev.FoldSplit(train_ids=[ids[1], ids[0], ids[1], ids[0]], test_ids=ids[2:])]
    calls = []
    monkeypatch.setattr(ev, "train", lambda *args: calls.append(args))
    with pytest.raises(ContractError, match=f"^split 1 trains on a video more than once: "
                                            f"{ids[0]!r}, {ids[1]!r}$"):
        ev.evaluate(videos, quick_cfg(), ev.EvalProtocol(folds=2), splits=splits)
    assert calls == []


def test_evaluate_refuses_a_split_that_tests_a_video_it_trains_on_unless_folds_is_one(
        monkeypatch):
    # such a video would be scored by a model fitted to it; folds=1 is the
    # documented train==test smoke, so there the overlap is let through
    videos = corpus("a", 4, seed=0)
    ids = [v.id for v in videos]
    splits = [ev.FoldSplit(train_ids=ids[:2], test_ids=[ids[0], ids[2]]),
              ev.FoldSplit(train_ids=ids[2:], test_ids=[ids[3], ids[1]])]
    calls = []
    monkeypatch.setattr(ev, "train", lambda *args: calls.append(args))
    with pytest.raises(ContractError, match=f"^split 0 tests videos it also trains on: "
                                            f"{ids[0]!r}$"):
        ev.evaluate(videos, quick_cfg(), ev.EvalProtocol(folds=2), splits=splits)
    assert calls == []

    class Trained(Exception):
        pass

    def train(*args):
        raise Trained

    monkeypatch.setattr(ev, "train", train)
    with pytest.raises(Trained):
        ev.evaluate(videos, quick_cfg(), ev.EvalProtocol(folds=1), splits=splits)


def test_a_metric_error_names_its_video():
    # one frame leaves tau and rho undefined; the error says which video
    a = corpus("a", 3, seed=0)
    one = VideoRecord(id="one", features=np.ones((1, 6)), gt_scores=np.array([0.5]),
                      user_summaries=[np.array([1]), np.array([0])],
                      change_points=ShotPartition([0], 1), corpus_tag="a")
    want = "^video one: rank correlation needs at least 2 entries$"
    proto = ev.EvalProtocol(folds=2, budget_ratio=0.3)
    for baseline in (ev.random_baseline, ev.human_baseline):
        with pytest.raises(ContractError, match=want):
            baseline([a[0], one], proto)
    with pytest.raises(ContractError, match=want):
        ev.evaluate(a + [one], quick_cfg(epochs=1), proto,
                    splits=[ev.FoldSplit([v.id for v in a], ["one"])])
    with pytest.raises(ContractError, match="^video n: no reference summaries to score against$"):
        ev.random_baseline([VideoRecord(id="n", features=np.zeros((4, 2)))], proto)


def test_evaluate_names_the_repeated_video_ids():
    v0, v1 = corpus("a", 2, seed=0)
    with pytest.raises(ContractError, match=f"not unique: {v0.id!r}$"):
        ev.evaluate([v0, v0, v1], TrainConfig(epochs=1), ev.EvalProtocol(folds=1))


def test_random_baseline_rank_metrics_near_zero():
    videos = corpus("a", 30, seed=4, frames=40)
    report = ev.random_baseline(videos, ev.EvalProtocol(seed=11, budget_ratio=0.3))
    assert report.label == "random"
    assert abs(report.kendall) < 0.15  # 30 videos of 40 frames; loose desk-scale band
    assert abs(report.spearman) < 0.15
    assert 0.0 <= report.mean_f <= 100.0


def test_human_baseline_beats_random_on_synth():
    videos = corpus("a", 8, seed=5)
    proto = ev.EvalProtocol(seed=0, budget_ratio=0.3)
    human = ev.human_baseline(videos, proto)
    rand = ev.random_baseline(videos, proto)
    assert human.label == "human"
    assert human.mean_f > rand.mean_f
    bare = [VideoRecord(id="x", features=np.zeros((4, 2)))]
    with pytest.raises(ContractError):
        ev.human_baseline(bare, proto)


@pytest.mark.parametrize("agg", ["mean_over_users", "max_over_users"])
def test_human_baseline_matches_the_leave_one_out_loop(agg):
    # nine synthetic users put eight in each leave-one-out mean; the drawn
    # users disagree enough that max and mean part ways
    rng = np.random.default_rng(8)
    videos = synth_generate(SynthSpec(videos=3, frames=30, dim=4, shots_per_video=5,
                                      users=9, seed=3, budget_ratio=0.3))
    videos += [VideoRecord(id=f"drawn{k}", features=np.zeros((12, 2)),
                           user_summaries=list(rng.integers(0, 2, size=(n, 12))))
               for k, n in enumerate((2, 3, 5))]
    lone = VideoRecord(id="lone", features=np.zeros((12, 2)),
                       user_summaries=[np.ones(12, dtype=int)])
    report = ev.human_baseline(videos + [lone], ev.EvalProtocol(agg=agg))
    want = {v.id: oracles.leave_one_out_human_f(v.user_summaries, agg) for v in videos}
    assert report.per_video_f == want
    other = "max_over_users" if agg == "mean_over_users" else "mean_over_users"
    assert want != {v.id: oracles.leave_one_out_human_f(v.user_summaries, other)
                    for v in videos}


def test_report_rendering_round_out():
    videos = corpus("a", 3, seed=0)
    report = ev.random_baseline(videos, ev.EvalProtocol(seed=0, budget_ratio=0.3))
    text = ev.report_text(report)
    csv = ev.report_csv(report)
    assert "mean" in text and "protocol: canonical" in text
    lines = csv.strip().splitlines()
    assert lines[0] == "video,fscore,kendall_tau,spearman_rho"
    assert len(lines) == 1 + len(videos) + 1
    assert lines[-1].startswith("mean,")
