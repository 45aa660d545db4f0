"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test is self-contained and prints a [PASS] line with its measured
margin; `pytest -v tests/test_acceptance.py` therefore reads as a
criterion-by-criterion pass/fail report. Timing ceilings are asserted
where the criterion carries one.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from divsum import autograd as ag
from divsum import evaluation as ev
from divsum import heads as hd
from divsum.attention import (GridSpec, lca_forward, gda_forward, partition_map,
                              pairwise_similarity)
from divsum.autograd import Matrix, Tape
from divsum.cli import main as cli_main
from divsum.config import TrainConfig
from divsum.data import SynthSpec, save_dataset, synth_generate
from divsum.model import forward_loss
from divsum.segmentation import knapsack_select, kts_segment
from divsum.training import init_params, loss_and_grads, train

from . import oracles


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-6)


def _loss_builders(rng, T, d):
    """(name, matrices, build) triples for each loss term."""
    E = Matrix(rng.normal(size=(T, d)))
    X = rng.uniform(0.2, 0.8, size=(T, d))
    Xr = Matrix(rng.uniform(0.2, 0.8, size=(T, d)))
    raw = Matrix(rng.normal(size=(T, 1)))
    gt = rng.integers(0, 2, size=T).astype(float)
    gt[0], gt[1] = 0.0, 1.0
    return [
        ("bce", [raw], lambda t: hd.bce_loss(oracles.sigmoid(raw, t), gt, t)),
        ("repelling", [E], lambda t: hd.repelling_loss(E, t)),
        ("reconstruction", [Xr], lambda t: hd.reconstruction_loss(X, Xr, t)),
    ]


def test_criterion_01_gradient_correctness():
    """Tape gradients of each loss term, and `loss_and_grads` over the full
    forward path, vs central differences, 1e-4 relative, 20 seeds per
    target; under a minute."""
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        T, d = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        for name, mats, build in _loss_builders(rng, T, d):
            for m in mats:
                m.grad = np.zeros_like(m.data)
            tape = Tape()
            loss = build(tape)
            ag.backward(loss, tape)
            idx, fd = oracles.finite_difference_sampled(
                lambda: build(None).item(), mats, rng, per_mat=4)
            for m, ii, vv in zip(mats, idx, fd):
                for i, want in zip(ii, vv):
                    worst = max(worst, _rel_err(m.grad.reshape(-1)[i], want))

    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        T, d = int(rng.integers(3, 9)), 2 * int(rng.integers(2, 9))
        cfg = TrainConfig(neighbor_R=1, alpha=0.1, beta=1.0, supervised=True)
        params = init_params(d, 1, seed, cfg)
        X = rng.uniform(0.1, 0.9, size=(T, d))
        gt = rng.integers(0, 2, size=T).astype(float)
        gt[0], gt[1] = 0.0, 1.0

        def total() -> float:
            return forward_loss(X, params, gt).total.item()

        _, grads = loss_and_grads(X, params, gt)
        mats = [p for _, p in params.named_parameters()]
        idx, fd = oracles.finite_difference_sampled(total, mats, rng, per_mat=3)
        for g, ii, vv in zip(grads, idx, fd):
            for i, want in zip(ii, vv):
                worst = max(worst, _rel_err(g.reshape(-1)[i], want))

    elapsed = time.monotonic() - t0
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(f"[PASS] criterion 1 gradients: worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_l2_decomposition_oracle():
    """Decomposed squared-distance similarity equals the naive double loop
    within 1e-9 absolute over 100 random instances; under 5 seconds."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(100):
        if trial < 3:
            T, d = 32, 64  # pin a few at the size ceiling
        else:
            T, d = int(rng.integers(2, 33)), int(rng.integers(2, 65))
        Q = rng.normal(size=(T, d))
        K = rng.normal(size=(T, d))
        got = pairwise_similarity(Q, K, "l2", 1.0)
        want = oracles.naive_similarity(Q, K, "l2", 1.0)
        worst = max(worst, np.abs(got - want).max())
    elapsed = time.monotonic() - t0
    assert worst < 1e-9, f"max decomposition error {worst:.3e}"
    assert elapsed < 5.0, f"l2 oracle took {elapsed:.1f}s"
    print(f"[PASS] criterion 2 l2 decomposition: max abs err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_softmax_normalization():
    """Every GDA column and every LCA window row sums to 1 within 1e-10."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        T, d = int(rng.integers(2, 12)), int(rng.integers(2, 10))
        R = int(rng.integers(1, 4))
        kind = ("dot", "cosine", "l2")[seed % 3]
        boundary = ("clamp", "zero")[seed % 2]
        params = init_params(d, R, seed, TrainConfig(  # d may be odd: no position table
            sim_kind=kind, neighbor_R=R, window_boundary=boundary, use_positions=False))
        X = rng.uniform(0.1, 1.0, size=(T, d))
        gout = gda_forward(X, params)
        worst = max(worst, np.abs(gout.weights.sum(axis=0) - 1.0).max())
        lout = lca_forward(X, params)
        worst = max(worst, np.abs(lout.weights.sum(axis=1) - 1.0).max())
    assert worst < 1e-10, f"normalization off by {worst:.3e}"
    print(f"[PASS] criterion 3 softmax normalization: worst {worst:.2e}")


def test_criterion_04_literal_variant_collapse():
    """The literal local-attention form reduces to the anchor's plain value
    projection, within 1e-10, on every randomized instance."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        T, d = int(rng.integers(2, 12)), int(rng.integers(2, 9))
        R = int(rng.integers(1, 4))
        boundary = ("clamp", "zero")[seed % 2]
        params = init_params(d, R, seed, TrainConfig(
            neighbor_R=R, lca_variant="literal", window_boundary=boundary))
        X = rng.normal(size=(T, d))
        out = lca_forward(X, params)
        plain = X @ params.lca.Wv2.data
        worst = max(worst, np.abs(out.features.data - plain).max())
    assert worst < 1e-10, f"literal collapse off by {worst:.3e}"
    print(f"[PASS] criterion 4 literal collapse: worst {worst:.2e}")


def test_criterion_05_partition_map_reproduction():
    """l2 partition equals the Voronoi oracle on the full 200x200 grid for
    20 random 3-point sets; doubling a point under dot never shrinks its
    region (nonnegative quadrant)."""
    grid = GridSpec()  # 200x200 over the unit square
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.05, 0.95, size=(3, 2))
        winners, xs, ys = partition_map(pts, "l2", grid)
        gx, gy = np.meshgrid(xs, ys)
        dists = (gx[None] - pts[:, 0, None, None]) ** 2 \
            + (gy[None] - pts[:, 1, None, None]) ** 2
        want = np.argmin(dists, axis=0)
        agree = float(np.mean(winners == want))
        assert agree == 1.0, f"seed {seed}: l2 agreement {agree:.4%}"

    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        pts = rng.uniform(0.05, 1.0, size=(3, 2))
        k = seed % 3
        before, _, _ = partition_map(pts, "dot", grid)
        scaled = pts.copy()
        scaled[k] *= 2.0
        after, _, _ = partition_map(scaled, "dot", grid)
        shrank = np.any((before == k) & (after != k))
        assert not shrank, f"seed {seed}: doubling point {k} lost grid cells"
    print("[PASS] criterion 5 partition maps: 20/20 Voronoi exact, 20/20 dot inclusion")


def test_criterion_06_knapsack_exactness():
    """DP objective equals exhaustive enumeration on 200 random instances
    with S <= 12; the budget holds on every instance."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        S = int(rng.integers(1, 13))
        lengths = rng.integers(1, 10, size=S)
        scores = rng.uniform(0.0, 1.0, size=S)
        budget = int(rng.integers(0, int(lengths.sum()) + 2))
        sel = knapsack_select(lengths, scores, budget)
        used = sum(int(lengths[i]) for i in sel)
        assert used <= budget, f"budget {budget} violated with {used}"
        best, _ = oracles.brute_force_knapsack(list(lengths), list(scores), budget)
        got = sum(float(scores[i]) for i in sel)
        assert abs(got - best) < 1e-9, f"DP {got} vs brute force {best}"
    print("[PASS] criterion 6 knapsack: 200/200 instances optimal, budget never violated")


def test_criterion_07_kts_recovery():
    """Planted piecewise-constant boundaries: exact at zero noise, within
    one frame at sigma=0.01, across 50 seeded instances each."""
    for noise, slack in ((0.0, 0), (0.01, 1)):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n_blocks = int(rng.integers(2, 6))
            T = int(rng.integers(n_blocks * 8, n_blocks * 16))
            X, starts = oracles.planted_blocks(T, n_blocks, 8, rng, noise=noise)
            part = kts_segment(X, max_shots=n_blocks + 4)
            assert part.num_shots == n_blocks, \
                f"noise={noise} seed={seed}: {part.num_shots} shots for {n_blocks} blocks"
            off = np.abs(part.change_points - starts).max()
            assert off <= slack, f"noise={noise} seed={seed}: boundary off by {off}"
    print("[PASS] criterion 7 kts recovery: 50/50 exact at 0 noise, 50/50 within 1 frame at 0.01")


def test_criterion_08_rank_metric_calibration():
    """Identical rankings give exactly 1, reversed exactly -1, and random
    vs random averages to 0 within 0.05 over 1000 trials."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=30)
    assert ev.kendall_tau(x, 2.0 * x + 1.0) == 1.0
    assert ev.spearman_rho(x, np.exp(x)) == 1.0
    assert ev.kendall_tau(x, -x) == -1.0
    assert ev.spearman_rho(x, -x) == -1.0
    taus = np.empty(1000)
    rhos = np.empty(1000)
    for t in range(1000):
        a, b = rng.uniform(size=24), rng.uniform(size=24)
        taus[t] = ev.kendall_tau(a, b)
        rhos[t] = ev.spearman_rho(a, b)
    assert abs(taus.mean()) < 0.05, f"random tau mean {taus.mean():.4f}"
    assert abs(rhos.mean()) < 0.05, f"random rho mean {rhos.mean():.4f}"
    print(f"[PASS] criterion 8 rank calibration: exact endpoints, "
          f"random means tau={taus.mean():+.4f} rho={rhos.mean():+.4f}")


OVERFIT_SPEC = SynthSpec(videos=5, frames=40, dim=16, shots_per_video=8,
                         noise=0.05, seed=0, budget_ratio=0.15)


def test_criterion_09_overfit_smoke():
    """Supervised training on 5 synthetic videos (T=40, d=16, R=2, l2)
    drives the mean classification loss below 0.1 within 200 epochs,
    deterministically, in under two minutes."""
    t0 = time.monotonic()
    videos = synth_generate(OVERFIT_SPEC)
    cfg = TrainConfig(learning_rate=3e-3, weight_decay=1e-5, epochs=40,
                      sim_kind="l2", neighbor_R=2, seed=0)
    result = train(videos, cfg)
    cls = result.part_history["cls"]
    low = min(cls)
    first_below = next((i for i, v in enumerate(cls) if v < 0.1), None)
    assert low < 0.1, f"classification loss never fell below 0.1 (min {low:.4f})"

    again = train(videos, replace(cfg, epochs=5))
    assert again.history == result.history[:5]
    for (_, pa), (_, pb) in zip(train(videos, replace(cfg, epochs=5)).params.named_parameters(),
                                again.params.named_parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"overfit smoke took {elapsed:.1f}s"
    print(f"[PASS] criterion 9 overfit smoke: L_cls<0.1 at epoch {first_below}, "
          f"min {low:.4f}, deterministic, {elapsed:.1f}s")


ABLATION_SPEC = SynthSpec(videos=10, frames=32, dim=8, shots_per_video=6,
                          noise=0.25, seed=0, budget_ratio=0.2)


def test_criterion_10_ablation_machinery(tmp_path):
    """`ablate --axis similarity` completes with a row for every kind over
    10 seeded repetitions, and l2's F-score >= dot's in at least 7 of 10."""
    ds = tmp_path / "corpus"
    save_dataset(ds, synth_generate(ABLATION_SPEC), name="ablation")
    out = tmp_path / "ablation.csv"
    rc = cli_main(["ablate", "--data", str(ds), "--axis", "similarity",
                   "--repeats", "10", "--folds", "2", "--epochs", "4",
                   "--lr", "3e-3", "--weight-decay", "0", "--radius", "1",
                   "--budget-ratio", "0.2", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    by_kind: dict[str, dict[int, float]] = {}
    for _, kind, seed, mean_f, _, _ in rows:
        by_kind.setdefault(kind, {})[int(seed)] = float(mean_f)
    assert sorted(by_kind) == ["cosine", "dot", "l2"], f"kinds seen: {sorted(by_kind)}"
    assert all(len(v) == 10 for v in by_kind.values())
    wins = sum(by_kind["l2"][s] >= by_kind["dot"][s] for s in range(10))
    spread = {k: (min(v.values()), max(v.values())) for k, v in by_kind.items()}
    assert wins >= 7, f"l2 >= dot in only {wins}/10 repetitions ({spread})"
    print(f"[PASS] criterion 10 ablation: 3 kinds x 10 seeds, l2>=dot in {wins}/10, "
          f"F ranges {spread}")


def test_criterion_11_unsupervised_mode():
    """Unsupervised training never reads ground-truth labels (instrumented
    probe) and its total loss decreases from first to last epoch."""
    from .test_training import probe_video

    videos = [probe_video(v) for v in synth_generate(OVERFIT_SPEC)]
    cfg = TrainConfig(learning_rate=1e-3, epochs=10, sim_kind="l2", neighbor_R=2,
                      seed=0, supervised=False)
    result = train(videos, cfg)
    reads = sum(len(v.reads) for v in videos)
    assert reads == 0, f"unsupervised training read labels {reads} times"
    assert result.history[-1] < result.history[0], \
        f"loss did not decrease: {result.history[0]:.4f} -> {result.history[-1]:.4f}"
    print(f"[PASS] criterion 11 unsupervised: 0 label reads, "
          f"loss {result.history[0]:.4f} -> {result.history[-1]:.4f}")
