"""Fast built-in self-tests behind the `check` subcommand.

Each check re-derives a small piece of ground truth on the spot (loops,
finite differences, exhaustive enumeration) and compares the library
against it, so a broken build fails loudly without needing the dev test
suite installed.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import evaluation as ev
from .attention import GridSpec, lca_forward, pairwise_similarity, partition_map
from .autograd import Tape
from .config import TrainConfig
from .data import SynthSpec, load_dataset, save_dataset, synth_generate
from .model import forward_loss
from .segmentation import knapsack_select, kts_segment
from .training import init_params


def _fd_full_model(seed: int) -> float:
    """Worst relative error between tape and central-difference gradients
    across every parameter of a tiny full forward pass."""
    rng = np.random.default_rng(seed)
    T, d = 4, 4
    params = init_params(d, 1, seed, TrainConfig(neighbor_R=1))
    X = rng.uniform(0.1, 0.9, size=(T, d))
    gt = rng.integers(0, 2, size=T).astype(float)
    gt[0] = 1 - gt[1]  # keep both classes present

    def loss_value() -> float:
        return forward_loss(X, params, gt).total.item()

    params.zero_grads()
    tape = Tape()
    out = forward_loss(X, params, gt, tape)
    ag.backward(out.total, tape)
    worst = 0.0
    step = 1e-5
    for _, p in params.named_parameters():
        flat = p.data.ravel()
        idx = rng.choice(flat.size, size=min(3, flat.size), replace=False)
        for k in idx:
            keep = flat[k]
            flat[k] = keep + step
            up = loss_value()
            flat[k] = keep - step
            down = loss_value()
            flat[k] = keep
            fd = (up - down) / (2 * step)
            got = p.grad.ravel()[k]
            worst = max(worst, abs(got - fd) / max(1e-8, abs(fd)))
    return worst


def check_gradients() -> tuple[bool, str]:
    worst = max(_fd_full_model(seed) for seed in range(3))
    return worst < 1e-4, f"worst relative error {worst:.2e} (limit 1e-4)"


def check_l2_decomposition() -> tuple[bool, str]:
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        T, d = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        Q = rng.normal(size=(T, d))
        K = rng.normal(size=(T, d))
        want = np.array([[-np.sum((Q[i] - K[j]) ** 2) for j in range(T)]
                         for i in range(T)])
        got = pairwise_similarity(Q, K, "l2", 1.0)
        worst = max(worst, np.abs(got - want).max())
    return worst < 1e-9, f"max deviation from loop {worst:.2e} (limit 1e-9)"


def check_window_normalization() -> tuple[bool, str]:
    rng = np.random.default_rng(1)
    params = init_params(5, 2, 7, TrainConfig(neighbor_R=2))
    X = rng.normal(size=(9, 5))
    out = lca_forward(X, params)
    sums = out.weights.sum(axis=1)
    err = np.abs(sums - 1.0).max()
    return err < 1e-10, f"window rows sum to 1 within {err:.2e} (limit 1e-10)"


def check_knapsack() -> tuple[bool, str]:
    from itertools import combinations

    rng = np.random.default_rng(2)
    for _ in range(40):
        S = int(rng.integers(1, 9))
        lengths = rng.integers(1, 7, size=S)
        scores = rng.uniform(size=S)
        budget = int(rng.integers(0, int(lengths.sum()) + 1))
        sel = knapsack_select(lengths, scores, budget)
        if sum(lengths[i] for i in sel) > budget:
            return False, "budget violated"
        best = 0.0
        for r in range(S + 1):
            for combo in combinations(range(S), r):
                if sum(lengths[i] for i in combo) <= budget:
                    best = max(best, sum(scores[i] for i in combo))
        if abs(sum(scores[i] for i in sel) - best) > 1e-9:
            return False, f"suboptimal by {abs(sum(scores[i] for i in sel) - best):.2e}"
    return True, "40 exhaustive instances matched"


def check_segmentation() -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    protos = rng.uniform(-1, 1, size=(3, 6))
    X = np.repeat(protos, [7, 9, 8], axis=0)
    part = kts_segment(X, max_shots=6)
    ok = part.num_shots == 3 and list(part.change_points) == [0, 7, 16]
    return ok, f"planted cuts [0, 7, 16] -> {list(part.change_points)}"


def check_partition_map() -> tuple[bool, str]:
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.1, 0.9, size=(3, 2))
    grid = GridSpec(nx=40, ny=40)
    winners, xs, ys = partition_map(pts, "l2", grid)
    for iy in range(0, 40, 7):
        for ix in range(0, 40, 7):
            cell = np.array([xs[ix], ys[iy]])
            want = int(np.argmin(((pts - cell) ** 2).sum(axis=1)))
            if winners[iy, ix] != want:
                return False, f"cell ({ix},{iy}) disagrees with nearest neighbor"
    return True, "l2 winners match nearest-neighbor spot checks"


def check_rank_metrics() -> tuple[bool, str]:
    x = np.array([0.2, 0.9, 0.4, 0.7])
    if ev.kendall_tau(x, 2 * x + 1) != 1.0 or ev.spearman_rho(x, x ** 3) != 1.0:
        return False, "identical rankings did not give exactly 1"
    if ev.kendall_tau(x, -x) != -1.0 or ev.spearman_rho(x, -x) != -1.0:
        return False, "reversed rankings did not give exactly -1"
    rng = np.random.default_rng(5)
    taus = [ev.kendall_tau(rng.uniform(size=20), rng.uniform(size=20))
            for _ in range(200)]
    drift = abs(float(np.mean(taus)))
    return drift < 0.05, f"random-vs-random mean tau {drift:.3f} (limit 0.05)"


def check_fscore() -> tuple[bool, str]:
    pred = np.array([1, 1, 0, 0, 0, 0])
    user = np.array([1, 1, 1, 1, 0, 0])
    got = ev.fscore(pred, user)
    ok = abs(got - 200.0 / 3.0) < 1e-9 and ev.fscore(user, pred) == got
    return ok, f"P=100,R=50 -> F={got:.4f} (want 66.6667), symmetric"


def check_data_round_trip() -> tuple[bool, str]:
    records = synth_generate(SynthSpec(videos=2, frames=20, dim=4,
                                       shots_per_video=3, seed=6))
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(Path(tmp) / "ds", records, name="selfcheck")
        back = load_dataset(Path(tmp) / "ds")
    for a, b in zip(records, back):
        if a.id != b.id or not np.array_equal(a.features, b.features):
            return False, f"record {a.id} did not survive the round trip"
        if not np.array_equal(a.gt_binary, b.gt_binary):
            return False, f"labels of {a.id} did not survive the round trip"
    return True, "2 synthetic records round-tripped bit-identically"


ALL_CHECKS = [
    ("gradients vs finite differences", check_gradients),
    ("l2 similarity decomposition", check_l2_decomposition),
    ("local window normalization", check_window_normalization),
    ("knapsack vs exhaustive search", check_knapsack),
    ("segmentation on planted shots", check_segmentation),
    ("partition map vs nearest neighbor", check_partition_map),
    ("rank metric calibration", check_rank_metrics),
    ("f-score arithmetic", check_fscore),
    ("dataset round trip", check_data_round_trip),
]


def run_self_checks(printer=print) -> bool:
    """Run every built-in check; returns True only if all pass."""
    all_ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, fn in ALL_CHECKS:
            try:
                ok, detail = fn()
            except Exception as e:  # a crash is a failure, not an abort
                ok, detail = False, f"raised {type(e).__name__}: {e}"
            all_ok &= ok
            printer(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
    printer("all checks passed" if all_ok else "SELF-CHECK FAILURES PRESENT")
    return all_ok
