"""Output checks for every timed item, with independent reference formulas.

Nothing here calls ``divsum``: the F-score, tau-b, tie-averaged Spearman
rho and the knapsack optimum are recomputed from their definitions, so a
change that breaks the numbers shows up as failed items, not as a speed-up.
Each check returns a list of problems; an empty list means the item passed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Absolute tolerance between a metric and its reference formula. F is a
# percentage and tau/rho lie in [-1, 1]; exact arithmetic agrees to about
# 1e-15, so 1e-9 only admits summation-order differences.
METRIC_ATOL = 1e-9
# Relative tolerance against the pinned reference values in reference.json.
# It admits BLAS summation-order differences between machines and nothing
# that changes what the model computes.
REFERENCE_RTOL = 1e-6


def fscore_ref(mask: np.ndarray, users) -> float:
    """Mean over users of the frame-level F-measure, in percent."""
    pred = np.asarray(mask, dtype=bool)
    out = []
    for user in users:
        u = np.asarray(user, dtype=bool)
        overlap = int(np.count_nonzero(pred & u))
        if overlap == 0:
            out.append(0.0)
            continue
        prec = overlap / int(pred.sum())
        rec = overlap / int(u.sum())
        out.append(200.0 * prec * rec / (prec + rec))
    return float(np.mean(out))


def tau_b_ref(x, y, chunk: int = 256) -> float:
    """Kendall tau-b by explicit pair counting, a block of rows at a time
    so the memory stays O(chunk * n)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    s = ties_x = ties_y = 0
    cols = np.arange(n)
    for lo in range(0, n, chunk):
        rows = np.arange(lo, min(lo + chunk, n))
        upper = cols[None, :] > rows[:, None]
        sx = np.sign(x[rows, None] - x[None, :])
        sy = np.sign(y[rows, None] - y[None, :])
        s += int((sx * sy)[upper].sum())
        ties_x += int(np.count_nonzero((sx == 0) & upper))
        ties_y += int(np.count_nonzero((sy == 0) & upper))
    n0 = n * (n - 1) // 2
    return s / math.sqrt(float(n0 - ties_x) * float(n0 - ties_y))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    values, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return ((last - counts + 1 + last) / 2.0)[inverse]


def rho_ref(x, y) -> float:
    """Pearson correlation of tie-averaged ranks."""
    rx = _average_ranks(np.asarray(x, dtype=np.float64))
    ry = _average_ranks(np.asarray(y, dtype=np.float64))
    return float(np.corrcoef(rx, ry)[0, 1])


def knapsack_best(lengths, values, budget: int) -> float:
    """Best total value of shots whose lengths fit in the budget."""
    best = np.zeros(budget + 1)
    for length, value in zip(lengths, values):
        if length <= budget:
            best[length:] = np.maximum(best[length:], best[:budget + 1 - length] + value)
    return float(best[budget])


def train_problems(result, epochs: int, videos: int, steps: int) -> list[str]:
    """Finite per-epoch losses and parameters, and one step per video."""
    problems = []
    if steps != epochs * videos:
        problems.append(f"{steps} optimizer steps for {epochs} epochs x {videos} videos")
    if len(result.history) != epochs:
        problems.append(f"history has {len(result.history)} epochs, expected {epochs}")
    for part, values in [("total", result.history), *result.part_history.items()]:
        if not np.all(np.isfinite(values)):
            problems.append(f"non-finite {part} loss: {values}")
    for name, p in result.params.named_parameters():
        if not np.all(np.isfinite(p.data)):
            problems.append(f"non-finite parameter {name}")
    return problems


def train_signature(result) -> str:
    """Digest of everything a training pass produces."""
    h = hashlib.sha256()
    for values in [result.history, *result.part_history.values()]:
        h.update(np.asarray(values, dtype="<f8").tobytes())
    for _, p in result.params.named_parameters():
        h.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return h.hexdigest()


def summary_problems(video, detail, f, tau, rho, budget_ratio: float) -> list[str]:
    """Every documented property of one summarized and scored video."""
    T = video.frame_count
    problems = []
    scores = np.asarray(detail.frame_scores)
    if scores.shape != (T,) or not np.all(np.isfinite(scores)):
        problems.append("frame scores are not T finite values")
        return problems
    part = detail.partition
    starts = np.asarray(part.change_points)
    lengths = np.asarray(part.shot_lengths)
    if (starts.size == 0 or starts[0] != 0 or np.any(lengths < 1) or lengths.sum() != T
            or not np.array_equal(starts[1:], np.cumsum(lengths)[:-1])):
        problems.append("shots do not tile [0, T)")
        return problems
    if video.change_points is not None and not np.array_equal(
            starts, video.change_points.change_points):
        problems.append("annotated change points were not used")
    mask = np.asarray(detail.mask.frame_mask)
    budget = int(np.floor(budget_ratio * T))
    if mask.shape != (T,) or not np.all((mask == 0) | (mask == 1)):
        problems.append("mask is not T values in {0, 1}")
        return problems
    per_shot = np.add.reduceat(mask, starts)
    if not np.all((per_shot == 0) | (per_shot == lengths)):
        problems.append("mask is not constant within shots")
    if mask.sum() > budget:
        problems.append(f"mask selects {mask.sum()} frames, budget is {budget}")
    means = np.add.reduceat(scores, starts) / lengths
    chosen = float(means[per_shot == lengths].sum())
    best = knapsack_best(lengths, means, budget)
    if chosen < best - METRIC_ATOL:
        problems.append(f"selected shots score {chosen}, the optimum is {best}")
    for name, got, want in (
        ("F", f, fscore_ref(mask, video.user_summaries)),
        ("tau", tau, tau_b_ref(scores, video.gt_scores)),
        ("rho", rho, rho_ref(scores, video.gt_scores)),
    ):
        if not (math.isfinite(got) and abs(got - want) <= METRIC_ATOL):
            problems.append(f"{name} = {got!r}, reference formula gives {want!r}")
    return problems


def summary_signature(detail, f, tau, rho) -> str:
    """Digest of everything one scored video produces."""
    h = hashlib.sha256()
    h.update(np.asarray(detail.frame_scores, dtype="<f8").tobytes())
    h.update(np.asarray(detail.partition.change_points, dtype="<i8").tobytes())
    h.update(np.asarray(detail.mask.frame_mask, dtype="<i8").tobytes())
    h.update(np.asarray([f, tau, rho], dtype="<f8").tobytes())
    return h.hexdigest()


def reference_problems(got: dict, want: dict) -> list[str]:
    """Values from the pinned probe against the recorded ones."""
    problems = []
    if set(got) != set(want):
        return [f"reference keys differ: {sorted(got)} vs {sorted(want)}"]
    for key, w in want.items():
        g = got[key]
        if not (math.isfinite(g) and abs(g - w) <= REFERENCE_RTOL * max(1.0, abs(w))):
            problems.append(f"{key} = {g!r}, reference value is {w!r}")
    return problems
