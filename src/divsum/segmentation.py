"""Shot segmentation, budgeted shot selection, and summary assembly.

Segmentation is change-point detection: minimize within-segment scatter
of the linear-kernel Gram matrix by dynamic programming, then pick the
segment count with a penalized model-selection criterion. Selection is an
exact 0/1 knapsack over shots: maximize summed shot scores subject to the
summary length budget. The same mechanics binarize annotated frame scores
into per-frame 0/1 training labels.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .autograd import ContractError, NumericError, ShapeError
from .model import ModelParams, forward_scores

# Relative floor for the segment-count penalty scale. Keeps the criterion
# strictly monotone in the segment count when the data is exactly
# piecewise constant and the residual scatter is only float fuzz.
_PENALTY_FLOOR = 1e-9

# End frames the KTS DP takes per step: each candidate block is at most
# 64 x T float64, 410 kB at T=800.
_DP_BLOCK = 64


@dataclass(frozen=True)
class ShotPartition:
    """Shots tiling [0, T), given by their start frames: 1-D, the first
    0, strictly increasing, the last below T. shot_lengths is derived
    from the starts and T; it cannot be passed or set."""

    change_points: np.ndarray
    total_frames: int
    shot_lengths: np.ndarray = field(init=False)

    def __post_init__(self):
        starts = np.asarray(self.change_points, dtype=int)
        T = int(self.total_frames)
        if starts.ndim != 1:
            raise ShapeError(f"change points must be 1-D, got ndim={starts.ndim}")
        if starts.size == 0 or starts[0] != 0:
            raise ContractError("change points must begin with frame 0")
        if np.any(np.diff(starts) < 1) or starts[-1] >= T:
            raise ContractError("change points must increase strictly within the video")
        object.__setattr__(self, "change_points", starts)
        object.__setattr__(self, "total_frames", T)
        object.__setattr__(self, "shot_lengths", np.diff(np.append(starts, T)))

    @property
    def num_shots(self) -> int:
        return len(self.shot_lengths)

    def frame_ranges(self):
        for start, length in zip(self.change_points, self.shot_lengths):
            yield int(start), int(start + length)


@dataclass
class SummaryMask:
    """Per-frame 0/1 selections, constant within each shot."""

    frame_mask: np.ndarray
    selected_shots: list[int]

    def __post_init__(self):
        self.frame_mask = np.asarray(self.frame_mask, dtype=int)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # refused at the end, by name
def _scatter_table(K: np.ndarray) -> np.ndarray:
    """table[t, s] = within-segment scatter of frames [s, t), from the
    Gram matrix via prefix sums: sum of diag minus block mean; inf where
    s >= t. End-major, so each DP row reads one contiguous row here.

    Refuses a table with a segment whose scatter is not finite: a Gram
    matrix, a diagonal sum, a prefix sum or a block sum overflowed float64
    (a prefix sum can overflow while P[T, T] cancels back to a finite
    value), and the DP would fall to one shot.
    """
    T = K.shape[0]
    diag_cum = np.concatenate([[0.0], np.cumsum(np.diag(K))])
    P = np.zeros((T + 1, T + 1))
    P[1:, 1:] = np.cumsum(np.cumsum(K, axis=0), axis=1)
    ends = np.arange(T + 1)[:, None]
    starts = np.arange(T)[None, :]
    diag = np.diag(P).copy()
    # block[t, s] = ((P[t, t] - P[s, t]) - P[t, s]) + P[s, s], the same
    # operation order as a per-element evaluation, so the bytes agree.
    block = diag[:, None] - P[:T, :].T
    block -= P[:, :T]
    # Drop P before the divisor and the table are allocated, so the build
    # holds no more T x T arrays at once than the start-major loop did.
    del P
    block += diag[None, :T]
    block /= ends - starts
    table = diag_cum[:, None] - diag_cum[None, :T]
    table -= block
    empty = ends <= starts
    table[empty] = np.inf
    if not np.array_equal(np.isfinite(table), ~empty):
        raise NumericError("KTS: the features' scatter table is not finite in float64 "
                           "(their Gram matrix or its sums overflow); scale the features down")
    return table


def kts_segment(X, max_shots: int) -> ShotPartition:
    """Partition frames into visually coherent shots.

    Dynamic programming finds, for every candidate count m <= max_shots,
    the m-segmentation with least within-segment scatter under the linear
    kernel; the returned count minimizes scatter/T + g*m*(log(T/m)+1),
    with g estimated from the residual scatter at the finest allowed
    segmentation (plus a small floor, see _PENALTY_FLOOR). First index
    wins all argmin ties, so exactly piecewise-constant input recovers
    the fewest segments that fit it.

    Degenerate sizes: T < max_shots returns T singleton shots. Features
    whose Gram matrix or its sums overflow float64 raise NumericError.
    """
    feats = np.asarray(X, dtype=np.float64)
    T = feats.shape[0]
    if T < 1:
        raise ContractError("cannot segment an empty video")
    if max_shots < 1:
        raise ContractError(f"max_shots must be >= 1, got {max_shots}")
    if T < max_shots:
        return ShotPartition(np.arange(T), T)

    M = int(max_shots)
    with np.errstate(over="ignore", invalid="ignore"):  # _scatter_table refuses the overflow
        K = feats @ feats.T
    table = _scatter_table(K)

    # L[m, t]: least total scatter splitting the first t frames into m
    # segments; B[m, t]: start of the last segment in that optimum. Each
    # count m fills every end t at once, _DP_BLOCK ends at a time; starts
    # s >= t read inf from the table, and argmin keeps the first index.
    L = np.full((M + 1, T + 1), np.inf)
    B = np.zeros((M + 1, T + 1), dtype=int)
    L[1, 1:] = table[1:, 0]
    for m in range(2, M + 1):
        for t0 in range(m, T + 1, _DP_BLOCK):
            t1 = min(t0 + _DP_BLOCK, T + 1)
            cand = table[t0:t1, m - 1:t1 - 1] + L[m - 1, m - 1:t1 - 1]
            k = np.argmin(cand, axis=1)
            L[m, t0:t1] = cand[np.arange(t1 - t0), k]
            B[m, t0:t1] = k + (m - 1)

    best = L[1:M + 1, T]
    counts = np.arange(1, M + 1, dtype=np.float64)
    penalty_shape = counts * (np.log(T / counts) + 1.0)
    scale = float(np.trace(K)) / T
    g = max(best[M - 1] / T, _PENALTY_FLOOR * (scale if scale > 0.0 else 1.0))
    costs = best / T + g * penalty_shape
    m_star = int(np.argmin(costs)) + 1

    cuts = []
    t = T
    for m in range(m_star, 1, -1):
        t = int(B[m, t])
        cuts.append(t)
    starts = np.array([0] + sorted(cuts), dtype=int)
    return ShotPartition(starts, T)


def shot_scores(y, part: ShotPartition) -> np.ndarray:
    """Mean frame score per shot."""
    scores = np.asarray(y, dtype=np.float64).reshape(-1)
    if scores.size != part.total_frames:
        raise ShapeError(
            f"score vector has {scores.size} frames, partition covers {part.total_frames}"
        )
    return np.array([scores[a:b].mean() for a, b in part.frame_ranges()])


def knapsack_select(lengths, scores, budget: int) -> list[int]:
    """Exact 0/1 knapsack: maximize summed scores of the selected shots
    with total length at most budget.

    DP over items in index order; a candidate that merely ties the value
    at some capacity is not taken, so on equal value the higher-indexed
    shot is dropped first and lower indices are preferred.
    """
    lens = np.asarray(lengths, dtype=int)
    vals = np.asarray(scores, dtype=np.float64)
    if lens.size != vals.size:
        raise ShapeError(f"lengths and scores differ: {lens.size} vs {vals.size}")
    if np.any(lens < 1):
        raise ContractError("every shot length must be >= 1")
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")
    budget = int(budget)
    S = lens.size
    dp = np.zeros(budget + 1)
    take = np.zeros((S, budget + 1), dtype=bool)
    for i in range(S):
        l, s = int(lens[i]), vals[i]
        if l > budget:
            continue
        cand = dp[:budget + 1 - l] + s
        better = cand > dp[l:]
        take[i, l:] = better
        dp[l:] = np.where(better, cand, dp[l:])
    selected = []
    w = budget
    for i in range(S - 1, -1, -1):
        if take[i, w]:
            selected.append(i)
            w -= int(lens[i])
    selected.reverse()
    return selected


def mask_from_selection(part: ShotPartition, selected: list[int]) -> SummaryMask:
    mask = np.zeros(part.total_frames, dtype=int)
    for i in selected:
        a, b = part.change_points[i], part.change_points[i] + part.shot_lengths[i]
        mask[a:b] = 1
    return SummaryMask(frame_mask=mask, selected_shots=list(selected))


def _check_budget_ratio(budget_ratio: float):
    if not 0.0 < budget_ratio <= 1.0:
        raise ContractError(f"budget_ratio must be in (0, 1], got {budget_ratio}")


def select_frames(frame_scores, part: ShotPartition, budget_ratio: float) -> SummaryMask:
    """Shot means -> knapsack under floor(budget_ratio * T) -> frame mask."""
    _check_budget_ratio(budget_ratio)
    T = part.total_frames
    budget = int(np.floor(budget_ratio * T))
    means = shot_scores(frame_scores, part)
    selected = knapsack_select(part.shot_lengths, means, budget)
    return mask_from_selection(part, selected)


@contextmanager
def _naming(video, epoch: int | None = None):
    """Re-raise a contract, numeric or shape error as `video <id>: <message>`,
    or, given a training epoch, `video <id> in epoch <e>: <message>`."""
    try:
        yield
    except (ContractError, NumericError, ShapeError) as e:
        where = f"video {video.id}" if epoch is None else f"video {video.id} in epoch {epoch}"
        raise type(e)(f"{where}: {e}") from e


def score_video(video, params: ModelParams) -> np.ndarray:
    """Frame importance curve for one video under the given parameters."""
    with _naming(video):
        X = np.ascontiguousarray(video.features, dtype=np.float64)
        return forward_scores(X, params).scores.data[:, 0].copy()


@dataclass
class SummaryDetail:
    """Everything the summary file records for one video."""

    mask: SummaryMask
    partition: ShotPartition
    frame_scores: np.ndarray


def default_max_shots(T: int) -> int:
    return max(2, T // 4)


def summarize_scores(video, frame_scores, budget_ratio: float) -> SummaryDetail:
    """Frame scores -> shots -> budgeted selection. The shots are the
    video's own change points when it has them, else KTS segments."""
    with _naming(video):
        _check_budget_ratio(budget_ratio)
        part = video.change_points
        if part is None:
            part = kts_segment(video.features, default_max_shots(video.frame_count))
        return SummaryDetail(mask=select_frames(frame_scores, part, budget_ratio),
                             partition=part, frame_scores=frame_scores)


def summarize_video(video, params: ModelParams, budget_ratio: float) -> SummaryDetail:
    """Score one video with the model, then summarize those scores."""
    return summarize_scores(video, score_video(video, params), budget_ratio)


def binarize_ground_truth(frame_scores, part: ShotPartition,
                          budget_ratio: float) -> np.ndarray:
    """Annotated importance scores -> per-frame 0/1 labels, through the
    same shot-mean + knapsack path the summarizer uses."""
    return select_frames(frame_scores, part, budget_ratio).frame_mask
