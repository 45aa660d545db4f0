"""F-score, rank correlations, cross-validation protocols, and baselines.

F-scores compare a predicted key-frame mask against per-user reference
summaries, aggregated max- or mean-over-users (a per-dataset convention).
Kendall tau uses the tie-corrected tau-b form, Spearman rho uses
tie-averaged ranks; a constant score vector makes either undefined, which
is reported as 0.0 alongside a RuntimeWarning.

Protocols: canonical trains and tests inside one corpus by seeded folds;
augmented adds every other corpus to each fold's training half; transfer
trains on the other corpora only and tests on the whole target corpus.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import ContractError, NumericError, ShapeError
from .config import TrainConfig
from .data import AGGREGATION_MODES, Writer, _repeated, json_field, read_json_object
from .segmentation import SummaryMask, _check_budget_ratio, summarize_scores, summarize_video
from .training import train

PROTOCOL_MODES = ("canonical", "augmented", "transfer")

RANK_UNDEFINED_MSG = "rank correlation undefined for constant scores; reporting 0"


@dataclass
class EvalProtocol:
    """How a run is scored: fold protocol, F aggregation, split seed, corpus
    under test and summary budget (the share of each video's frames a
    summary may keep), each checked when the protocol is built."""

    mode: str = "canonical"
    folds: int = 5
    agg: str = "mean_over_users"
    seed: int = 0
    # corpus under evaluation; None means the videos all share one tag
    target_corpus: str | None = None
    budget_ratio: float = 0.15

    def __post_init__(self):
        if self.mode not in PROTOCOL_MODES:
            raise ContractError(f"unknown protocol mode: {self.mode!r}")
        if self.folds < 1:
            raise ContractError(f"folds must be >= 1, got {self.folds}")
        if self.agg not in AGGREGATION_MODES:
            raise ContractError(f"unknown aggregation mode: {self.agg!r}")
        if self.seed < 0:
            raise ContractError(f"protocol seed must be >= 0, got {self.seed}")
        _check_budget_ratio(self.budget_ratio)


@dataclass
class FoldSplit:
    train_ids: list[str]
    test_ids: list[str]


@dataclass
class EvalReport:
    protocol: EvalProtocol
    per_video_f: dict[str, float]
    per_video_tau: dict[str, float]
    per_video_rho: dict[str, float]
    mean_f: float
    kendall: float
    spearman: float
    label: str = "trained"  # trained | random | human


# ---------------------------------------------------------------------------
# metrics


def _as_mask(pred) -> np.ndarray:
    if isinstance(pred, SummaryMask):
        pred = pred.frame_mask
    arr = np.asarray(pred)
    if arr.ndim != 1:
        raise ShapeError(f"summary mask must be 1-D, got shape {arr.shape}")
    return arr.astype(bool)


def fscore(pred, user) -> float:
    """Harmonic mean of frame precision/recall against one user summary,
    as a percentage. Zero when either side is empty or they never overlap."""
    p = _as_mask(pred)
    u = _as_mask(user)
    if p.size != u.size:
        raise ShapeError(f"mask lengths differ: {p.size} vs {u.size}")
    np_, nu = int(p.sum()), int(u.sum())
    if np_ == 0 or nu == 0:
        return 0.0
    overlap = int((p & u).sum())
    prec = overlap / np_
    rec = overlap / nu
    if prec + rec == 0.0:
        return 0.0
    return 200.0 * prec * rec / (prec + rec)


def _check_rank_inputs(pred_scores, gt_scores):
    x = np.asarray(pred_scores, dtype=np.float64).ravel()
    y = np.asarray(gt_scores, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ShapeError(f"score lengths differ: {x.size} vs {y.size}")
    if x.size < 2:
        raise ContractError("rank correlation needs at least 2 entries")
    for name, v in (("predicted scores", x), ("ground-truth scores", y)):
        if not np.all(np.isfinite(v)):
            raise NumericError(f"rank correlation: {name} contain NaN or Inf")
    return x, y


def _run_heads(*columns: np.ndarray) -> np.ndarray:
    """True where a run starts over which every sorted column stays equal."""
    head = np.zeros(columns[0].size, dtype=bool)
    head[0] = True
    for c in columns:
        head[1:] |= c[1:] != c[:-1]
    return head


def _tied_pairs(head: np.ndarray) -> int:
    """Number of pairs that fall within one run, given the run heads."""
    lengths = np.diff(np.append(np.flatnonzero(head), head.size))
    return int((lengths * (lengths - 1) // 2).sum())


def _inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j], for non-negative integers r. Such a
    pair first differs at one bit, where r[i] holds the 1; so per bit,
    group by the higher bits (stably) and count the ones before each zero."""
    count = 0
    for b in range(int(r.max()).bit_length()):
        prefix = r >> (b + 1)
        order = np.argsort(prefix, kind="stable")
        bit = (r[order] >> b) & 1
        ones_before = np.cumsum(bit) - bit
        # ones_before never falls, so its value at the latest run head is
        # the count carried in from earlier groups.
        head = _run_heads(prefix[order])
        ones_before -= np.maximum.accumulate(np.where(head, ones_before, 0))
        count += int(ones_before[bit == 0].sum())
    return count


def kendall_tau(pred_scores, gt_scores) -> float:
    """Tau-b: (concordant - discordant) pairs over the tie-corrected pair
    count. Exact integer pair counting after one sort (Knight, 1966): tied
    pairs come from runs of equal values and discordant pairs are the
    inversions of y in (x, y) order; O(n log n) time, O(n) memory."""
    x, y = _check_rank_inputs(pred_scores, gt_scores)
    n = x.size
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    y_sorted = np.sort(y)
    y_heads = _run_heads(y_sorted)
    n0 = n * (n - 1) // 2
    ties_x = _tied_pairs(_run_heads(xs))
    ties_y = _tied_pairs(y_heads)
    ties_xy = _tied_pairs(_run_heads(xs, ys))
    denom_x = n0 - ties_x
    denom_y = n0 - ties_y
    if denom_x == 0 or denom_y == 0:
        warnings.warn(RANK_UNDEFINED_MSG, RuntimeWarning, stacklevel=2)
        return 0.0
    # Pairs tied in x come sorted by y, so they are never inversions.
    dense_y = np.cumsum(y_heads)[np.searchsorted(y_sorted, ys)] - 1
    discordant = _inversions(dense_y)
    concordant = n0 - ties_x - ties_y + ties_xy - discordant
    return (concordant - discordant) / np.sqrt(float(denom_x) * float(denom_y))


def _mean_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; equal values share the mean of their rank block."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # Runs of equal sorted values cover sorted positions [start, end); the
    # mean of ranks start+1..end is exact, since their sum is an integer.
    starts = np.flatnonzero(_run_heads(xs))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def spearman_rho(pred_scores, gt_scores) -> float:
    """Pearson correlation of tie-averaged ranks. With no ties this equals
    the classical 1 - 6*sum(d^2) / (n*(n^2-1))."""
    x, y = _check_rank_inputs(pred_scores, gt_scores)
    rx, ry = _mean_ranks(x), _mean_ranks(y)
    dx, dy = rx - rx.mean(), ry - ry.mean()
    vx, vy = float(dx @ dx), float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        warnings.warn(RANK_UNDEFINED_MSG, RuntimeWarning, stacklevel=2)
        return 0.0
    return float(dx @ dy) / np.sqrt(vx * vy)


def video_fscore(mask, video, agg: str) -> float:
    """Aggregate F over a video's user summaries (max or mean); a video
    with only a single consensus labeling is scored against that."""
    if agg not in AGGREGATION_MODES:
        raise ContractError(f"unknown aggregation mode: {agg!r}")
    if video.user_summaries:
        scores = [fscore(mask, u) for u in video.user_summaries]
        return float(max(scores) if agg == "max_over_users" else np.mean(scores))
    if video.gt_binary is not None:
        return fscore(mask, video.gt_binary)
    raise ContractError(f"video {video.id} carries no reference summaries")


# ---------------------------------------------------------------------------
# fold construction


def _split_corpora(videos, protocol: EvalProtocol):
    tags = sorted({v.corpus_tag for v in videos})
    target = protocol.target_corpus
    if target is None:
        if len(tags) != 1:
            raise ContractError(
                f"multiple corpora present ({tags}); protocol needs target_corpus"
            )
        target = tags[0]
    elif target not in tags:
        raise ContractError(f"target corpus {target!r} not in dataset (has {tags})")
    target_ids = sorted(v.id for v in videos if v.corpus_tag == target)
    aux_ids = sorted(v.id for v in videos if v.corpus_tag != target)
    return target_ids, aux_ids


def build_folds(videos, protocol: EvalProtocol) -> list[FoldSplit]:
    """Seeded fold splits. Membership depends only on the video ids and the
    seed, not on list order. folds=1 in canonical mode is the deliberate
    train==test leak used as an optimization smoke test."""
    target_ids, aux_ids = _split_corpora(videos, protocol)
    if protocol.mode == "transfer":
        if not aux_ids:
            raise ContractError("transfer protocol needs at least one auxiliary corpus")
        return [FoldSplit(train_ids=aux_ids, test_ids=list(target_ids))]
    if protocol.folds == 1:
        train = list(target_ids) + (aux_ids if protocol.mode == "augmented" else [])
        return [FoldSplit(train_ids=train, test_ids=list(target_ids))]
    if protocol.folds > len(target_ids):
        raise ContractError(
            f"{protocol.folds} folds over {len(target_ids)} target videos"
        )
    order = np.random.default_rng(protocol.seed).permutation(len(target_ids))
    shuffled = [target_ids[i] for i in order]
    chunks = np.array_split(np.arange(len(shuffled)), protocol.folds)
    splits = []
    for chunk in chunks:
        test = [shuffled[i] for i in chunk]
        train = [vid for vid in shuffled if vid not in set(test)]
        if protocol.mode == "augmented":
            train = train + aux_ids
        splits.append(FoldSplit(train_ids=train, test_ids=test))
    return splits


def save_splits(path, splits: list[FoldSplit], protocol: EvalProtocol) -> Path:
    path = Path(path)
    text = json.dumps({
        "mode": protocol.mode,
        "folds": protocol.folds,
        "agg": protocol.agg,
        "seed": protocol.seed,
        "target_corpus": protocol.target_corpus,
        "splits": [{"train": s.train_ids, "test": s.test_ids} for s in splits],
    }, indent=2) + "\n"
    Writer().put(text.encode()).write(path)
    return path


def load_splits(path, protocol: EvalProtocol) -> list[FoldSplit]:
    """The file's splits. Refuses a file that records another mode, folds,
    seed or target corpus than `protocol`; a field it omits is not checked."""
    raw = read_json_object(path, "split file")
    splits = []
    for i, s in enumerate(json_field(raw, "splits", "a list of objects", f"{path}: split file")):
        where = f"{path}: split {i}"
        splits.append(FoldSplit(train_ids=json_field(s, "train", "a list of strings", where),
                                test_ids=json_field(s, "test", "a list of strings", where)))
    for key in ("mode", "folds", "seed", "target_corpus"):
        if key in raw and raw[key] != getattr(protocol, key):
            raise ContractError(f"{path}: split file has {key} {raw[key]!r}, "
                                f"this run has {key} {getattr(protocol, key)!r}")
    return splits


# ---------------------------------------------------------------------------
# protocol runs


def _finish_report(protocol, per_f, per_tau, per_rho, label) -> EvalReport:
    if per_tau:
        kendall = float(np.mean(list(per_tau.values())))
        spearman = float(np.mean(list(per_rho.values())))
    else:
        warnings.warn("no videos carried frame-level scores; rank metrics are 0",
                      RuntimeWarning, stacklevel=3)
        kendall = spearman = 0.0
    return EvalReport(
        protocol=protocol, per_video_f=per_f, per_video_tau=per_tau, per_video_rho=per_rho,
        mean_f=float(np.mean(list(per_f.values()))) if per_f else 0.0,
        kendall=kendall, spearman=spearman, label=label,
    )


def _per_video_metrics(scored, agg: str):
    """F per video id, plus tau and rho for the videos with frame-level
    scores, from (video, SummaryDetail) pairs."""
    per_f: dict[str, float] = {}
    per_tau: dict[str, float] = {}
    per_rho: dict[str, float] = {}
    for v, detail in scored:
        per_f[v.id] = video_fscore(detail.mask, v, agg)
        if v.gt_scores is not None:
            per_tau[v.id] = kendall_tau(detail.frame_scores, v.gt_scores)
            per_rho[v.id] = spearman_rho(detail.frame_scores, v.gt_scores)
    return per_f, per_tau, per_rho


def evaluate(videos, cfg: TrainConfig, protocol: EvalProtocol,
             splits: list[FoldSplit] | None = None) -> EvalReport:
    """Train per fold on the split's training half, summarize the held-out
    videos under the protocol's budget, and average F / tau / rho over
    every test video. The split's video ids, that no list or half is
    empty, and each test video's reference are checked before any fold."""
    if not videos:
        raise ContractError("cannot evaluate an empty video set")
    repeated = _repeated(v.id for v in videos)
    if repeated:
        raise ContractError(f"video ids are not unique: {repeated}")
    by_id = {v.id: v for v in videos}
    if splits is None:
        splits = build_folds(videos, protocol)
    if not splits:
        raise ContractError("no splits to evaluate")
    for i, s in enumerate(splits):
        for half, ids in (("train", s.train_ids), ("test", s.test_ids)):
            if not ids:
                raise ContractError(f"split {i} has an empty {half} list")
    unknown = sorted({i for s in splits for i in s.train_ids + s.test_ids} - set(by_id))
    if unknown:
        raise ContractError(f"split references unknown video ids: {unknown}")
    unscorable = sorted({i for s in splits for i in s.test_ids
                         if not by_id[i].user_summaries and by_id[i].gt_binary is None})
    if unscorable:
        raise ContractError(f"test videos carry no reference summaries: {unscorable}")

    def held_out():
        for split in splits:
            params = train([by_id[i] for i in split.train_ids], cfg).params
            for vid in split.test_ids:
                yield by_id[vid], summarize_video(by_id[vid], params, protocol.budget_ratio)

    return _finish_report(protocol, *_per_video_metrics(held_out(), protocol.agg), "trained")


def random_baseline(videos, protocol: EvalProtocol) -> EvalReport:
    """Uniform-random importance scores pushed through the same shot
    selection under the protocol's budget; the reference point for
    Table-style comparisons."""
    if not videos:
        raise ContractError("cannot evaluate an empty video set")
    rng = np.random.default_rng(protocol.seed)
    scored = ((v, summarize_scores(v, rng.uniform(size=v.frame_count), protocol.budget_ratio))
              for v in videos)
    return _finish_report(protocol, *_per_video_metrics(scored, protocol.agg), "random")


def human_baseline(videos, protocol: EvalProtocol) -> EvalReport:
    """Annotator agreement reference: each user summary scored against the
    other users (leave one out), and against the frame-level scores for the
    rank metrics. Videos without user summaries are skipped. The summaries
    are scored as annotated, so the protocol's budget does not enter."""
    per_f: dict[str, float] = {}
    per_tau: dict[str, float] = {}
    per_rho: dict[str, float] = {}
    for v in videos:
        users = v.user_summaries or []
        if len(users) >= 2:
            outs = []
            for i, u in enumerate(users):
                rest = [fscore(u, w) for j, w in enumerate(users) if j != i]
                outs.append(max(rest) if protocol.agg == "max_over_users"
                            else float(np.mean(rest)))
            per_f[v.id] = float(np.mean(outs))
        if users and v.gt_scores is not None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                taus = [kendall_tau(u.astype(float), v.gt_scores) for u in users]
                rhos = [spearman_rho(u.astype(float), v.gt_scores) for u in users]
            per_tau[v.id] = float(np.mean(taus))
            per_rho[v.id] = float(np.mean(rhos))
    if not per_f:
        raise ContractError("human baseline needs videos with >= 2 user summaries")
    return _finish_report(protocol, per_f, per_tau, per_rho, "human")


# ---------------------------------------------------------------------------
# report rendering


def report_text(report: EvalReport) -> str:
    p = report.protocol
    lines = [
        f"protocol: {p.mode}  folds: {p.folds}  agg: {p.agg}  "
        f"seed: {p.seed}  budget: {p.budget_ratio}  source: {report.label}",
        "",
        f"{'video':<24} {'F(%)':>8} {'tau':>8} {'rho':>8}",
    ]
    for vid in sorted(report.per_video_f):
        tau = report.per_video_tau.get(vid)
        rho = report.per_video_rho.get(vid)
        lines.append(
            f"{vid:<24} {report.per_video_f[vid]:>8.2f} "
            f"{tau if tau is not None else float('nan'):>8.3f} "
            f"{rho if rho is not None else float('nan'):>8.3f}"
        )
    lines.append("")
    lines.append(f"{'mean':<24} {report.mean_f:>8.2f} {report.kendall:>8.3f} "
                 f"{report.spearman:>8.3f}")
    return "\n".join(lines) + "\n"


def report_csv(report: EvalReport) -> str:
    rows = ["video,fscore,kendall_tau,spearman_rho"]
    for vid in sorted(report.per_video_f):
        tau = report.per_video_tau.get(vid, float("nan"))
        rho = report.per_video_rho.get(vid, float("nan"))
        rows.append(f"{vid},{report.per_video_f[vid]:.6f},{tau:.6f},{rho:.6f}")
    rows.append(f"mean,{report.mean_f:.6f},{report.kendall:.6f},{report.spearman:.6f}")
    return "\n".join(rows) + "\n"
