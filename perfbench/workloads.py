"""The benchmark workloads: seeded corpora, set-up, timed passes, checks.

Two kinds of work are measured, both through the public API of
``divsum`` only:

* ``train``: one pass is one ``train()`` call over the corpus; an item is
  one optimizer step.
* ``score``: one pass summarizes and scores every video of the corpus;
  an item is one video: ``summarize_video``, ``video_fscore``,
  ``kendall_tau`` and ``spearman_rho``.

A run repeats whole passes, so every video weighs the same in the
medians. Corpora hold an odd number of videos: the median item then falls
inside the middle video's samples, not in the gap between two videos.
Frame counts sit on a fixed grid over the workload's range with a small
seeded jitter, and the seed draws the video content: the work per pass is
nearly the same for every seed, which keeps the figures of different
seeds comparable.

Times are wall-clock times of the ``divsum`` calls, as measured; nothing
rescales them for the host's speed.

Every call into ``divsum`` goes through a module attribute looked up at
call time (``segmentation.summarize_video`` and not a local name), so the
tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import gc
import json
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from tracer import ByteCounter, Patches

BUDGET_RATIO = 0.15
LEARNING_RATE = 3e-3
AGGREGATION = "mean_over_users"
# Seed of the model parameters the scoring workloads use, and of the
# pinned probe corpus whose outputs are compared with reference.json.
MODEL_SEED = 0
PROBE_SEED = 20220127
REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "score"
    dim: int
    frames: tuple[int, int]  # range of T over the corpus
    videos: int
    probe_frames: tuple[int, ...]  # T of each video of the pinned probe corpus
    keep_shots: bool = True  # False: drop the annotated change points (KTS runs)


WORKLOADS = {w.name: w for w in (
    Workload("train_long", "train", 64, (300, 800), 9, probe_frames=(300, 320)),
    Workload("train_wide", "train", 1024, (60, 200), 5, probe_frames=(60, 64)),
    Workload("summarize_shotless", "score", 1024, (300, 800), 3, probe_frames=(300,),
             keep_shots=False),
    Workload("score_annotated", "score", 64, (1000, 2000), 9, probe_frames=(1000,)),
)}


def frame_counts(w: Workload, seed: int) -> list[int]:
    """T per video: an even grid over the range, jittered by about 1% of
    the range, in a seeded order."""
    lo, hi = w.frames
    rng = np.random.default_rng([seed, 1])
    jitter = max(1, (hi - lo) // 100)
    grid = np.rint(np.linspace(lo, hi, w.videos)).astype(int)
    T = np.clip(grid + rng.integers(-jitter, jitter + 1, size=w.videos), lo, hi)
    return [int(t) for t in rng.permutation(T)]


def make_corpus(ds, w: Workload, seed: int, frames: list[int]) -> list:
    data = ds["data"]
    corpus = []
    for i, T in enumerate(frames):
        spec = data.SynthSpec(videos=1, frames=T, dim=w.dim, shots_per_video=max(2, T // 50),
                              seed=seed * 100 + i, budget_ratio=BUDGET_RATIO,
                              name=f"{w.name}{i:02d}")
        rec = data.synth_generate(spec)[0]
        if not w.keep_shots:
            rec.change_points = None
        corpus.append(rec)
    return corpus


def train_config(ds):
    """Defaults apart from the learning rate and the epoch count: one pass
    is one ``train()`` call over one epoch, since the default 200 epochs
    would not fit a run."""
    return ds["config"].TrainConfig(learning_rate=LEARNING_RATE, epochs=1)


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


# ---------------------------------------------------------------------------
# one pass


@dataclass
class PassResult:
    items_ms: list[float] = field(default_factory=list)  # wall time of the items that passed
    wall_s: float = 0.0  # timed wall time
    frames: int = 0  # frames trained or scored
    attempted: int = 0
    failed: int = 0
    traced: bool = False  # ran with the layer wrappers installed
    problems: list[str] = field(default_factory=list)
    signatures: list[str] = field(default_factory=list)  # output digests, compared across passes


def _error(e: Exception) -> str:
    return "".join(traceback.format_exception_only(type(e), e)).strip()


def train_pass(ds, corpus: list, cfg) -> tuple[PassResult, object]:
    """One ``train()`` call. ``ModelParams.zero_grads`` is the first call
    of every step; a hook there marks the step's start, so a step's time
    runs from its mark to the next one."""
    training, model = ds["training"], ds["model"]
    steps = cfg.epochs * len(corpus)
    marks: list[float] = []
    zero_grads = model.ModelParams.zero_grads

    def clocked(params):
        marks.append(perf_counter())
        return zero_grads(params)

    clock = Patches()
    clock.set(model.ModelParams, "zero_grads", clocked)
    res = PassResult(attempted=steps, frames=cfg.epochs * sum(v.frame_count for v in corpus))
    result = None
    t0 = perf_counter()
    try:
        result = training.train(corpus, cfg)
    except Exception as e:  # an item failure is counted, not fatal
        res.problems.append(_error(e))
    t1 = perf_counter()
    clock.undo()
    res.wall_s = t1 - t0
    if result is not None:
        res.problems += checks.train_problems(result, cfg.epochs, len(corpus), len(marks))
    if res.problems:
        res.failed = steps
        return res, result
    res.items_ms = [1000.0 * (end - start) for start, end in zip(marks, marks[1:] + [t1])]
    res.signatures.append(checks.train_signature(result))
    return res, result


def score_item(ds, video, params):
    segmentation, evaluation = ds["segmentation"], ds["evaluation"]
    detail = segmentation.summarize_video(video, params, BUDGET_RATIO)
    f = evaluation.video_fscore(detail.mask, video, AGGREGATION)
    tau = evaluation.kendall_tau(detail.frame_scores, video.gt_scores)
    rho = evaluation.spearman_rho(detail.frame_scores, video.gt_scores)
    return detail, f, tau, rho


def score_pass(ds, corpus: list, params, checked: dict) -> tuple[PassResult, list]:
    """Summarize and score every video. A video's outputs are checked
    against the reference formulas the first time it is seen (``checked``
    maps its id to the digest of those outputs); later passes must
    reproduce that digest exactly. Only the divsum calls are timed."""
    res = PassResult()
    values = []
    for video in corpus:
        res.attempted += 1
        t0 = perf_counter()
        try:
            detail, f, tau, rho = score_item(ds, video, params)
        except Exception as e:  # an item failure is counted, not fatal
            res.wall_s += perf_counter() - t0
            res.failed += 1
            res.problems.append(f"{video.id}: {_error(e)}")
            continue
        dt = perf_counter() - t0
        res.wall_s += dt
        res.frames += video.frame_count
        sig = checks.summary_signature(detail, f, tau, rho)
        if video.id in checked:
            problems = [] if checked[video.id] == sig else ["outputs differ from the first pass"]
        else:
            try:
                problems = checks.summary_problems(video, detail, f, tau, rho, BUDGET_RATIO)
            except Exception as e:  # a check that cannot run fails the item
                problems = [f"check raised {_error(e)}"]
            if not problems:
                checked[video.id] = sig
        if problems:
            res.failed += 1
            res.problems += [f"{video.id}: {p}" for p in problems]
        else:
            res.items_ms.append(1000.0 * dt)
            res.signatures.append(sig)
        values.append({"f": f, "tau": tau, "rho": rho})
    return res, values


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Prepared:
    """A workload ready to run, plus what setting it up cost."""

    corpus: list
    cfg: object
    params: object  # scoring parameters; None for training workloads
    setup_s: float
    phases: dict[str, float]  # seconds per set-up phase
    bytes_read: int
    probe_values: dict[str, float]
    probe_attempted: int
    probe_failed: int
    problems: list[str] = field(default_factory=list)


def _roundtrip_checkpoint(ds, path: Path, params, state, cfg, epoch: int):
    training = ds["training"]
    training.save_checkpoint(path, params, state, cfg, epoch)
    loaded, _, _, _ = training.load_checkpoint(path)
    same = all(np.array_equal(a.data, b.data) for (_, a), (_, b)
               in zip(params.named_parameters(), loaded.named_parameters()))
    return loaded, [] if same else ["checkpoint round trip changed the parameters"]


def probe(ds, w: Workload, cfg, params) -> tuple[dict, int, list[str], object]:
    """Run the workload's item on the pinned probe corpus. It warms the
    code paths and yields the values compared with reference.json.

    Returns (values, items, problems, training result or None).
    """
    corpus = make_corpus(ds, w, PROBE_SEED, list(w.probe_frames))
    if w.kind == "train":
        res, result = train_pass(ds, corpus, cfg)
        if res.problems:
            return {}, res.attempted, res.problems, None
        values = {"final_loss": result.history[-1],
                  **{f"final_{n}": v[-1] for n, v in sorted(result.part_history.items())}}
        return values, res.attempted, [], result
    res, scored = score_pass(ds, corpus, params, {})
    values = {f"{v.id}.{k}": x for v, s in zip(corpus, scored) for k, x in s.items()}
    return values, res.attempted, res.problems, None


def prepare(ds, w: Workload, seed: int, workdir: Path, reference: dict | None,
            count_bytes: bool) -> Prepared:
    """Generate the corpus, round-trip it through the dataset files, make
    the model, warm up on the probe corpus, and round-trip a model through
    a checkpoint: the initial scoring model, or the model the training
    probe produced.

    ``reference`` holds the recorded probe values; None skips the
    comparison (used only to record them). ``count_bytes`` counts the
    bytes the loaders read, for the traced run.
    """
    data, training = ds["data"], ds["training"]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    reads = ByteCounter() if count_bytes else contextlib.nullcontext()
    ckpt = workdir / "model.ckpt"
    cfg = train_config(ds)
    params = None
    problems = []
    ckpt_s = 0.0
    try:
        t0 = perf_counter()
        corpus = make_corpus(ds, w, seed, frame_counts(w, seed))
        t1 = perf_counter()
        data.save_dataset(workdir / "data", corpus, name=w.name)
        t2 = perf_counter()
        with reads:
            corpus = data.load_dataset(workdir / "data")
        t3 = perf_counter()
        if w.kind == "score":
            params = training.init_params(w.dim, cfg.neighbor_R, MODEL_SEED, cfg)
            state = training.AdamState.for_params(params)
            t4 = perf_counter()
            with reads:
                params, problems = _roundtrip_checkpoint(ds, ckpt, params, state, cfg, 0)
            ckpt_s = perf_counter() - t4
        values, probe_items, probe_problems, result = probe(ds, w, cfg, params)
        if result is not None:
            t4 = perf_counter()
            with reads:
                _, problems = _roundtrip_checkpoint(ds, ckpt, result.params, result.state,
                                                    cfg, result.epochs_run)
            ckpt_s = perf_counter() - t4
        setup_s = perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if reference is not None and not probe_problems:
        probe_problems = checks.reference_problems(values, reference[w.name])
    problems = [f"set-up: {p}" for p in problems + probe_problems]
    return Prepared(corpus=corpus, cfg=cfg, params=params, setup_s=setup_s,
                    phases={"synth_generate_s": t1 - t0, "save_dataset_s": t2 - t1,
                            "load_dataset_s": t3 - t2,
                            "checkpoint_roundtrip_s": ckpt_s},
                    bytes_read=getattr(reads, "total", 0), probe_values=values,
                    probe_attempted=probe_items,
                    probe_failed=probe_items if problems else 0, problems=problems)


def run_passes(ds, w: Workload, prep: Prepared, seconds: float, checked: dict,
               first: list, tracer=None) -> list[PassResult]:
    """Whole passes until ``seconds`` of wall time have gone by, at least
    one. ``first`` holds the digests of the run's first pass; every later
    pass must reproduce them.

    With a ``tracer``, passes alternate between untraced and traced (the
    wrappers are installed for the traced pass only), at least one of
    each, so the two sets of passes see the same drift of the host's speed
    and their difference is the tracing overhead."""
    passes = []
    deadline = perf_counter() + seconds
    while True:
        gc.collect()
        traced = tracer is not None and len(passes) % 2 == 1
        with tracer if traced else contextlib.nullcontext():
            if w.kind == "train":
                res, _ = train_pass(ds, prep.corpus, prep.cfg)
            else:
                res, _ = score_pass(ds, prep.corpus, prep.params, checked)
        res.traced = traced
        if not res.problems:
            if not first:
                first.extend(res.signatures)
            elif res.signatures != first:
                res.problems.append("outputs differ from the first pass")
                res.failed = res.attempted
                res.items_ms = []
        passes.append(res)
        if perf_counter() >= deadline and (tracer is None or len(passes) % 2 == 0):
            return passes
