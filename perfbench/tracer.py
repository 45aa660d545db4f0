"""Spans around the calls into each layer of ``divsum``, for the traced run.

Every wrapper replaces a public function at the module (or class)
attribute its caller looks up at call time, so the program itself is not
edited: ``divsum.attention.lca_forward``, ``divsum.training.adam_step``,
``divsum.model.ModelParams.zero_grads`` and so on.

A span's self time is its duration minus the time of the spans it
encloses. ``Tape.record`` is wrapped too: each backward closure is
attributed to the layer whose span was innermost when the closure was
recorded, so replaying the tape charges backward time to the layer that
made the record. Wrappers call the original function with the original
arguments and return its result unchanged; leaving the ``with`` block of a
``Tracer`` restores every attribute.
"""

from __future__ import annotations

import functools
import pathlib
from collections import defaultdict
from time import perf_counter


_MISSING = object()


class Patches:
    """Attribute replacements, undone in reverse order.

    An attribute the owner only inherited is deleted again on undo, so the
    owner's namespace ends exactly as it started.
    """

    def __init__(self):
        self._undo: list = []

    def set(self, owner, name: str, value):
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


def _kts_cells(args, kwargs, out, sums):
    """Cells of the KTS table L[m, t] the dynamic programme fills."""
    X = args[0] if args else kwargs["X"]
    max_shots = args[1] if len(args) > 1 else kwargs["max_shots"]
    T = len(X.data if hasattr(X, "data") else X)
    M = min(max_shots, T)
    if T >= max_shots and T > 1:
        sums["segmentation.kts.dp_cells"] += T + sum(T - m + 1 for m in range(2, M + 1))
    sums["segmentation.kts.shots"] += out.num_shots
    sums["segmentation.kts.max_shots"] += max_shots


def _knapsack_cells(args, kwargs, out, sums):
    """Cells of the knapsack table: shots x (budget + 1)."""
    lengths = args[0] if args else kwargs["lengths"]
    budget = args[2] if len(args) > 2 else kwargs["budget"]
    sums["segmentation.knapsack.cells"] += len(lengths) * (int(budget) + 1)


def targets(ds):
    """(owner, attribute, self-time key, layer, counter) for every span.

    ``ds`` maps module names to the imported ``divsum`` modules. The layer
    is the one tape records made inside the span are charged to.
    """
    tr, ag, md, at = ds["training"], ds["autograd"], ds["model"], ds["attention"]
    hd, sg, ev = ds["heads"], ds["segmentation"], ds["evaluation"]
    out = [
        (tr, "train", "training.loop_self_ms", "training", None),
        (tr, "forward_loss", "model.fwd_self_ms", "model", None),
        (tr, "adam_step", "training.adam_step_ms", "training", None),
        (ag, "backward", "autograd.backward_ms", "autograd", None),
        (md.ModelParams, "zero_grads", "model.zero_grads_ms", "model", None),
        (md, "forward_scores", "model.fwd_self_ms", "model", None),
        (sg, "forward_scores", "model.fwd_self_ms", "model", None),
        (at, "gda_forward", "attention.gda.fwd_ms", "attention.gda", None),
        (at, "lca_forward", "attention.lca.fwd_ms", "attention.lca", None),
        (sg, "summarize_video", "segmentation.summarize_self_ms", "segmentation", None),
        (sg, "score_video", "segmentation.score_video_ms", "segmentation", None),
        (sg, "kts_segment", "segmentation.kts_segment_ms", "segmentation", _kts_cells),
        (sg, "knapsack_select", "segmentation.knapsack_select_ms", "segmentation",
         _knapsack_cells),
        (ev, "video_fscore", "evaluation.video_fscore_ms", "evaluation", None),
        (ev, "kendall_tau", "evaluation.kendall_tau_ms", "evaluation", None),
        (ev, "spearman_rho", "evaluation.spearman_rho_ms", "evaluation", None),
    ]
    for name in ("score_frames", "embed_frames", "reconstruct_frames"):
        out.append((hd, name, "heads.fwd_ms", "heads", None))
    for name in ("bce_loss", "repelling_loss", "reconstruction_loss", "total_loss"):
        out.append((hd, name, "heads.losses.fwd_ms", "heads.losses", None))
    return out


class Tracer:
    """Self time per key (seconds) and exact counts, over the traced calls."""

    def __init__(self, ds):
        self.ds = ds
        self.self_s: dict[str, float] = defaultdict(float)
        self.sums: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [layer, seconds spent in enclosed spans]
        self._patches = Patches()

    def wrap(self, fn, key: str, layer: str, counter=None):
        """``fn`` as a span: its self time goes to ``key``, tape records
        made inside it to ``layer``."""
        stack, self_s, sums = self._stack, self.self_s, self.sums

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                counter(args, kwargs, out, sums)
            return out

        return wrapped

    def _record(self, original):
        stack, self_s, sums = self._stack, self.self_s, self.sums

        @functools.wraps(original)
        def record(tape, backward_fn):
            layer = stack[-1][0] if stack else "other"
            sums[layer + ".records"] += 1
            key = layer + ".bwd_ms"

            def replay():
                t0 = perf_counter()
                backward_fn()
                dur = perf_counter() - t0
                self_s[key] += dur
                if stack:
                    stack[-1][1] += dur

            return original(tape, replay)

        return record

    def __enter__(self):
        for owner, name, key, layer, counter in targets(self.ds):
            self._patches.set(owner, name, self.wrap(getattr(owner, name), key, layer, counter))
        tape_cls = self.ds["autograd"].Tape
        self._patches.set(tape_cls, "record", self._record(tape_cls.record))
        return self

    def __exit__(self, *exc):
        self._patches.undo()


class ByteCounter:
    """Counts the bytes ``pathlib.Path.read_bytes``/``read_text`` return."""

    def __init__(self):
        self.total = 0
        self._patches = Patches()

    def __enter__(self):
        for name in ("read_bytes", "read_text"):
            original = getattr(pathlib.Path, name)

            def counted(path, *args, _original=original, **kwargs):
                out = _original(path, *args, **kwargs)
                self.total += len(out.encode("utf-8") if isinstance(out, str) else out)
                return out

            self._patches.set(pathlib.Path, name, counted)
        return self

    def __exit__(self, *exc):
        self._patches.undo()
