"""Full model assembly: attention paths, fusion, heads, combined loss.

A ModelParams owns every trainable matrix and, as cfg, the one copy of
the model's settings. It is frozen, as are its holders, so the shapes
it checks when built hold for its life. The forward functions, and
every layer they call, take the model and are free of hidden state;
everything differentiable flows through an explicit tape so the
optimizer can replay it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import attention as att
from . import heads as hd
from .autograd import ContractError, Matrix, ShapeError, Tape
from .config import TrainConfig


# Every trainable matrix as (attribute path on ModelParams, rows, cols),
# where "d" is the feature dim and "span" the local window 2R+1, R being
# cfg.neighbor_R. ModelParams checks every shape against it. The order is
# load-bearing: initialization draws, Adam state, and checkpoint layout
# all follow it.
PARAMETERS = (
    ("gda.Wq", "d", "d"),
    ("gda.Wk", "d", "d"),
    ("gda.Wv", "d", "d"),
    ("lca.Wq2", "d", "d"),
    ("lca.Wk2", "d", "d"),
    ("lca.Wv2", "d", "d"),
    ("lca.rel_pos", "span", "d"),
    ("heads.score1.W", "d", "d"),
    ("heads.score1.b", 1, "d"),
    ("heads.score2.W", "d", 1),
    ("heads.score2.b", 1, 1),
    ("heads.embed.W", "d", "d"),
    ("heads.embed.b", 1, "d"),
    ("heads.recon1.W", "d", "d"),
    ("heads.recon1.b", 1, "d"),
    ("heads.recon2.W", "d", "d"),
    ("heads.recon2.b", 1, "d"),
)


@dataclass(frozen=True)
class ModelParams:
    gda: att.GdaParams
    lca: att.LcaParams
    heads: hd.HeadParams
    cfg: TrainConfig

    def __post_init__(self):
        """Refuses, naming the first, a matrix whose shape is not its
        PARAMETERS shape for d = rows of gda.Wq and span = 2*cfg.neighbor_R+1."""
        size = {"d": self.gda.Wq.rows, "span": 2 * self.cfg.neighbor_R + 1, 1: 1}
        for name, rows, cols in PARAMETERS:
            got, want = attrgetter(name)(self).shape, (size[rows], size[cols])
            if got != want:
                raise ShapeError(f"{name} must be {want[0]}x{want[1]}, got {got[0]}x{got[1]}")

    @classmethod
    def from_named(cls, mats: dict[str, Matrix], cfg: TrainConfig) -> "ModelParams":
        """The model made of `mats` (keyed by PARAMETERS names) with the
        settings of `cfg`. A missing name raises KeyError."""
        tree: dict = {}
        for name, _, _ in PARAMETERS:
            *path, leaf = name.split(".")
            node = tree
            for key in path:
                node = node.setdefault(key, {})
            node[leaf] = mats[name]
        return cls(gda=att.GdaParams(**tree["gda"]), lca=att.LcaParams(**tree["lca"]),
                   heads=hd.HeadParams(**{k: hd.Affine(**v) for k, v in tree["heads"].items()}),
                   cfg=cfg)

    def named_parameters(self) -> list[tuple[str, Matrix]]:
        """Every trainable matrix, in PARAMETERS order."""
        return [(name, attrgetter(name)(self)) for name, _, _ in PARAMETERS]

    def zero_grads(self):
        """Clear every gradient to None, the start of each training step."""
        for _, p in self.named_parameters():
            p.grad = None


@dataclass
class ForwardOutput:
    fused: Matrix  # T x d diversified contextual features
    scores: Matrix  # T x 1 frame importance
    global_attention: att.AttentionOutput | None
    local_attention: att.AttentionOutput | None


def forward_scores(X: np.ndarray, params: ModelParams,
                   tape: Tape | None = None) -> ForwardOutput:
    """Attention paths, fusion, score head over the feature array X. A path
    params.cfg switches off (use_gda / use_lca) does not run: fusion adds 0.0."""
    if X.ndim != 2:
        raise ShapeError(f"features must be T x d, got shape {X.shape}")
    gout = att.gda_forward(X, params, tape) if params.cfg.use_gda else None
    lout = att.lca_forward(X, params, tape) if params.cfg.use_lca else None
    fused = att.dca_fuse(X, gout.features if gout else None,
                         lout.features if lout else None, tape)
    scores = hd.score_frames(fused, params, tape)
    return ForwardOutput(fused=fused, scores=scores,
                         global_attention=gout, local_attention=lout)


@dataclass
class LossBreakdown:
    total: Matrix
    parts: hd.LossParts


def forward_loss(X: np.ndarray, params: ModelParams, gt_binary=None,
                 tape: Tape | None = None) -> LossBreakdown:
    """Full training-step forward: features, heads, and the objective
    cls + cfg.alpha * repel + cfg.beta * recon of cfg = params.cfg, with
    the cls term exactly when cfg.supervised.

    gt_binary (0/1 per frame) is required exactly when cfg.supervised;
    unsupervised runs must not pass it, which makes "never reads labels"
    checkable at the call boundary.
    """
    cfg = params.cfg
    if cfg.supervised and gt_binary is None:
        raise ContractError("supervised loss requires per-frame binary labels")
    if not cfg.supervised and gt_binary is not None:
        raise ContractError("unsupervised loss was passed labels; it must never read them")
    out = forward_scores(X, params, tape)
    embeddings = hd.embed_frames(out.fused, params, tape)
    recon = hd.reconstruct_frames(out.fused, params, tape)
    cls = hd.bce_loss(out.scores, gt_binary, tape) if cfg.supervised else None
    parts = hd.LossParts(
        cls=cls,
        repel=hd.repelling_loss(embeddings, tape),
        recon=hd.reconstruction_loss(X, recon, tape),
    )
    return LossBreakdown(total=hd.total_loss(parts, cfg, tape), parts=parts)
