"""Full model assembly: attention paths, fusion, heads, combined loss.

A ModelParams owns every trainable matrix. The forward functions are free
of hidden state; everything differentiable flows through an explicit tape
so the optimizer can replay it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention as att
from . import heads as hd
from .autograd import ContractError, Matrix, Tape


@dataclass
class ModelParams:
    gda: att.GdaParams
    lca: att.LcaParams
    heads: hd.HeadParams
    use_positions: bool = True
    # ablation switches: a path that is off contributes zero features
    use_gda: bool = True
    use_lca: bool = True

    @property
    def dim(self) -> int:
        return self.gda.Wq.rows

    def named_parameters(self) -> list[tuple[str, Matrix]]:
        """Every trainable matrix in a fixed, documented order. The order
        is load-bearing: initialization draws, Adam state, and checkpoint
        layout all follow it."""
        h = self.heads
        return [
            ("gda.Wq", self.gda.Wq),
            ("gda.Wk", self.gda.Wk),
            ("gda.Wv", self.gda.Wv),
            ("lca.Wq2", self.lca.Wq2),
            ("lca.Wk2", self.lca.Wk2),
            ("lca.Wv2", self.lca.Wv2),
            ("lca.rel_pos", self.lca.rel_pos),
            ("heads.score1.W", h.score1.W),
            ("heads.score1.b", h.score1.b),
            ("heads.score2.W", h.score2.W),
            ("heads.score2.b", h.score2.b),
            ("heads.embed.W", h.embed.W),
            ("heads.embed.b", h.embed.b),
            ("heads.recon1.W", h.recon1.W),
            ("heads.recon1.b", h.recon1.b),
            ("heads.recon2.W", h.recon2.W),
            ("heads.recon2.b", h.recon2.b),
        ]

    def zero_grads(self):
        for _, p in self.named_parameters():
            p.zero_grad()


@dataclass
class ForwardOutput:
    fused: Matrix  # T x d diversified contextual features
    scores: Matrix  # T x 1 frame importance
    global_attention: att.AttentionOutput | None
    local_attention: att.AttentionOutput | None


def forward_scores(X: Matrix, params: ModelParams, tape: Tape | None = None) -> ForwardOutput:
    """Attention paths, fusion, score head. A path the params switch off
    (use_gda / use_lca) contributes zero features."""
    T, d = X.shape
    positions = att.sinusoidal_positions(T, d) if params.use_positions else None
    gout = att.gda_forward(X, params.gda, positions, tape) if params.use_gda else None
    lout = att.lca_forward(X, params.lca, tape) if params.use_lca else None
    zero = Matrix.zeros(T, d)
    fused = att.dca_fuse(
        X,
        gout.features if gout is not None else zero,
        lout.features if lout is not None else zero,
        tape,
    )
    scores = hd.score_frames(fused, params.heads, tape)
    return ForwardOutput(fused=fused, scores=scores,
                         global_attention=gout, local_attention=lout)


@dataclass
class LossBreakdown:
    total: Matrix
    parts: hd.LossParts
    scores: Matrix


def forward_loss(X: Matrix, params: ModelParams, weights: hd.LossWeights,
                 gt_binary=None, tape: Tape | None = None) -> LossBreakdown:
    """Full training-step forward: features, heads, weighted objective.

    gt_binary (0/1 per frame) is required exactly when weights.supervised;
    unsupervised runs must not pass it, which makes "never reads labels"
    checkable at the call boundary.
    """
    if weights.supervised and gt_binary is None:
        raise ContractError("supervised loss requires per-frame binary labels")
    out = forward_scores(X, params, tape)
    embeddings = hd.embed_frames(out.fused, params.heads, tape)
    recon = hd.reconstruct_frames(out.fused, params.heads, tape)
    cls = hd.bce_loss(out.scores, np.asarray(gt_binary, dtype=np.float64), tape) \
        if weights.supervised else None
    parts = hd.LossParts(
        cls=cls,
        repel=hd.repelling_loss(embeddings, tape),
        recon=hd.reconstruction_loss(X, recon, tape),
    )
    return LossBreakdown(total=hd.total_loss(parts, weights, tape), parts=parts,
                         scores=out.scores)
