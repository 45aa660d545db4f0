"""Prediction heads and the three-term training objective.

Three heads read the fused frame features: a score head mapping each
frame to an importance probability, a linear embedding head feeding the
repelling loss, and a two-layer reconstruction head; each takes the
model, which checked their shapes when it was built. The combined
objective is classification + alpha * repelling + beta * reconstruction,
with the classification term dropped in unsupervised mode.

Each head, loss and the weighted total is one tape record that repeats
its generic-op chain's numpy and BLAS steps, so it keeps the chain's
bytes.

Note on the reconstruction head: its final sigmoid, the config's
recon_final_sigmoid, is off by default because ingested features are
generally unbounded; a sigmoid output could then never match them. Enable
it only for datasets whose features are scaled to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autograd as ag
from .autograd import ContractError, Matrix, NumericError, ShapeError, Tape

if TYPE_CHECKING:  # model imports this module
    from .config import TrainConfig
    from .model import ModelParams

BCE_EPS = 1e-7


@dataclass(frozen=True)
class Affine:
    """One fully-connected layer: x @ W + b with b broadcast over rows."""

    W: Matrix
    b: Matrix


@dataclass(frozen=True)
class HeadParams:
    """The three heads' layers. ModelParams checks the model's shapes."""

    score1: Affine  # d -> d, ReLU after
    score2: Affine  # d -> 1, sigmoid after
    embed: Affine  # d -> d, purely linear
    recon1: Affine  # d -> d, sigmoid after
    recon2: Affine  # d -> d, sigmoid optional (see module note)


@dataclass
class LossParts:
    """The scalar loss terms, pre-weighting. cls is None in unsupervised runs."""

    cls: Matrix | None
    repel: Matrix
    recon: Matrix


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # split by sign for stability at large |x|
    pos = x >= 0
    s = np.empty_like(x)
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    s[~pos] = e / (1.0 + e)
    return s


def _layers(x: Matrix, layers, tape: Tape | None) -> Matrix:
    """The affine layers, each followed by its activation ("relu",
    "sigmoid" or None), as one record. Each layer computes x @ W, then
    adds b in place; the backward runs the layers' reverse steps with the
    generic-op chain's numpy and BLAS calls. Only x's width is checked,
    against the first layer: the model checked the layers' shapes."""
    first = layers[0][0].W
    if x.cols != first.rows:
        raise ShapeError(f"affine input {x.rows}x{x.cols}, weight {first.rows}x{first.cols}")
    inputs, outputs = [], []
    out = x.data
    for layer, act in layers:
        inputs.append(out)
        out = out @ layer.W.data
        out += layer.b.data
        out = np.maximum(out, 0.0) if act == "relu" else _sigmoid(out) if act else out
        outputs.append(out)

    def shares(g):
        for (layer, act), a, out in reversed(list(zip(layers, inputs, outputs))):
            if act == "relu":
                g = g * (out > 0.0)
            elif act == "sigmoid":
                g = g * out * (1.0 - out)
            yield g.sum(axis=0, keepdims=True)
            yield a.T @ g
            g = g @ layer.W.data.T
        yield g

    params = [m for layer, _ in reversed(layers) for m in (layer.b, layer.W)]
    return ag._record(tape, out, (*params, x), shares)


def score_frames(Xt: Matrix, params: ModelParams, tape: Tape | None = None) -> Matrix:
    """Per-frame importance in (0,1): sigmoid(affine2(relu(affine1(x))))."""
    return _layers(Xt, ((params.heads.score1, "relu"), (params.heads.score2, "sigmoid")), tape)


def embed_frames(Xt: Matrix, params: ModelParams, tape: Tape | None = None) -> Matrix:
    """Linear embedding feeding the repelling loss; deliberately no activation."""
    return _layers(Xt, ((params.heads.embed, None),), tape)


def reconstruct_frames(Xt: Matrix, params: ModelParams, tape: Tape | None = None) -> Matrix:
    """affine2(sigmoid(affine1(x))), through a sigmoid when cfg.recon_final_sigmoid."""
    h, final = params.heads, "sigmoid" if params.cfg.recon_final_sigmoid else None
    return _layers(Xt, ((h.recon1, "sigmoid"), (h.recon2, final)), tape)


def bce_loss(y: Matrix, gt, tape: Tape | None = None) -> Matrix:
    """Mean binary cross-entropy of predicted probabilities y (T x 1)
    against 0/1 targets, with predictions clipped to [eps, 1-eps].

    The targets, a sequence of T values read as an array, are constants:
    only y gets a share."""
    t = np.asarray(gt, dtype=np.float64).reshape(-1, 1)
    if y.cols != 1:
        raise ShapeError("bce_loss expects column vectors")
    if y.rows != len(t):
        raise ShapeError(f"prediction/target lengths differ: {y.rows} vs {len(t)}")
    T, y_data = y.rows, y.data
    yc = np.clip(y_data, BCE_EPS, 1.0 - BCE_EPS)
    ones = np.ones((T, 1))
    not_t, not_yc = ones - t, ones - yc
    c = -1.0 / T
    total = np.full((1, 1), float((t * np.log(yc) + not_t * np.log(not_yc)).sum())) * c

    def shares(g):
        g = np.full((T, 1), (g * c)[0, 0])
        g_yc = -(g * not_t / not_yc) + g * t / yc
        yield g_yc * ((y_data >= BCE_EPS) & (y_data <= 1.0 - BCE_EPS))

    return ag._record(tape, total, (y,), shares)


def repelling_loss(E: Matrix, tape: Tape | None = None) -> Matrix:
    """Mean pairwise cosine similarity over distinct embedding rows.

    The diagonal of the cosine Gram matrix is identically 1 with zero
    gradient, so it is removed as the constant T after the full sum.
    The record keeps the unit rows, not the T x T Gram matrix: its
    backward rebuilds the Gram matrix's constant gradient."""
    T = E.rows
    if T < 2:
        raise ContractError(f"repelling loss needs at least 2 rows, got {T}")
    e = E.data
    norms = np.sum(e * e, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise NumericError("repelling loss undefined for zero-norm embedding rows")
    inv = 1.0 / np.sqrt(norms)
    unit = e * inv
    unit_t = unit.T.copy()
    c = 1.0 / (T * (T - 1))
    total = (np.full((1, 1), float((unit @ unit_t).sum())) - float(T)) * c

    def shares(g):
        g_gram = np.full((T, T), (g * c)[0, 0])
        g_unit = g_gram @ unit_t.T + (unit.T @ g_gram).T
        yield g_unit * inv
        yield 2.0 * e * ((g_unit * e).sum(axis=1, keepdims=True) * (-0.5) * inv / norms)

    return ag._record(tape, total, (E, E), shares)


def reconstruction_loss(X: np.ndarray, Xrec: Matrix, tape: Tape | None = None) -> Matrix:
    """Mean Euclidean distance (not squared) between the rows of the feature
    array X, a constant, and of Xrec; a zero distance gets subgradient 0."""
    if X.shape != Xrec.shape:
        raise ShapeError(f"shape mismatch: {X.shape} vs {Xrec.shape}")
    diff = X - Xrec.data
    dist = np.sqrt(np.sum(diff * diff, axis=1, keepdims=True))
    c = 1.0 / Xrec.rows
    total = np.full((1, 1), float(dist.sum())) * c

    def shares(g):
        d_dist = np.zeros_like(dist)
        nz = dist > 0.0
        d_dist[nz] = 0.5 / dist[nz]
        yield -(2.0 * diff * (np.full(dist.shape, (g * c)[0, 0]) * d_dist))

    return ag._record(tape, total, (Xrec,), shares)


def total_loss(parts: LossParts, cfg: TrainConfig, tape: Tape | None = None) -> Matrix:
    """cls + cfg.alpha*repel + cfg.beta*recon, where the cls term is there
    exactly when parts.cls is (supervised runs)."""
    alpha, beta = float(cfg.alpha), float(cfg.beta)
    total = parts.repel.data * alpha + parts.recon.data * beta
    operands, shares = (parts.recon, parts.repel), lambda g: (g * beta, g * alpha)
    if parts.cls is not None:
        total = parts.cls.data + total
        operands, shares = (parts.cls, *operands), lambda g, weighted=shares: (g, *weighted(g))
    return ag._record(tape, total, operands, shares)
