"""Global diverse attention, local contextual attention, and fusion.

The global path scores every frame pair with a selectable similarity
(dot product, cosine, or negative squared Euclidean distance), normalizes
each column with softmax, and mixes value projections with the column
weights. The local path restricts attention to a +/-R frame window around
each anchor and adds learned relative-position embeddings to the keys.
Each path takes the model, whose shapes were checked when it was built,
and reads its settings (similarity kind and scale, positions, window
radius, variant and boundary) from cfg = params.cfg.

Also houses the 2-D partition-map demonstration: color each point of a
plane by which seed point wins the similarity argmax. With the l2
similarity the result is exactly the Voronoi diagram, which is the
geometric argument for why that similarity diversifies attention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autograd as ag
from .autograd import ContractError, Matrix, NumericError, ShapeError, Tape

if TYPE_CHECKING:  # model imports this module
    from .model import ModelParams

SIMILARITY_KINDS = ("dot", "cosine", "l2")
LCA_VARIANTS = ("literal", "contextual")
BOUNDARY_POLICIES = ("clamp", "zero")


@dataclass(frozen=True)
class GdaParams:
    """Projections of the global attention path. ModelParams checks their
    shapes; the similarity settings are the model's TrainConfig."""

    Wq: Matrix
    Wk: Matrix
    Wv: Matrix


@dataclass(frozen=True)
class LcaParams:
    """Projections and relative embeddings (one row per window slot) of the
    local path. ModelParams checks their shapes for cfg.neighbor_R."""

    Wq2: Matrix
    Wk2: Matrix
    Wv2: Matrix
    rel_pos: Matrix


@dataclass
class AttentionOutput:
    """Attended features plus the normalized weights that produced them.

    For the global path weights is T x T (columns sum to 1), a transposed,
    so Fortran-ordered, view of the buffer the layer mixed the values
    with. For the local path it is T x (2R+1): row h is anchor h's window
    distribution.
    """

    features: Matrix
    weights: np.ndarray


def sinusoidal_positions(frame_count: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position table: pair 2j carries sin and cos of
    i / 10000^(2j/dim). Requires an even dim so pairs close."""
    if dim % 2 != 0:
        raise ContractError(f"position table needs an even dim, got {dim}")
    i = np.arange(frame_count, dtype=np.float64)[:, None]
    j = np.arange(dim // 2, dtype=np.float64)[None, :]
    angles = i / np.power(10000.0, 2.0 * j / dim)
    table = np.zeros((frame_count, dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


_ROW_BLOCK = 32  # rows per pass over a T x T buffer: 0.5 MB of float64 at T=2000


def _row_blocks(n: int):
    """Slices of _ROW_BLOCK consecutive rows covering range(n)."""
    return [slice(i, i + _ROW_BLOCK) for i in range(0, n, _ROW_BLOCK)]


def _similarity(q: np.ndarray, k: np.ndarray, kind: str, scale_q: float):
    """T x T array of s(q_i, k_j) / sqrt(scale_q), and the map from its
    gradient to the gradients of q and of k.

    The l2 kind (-|u-v|^2) is computed in the decomposed form
    2 u.v - |u|^2 - |v|^2, which is two rank-T products instead of a
    T^2 x d expansion and shares its heavy lifting with the dot kind.
    The kind's tail runs in place in the buffer of Q K^T, one block of
    rows at a time, and the gradient map, which scales its argument in
    place, replays the generic-op chain's steps with its numpy and BLAS
    calls, so both have its bytes.
    """
    if q.shape != k.shape:
        raise ShapeError(f"similarity operands differ: {q.shape[0]}x{q.shape[1]} "
                         f"vs {k.shape[0]}x{k.shape[1]}")
    if scale_q <= 0.0:
        raise ContractError(f"scale_q must be positive, got {scale_q}")
    if kind not in SIMILARITY_KINDS:
        raise ContractError(f"unknown similarity kind: {kind!r}")
    kt = k.T.copy()
    sq_q, sq_k = np.sum(q * q, axis=1, keepdims=True), np.sum(k * k, axis=1, keepdims=True)
    if kind == "cosine" and (np.any(sq_q == 0.0) or np.any(sq_k == 0.0)):
        raise NumericError("cosine similarity undefined for zero-norm rows")
    c = 1.0 / np.sqrt(scale_q)
    s = q @ kt
    if kind == "cosine":
        inv_q, inv_k = 1.0 / np.sqrt(sq_q), 1.0 / np.sqrt(sq_k)
    for rows in _row_blocks(len(s)):
        block = s[rows]
        if kind == "cosine":
            block *= inv_q[rows]
            block *= inv_k.T
        elif kind == "l2":
            block *= 2.0
            block -= sq_q[rows]
            block -= sq_k.T
        block *= c

    def grads(g):
        g *= c
        if kind == "cosine":
            dots = q @ kt  # the forward's call again, rather than a stored T x T copy
            d_inv_k = (g * (dots * inv_q)).sum(axis=0, keepdims=True).T
            g *= inv_k.T
            d_inv_q = (g * dots).sum(axis=1, keepdims=True)
            g *= inv_q
            d_sq_k = d_inv_k * (-0.5) * inv_k / sq_k
            d_sq_q = d_inv_q * (-0.5) * inv_q / sq_q
        elif kind == "l2":
            d_sq_k = -g.sum(axis=0, keepdims=True).T
            d_sq_q = -g.sum(axis=1, keepdims=True)
            g *= 2.0
        # C-ordered, as the chain's accumulators are: the norms' shares, then the products'
        gq, gk = np.zeros_like(q), np.zeros_like(k)
        if kind != "dot":
            gq += 2.0 * q * d_sq_q
            gk += 2.0 * k * d_sq_k
        gq += g @ kt.T
        gk += (q.T @ g).T
        return gq, gk

    return s, grads


def pairwise_similarity(Q: np.ndarray, K: np.ndarray, kind: str, scale_q: float) -> np.ndarray:
    """T x T array of s(q_i, k_j) / sqrt(scale_q), for every kind."""
    return _similarity(Q, K, kind, scale_q)[0]


def _softmax_columns(s: np.ndarray) -> np.ndarray:
    """Softmax over each column of `s`, in place. The shift, exp and
    divide run in the order of the three-temporary formula, so the bytes
    equal it; the gradient map is s * (g - (g * s).sum(axis=0)). The
    column max and min, the shift and exp, and the divide each run in
    row blocks, which stay in cache; the column sum is the whole array's.

    NaN and +Inf show in the column maxima and -Inf in the minima, so
    the first pass, which only reads, refuses a non-finite input before
    `s` is touched.
    """
    blocks = _row_blocks(len(s))
    mx, mn = s[blocks[0]].max(axis=0), s[blocks[0]].min(axis=0)
    for rows in blocks[1:]:
        np.maximum(mx, s[rows].max(axis=0), out=mx)
        np.minimum(mn, s[rows].min(axis=0), out=mn)
    if not (np.all(np.isfinite(mx)) and np.all(np.isfinite(mn))):
        raise NumericError("column_softmax: input contains NaN or Inf")
    for rows in blocks:
        block = s[rows]
        block -= mx
        np.exp(block, out=block)
    total = s.sum(axis=0)
    for rows in blocks:
        s[rows] /= total
    return s


_TRANSPOSE_BLOCK = 128  # a 128 KiB tile of float64


def _transpose_in_place(s: np.ndarray) -> np.ndarray:
    """Transpose the square C-ordered array `s` in its own buffer, one
    pair of mirrored tiles at a time."""
    n, b = s.shape[0], _TRANSPOSE_BLOCK
    for i in range(0, n, b):
        rows = slice(i, i + b)
        s[rows, rows] = s[rows, rows].T.copy()
        for j in range(i + b, n, b):
            cols = slice(j, j + b)
            upper = s[rows, cols].copy()
            s[rows, cols] = s[cols, rows].T
            s[cols, rows] = upper.T
    return s


def _check_features(path: str, X: np.ndarray, d: int):
    """Refuse, naming its shape, an X that is not a 2-D T x d array with T >= 1."""
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] != d:
        got = "x".join(map(str, X.shape)) if X.ndim == 2 else f"shape {X.shape}"
        raise ShapeError(f"{path} attention needs T x {d} features with T >= 1, got {got}")


def gda_forward(X: np.ndarray, params: ModelParams, tape: Tape | None = None) -> AttentionOutput:
    """Global attention over all frame pairs, scored with cfg.sim_kind
    scaled by cfg.scale_q (0 means the feature dim).

    With cfg.use_positions, the position table is added on the query/key
    path only; values always project the raw features. Output row j mixes
    the value rows with the j-th column of the normalized weights.

    One record, adding gradient only to Wq, Wk and Wv; the features,
    positions and weights are constants. The T x T similarity buffer is
    the only one the forward holds, with or without a tape: scored and
    softmaxed in place in row blocks, then transposed in place so its
    product with V is the chain's BLAS call on the copied transpose (a
    transposed view's product can differ in the last bit). It stays
    transposed: the weights are its transposed view. The backward
    repeats the chain's numpy and BLAS calls: Wv's share, the weights'
    gradient, then Wk's and Wq's shares. It holds one more T x T buffer,
    the weights' gradient, and runs the softmax and similarity steps in
    place in it. Of the shapes, only X's is checked here.
    """
    p, cfg = params.gda, params.cfg
    _check_features("global", X, p.Wq.rows)
    x = xp = X
    if cfg.use_positions:
        xp = x + sinusoidal_positions(*X.shape)
    v = x @ p.Wv.data
    scale_q = cfg.scale_q or float(p.Wq.rows)
    with np.errstate(over="ignore", invalid="ignore"):  # the softmax refuses the overflow
        s, sim_grads = _similarity(xp @ p.Wq.data, xp @ p.Wk.data, cfg.sim_kind, scale_q)
    wt = _transpose_in_place(_softmax_columns(s))
    mixed = wt @ v

    def shares(g):
        yield x.T @ (wt.T @ g)
        # the chain's accumulator for the weights: the bytes of zeros plus the share
        g_w = np.add((g @ v.T).T, 0.0, out=np.empty(wt.shape))
        g_w -= np.multiply(g_w, wt.T, order="C").sum(axis=0, keepdims=True)
        g_w *= wt.T
        gq, gk = sim_grads(g_w)
        yield xp.T @ gk
        yield xp.T @ gq

    features = ag._record(tape, mixed, (p.Wv, p.Wk, p.Wq), shares)
    return AttentionOutput(features=features, weights=wt.T)


def _row_window(a: np.ndarray, start: int, count: int):
    """Rows clip(start + t, 0, len(a) - 1) of `a` for t < count, and the map of
    their gradient back onto `a`: it adds the gradient rows into each source
    row in output-row order, so its bytes equal a scatter-add."""
    n = len(a)
    lead = min(max(-start, 0), count)  # output rows clamped to row 0
    end = min(max(n - start, 0), count)  # rows [lead, end) are in range, the rest clamp high
    out = np.empty((count, a.shape[1]))
    out[:lead] = a[0]
    out[lead:end] = a[start + lead:start + end]
    out[end:] = a[n - 1]

    def scatter(g):
        rows = np.zeros_like(a)
        for t in range(lead):
            rows[0] += g[t]
        rows[start + lead:start + end] += g[lead:end]
        for t in range(end, count):
            rows[n - 1] += g[t]
        return rows

    return out, scatter


def lca_forward(X: np.ndarray, params: ModelParams, tape: Tape | None = None) -> AttentionOutput:
    """Windowed attention around every anchor frame, all anchors at once,
    with R = cfg.neighbor_R, cfg.lca_variant and cfg.window_boundary.

    Window slot o of anchor h holds frame h+o-R. Its score against the
    anchor is q_(h+o-R) . (k_h + a_|o-R|) / sqrt(d), and each anchor's
    2R+1 scores are softmax-normalized. This is column R, the anchor's
    column, of the per-anchor block B_ij = q_i . (k_j + a_|i-j|) / sqrt(d)
    with column normalization; no other column of that block reaches the
    output, so only this one is computed (the suite pins it to the
    full-block loop oracle). Past the ends, the clamp policy repeats the
    edge frames and the zero policy uses zero query and value rows. The
    contextual variant mixes the window's value rows with the weights;
    the literal variant multiplies the anchor's value row by their sum,
    which normalization pins to 1 (kept for fidelity, see the collapse
    test).

    One record for any variant, policy and R, adding gradient only to
    the projections and rel_pos. It repeats the op chain's numpy and BLAS
    calls: Wv2's share, the weights' gradient, rel_pos's shares slot by
    slot, then Wk2's and Wq2's. Of the shapes, only X's is checked here.
    """
    p, cfg = params.lca, params.cfg
    _check_features("local", X, p.Wq2.rows)
    T, d = X.shape
    R, span = cfg.neighbor_R, 2 * cfg.neighbor_R + 1
    x, wq, wk, wv, rel = X, p.Wq2.data, p.Wk2.data, p.Wv2.data, p.rel_pos.data
    q, k, v = x @ wq, x @ wk, x @ wv

    def shifted(m: np.ndarray, o: int):
        """Slot o of every anchor's window, from m, and its gradient map."""
        rows, scatter = _row_window(m, o - R, T)
        if cfg.window_boundary == "clamp":
            return rows, scatter
        src = np.arange(T) + o - R
        mask = ((src >= 0) & (src < T)).astype(np.float64)[:, None]
        return rows * mask, lambda g: scatter(g * mask)

    ones_d, c = np.ones((d, 1)), 1.0 / np.sqrt(d)
    s = np.empty((span, T))
    with np.errstate(over="ignore", invalid="ignore"):  # the softmax refuses the overflow
        for o in range(span):
            s[o] = ((shifted(q, o)[0] * (k + rel[abs(o - R)])) @ ones_d)[:, 0] * c
    w = _softmax_columns(s).T.copy()  # T x (2R+1)

    if cfg.lca_variant == "literal":  # summed weights times the anchor's own value row
        total = w @ np.ones((span, 1))
        mixed = v * total
    else:
        mixed = shifted(v, 0)[0] * w[:, :1]
        for o in range(1, span):
            mixed += shifted(v, o)[0] * w[:, o:o + 1]

    def shares(g):
        if cfg.lca_variant == "literal":
            g_w, gv = (g * v).sum(axis=1, keepdims=True) @ np.ones((1, span)), g * total
        else:
            g_w, gv = np.empty((T, span)), np.zeros_like(v)
            for o in reversed(range(span)):
                rows, scatter = shifted(v, o)
                g_w[:, o] = (g * rows).sum(axis=1)
                gv += scatter(g * w[:, o:o + 1])
        yield x.T @ gv
        g_wt = (np.zeros_like(w) + g_w).T  # the chain's accumulator for the weights
        g = s * (g_wt - (g_wt * s).sum(axis=0, keepdims=True)) * c
        gq, gk = np.zeros_like(q), np.zeros_like(k)
        for o in reversed(range(span)):
            rows, scatter = shifted(q, o)
            g_key = g[o][:, None] * rows
            share = np.zeros_like(rel)
            share[abs(o - R)] = g_key.sum(axis=0)
            gq += scatter(g[o][:, None] * (k + rel[abs(o - R)]))
            gk += g_key
            yield share
        yield from (x.T @ gk, x.T @ gq)

    features = ag._record(tape, mixed, (p.Wv2, *(p.rel_pos,) * span, p.Wk2, p.Wq2), shares)
    return AttentionOutput(features=features, weights=w)


def dca_fuse(X: np.ndarray, Xg: Matrix | None, Xl: Matrix | None,
             tape: Tape | None = None) -> Matrix:
    """Diversified contextual features: raw + global + local, elementwise, as
    one record. A path that did not run is None and adds 0.0, the bytes of
    adding zeros. X is a constant: only the paths that ran get a share."""
    ran = [m for m in (Xg, Xl) if m is not None]
    if any(m.shape != X.shape for m in ran):
        raise ShapeError(f"fusion operands differ: {[X.shape] + [m.shape for m in ran]}")
    fused = X + (Xg.data if Xg is not None else 0.0) + (Xl.data if Xl is not None else 0.0)
    return ag._record(tape, fused, tuple(reversed(ran)), lambda g: (g,) * len(ran))


# ---------------------------------------------------------------------------
# partition-map demonstration


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid for the partition map."""

    xmin: float = 0.0
    xmax: float = 1.0
    ymin: float = 0.0
    ymax: float = 1.0
    nx: int = 200
    ny: int = 200

    def __post_init__(self):
        top = np.iinfo(np.intp).max  # the largest size numpy can index
        if not 1 <= min(self.nx, self.ny) <= max(self.nx, self.ny) <= top:
            raise ContractError(f"grid sizes must be in [1, {top}], got {self.nx} x {self.ny}")


def partition_map(points, kind: str, grid: GridSpec = GridSpec()):
    """Winner index of the similarity argmax at each grid cell.

    Returns (winners, xs, ys): winners[iy, ix] is the index of the point
    with the highest similarity to grid cell (xs[ix], ys[iy]); the lowest
    index wins ties. l2 winners form the Voronoi partition of the points.
    Cosine treats a zero-norm operand as similarity 0 (the grid may
    contain the origin).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ContractError("partition map needs at least two 2-D points")
    if not np.all(np.isfinite(pts)):
        raise NumericError("partition map points must be finite")
    if np.all(pts == pts[0]):
        raise ContractError("degenerate point set: all points identical")
    if kind not in SIMILARITY_KINDS:
        raise ContractError(f"unknown similarity kind: {kind!r}")
    xs = np.linspace(grid.xmin, grid.xmax, grid.nx)
    ys = np.linspace(grid.ymin, grid.ymax, grid.ny)
    gx = xs[None, :]
    gy = ys[:, None]
    sims = np.zeros((pts.shape[0], grid.ny, grid.nx))
    for k, (px, py) in enumerate(pts):
        if kind == "l2":
            sims[k] = -((gx - px) ** 2 + (gy - py) ** 2)
        elif kind == "dot":
            sims[k] = gx * px + gy * py
        else:
            dot = gx * px + gy * py
            norm_u = np.sqrt(gx * gx + gy * gy)
            norm_p = np.sqrt(px * px + py * py)
            denom = norm_u * norm_p
            with np.errstate(invalid="ignore", divide="ignore"):
                c = np.where(denom > 0.0, dot / np.where(denom > 0.0, denom, 1.0), 0.0)
            sims[k] = c
    winners = np.argmax(sims, axis=0)
    return winners, xs, ys


def partition_map_csv(points, kind: str, grid: GridSpec = GridSpec()) -> str:
    """Partition map as CSV text with header x,y,winner_index."""
    winners, xs, ys = partition_map(points, kind, grid)
    lines = ["x,y,winner_index"]
    for iy in range(len(ys)):
        for ix in range(len(xs)):
            lines.append(f"{xs[ix]:.8g},{ys[iy]:.8g},{winners[iy, ix]}")
    return "\n".join(lines) + "\n"
