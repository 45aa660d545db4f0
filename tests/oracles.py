"""Independent reference implementations the test suite checks against.

Everything here is deliberately written the slow, obvious way: explicit
Python loops, no shared code with the package under test, no clever
vectorization. When a package op and its oracle agree, the agreement is
evidence, not circularity. The exceptions are the generic autograd ops
below and the chains built from them for global and local attention,
the heads and the losses: the chains pin the fused ops' bytes, and
their ops are checked against finite differences on their own. Like
the layers they pin, the chains take the model (`model_with` builds one
from the matrices a test draws) and read its matrices and settings.
"""

import math
import warnings

import numpy as np

from divsum import autograd as ag
from divsum.autograd import Matrix, Tape
from divsum.model import PARAMETERS, ModelParams


def model_with(d, cfg, mats):
    """The model of feature dim d with the settings of cfg, made of the
    matrices `mats` (keyed by PARAMETERS names) and zeros for the rest.
    Built as any model is, so a misshapen matrix is refused here."""
    size = {"d": d, "span": 2 * cfg.neighbor_R + 1, 1: 1}
    return ModelParams.from_named(
        {name: mats[name] if name in mats else Matrix(np.zeros((size[rows], size[cols])))
         for name, rows, cols in PARAMETERS}, cfg)


# ---------------------------------------------------------------------------
# finite differences


def finite_difference_grads(f, mats, step=1e-5):
    """Central-difference gradient of scalar f() w.r.t. every entry of mats.

    f is a zero-argument callable that recomputes the loss from the current
    contents of the matrices. Entries are perturbed in place and restored.
    Returns one numpy array per matrix.
    """
    grads = []
    for m in mats:
        g = np.zeros_like(m.data)
        flat = m.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            fp = f()
            flat[i] = keep - step
            fm = f()
            flat[i] = keep
            gflat[i] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return grads


def finite_difference_sampled(f, mats, rng, per_mat=4, step=1e-5):
    """Like finite_difference_grads but only at a few sampled coordinates.

    Returns (indices, values) lists: for each matrix, the flat coordinate
    indices probed and the centered-difference derivative at each.
    """
    all_idx, all_val = [], []
    for m in mats:
        flat = m.data.reshape(-1)
        k = min(per_mat, flat.size)
        idx = rng.choice(flat.size, size=k, replace=False)
        val = np.zeros(k)
        for t, i in enumerate(idx):
            keep = flat[i]
            flat[i] = keep + step
            fp = f()
            flat[i] = keep - step
            fm = f()
            flat[i] = keep
            val[t] = (fp - fm) / (2.0 * step)
        all_idx.append(idx)
        all_val.append(val)
    return all_idx, all_val


# ---------------------------------------------------------------------------
# generic ops: recorded elementwise, product and reduction ops the
# reference chains are built from


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum gradient g down to `shape` across any broadcast axes."""
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _broadcast_shape(a: Matrix, b: Matrix, op: str) -> tuple[int, int]:
    try:
        return np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ag.ShapeError(
            f"{op}: shapes {a.rows}x{a.cols} and {b.rows}x{b.cols} do not broadcast"
        ) from None


def _record(tape, data, *pairs):
    """ag._record for (operand, fn) pairs, fn mapping the output's gradient
    to its operand's share, in the order given."""
    operands = tuple(m for m, _ in pairs)
    return ag._record(tape, data, operands, lambda g: (fn(g) for _, fn in pairs))


def matmul(a: Matrix, b: Matrix, tape: Tape | None = None) -> Matrix:
    """Standard matrix product a @ b."""
    if a.cols != b.rows:
        raise ag.ShapeError(
            f"matmul: inner dimensions disagree, {a.rows}x{a.cols} @ {b.rows}x{b.cols}"
        )
    a_data, b_data = a.data, b.data
    return _record(tape, a_data @ b_data,
                   (a, lambda g: g @ b_data.T), (b, lambda g: a_data.T @ g))


def transpose(a: Matrix, tape: Tape | None = None) -> Matrix:
    return _record(tape, a.data.T.copy(), (a, lambda g: g.T))


def add(a: Matrix, b: Matrix, tape: Tape | None = None) -> Matrix:
    """Elementwise sum; an operand with a length-1 axis broadcasts."""
    _broadcast_shape(a, b, "add")
    return _record(tape, a.data + b.data,
                   (a, lambda g: _unbroadcast(g, a.shape)),
                   (b, lambda g: _unbroadcast(g, b.shape)))


def relu(a: Matrix, tape: Tape | None = None) -> Matrix:
    a_data = a.data
    return _record(tape, np.maximum(a_data, 0.0), (a, lambda g: g * (a_data > 0.0)))


def sigmoid(a: Matrix, tape: Tape | None = None) -> Matrix:
    # split by sign for stability at large |x|
    x = a.data
    pos = x >= 0
    s = np.empty_like(x)
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    s[~pos] = e / (1.0 + e)
    return _record(tape, s, (a, lambda g: g * s * (1.0 - s)))


def subtract(a: Matrix, b: Matrix, tape: Tape | None = None) -> Matrix:
    _broadcast_shape(a, b, "subtract")
    return _record(tape, a.data - b.data,
                   (a, lambda g: _unbroadcast(g, a.shape)),
                   (b, lambda g: -_unbroadcast(g, b.shape)))


def multiply(a: Matrix, b: Matrix, tape: Tape | None = None) -> Matrix:
    """Elementwise (Hadamard) product with the same broadcasting as add."""
    _broadcast_shape(a, b, "multiply")
    a_data, b_data = a.data, b.data
    return _record(tape, a_data * b_data,
                   (a, lambda g: _unbroadcast(g * b_data, a_data.shape)),
                   (b, lambda g: _unbroadcast(g * a_data, b_data.shape)))


def scale(a: Matrix, c: float, tape: Tape | None = None) -> Matrix:
    """Multiply every entry by the constant c."""
    c = float(c)
    return _record(tape, a.data * c, (a, lambda g: g * c))


def log(a: Matrix, tape: Tape | None = None) -> Matrix:
    """Natural log; entries must be strictly positive."""
    if np.any(a.data <= 0.0):
        raise ag.NumericError("log: input has non-positive entries")
    a_data = a.data
    return _record(tape, np.log(a_data), (a, lambda g: g / a_data))


def sqrt(a: Matrix, tape: Tape | None = None) -> Matrix:
    """Elementwise square root; zero entries get subgradient 0."""
    if np.any(a.data < 0.0):
        raise ag.NumericError("sqrt: input has negative entries")
    root = np.sqrt(a.data)

    def grad(g):
        d = np.zeros_like(root)
        nz = root > 0.0
        d[nz] = 0.5 / root[nz]
        return g * d

    return _record(tape, root, (a, grad))


def rsqrt(a: Matrix, tape: Tape | None = None) -> Matrix:
    """Elementwise 1/sqrt(x); entries must be strictly positive."""
    if np.any(a.data <= 0.0):
        raise ag.NumericError("rsqrt: input has non-positive entries")
    a_data = a.data
    val = 1.0 / np.sqrt(a_data)
    return _record(tape, val, (a, lambda g: g * (-0.5) * val / a_data))


def clip(a: Matrix, lo: float, hi: float, tape: Tape | None = None) -> Matrix:
    """Clamp to [lo, hi]; gradient passes through unclipped entries only."""
    a_data = a.data
    return _record(tape, np.clip(a_data, lo, hi),
                   (a, lambda g: g * ((a_data >= lo) & (a_data <= hi))))


def sum_all(a: Matrix, tape: Tape | None = None) -> Matrix:
    """Sum of all entries, as a 1x1 matrix."""
    shape = a.shape
    return _record(tape, np.full((1, 1), float(a.data.sum())),
                   (a, lambda g: np.full(shape, g[0, 0])))


def column_softmax(a: Matrix, tape: Tape | None = None) -> Matrix:
    """Softmax over each column (the first index), max-stabilized. The
    shift, exp and divide run in place in one copy of the input, in the
    order of the three-temporary formula, so the bytes equal it."""
    s = a.data.copy()
    if not np.all(np.isfinite(s)):
        raise ag.NumericError("column_softmax: input contains NaN or Inf")
    s -= s.max(axis=0, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=0, keepdims=True)
    return _record(tape, s, (a, lambda g: s * (g - (g * s).sum(axis=0, keepdims=True))))


def row_norms_squared(a: Matrix, tape: Tape | None = None) -> Matrix:
    """Column vector of squared Euclidean row norms."""
    a_data = a.data
    return _record(tape, np.sum(a_data * a_data, axis=1, keepdims=True),
                   (a, lambda g: 2.0 * a_data * g))


# ---------------------------------------------------------------------------
# attention references


def sinusoid_table(n, d):
    table = np.zeros((n, d))
    for i in range(n):
        for c in range(d):
            j = c // 2
            angle = i / (10000.0 ** (2.0 * j / d))
            table[i, c] = np.sin(angle) if c % 2 == 0 else np.cos(angle)
    return table


def naive_similarity(Q, K, kind, scale_q):
    T = Q.shape[0]
    A = np.zeros((T, T))
    for i in range(T):
        for j in range(T):
            u, v = Q[i], K[j]
            if kind == "dot":
                s = float(np.dot(u, v))
            elif kind == "cosine":
                s = float(np.dot(u, v)) / (
                    np.sqrt(float(np.dot(u, u))) * np.sqrt(float(np.dot(v, v)))
                )
            elif kind == "l2":
                s = 0.0
                for a, b in zip(u, v):
                    s -= (a - b) ** 2
            else:
                raise ValueError(kind)
            A[i, j] = s / np.sqrt(scale_q)
    return A


def column_softmax_loops(A):
    out = np.zeros_like(A)
    for j in range(A.shape[1]):
        col = A[:, j]
        e = np.exp(col - col.max())
        out[:, j] = e / e.sum()
    return out


def naive_global_attention(X, Wq, Wk, Wv, kind, scale_q, positions=None):
    """Loop reference for the global path: project, score, column-normalize,
    mix values with column weights. Positions (if given) touch only Q/K."""
    T, d = X.shape
    Xp = X + positions if positions is not None else X
    Q = Xp @ Wq
    K = Xp @ Wk
    V = X @ Wv
    A = naive_similarity(Q, K, kind, scale_q)
    At = column_softmax_loops(A)
    out = np.zeros((T, d))
    for j in range(T):
        for i in range(T):
            out[j] += At[i, j] * V[i]
    return out, At


def similarity_chain(Q, K, kind, scale_q, tape=None):
    """pairwise_similarity as a chain of generic autograd ops, one record
    each: 10 records for cosine, 9 for l2, 3 for dot."""
    c = 1.0 / np.sqrt(scale_q)
    dots = matmul(Q, transpose(K, tape), tape)
    if kind == "dot":
        sim = dots
    elif kind == "cosine":
        inv_q = rsqrt(row_norms_squared(Q, tape), tape)
        inv_k = rsqrt(row_norms_squared(K, tape), tape)
        sim = multiply(multiply(dots, inv_q, tape), transpose(inv_k, tape), tape)
    else:
        twice_dots = scale(dots, 2.0, tape)
        sq_q = row_norms_squared(Q, tape)
        sq_k = row_norms_squared(K, tape)
        sim = subtract(subtract(twice_dots, sq_q, tape), transpose(sq_k, tape), tape)
    return scale(sim, c, tape)


def gda_chain(X, params, positions, tape=None):
    """gda_forward as a chain of generic autograd ops: (features, weights).
    positions is the table params.cfg adds, or None."""
    p, cfg = params.gda, params.cfg
    Xp = add(X, positions, tape) if positions is not None else X
    Q = matmul(Xp, p.Wq, tape)
    K = matmul(Xp, p.Wk, tape)
    V = matmul(X, p.Wv, tape)
    scale_q = cfg.scale_q or float(p.Wq.rows)
    At = column_softmax(similarity_chain(Q, K, cfg.sim_kind, scale_q, tape), tape)
    return matmul(transpose(At, tape), V, tape), At


def naive_local_attention(X, Wq, Wk, Wv, rel, radius, variant, boundary="clamp"):
    """Per-anchor loop reference for the windowed path: the full
    (2R+1) x (2R+1) score block per anchor, column-normalized, of which
    column R (the anchor's) weights the output. Past the ends, the clamp
    boundary repeats the edge frames; the zero boundary uses all-zero
    query, key and value rows."""
    T, d = X.shape
    W = 2 * radius + 1
    Q = X @ Wq
    K = X @ Wk
    V = X @ Wv
    zero = np.zeros(d)

    def slot(M, i):
        if boundary == "clamp":
            return M[min(max(i, 0), T - 1)]
        if boundary == "zero":
            return M[i] if 0 <= i < T else zero
        raise ValueError(boundary)

    out = np.zeros((T, d))
    weights = np.zeros((T, W))
    for h in range(T):
        frames = [h - radius + t for t in range(W)]
        B = np.zeros((W, W))
        for i in range(W):
            for j in range(W):
                k_vec = slot(K, frames[j]) + rel[abs(i - j)]
                B[i, j] = float(np.dot(slot(Q, frames[i]), k_vec)) / np.sqrt(d)
        Bt = column_softmax_loops(B)
        weights[h] = Bt[:, radius]
        if variant == "contextual":
            for r in range(W):
                out[h] += Bt[r, radius] * slot(V, frames[r])
        elif variant == "literal":
            out[h] = Bt[:, radius].sum() * V[h]
        else:
            raise ValueError(variant)
    return out, weights


def gather_rows(a, indices, tape=None):
    """Rows `indices` of the matrix a, as one recorded op. Its backward
    adds every gradient row into its source row in index order, by
    np.add.at into fresh zeros."""
    idx = np.asarray(indices, dtype=np.intp)

    def scatter(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, idx, g)
        return grad

    return _record(tape, a.data[idx], (a, scatter))


def stack_rows(mats, tape=None):
    """np.vstack of the matrices, as one recorded op that hands each
    matrix its rows of the gradient."""
    offsets = np.cumsum([0] + [m.rows for m in mats])
    return _record(tape, np.vstack([m.data for m in mats]),
                   *((m, lambda g, lo=lo, hi=hi: g[lo:hi])
                     for m, lo, hi in zip(mats, offsets[:-1], offsets[1:])))


def lca_chain(X, params, tape=None):
    """lca_forward as a chain of generic autograd ops: (features, weights).

    Per window slot o it gathers the slot's query rows (zeroed past the
    ends under the zero policy), adds the slot's relative embedding to
    the keys, and sums their product through a product with a ones
    column; the slots' score rows are stacked, scaled, column-softmaxed
    and transposed. The contextual variant adds the slots' value rows,
    each times its weight column (picked by a one-hot product); the
    literal one scales the value rows by the summed weights."""
    p, cfg = params.lca, params.cfg
    T, d = X.shape
    R = cfg.neighbor_R
    span = 2 * R + 1
    Q = matmul(X, p.Wq2, tape)
    K = matmul(X, p.Wk2, tape)
    V = matmul(X, p.Wv2, tape)

    def shifted(M, o):
        src = np.arange(T) + o - R
        rows = gather_rows(M, np.clip(src, 0, T - 1), tape)
        if cfg.window_boundary == "zero":
            rows = multiply(rows, Matrix(((src >= 0) & (src < T))[:, None]), tape)
        return rows

    ones_d = Matrix(np.ones((d, 1)))
    score_rows = []
    for o in range(span):
        key = add(K, gather_rows(p.rel_pos, [abs(o - R)], tape), tape)
        score = matmul(multiply(shifted(Q, o), key, tape), ones_d, tape)
        score_rows.append(transpose(score, tape))
    B = scale(stack_rows(score_rows, tape), 1.0 / np.sqrt(d), tape)
    weights = transpose(column_softmax(B, tape), tape)
    if cfg.lca_variant == "contextual":
        features = None
        for o in range(span):
            slot = matmul(weights, Matrix((np.arange(span) == o)[:, None]), tape)
            term = multiply(shifted(V, o), slot, tape)
            features = term if features is None else add(features, term, tape)
    else:
        features = multiply(V, matmul(weights, Matrix(np.ones((span, 1))), tape), tape)
    return features, weights


# ---------------------------------------------------------------------------
# head and loss chains


def affine_chain(layer, x, tape=None):
    """One affine layer as a chain of generic autograd ops: x @ W, then + b."""
    return add(matmul(x, layer.W, tape), layer.b, tape)


def score_chain(Xt, params, tape=None):
    """score_frames as a chain of generic autograd ops, 6 records."""
    h = params.heads
    hidden = relu(affine_chain(h.score1, Xt, tape), tape)
    return sigmoid(affine_chain(h.score2, hidden, tape), tape)


def embed_chain(Xt, params, tape=None):
    """embed_frames as a chain of generic autograd ops, 2 records."""
    return affine_chain(params.heads.embed, Xt, tape)


def reconstruct_chain(Xt, params, tape=None):
    """reconstruct_frames as a chain of generic autograd ops: 5 records,
    6 with the final sigmoid."""
    h = params.heads
    out = affine_chain(h.recon2, sigmoid(affine_chain(h.recon1, Xt, tape), tape), tape)
    return sigmoid(out, tape) if params.cfg.recon_final_sigmoid else out


def bce_chain(y, gt, tape=None, eps=1e-7):
    """bce_loss as a chain of generic autograd ops, 10 records."""
    target = Matrix(np.reshape(gt, (-1, 1)))
    T = y.rows
    yc = clip(y, eps, 1.0 - eps, tape)
    ones = Matrix(np.ones((T, 1)))
    pos = multiply(target, log(yc, tape), tape)
    neg = multiply(subtract(ones, target, tape), log(subtract(ones, yc, tape), tape), tape)
    return scale(sum_all(add(pos, neg, tape), tape), -1.0 / T, tape)


def repelling_chain(E, tape=None):
    """repelling_loss as a chain of generic autograd ops, 8 records: the
    cosine Gram matrix of the unit rows, summed, less its diagonal T."""
    T = E.rows
    unit = multiply(E, rsqrt(row_norms_squared(E, tape), tape), tape)
    gram = matmul(unit, transpose(unit, tape), tape)
    off_diag = subtract(sum_all(gram, tape), Matrix([[float(T)]]), tape)
    return scale(off_diag, 1.0 / (T * (T - 1)), tape)


def reconstruction_chain(X, Xrec, tape=None):
    """reconstruction_loss as a chain of generic autograd ops, 5 records."""
    dist = sqrt(row_norms_squared(subtract(X, Xrec, tape), tape), tape)
    return scale(sum_all(dist, tape), 1.0 / X.rows, tape)


def total_loss_chain(parts, cfg, tape=None):
    """total_loss as a chain of generic autograd ops: 4 records, 3 when
    unsupervised (parts.cls is None)."""
    weighted = add(scale(parts.repel, cfg.alpha, tape), scale(parts.recon, cfg.beta, tape), tape)
    return add(parts.cls, weighted, tape) if parts.cls is not None else weighted


def nearest_direction_gaps(x, y, points):
    """Each 2-D point's angle to the direction of (x, y), in [0, pi]."""
    gaps = []
    for px, py in points:
        turn = math.atan2(y, x) - math.atan2(py, px)
        gaps.append(abs((turn + math.pi) % (2.0 * math.pi) - math.pi))
    return gaps


def nearest_point_index(x, y, points):
    """Index of the Euclidean-closest 2-D point; first wins ties."""
    best = None
    best_i = -1
    for i, (px, py) in enumerate(points):
        d2 = (x - px) ** 2 + (y - py) ** 2
        if best is None or d2 < best:
            best = d2
            best_i = i
    return best_i


# ---------------------------------------------------------------------------
# optimizer reference


def allocating_adam_step(params, grads, m, v, step, lr, weight_decay,
                         beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update with bias correction, then decoupled weight decay,
    written as whole-array expressions that allocate a result each. The
    arguments are lists of arrays; params, m and v are replaced in their
    lists, not written through. `step` is the step number after this one."""
    corr1 = 1.0 - beta1 ** step
    corr2 = 1.0 - beta2 ** step
    for i, g in enumerate(grads):
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
        p = params[i] - lr * (m[i] / corr1) / (np.sqrt(v[i] / corr2) + eps)
        if weight_decay != 0.0:
            p = p - lr * weight_decay * p
        params[i] = p


# ---------------------------------------------------------------------------
# loss references


def loop_bce(y, gt, eps=1e-7):
    total = 0.0
    for p, t in zip(y, gt):
        p = min(max(p, eps), 1.0 - eps)
        total += -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
    return total / len(y)


def loop_repelling(E):
    T = E.shape[0]
    total = 0.0
    for i in range(T):
        for j in range(T):
            if i == j:
                continue
            u, v = E[i], E[j]
            total += float(np.dot(u, v)) / (
                np.sqrt(float(np.dot(u, u))) * np.sqrt(float(np.dot(v, v)))
            )
    return total / (T * (T - 1))


def loop_reconstruction(X, Xrec):
    T = X.shape[0]
    total = 0.0
    for i in range(T):
        total += np.sqrt(float(((X[i] - Xrec[i]) ** 2).sum()))
    return total / T


def loop_shot_means(y, starts, lengths):
    means = []
    for s, l in zip(starts, lengths):
        means.append(sum(y[s:s + l]) / l)
    return means


# ---------------------------------------------------------------------------
# F-score references


def loop_fscore(pred, user):
    """Frame F-score as a percentage, counting the frames one at a time."""
    hits = picked = wanted = 0
    for p, u in zip(pred, user):
        picked += int(p != 0)
        wanted += int(u != 0)
        hits += int(p != 0 and u != 0)
    if hits == 0:
        return 0.0
    prec, rec = hits / picked, hits / wanted
    return 200.0 * prec * rec / (prec + rec)


def leave_one_out_human_f(users, agg):
    """Annotator agreement by a double loop: user i against every user
    j != i, the max or the mean over those, then the mean over i."""
    outs = []
    for i in range(len(users)):
        rest = []
        for j in range(len(users)):
            if j != i:
                rest.append(loop_fscore(users[i], users[j]))
        outs.append(max(rest) if agg == "max_over_users" else float(np.mean(rest)))
    return float(np.mean(outs))


# ---------------------------------------------------------------------------
# rank references


def loop_mean_ranks(x):
    """1-based ranks; equal values share the mean of their rank block,
    found by one pass over the unique values."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.arange(1, x.size + 1, dtype=np.float64)
    for value in np.unique(x):
        hit = x == value
        if hit.sum() > 1:
            ranks[hit] = ranks[hit].mean()
    return ranks


def pairwise_kendall_tau(x, y):
    """Tau-b from the sign of every pair's difference in x and in y, with
    the pairs taken from the upper triangle: O(n^2) time and memory. A
    constant vector makes tau-b undefined; that warns and gives 0.0."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    n = x.size
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(n, k=1)
    prod = sx[iu] * sy[iu]
    concordant = int(np.count_nonzero(prod > 0))
    discordant = int(np.count_nonzero(prod < 0))
    n0 = n * (n - 1) // 2
    ties_x = int(np.count_nonzero(sx[iu] == 0))
    ties_y = int(np.count_nonzero(sy[iu] == 0))
    denom_x = n0 - ties_x
    denom_y = n0 - ties_y
    if denom_x == 0 or denom_y == 0:
        warnings.warn("tau-b undefined for constant scores", RuntimeWarning, stacklevel=2)
        return 0.0
    return (concordant - discordant) / np.sqrt(float(denom_x) * float(denom_y))


# ---------------------------------------------------------------------------
# selection references


def brute_force_knapsack(lengths, scores, budget):
    """Exhaustive 0/1 search. Returns (best_value, best_subset) where the
    subset is the lexicographically smallest among value-optimal ones."""
    n = len(lengths)
    best_val = 0.0
    best_sel = ()
    for mask in range(1 << n):
        sel = tuple(i for i in range(n) if (mask >> i) & 1)
        w = sum(lengths[i] for i in sel)
        if w > budget:
            continue
        v = sum(scores[i] for i in sel)
        if v > best_val + 1e-12 or (abs(v - best_val) <= 1e-12 and sel < best_sel):
            best_val = v
            best_sel = sel
    return best_val, list(best_sel)


def naive_scatter_table(K):
    """Start-major scatter table, one row per start: scatter[i, j] is the
    within-segment scatter of frames [i, j) (sum of the Gram diagonal
    minus the block mean), inf where j <= i."""
    T = K.shape[0]
    diag_cum = np.concatenate([[0.0], np.cumsum(np.diag(K))])
    P = np.zeros((T + 1, T + 1))
    P[1:, 1:] = np.cumsum(np.cumsum(K, axis=0), axis=1)
    scatter = np.full((T, T + 1), np.inf)
    for i in range(T):
        j = np.arange(i + 1, T + 1)
        block = P[j, j] - P[i, j] - P[j, i] + P[i, i]
        scatter[i, i + 1:] = (diag_cum[j] - diag_cum[i]) - block / (j - i)
    return scatter


def naive_kts_segment(X, max_shots):
    """Double-loop KTS reference: least-scatter m-segmentations by DP over
    (m, t), first index winning ties, then the penalized count with the
    package's 1e-9 relative penalty floor. Returns the change points
    (segment starts, first is 0)."""
    X = np.asarray(X, dtype=np.float64)
    T = X.shape[0]
    if T < max_shots:
        return np.arange(T)
    if T == 1:
        return np.array([0])
    M = min(max_shots, T)
    K = X @ X.T
    scatter = naive_scatter_table(K)
    L = np.full((M + 1, T + 1), np.inf)
    B = np.zeros((M + 1, T + 1), dtype=int)
    L[1, 1:] = scatter[0, 1:]
    for m in range(2, M + 1):
        for t in range(m, T + 1):
            starts = np.arange(m - 1, t)
            cand = L[m - 1, starts] + scatter[starts, t]
            k = int(np.argmin(cand))
            L[m, t] = cand[k]
            B[m, t] = starts[k]
    best = L[1:M + 1, T]
    counts = np.arange(1, M + 1, dtype=np.float64)
    penalty_shape = counts * (np.log(T / counts) + 1.0)
    scale = float(np.trace(K)) / T
    g = max(best[M - 1] / T, 1e-9 * (scale if scale > 0.0 else 1.0))
    m_star = int(np.argmin(best / T + g * penalty_shape)) + 1
    cuts = []
    t = T
    for m in range(m_star, 1, -1):
        t = int(B[m, t])
        cuts.append(t)
    return np.array([0] + sorted(cuts), dtype=int)


def planted_blocks(T, n_blocks, d, rng, noise=0.0, min_len=4, min_gap=0.5):
    """Piecewise-constant rows: n_blocks segments with uniform prototypes
    (adjacent ones at least min_gap apart in L2) plus Gaussian noise.
    Returns (X, start_indices)."""
    assert n_blocks * min_len <= T
    while True:
        cuts = np.sort(rng.choice(np.arange(1, T), size=n_blocks - 1, replace=False))
        starts = np.concatenate([[0], cuts])
        lengths = np.diff(np.concatenate([starts, [T]]))
        if lengths.min() >= min_len:
            break
    while True:
        protos = rng.uniform(0.0, 1.0, size=(n_blocks, d))
        gaps = [np.linalg.norm(protos[i + 1] - protos[i]) for i in range(n_blocks - 1)]
        if n_blocks == 1 or min(gaps) >= min_gap:
            break
    X = np.repeat(protos, lengths, axis=0)
    if noise > 0.0:
        X = X + rng.normal(0.0, noise, size=X.shape)
    return X, starts
