"""Parameter initialization, the Adam optimizer, and the training loop.

One optimizer step per video, videos visited in a fixed seeded order,
loss = classification + alpha * repelling + beta * reconstruction (the
classification term only in supervised mode). Checkpoints are a versioned
little-endian binary: config text, every parameter matrix shape-tagged by
name, the optimizer moments, and the epoch counter.

On glibc, `train` keeps freed heap memory mapped for the rest of the
process (`_keep_freed_heap`), so each step reuses the last step's pages.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, fields

import numpy as np

from . import autograd as ag
from .autograd import ContractError, Matrix, NumericError, ShapeError, Tape
from .config import ConfigError, TrainConfig, config_from_text, config_to_text
from .data import DataFormatError, Reader, Writer
from .model import PARAMETERS, ModelParams, forward_loss
from .segmentation import _naming

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Entries per in-place Adam block: the block's slices of the parameter,
# gradient, both moments and two scratch buffers (6 x 256 KiB) fit in L2.
_ADAM_BLOCK = 32768

# glibc's mallopt parameters, and the ceiling its own dynamic mmap threshold
# stops at on 64-bit
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20

CHECKPOINT_MAGIC = b"DSCK"
CHECKPOINT_VERSION = 1


def _xavier(rng, rows: int, cols: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_params(d: int, R: int, seed: int, cfg: TrainConfig | None = None) -> ModelParams:
    """Fresh model parameters, Xavier-uniform weights and zero biases, with
    the settings of `cfg` (default TrainConfig(neighbor_R=R)), whose
    neighbor_R must be R.

    Weight draws happen in the named-parameter order (biases are zeros
    and consume no randomness), so the same seed always produces
    bit-identical parameters.
    """
    if d < 1:
        raise ContractError(f"feature dim must be >= 1, got {d}")
    cfg = cfg or TrainConfig(neighbor_R=R)
    if cfg.neighbor_R != R:
        raise ContractError(f"init_params: R={R}, the config has neighbor_R={cfg.neighbor_R}")
    rng = np.random.default_rng(seed)
    size = {"d": d, "span": 2 * R + 1, 1: 1}
    mats = {}
    for name, rows, cols in PARAMETERS:
        shape = size[rows], size[cols]
        bias = name.endswith(".b")
        mats[name] = Matrix._wrap(np.zeros(shape) if bias else _xavier(rng, *shape))
    return ModelParams.from_named(mats, cfg)


@dataclass
class AdamState:
    """First/second moment accumulators, parallel to named_parameters."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        shapes = [p.data.shape for _, p in params.named_parameters()]
        return cls(m=[np.zeros(s) for s in shapes], v=[np.zeros(s) for s in shapes])


def adam_step(params: ModelParams, state: AdamState, cfg: TrainConfig):
    """One Adam update with bias correction, then decoupled weight decay
    (theta <- theta - lr * wd * theta, applied after the gradient step).
    Gradients are read off the parameters; one no record reached (None)
    steps as zeros. Refuses, changing nothing, a call with no gradient.

    Updates the moments and parameters in place, _ADAM_BLOCK entries at a
    time, so each block's dozen elementwise passes run in cache. The
    per-entry operations and their order are those of the textbook
    expressions, so the bytes do not depend on the blocking.
    """
    named = params.named_parameters()
    if len(named) != len(state.m) or len(named) != len(state.v):
        raise ContractError("optimizer state does not match the parameter set")
    if all(p.grad is None for _, p in named):
        raise ContractError("adam_step called with no gradient on any parameter")
    for (name, p), m, v in zip(named, state.m, state.v):
        for what, a in (("gradient", p.grad), ("first moment", m), ("second moment", v)):
            if a is not None and a.shape != p.shape:
                raise ContractError(f"adam_step: {what} of {name} has shape {a.shape}, "
                                    f"the parameter {p.shape}")
        for what, a in (("parameter", p.data), ("first moment", m), ("second moment", v)):
            if a.dtype != np.float64 or not (a.flags.c_contiguous and a.flags.writeable):
                raise ContractError(f"adam_step: {what} of {name} must be a writable "
                                    f"C-contiguous float64 array")
    state.step += 1
    t = state.step
    corr1 = 1.0 - ADAM_BETA1 ** t
    corr2 = 1.0 - ADAM_BETA2 ** t
    lr = cfg.learning_rate
    decay = cfg.learning_rate * cfg.weight_decay
    buf1, buf2 = np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK)
    for (_, p), m, v in zip(named, state.m, state.v):
        grad = np.broadcast_to(0.0, p.shape) if p.grad is None else p.grad  # a view, no fill
        flat = [x.reshape(-1) for x in (p.data, grad, m, v)]
        for lo in range(0, flat[0].size, _ADAM_BLOCK):
            w, g, mb, vb = (x[lo:lo + _ADAM_BLOCK] for x in flat)
            a, b = buf1[:w.size], buf2[:w.size]
            # m = B1 * m + (1 - B1) * g
            np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            mb *= ADAM_BETA1
            mb += a
            # v = B2 * v + (1 - B2) * (g * g)
            np.multiply(g, g, out=a)
            a *= 1.0 - ADAM_BETA2
            vb *= ADAM_BETA2
            vb += a
            # w -= lr * (m / corr1) / (sqrt(v / corr2) + eps)
            np.divide(mb, corr1, out=a)
            a *= lr
            np.divide(vb, corr2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            w -= a
            if cfg.weight_decay != 0.0:  # w -= (lr * wd) * w
                np.multiply(w, decay, out=a)
                w -= a


def _keep_freed_heap() -> None:
    """Tell glibc's allocator to serve arrays under 32 MiB from the heap and
    never to trim it, so a training step reuses the pages the last step
    freed instead of faulting them in again. Process-wide and permanent.

    The mmap threshold goes first: either call turns off glibc's dynamic
    thresholds, and the trim setting alone would leave the mmap threshold
    at 128 KiB, so every T x T array would be mapped and unmapped per
    step. Without mallopt (not glibc) nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows loads no CDLL(None)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX) == 1:
        mallopt(_M_TRIM_THRESHOLD, -1)


@dataclass
class TrainResult:
    params: ModelParams  # the trained parameters; none holds a gradient
    state: AdamState  # final optimizer state, checkpoint-ready
    history: list[float]  # per-epoch mean total loss
    part_history: dict[str, list[float]]  # "cls" (supervised), "repel", "recon"

    @property
    def epochs_run(self) -> int:
        return len(self.history)


def train(videos: list, cfg: TrainConfig) -> TrainResult:
    """Run the optimization over the given videos.

    Visits videos in one seeded shuffle reused every epoch (fixed order),
    one optimizer step per video. In unsupervised mode a video's labels
    are never read. Optional early stop ends training once the mean loss
    stops improving by min_delta for patience epochs. A step whose forward
    pass refuses its input re-raises the error as `video <id> in epoch
    <e>: ...`, and a non-finite loss raises NumericError naming both
    (epochs count from 0, as in the history CSV).

    The returned parameters hold no gradients: the last step's are
    dropped, early stop or not, so they are not kept alive with the model.

    On glibc, it sets the process's allocator to keep freed heap memory
    mapped from then on (`_keep_freed_heap`), so RSS does not shrink after
    it returns.
    """
    if not videos:
        raise ContractError("cannot train on an empty video set")
    feats = [np.ascontiguousarray(v.features, dtype=np.float64) for v in videos]
    for v, x in zip(videos, feats):
        if x.ndim != 2:
            raise ContractError(f"video {v.id}: features must be T x d, got shape {x.shape}")
    dims = {x.shape[1] for x in feats}
    if len(dims) != 1:
        raise ContractError(f"videos disagree on feature dim: {sorted(dims)}")
    d = dims.pop()
    short = [v.id for v, x in zip(videos, feats) if x.shape[0] < 2]
    if short:
        raise ContractError(f"training needs at least 2 frames per video; too short: {short}")
    if cfg.supervised:
        missing = [v.id for v in videos if v.gt_binary is None]
        if missing:
            raise ContractError(f"supervised training needs labels; missing on {missing}")

    _keep_freed_heap()
    params = init_params(d, cfg.neighbor_R, cfg.seed, cfg)
    state = AdamState.for_params(params)
    order = np.random.default_rng(cfg.seed).permutation(len(videos))
    labels = [np.asarray(v.gt_binary, dtype=np.float64) if cfg.supervised else None
              for v in videos]

    curves: dict[str, list[float]] = {"total": [], "repel": [], "recon": []}  # epoch means
    if cfg.supervised:
        curves["cls"] = []
    best = np.inf
    stale = 0
    for epoch in range(cfg.epochs):
        losses = {name: [] for name in curves}  # this epoch's, one per video
        for i in order:
            params.zero_grads()
            tape = Tape()
            with _naming(videos[i], epoch):
                out = forward_loss(feats[i], params, labels[i], tape)
            loss = out.total.item()
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss {loss} on video {videos[i].id} "
                                   f"in epoch {epoch}; training stopped before the update")
            ag.backward(out.total, tape)
            adam_step(params, state, cfg)
            for name, values in losses.items():
                values.append(loss if name == "total" else getattr(out.parts, name).item())
        for name, values in losses.items():
            curves[name].append(float(np.mean(values)))
        if cfg.early_stop:
            if curves["total"][-1] < best - cfg.min_delta:
                best = curves["total"][-1]
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
    # nothing reads the last step's gradients; cleared here rather than by
    # zero_grads, whose every call begins a step
    for _, p in params.named_parameters():
        p.grad = None
    history = curves.pop("total")
    return TrainResult(params=params, state=state, history=history, part_history=curves)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: ModelParams, state: AdamState, cfg: TrainConfig,
                    epoch: int):
    """Refuses (ContractError), naming the first differing key, a `cfg`
    other than params.cfg, and (NumericError) a non-finite parameter or
    moment."""
    for key in (f.name for f in fields(TrainConfig)):
        have, want = getattr(params.cfg, key), getattr(cfg, key)
        if have != want:
            raise ContractError(f"{path}: refusing to save a config with {key}={want!r} "
                                f"for a model with {key}={have!r}")
    named = params.named_parameters()
    for kind, arrays in (("parameter", [p.data for _, p in named]),
                         ("first moment of", state.m), ("second moment of", state.v)):
        for (name, _), a in zip(named, arrays):
            if not np.all(np.isfinite(a)):
                raise NumericError(f"{path}: refusing to save a non-finite {kind} {name}")
    w = Writer().put(CHECKPOINT_MAGIC).u32(CHECKPOINT_VERSION).string(config_to_text(cfg))
    w.u32(epoch, len(named))
    for name, p in named:
        w.string(name).u32(p.rows, p.cols).array(p.data, "<f8")
    w.u32(state.step)
    for a in state.m + state.v:
        w.array(a, "<f8")
    w.write(path)


def load_checkpoint(path, *, params_only: bool = False):
    """Returns (params, adam_state, config, epoch), where params.cfg is
    config. Byte layout must match what save_checkpoint wrote; any
    shortfall, bad config or misshapen matrix names the file and the
    failing piece.

    With params_only, the optimizer state is not read and adam_state is
    None: every check up to the last parameter is made, and then the
    length of the rest of the file (found by seeking, not by reading) must
    be that of a step counter and two moments per parameter entry.
    """
    with open(path, "rb") as fh:
        r = Reader(fh, path)
        if r.take(4, "magic") != CHECKPOINT_MAGIC:
            raise ContractError(f"{path}: not a checkpoint file (bad magic)")
        version = r.u32("version")
        if version != CHECKPOINT_VERSION:
            raise ContractError(f"{path}: checkpoint version {version}, "
                                f"this build reads {CHECKPOINT_VERSION}")
        try:
            cfg = config_from_text(r.string("config"))
        except ConfigError as e:
            raise ConfigError(f"{path}: {e}") from None
        epoch, count = r.u32("epoch"), r.u32("parameter count")
        tensors: dict[str, np.ndarray] = {}
        for i, (name, _, _) in enumerate(PARAMETERS):  # each entry checked before its data
            if i == count:
                raise ContractError(f"{path}: checkpoint is missing parameter {name}")
            if count > len(PARAMETERS) or r.string("parameter name") != name:
                raise ContractError(f"{path}: checkpoint parameter order does not match "
                                    f"this build")
            rows, cols = r.u32(f"{name} rows"), r.u32(f"{name} cols")
            tensors[name] = r.array("<f8", (rows, cols), f"{name} data")
        mats = {n: Matrix._wrap(a) for n, a in tensors.items()}
        try:
            params = ModelParams.from_named(mats, cfg)
        except ShapeError as e:
            raise ShapeError(f"{path}: {e}") from None
        if params_only:
            want = 4 + 16 * sum(a.size for a in tensors.values())
            if r.left != want:
                raise DataFormatError(f"{path}: {r.left} bytes of optimizer state after the "
                                      f"parameters, this model's take {want}")
            return params, None, cfg, epoch
        step = r.u32("optimizer step")
        m = [r.array("<f8", a.shape, "first moments") for a in tensors.values()]
        v = [r.array("<f8", a.shape, "second moments") for a in tensors.values()]
        r.expect_end()
    return params, AdamState(m=m, v=v, step=step), cfg, epoch
