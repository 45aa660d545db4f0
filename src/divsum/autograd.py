"""Dense 2-D float64 matrices with reverse-mode differentiation.

The numeric core of the summarizer. A :class:`Matrix` wraps a 2-D numpy
array plus an optional gradient accumulator. A :class:`Tape` records every
differentiable operation in execution order; :func:`backward` replays the
tape in reverse and accumulates gradients additively into every operand
that can reach the loss.

The generic ops are ``matmul``, ``transpose``, ``add``, ``relu`` and
``sigmoid``; the attention paths, the heads' affine layers and the
losses record their own fused ops through ``_record``.

Conventions:
  * all values are float64, all shapes strictly 2-D
  * gradients accumulate across uses of a matrix; callers zero them
    between optimizer steps
  * while a tape is alive, the ``.data`` of recorded matrices must not be
    mutated in place (the recorded closures keep references, not copies)

Recording contract: every operation computes its result array and
returns it through ``_record``, the one place that looks at the tape.
``_record`` wraps that array without a copy, so every result owns a
fresh 2-D, C-contiguous float64 buffer that shares no memory with its
operands; the public ``Matrix(data)`` constructor copies. Called with a
tape, an operation adds exactly one record; with ``tape=None`` it adds
none and runs the same code to the same forward values. A record adds
to an operand's gradient only once a gradient has reached the
operation's output, so an operand whose results never reach the loss
keeps ``.grad`` as it was (None, if never zeroed). Two results, whose
records never read them, are softmaxed in place while a tape is alive:
``attention.pairwise_similarity``'s and ``lca_forward``'s score block.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class NumericError(ValueError):
    """Input values are outside an operation's numeric domain."""


class ContractError(ValueError):
    """A non-shape precondition was violated."""


class Matrix:
    """A rows x cols block of float64 values with an optional gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        """A C-ordered float64 copy of `data`, so the caller may reuse its array."""
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise ShapeError(f"Matrix requires 2-D data, got ndim={arr.ndim}")
        self.data = arr
        self.grad: np.ndarray | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Matrix":
        """`arr` itself as a Matrix, without a copy.

        Only for arrays nobody else holds: a 2-D, C-contiguous float64
        result the caller has just computed.
        """
        m = cls.__new__(cls)
        m.data = arr
        m.grad = None
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._wrap(np.zeros((rows, cols)))

    @classmethod
    def column(cls, values) -> "Matrix":
        return cls._wrap(np.array(values, dtype=np.float64).reshape(-1, 1))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 matrix, got {self.rows}x{self.cols}")
        return float(self.data[0, 0])

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


class Tape:
    """Ordered record of executed differentiable operations.

    Each record is a closure that reads the output gradient and adds the
    operation's contribution to its operands' gradients. Replaying the
    records in reverse execution order is exactly reverse-mode
    differentiation.
    """

    def __init__(self):
        self.records: list = []

    def record(self, backward_fn):
        self.records.append(backward_fn)

    def __len__(self) -> int:
        return len(self.records)


def _accum(m: Matrix, g: np.ndarray):
    if m.grad is None:
        m.grad = np.zeros_like(m.data)
    m.grad += g


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
        raise ShapeError(
            f"{op}: shapes {a.rows}x{a.cols} and {b.rows}x{b.cols} do not broadcast"
        ) from None


def backward(loss: Matrix, tape: Tape):
    """Populate gradients of everything on `tape` that reaches `loss`.

    `loss` must be 1x1 and must have been produced through `tape`.
    Parameters the loss cannot reach keep whatever gradient they already
    hold (zeros, if the caller zeroed them first).
    """
    if loss.data.shape != (1, 1):
        raise ContractError(f"backward needs a scalar loss, got {loss.rows}x{loss.cols}")
    _accum(loss, np.ones((1, 1)))
    for fn in reversed(tape.records):
        fn()


def _record(tape: Tape | None, data: np.ndarray, *contributions) -> Matrix:
    """Wrap an op's freshly computed `data` without a copy, and record its
    backward on `tape` when there is one.

    Each contribution is an (operand, fn) pair: fn maps the output's
    gradient to the operand's share of it; for a tuple of operands, fn
    returns one share per operand. The record adds the shares one
    operand at a time, in the order given, and does nothing while no
    gradient has reached the result.
    """
    out = Matrix._wrap(data)
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            for m, fn in contributions:
                if isinstance(m, Matrix):
                    _accum(m, fn(g))
                else:
                    for operand, share in zip(m, fn(g)):
                        _accum(operand, share)

        tape.record(bwd)
    return out


# ---------------------------------------------------------------------------
# operations


def matmul(a: Matrix, b: Matrix, tape: Tape | None = None) -> Matrix:
    """Standard matrix product a @ b."""
    if a.cols != b.rows:
        raise ShapeError(
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


def _column_softmax_in(s: np.ndarray, a: Matrix, tape: Tape | None) -> Matrix:
    """Column softmax of `a` computed in `s`, a copy of a.data or a.data itself.

    The shift, exp and divide run in place, in the order of the
    three-temporary formula, so the bytes equal it.
    """
    if not np.all(np.isfinite(s)):
        raise NumericError("column_softmax: input contains NaN or Inf")
    s -= s.max(axis=0, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=0, keepdims=True)
    return _record(tape, s, (a, lambda g: s * (g - (g * s).sum(axis=0, keepdims=True))))
