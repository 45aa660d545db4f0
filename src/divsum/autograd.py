"""Dense 2-D float64 matrices with reverse-mode differentiation.

The numeric core of the summarizer. A :class:`Matrix` wraps a 2-D numpy
array plus an optional gradient accumulator. A :class:`Tape` records every
differentiable operation in execution order; :func:`backward` replays the
tape in reverse and accumulates gradients additively into every operand
that can reach the loss.

autograd defines no ops of its own: each layer (the attention paths,
the fusion, the heads and the losses) computes its arrays with numpy and
records itself through ``_record``, 10 records per training step (9
unsupervised). Only what the tape differentiates is a Matrix; the features,
positions, labels and attention weights are constants, plain numpy arrays.
In the library, ``training.loss_and_grads`` is the one caller that makes a
tape and runs ``backward``: it returns the step's gradients as a list and
takes each off its parameter, so a parameter holds ``.grad`` only within
that call.

Conventions:
  * all values are float64, all shapes strictly 2-D
  * a gradient is None until a record reaches its matrix, then the sum
    of the shares backward gave it; nothing zero-fills it
  * while a tape is alive, layer operands, constants and outputs must not
    be mutated in place (the recorded closures keep references, not copies)

Recording contract: every layer computes all its arrays, then returns
its result through ``_record``, the one place that looks at the tape.
``_record`` wraps that array without a copy, so every result owns a
fresh 2-D, C-contiguous float64 buffer that shares no memory with its
operands; the public ``Matrix(data)`` constructor copies. Called with a
tape, a layer adds its records; with ``tape=None`` it adds none and
runs the same code to the same forward values. A record adds to an
operand's gradient only once a gradient has reached the record's
output, so an operand whose results never reach the loss keeps
``.grad`` as it was (None, if cleared). A recorded result is never
mutated.
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
        result the caller has just computed or read from a file.
        """
        m = cls.__new__(cls)
        m.data = arr
        m.grad = None
        return m

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


def _accum(m: Matrix, g: np.ndarray):
    if m.grad is None:  # adopt the bytes of 0.0 + g, C-ordered in a fresh buffer
        m.grad = np.add(g, 0.0, out=np.empty_like(m.data))
    else:
        m.grad += g


def backward(loss: Matrix, tape: Tape):
    """Populate gradients of everything on `tape` that reaches `loss`.

    `loss` must be 1x1 and must have been produced through `tape`.
    Parameters the loss cannot reach keep whatever gradient they already
    hold (None, if the caller cleared them first).
    """
    if loss.data.shape != (1, 1):
        raise ContractError(f"backward needs a scalar loss, got {loss.rows}x{loss.cols}")
    _accum(loss, np.ones((1, 1)))
    for fn in reversed(tape.records):
        fn()


def _record(tape: Tape | None, data: np.ndarray, operands: tuple, shares) -> Matrix:
    """Wrap an op's freshly computed `data` without a copy, and record its
    backward on `tape` when there is one.

    `shares` maps the output's gradient to one share per operand, in the
    order of `operands`; a repeated operand takes each of its shares. The
    record adds the shares in that order, does nothing while no gradient
    has reached the result, and raises ValueError when `shares` gives
    fewer or more shares than there are operands.
    """
    out = Matrix._wrap(data)
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            for m, share in zip(operands, shares(g), strict=True):
                _accum(m, share)

        tape.record(bwd)
    return out
