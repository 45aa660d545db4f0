import ast
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divsum import autograd as ag
from divsum.attention import _padded, _unpadded
from divsum.autograd import Matrix, Tape

from . import oracles
from .oracles import finite_difference_grads, gather_rows, stack_rows


def rand_matrix(rng, rows, cols, lo=-1.0, hi=1.0):
    return Matrix(rng.uniform(lo, hi, size=(rows, cols)))


def check_grads_fd(build_loss, mats, rtol=1e-4, atol=1e-6, step=1e-5):
    """build_loss() -> (loss Matrix, tape); compares tape grads against
    central differences for every matrix in mats."""
    for m in mats:
        m.grad = np.zeros_like(m.data)
    loss, tape = build_loss()
    ag.backward(loss, tape)
    numeric = finite_difference_grads(lambda: build_loss()[0].item(), mats, step=step)
    for m, num in zip(mats, numeric):
        np.testing.assert_allclose(m.grad, num, rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# construction and shape contracts


def test_matrix_rejects_non_2d():
    with pytest.raises(ag.ShapeError):
        Matrix(np.zeros(3))
    with pytest.raises(ag.ShapeError):
        Matrix(np.zeros((2, 2, 2)))


def test_matmul_identity():
    b = Matrix([[1.0, 2.0], [3.0, 4.0]])
    eye = Matrix(np.eye(2))
    np.testing.assert_array_equal(oracles.matmul(eye, b).data, b.data)
    np.testing.assert_array_equal(oracles.matmul(b, eye).data, b.data)


def test_matmul_shape_error_names_both_shapes():
    a = Matrix(np.zeros((3, 4)))
    b = Matrix(np.zeros((3, 2)))
    with pytest.raises(ag.ShapeError, match="3x4"):
        oracles.matmul(a, b)
    with pytest.raises(ag.ShapeError, match="3x2"):
        oracles.matmul(a, b)


def test_add_shape_mismatch():
    with pytest.raises(ag.ShapeError):
        oracles.add(Matrix(np.zeros((2, 3))), Matrix(np.zeros((3, 2))))


def test_matrix_keeps_its_own_copy_of_the_callers_array():
    arr = np.arange(6.0).reshape(2, 3)
    m = Matrix(arr)
    col = Matrix(arr[0][:, None])
    arr[:] = -1.0
    np.testing.assert_array_equal(m.data, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    np.testing.assert_array_equal(col.data, [[0.0], [1.0], [2.0]])


def test_item_requires_scalar():
    with pytest.raises(ag.ShapeError):
        Matrix(np.zeros((2, 1))).item()


# ---------------------------------------------------------------------------
# forward values


def test_column_softmax_uniform_on_zeros():
    out = oracles.column_softmax(Matrix(np.zeros((3, 3))))
    np.testing.assert_allclose(out.data, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_column_softmax_log_column():
    col = Matrix(np.log([[1.0], [2.0], [3.0]]))
    out = oracles.column_softmax(col)
    np.testing.assert_allclose(out.data, [[1 / 6], [2 / 6], [3 / 6]], atol=1e-12)


def test_column_softmax_rejects_nonfinite():
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ag.NumericError):
        oracles.column_softmax(Matrix(bad))
    bad[0, 0] = np.inf
    with pytest.raises(ag.NumericError):
        oracles.column_softmax(Matrix(bad))


@pytest.mark.parametrize("T", [1, 2, 7, 300])
def test_column_softmax_bytes_equal_the_three_temporary_formula(T):
    a = np.random.default_rng(T).normal(scale=20.0, size=(T, T))
    z = a - a.max(axis=0, keepdims=True)
    e = np.exp(z)
    want = e / e.sum(axis=0, keepdims=True)
    assert oracles.column_softmax(Matrix(a)).data.tobytes() == want.tobytes()


def test_column_softmax_allocates_one_output_buffer():
    T = 1000
    a = Matrix(np.random.default_rng(0).normal(size=(T, T)))
    tracemalloc.start()
    try:
        oracles.column_softmax(a, Tape())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * T * T * 8


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    magnitude=st.floats(0.1, 50.0),
)
def test_column_softmax_columns_sum_to_one(rows, cols, seed, magnitude):
    rng = np.random.default_rng(seed)
    a = Matrix(rng.uniform(-magnitude, magnitude, size=(rows, cols)))
    out = oracles.column_softmax(a)
    np.testing.assert_allclose(out.data.sum(axis=0), np.ones(cols), atol=1e-12)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0 + 1e-15)


def test_relu_sigmoid_values():
    m = Matrix([[-1.0, 2.0, 0.0]])
    np.testing.assert_array_equal(oracles.relu(m).data, [[0.0, 2.0, 0.0]])
    assert oracles.sigmoid(Matrix([[0.0]])).item() == 0.5


def test_sigmoid_extreme_inputs_stay_finite():
    out = oracles.sigmoid(Matrix([[-800.0, 800.0]]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [[0.0, 1.0]], atol=1e-12)


def test_row_norms_squared_values():
    m = Matrix([[3.0, 4.0], [0.0, 0.0]])
    np.testing.assert_allclose(oracles.row_norms_squared(m).data, [[25.0], [0.0]])


def test_row_norms_squared_matches_loops():
    rng = np.random.default_rng(7)
    a = rng.uniform(-2, 2, size=(6, 9))
    expected = [[sum(v * v for v in row)] for row in a]
    np.testing.assert_allclose(oracles.row_norms_squared(Matrix(a)).data, expected, atol=1e-12)


def test_log_sqrt_rsqrt_domains():
    with pytest.raises(ag.NumericError):
        oracles.log(Matrix([[0.0]]))
    with pytest.raises(ag.NumericError):
        oracles.sqrt(Matrix([[-1.0]]))
    with pytest.raises(ag.NumericError):
        oracles.rsqrt(Matrix([[0.0]]))


def test_padded_window_values():
    # window slot o of every anchor is rows [o, o + T) of the padded table
    a = np.arange(12.0).reshape(3, 4) - 6.0  # row 0 negative, so zero pads it with -0.0
    np.testing.assert_array_equal(_padded(a, 2, "clamp"), a[[0, 0, 0, 1, 2, 2, 2]])
    zero = _padded(a, 2, "zero")
    in_range = np.array([0, 0, 1, 1, 1, 0, 0])[:, None]
    np.testing.assert_array_equal(zero, a[[0, 0, 0, 1, 2, 2, 2]] * in_range)
    assert np.all(np.signbit(zero[:2])) and not np.any(np.signbit(zero[5:]))
    np.testing.assert_array_equal(_padded(a[:1], 4, "clamp"), a[[0] * 9])
    assert _unpadded(np.ones((3, 4)), 5, "clamp").tolist() == [[0.0] * 4] * 2 + [[3.0] * 4]
    assert not _unpadded(np.ones((3, 4)), 5, "zero").any()


@pytest.mark.parametrize("boundary", ["clamp", "zero"])
@pytest.mark.parametrize("rows, R", [(5, 2), (5, 3), (3, 5), (1, 3), (1, 1), (2, 4)])
def test_padded_windows_bytes_equal_the_gather_scatter_oracle(rows, R, boundary):
    # every slot of a radius-R window: with R >= rows, slots wholly past either end
    rng = np.random.default_rng(rows * 10 + R)
    a = rng.normal(size=(rows, 6))
    a[[0, -1], :3] = -np.abs(a[[0, -1], :3])  # negative edge rows: their zero padding is -0.0
    g = rng.normal(size=(rows, 6))
    g[::2, 1] = -0.0  # a scatter into fresh zeros turns -0.0 into +0.0
    table = _padded(a, R, boundary)
    for shift in range(-R, R + 1):
        src = np.arange(rows) + shift
        m, tape = Matrix(a), Tape()
        want = gather_rows(m, np.clip(src, 0, rows - 1), tape)
        if boundary == "zero":  # the generic-op chain's mask, as in oracles.lca_chain
            want = oracles.multiply(want, Matrix(((src >= 0) & (src < rows))[:, None]), tape)
        want.grad = g
        for record in reversed(tape.records):
            record()
        assert table[shift + R:shift + R + rows].tobytes() == want.data.tobytes(), shift
        assert _unpadded(g, shift, boundary).tobytes() == m.grad.tobytes(), shift


def test_deterministic_forward():
    rng = np.random.default_rng(123)
    a = rng.uniform(-1, 1, size=(5, 5))
    first = oracles.column_softmax(Matrix(a)).data
    second = oracles.column_softmax(Matrix(a.copy())).data
    assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# backward: trivial cases


def test_backward_sum_gives_ones():
    p = Matrix(np.random.default_rng(0).uniform(-1, 1, size=(3, 4)))
    p.grad = np.zeros_like(p.data)
    tape = Tape()
    loss = oracles.sum_all(p, tape)
    ag.backward(loss, tape)
    np.testing.assert_array_equal(p.grad, np.ones((3, 4)))


def test_backward_zero_times_param_gives_zero_grad():
    p = Matrix(np.random.default_rng(1).uniform(-1, 1, size=(2, 2)))
    p.grad = np.zeros_like(p.data)
    tape = Tape()
    loss = oracles.sum_all(oracles.scale(p, 0.0, tape), tape)
    ag.backward(loss, tape)
    np.testing.assert_array_equal(p.grad, np.zeros((2, 2)))


def test_backward_requires_scalar_loss():
    p = Matrix(np.zeros((2, 2)))
    with pytest.raises(ag.ContractError):
        ag.backward(p, Tape())


def test_grad_accumulates_across_uses():
    p = Matrix([[2.0]])
    p.grad = np.zeros_like(p.data)
    tape = Tape()
    # loss = p + p, so dloss/dp = 2 via two accumulations
    loss = oracles.add(p, p, tape)
    ag.backward(loss, tape)
    np.testing.assert_array_equal(p.grad, [[2.0]])


def test_unreached_param_keeps_zero_grad():
    p = Matrix([[1.0]])
    q = Matrix([[5.0]])
    p.grad = np.zeros_like(p.data)
    q.grad = np.zeros_like(q.data)
    tape = Tape()
    loss = oracles.sum_all(oracles.scale(p, 3.0, tape), tape)
    ag.backward(loss, tape)
    np.testing.assert_array_equal(q.grad, [[0.0]])


# ---------------------------------------------------------------------------
# backward vs finite differences, op by op


def test_matmul_grads_match_fd():
    rng = np.random.default_rng(11)
    a = rand_matrix(rng, 3, 4)
    b = rand_matrix(rng, 4, 2)

    def build():
        tape = Tape()
        return oracles.sum_all(oracles.matmul(a, b, tape), tape), tape

    check_grads_fd(build, [a, b])


def test_column_softmax_grads_match_fd():
    rng = np.random.default_rng(12)
    a = rand_matrix(rng, 5, 5)
    w = rand_matrix(rng, 5, 5)  # weighting makes the grad non-degenerate

    def build():
        tape = Tape()
        soft = oracles.column_softmax(a, tape)
        return oracles.sum_all(oracles.multiply(soft, w, tape), tape), tape

    check_grads_fd(build, [a])


def test_composite_matmul_softmax_sum_matches_fd():
    rng = np.random.default_rng(13)
    a = rand_matrix(rng, 4, 3)
    b = rand_matrix(rng, 3, 4)
    w = rand_matrix(rng, 4, 4)

    def build():
        tape = Tape()
        s = oracles.column_softmax(oracles.matmul(a, b, tape), tape)
        return oracles.sum_all(oracles.multiply(s, w, tape), tape), tape

    check_grads_fd(build, [a, b])


@pytest.mark.parametrize("seed", range(5))
def test_every_unary_op_matches_fd(seed):
    rng = np.random.default_rng(100 + seed)
    w = rand_matrix(rng, 4, 3)

    cases = {
        "relu": lambda m, t: oracles.relu(m, t),
        "sigmoid": lambda m, t: oracles.sigmoid(m, t),
        "scale": lambda m, t: oracles.scale(m, -1.7, t),
        "transpose": lambda m, t: oracles.transpose(m, t),
        "clip": lambda m, t: oracles.clip(m, -0.5, 0.5, t),
        "softmax": lambda m, t: oracles.column_softmax(m, t),
    }
    for name, op in cases.items():
        a = rand_matrix(rng, 4, 3)
        if name == "relu":
            # keep entries away from the kink so the FD slope is clean
            a.data[np.abs(a.data) < 1e-3] = 0.1
        if name == "clip":
            a.data[np.abs(np.abs(a.data) - 0.5) < 1e-3] = 0.0

        def build(op=op, a=a):
            tape = Tape()
            out = op(a, tape)
            if out.shape != w.shape:
                return oracles.sum_all(out, tape), tape
            return oracles.sum_all(oracles.multiply(out, w, tape), tape), tape

        check_grads_fd(build, [a])


@pytest.mark.parametrize("seed", range(5))
def test_positive_domain_ops_match_fd(seed):
    rng = np.random.default_rng(200 + seed)
    for op in (oracles.log, oracles.sqrt, oracles.rsqrt):
        a = rand_matrix(rng, 3, 4, lo=0.2, hi=2.0)

        def build(op=op, a=a):
            tape = Tape()
            return oracles.sum_all(op(a, tape), tape), tape

        check_grads_fd(build, [a])


@pytest.mark.parametrize("seed", range(5))
def test_binary_ops_match_fd(seed):
    rng = np.random.default_rng(300 + seed)
    for op in (oracles.add, oracles.subtract, oracles.multiply):
        a = rand_matrix(rng, 3, 5)
        b = rand_matrix(rng, 3, 5)

        def build(op=op, a=a, b=b):
            tape = Tape()
            return oracles.sum_all(op(a, b, tape), tape), tape

        check_grads_fd(build, [a, b])


@pytest.mark.parametrize("seed", range(3))
def test_broadcast_grads_match_fd(seed):
    rng = np.random.default_rng(400 + seed)
    full = rand_matrix(rng, 4, 5)
    col = rand_matrix(rng, 4, 1)
    row = rand_matrix(rng, 1, 5)
    one = rand_matrix(rng, 1, 1)

    for op in (oracles.add, oracles.subtract, oracles.multiply):
        for other in (col, row, one):

            def build(op=op, other=other):
                tape = Tape()
                return oracles.sum_all(op(full, other, tape), tape), tape

            check_grads_fd(build, [full, other])


def test_row_norms_and_structure_ops_match_fd():
    rng = np.random.default_rng(500)
    a = rand_matrix(rng, 5, 4)
    w = rand_matrix(rng, 5, 1)

    def build_norms():
        tape = Tape()
        norms = oracles.row_norms_squared(a, tape)
        return oracles.sum_all(oracles.multiply(norms, w, tape), tape), tape

    check_grads_fd(build_norms, [a])

    # the gather and stack that local attention's reference chain is built from
    weights = rng.uniform(-1.0, 1.0, size=(8, 4))
    for rows in ([0, 0, 1, 4, 4, 4, 2, 0], [3, 4, 4, 4], [0, 0, 1]):

        def build_gather(rows=rows):
            tape = Tape()
            window = gather_rows(a, rows, tape)
            weighted = oracles.multiply(window, Matrix(weights[:len(rows)]), tape)
            return oracles.sum_all(weighted, tape), tape

        check_grads_fd(build_gather, [a])

    b = rand_matrix(rng, 2, 4)

    def build_stack():
        tape = Tape()
        stacked = stack_rows([a, b], tape)
        return oracles.sum_all(oracles.multiply(stacked, Matrix(weights[:7]), tape), tape), tape

    check_grads_fd(build_stack, [a, b])


def test_clip_blocks_gradient_outside_bounds():
    a = Matrix([[2.0, -2.0, 0.3]])
    a.grad = np.zeros_like(a.data)
    tape = Tape()
    loss = oracles.sum_all(oracles.clip(a, -1.0, 1.0, tape), tape)
    ag.backward(loss, tape)
    np.testing.assert_array_equal(a.grad, [[0.0, 0.0, 1.0]])


def test_relu_and_clip_gradients_at_the_boundaries():
    # relu passes no gradient at 0; clip passes it at both bounds
    a = Matrix([[0.0, -1.0, 1.0, 0.5]])
    for op, want in ((lambda m, tape: oracles.relu(m, tape), [[0.0, 0.0, 1.0, 1.0]]),
                     (lambda m, tape: oracles.clip(m, -1.0, 1.0, tape), [[1.0, 1.0, 1.0, 1.0]])):
        a.grad = np.zeros_like(a.data)
        tape = Tape()
        ag.backward(oracles.sum_all(op(a, tape), tape), tape)
        np.testing.assert_array_equal(a.grad, want)


def test_zero_grad_resets_between_steps():
    a = Matrix([[1.0]])
    for _ in range(2):
        a.grad = np.zeros_like(a.data)
        tape = Tape()
        loss = oracles.sum_all(oracles.scale(a, 2.0, tape), tape)
        ag.backward(loss, tape)
        np.testing.assert_array_equal(a.grad, [[2.0]])


# ---------------------------------------------------------------------------
# recording contract, every op


def op_case(name, shapes, call, lo=-1.0):
    """One op called on fresh operands of `shapes`, drawn from [lo, 1)."""
    return pytest.param(shapes, call, lo, id=name)


OP_CASES = [
    op_case("matmul", [(3, 4), (4, 2)], lambda ms, tape: oracles.matmul(*ms, tape)),
    op_case("transpose", [(3, 4)], lambda ms, tape: oracles.transpose(*ms, tape)),
    op_case("add", [(3, 4), (1, 4)], lambda ms, tape: oracles.add(*ms, tape)),
    op_case("subtract", [(3, 4), (3, 1)], lambda ms, tape: oracles.subtract(*ms, tape)),
    op_case("multiply", [(3, 4), (3, 4)], lambda ms, tape: oracles.multiply(*ms, tape)),
    op_case("scale", [(3, 4)], lambda ms, tape: oracles.scale(*ms, -2.5, tape)),
    op_case("relu", [(3, 4)], lambda ms, tape: oracles.relu(*ms, tape)),
    op_case("sigmoid", [(3, 4)], lambda ms, tape: oracles.sigmoid(*ms, tape)),
    op_case("log", [(3, 4)], lambda ms, tape: oracles.log(*ms, tape), lo=0.1),
    op_case("sqrt", [(3, 4)], lambda ms, tape: oracles.sqrt(*ms, tape), lo=0.1),
    op_case("rsqrt", [(3, 4)], lambda ms, tape: oracles.rsqrt(*ms, tape), lo=0.1),
    op_case("clip", [(3, 4)], lambda ms, tape: oracles.clip(*ms, -0.5, 0.5, tape)),
    op_case("sum_all", [(3, 4)], lambda ms, tape: oracles.sum_all(*ms, tape)),
    op_case("column_softmax", [(3, 4)], lambda ms, tape: oracles.column_softmax(*ms, tape)),
    op_case("row_norms_squared", [(3, 4)],
            lambda ms, tape: oracles.row_norms_squared(*ms, tape)),
]


def operands(shapes, lo):
    rng = np.random.default_rng(23)
    return [rand_matrix(rng, rows, cols, lo=lo) for rows, cols in shapes]


# generic ops the reference chains are built from; they keep the contract
ORACLE_OPS = {"matmul", "transpose", "add", "relu", "sigmoid", "subtract", "multiply", "scale",
              "log", "sqrt", "rsqrt", "clip", "sum_all", "column_softmax", "row_norms_squared"}


def test_contract_cases_cover_every_op():
    assert all(inspect.isfunction(getattr(oracles, name)) for name in ORACLE_OPS)
    assert {case.id for case in OP_CASES} == ORACLE_OPS


def test_autograd_defines_no_ops():
    # every layer records itself; backward is the one public function given a tape
    takes_tape = {name for name, fn in vars(ag).items()
                  if inspect.isfunction(fn) and not name.startswith("_")
                  and "tape" in inspect.signature(fn).parameters}
    assert takes_tape == {"backward"}
    assert not any(hasattr(ag, name) for name in ORACLE_OPS)


@pytest.mark.parametrize("shapes, call, lo", OP_CASES)
def test_op_records_once_with_a_tape_and_never_without(monkeypatch, shapes, call, lo):
    made = []
    record = Tape.record
    monkeypatch.setattr(Tape, "record", lambda tape, fn: (made.append(tape), record(tape, fn)))
    ms = operands(shapes, lo)
    bare = call(ms, None)
    assert made == []
    tape = Tape()
    taped = call(ms, tape)
    assert made == [tape] and len(tape.records) == 1
    assert bare.shape == taped.shape
    assert bare.data.tobytes() == taped.data.tobytes()


@pytest.mark.parametrize("shapes, call, lo", OP_CASES)
def test_op_whose_output_misses_the_loss_leaves_operand_grads_unset(shapes, call, lo):
    ms = operands(shapes, lo)
    x = Matrix([[1.0, -2.0]])
    tape = Tape()
    call(ms, tape)  # recorded, but never reaches the loss
    ag.backward(oracles.sum_all(oracles.scale(x, 2.0, tape), tape), tape)
    assert len(tape.records) == 3
    assert all(m.grad is None for m in ms)
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])
    tape = Tape()
    ag.backward(oracles.sum_all(call(ms, tape), tape), tape)
    assert all(m.grad is not None and m.grad.shape == m.shape for m in ms)


@pytest.mark.parametrize("shapes, call, lo", OP_CASES)
def test_op_result_owns_a_fresh_c_contiguous_float64_buffer(shapes, call, lo):
    # in-place softmax and Adam rely on results that alias nothing
    ms = operands(shapes, lo)
    for tape in (None, Tape()):
        out = call(ms, tape).data
        assert out.ndim == 2 and out.dtype == np.float64 and out.flags.c_contiguous
        assert not any(np.shares_memory(out, m.data) for m in ms)


@pytest.mark.parametrize("m", [Matrix(np.zeros((2, 3))), Matrix([[1], [2], [3]])],
                         ids=["zeros", "column"])
def test_constructors_build_c_contiguous_float64_matrices(m):
    assert m.data.ndim == 2 and m.data.dtype == np.float64
    assert m.data.flags.c_contiguous and m.grad is None


@pytest.mark.parametrize("op", [
    lambda a, tape: oracles.matmul(a, a, tape),
    lambda a, tape: oracles.add(a, a, tape),
    lambda a, tape: oracles.transpose(a, tape),
], ids=["matmul", "add", "transpose"])
def test_op_result_is_not_copied_on_the_way_out(op):
    a = Matrix(np.random.default_rng(0).normal(size=(500, 500)))
    tracemalloc.start()
    try:
        op(a, Tape())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * a.data.nbytes


def test_only_record_asks_whether_there_is_a_tape():
    # one path per op: every op runs the same code with and without a
    # tape, and only _record decides whether a record is made
    src = Path(ag.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            allowed = path.name == "autograd.py" and fn.name == "_record"
            for node in ast.walk(fn):
                asks = (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
                        and node.left.id == "tape"
                        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                        and any(isinstance(c, ast.Constant) and c.value is None
                                for c in node.comparators))
                records = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                           and node.func.attr == "record" and isinstance(node.func.value, ast.Name)
                           and node.func.value.id == "tape")
                if (asks or records) and not allowed:
                    found.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert found == []


def test_a_first_share_is_adopted_c_ordered_with_the_bytes_of_zero_plus_it():
    # a Fortran-ordered first share keeps its values but not its layout, so
    # the next product that reads the gradient sees the C order a zero-filled
    # accumulator gave; -0.0 becomes 0.0 as it does in 0.0 + share
    rng = np.random.default_rng(31)
    share = np.asfortranarray(rng.normal(size=(4, 3)))
    share[1, 2] = -0.0
    a = Matrix(rng.normal(size=(4, 3)))
    tape = Tape()
    out = ag._record(tape, a.data.copy(), (a,), lambda g: (share,))
    out.grad = np.ones(out.shape)
    tape.records[0]()
    assert a.grad.flags.c_contiguous and not np.shares_memory(a.grad, share)
    assert a.grad.tobytes() == np.ascontiguousarray(0.0 + share).tobytes()
    assert a.grad.tobytes() != np.ascontiguousarray(share).tobytes()


@pytest.mark.parametrize("given", [0, 1, 3], ids=["none", "fewer", "more"])
def test_a_record_refuses_shares_that_do_not_match_its_operands(given):
    a, b = Matrix([[1.0]]), Matrix([[2.0]])
    tape = Tape()
    out = ag._record(tape, a.data + b.data, (a, b), lambda g: [g] * given)
    out.grad = np.ones((1, 1))
    with pytest.raises(ValueError, match="zip"):
        tape.records[0]()
