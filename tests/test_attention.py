import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divsum import attention as att
from divsum import autograd as ag
from divsum.autograd import ContractError, Matrix, NumericError, ShapeError, Tape
from divsum.config import TrainConfig

from . import oracles
from .oracles import finite_difference_grads


def make_gda(rng, d, kind="l2", scale_q=0.0, positions=True):
    """A model with random global-path projections whose config holds the
    global settings."""
    mats = {f"gda.{name}": Matrix(rng.uniform(-1, 1, size=(d, d))) for name in ("Wq", "Wk", "Wv")}
    cfg = TrainConfig(sim_kind=kind, scale_q=scale_q, use_positions=positions)
    return oracles.model_with(d, cfg, mats)


def make_lca(rng, d, R, variant="contextual", boundary="clamp"):
    """A model with random local-path matrices whose config holds the
    local settings."""
    mats = {f"lca.{name}": Matrix(rng.uniform(-1, 1, size=(d, d)))
            for name in ("Wq2", "Wk2", "Wv2")}
    mats["lca.rel_pos"] = Matrix(rng.uniform(-1, 1, size=(2 * R + 1, d)))
    cfg = TrainConfig(neighbor_R=R, lca_variant=variant, window_boundary=boundary)
    return oracles.model_with(d, cfg, mats)


# ---------------------------------------------------------------------------
# sinusoidal positions


def test_positions_row_zero():
    P = att.sinusoidal_positions(4, 6)
    np.testing.assert_array_equal(P[0, 0::2], np.zeros(3))
    np.testing.assert_array_equal(P[0, 1::2], np.ones(3))


def test_positions_first_angle():
    P = att.sinusoidal_positions(3, 8)
    assert P[1, 0] == pytest.approx(np.sin(1.0), abs=1e-12)
    assert P[1, 1] == pytest.approx(np.cos(1.0), abs=1e-12)


def test_positions_bounded():
    P = att.sinusoidal_positions(50, 16)
    assert np.all(P >= -1.0) and np.all(P <= 1.0)


def test_positions_odd_dim_rejected():
    with pytest.raises(ContractError):
        att.sinusoidal_positions(4, 7)


def test_positions_match_loop_table():
    np.testing.assert_allclose(
        att.sinusoidal_positions(9, 10), oracles.sinusoid_table(9, 10), atol=1e-12
    )


# ---------------------------------------------------------------------------
# pairwise similarity


def test_l2_self_similarity_diagonal_is_zero():
    rng = np.random.default_rng(0)
    Q = rng.uniform(-1, 1, size=(5, 7))
    A = att.pairwise_similarity(Q, Q.copy(), "l2", 1.0)
    np.testing.assert_allclose(np.diag(A), np.zeros(5), atol=1e-12)


def test_l2_unit_vectors():
    Q = np.array([[1.0, 0.0]])
    K = np.array([[0.0, 1.0]])
    assert att.pairwise_similarity(Q, K, "l2", 1.0).item() == pytest.approx(-2.0, abs=1e-15)


def test_l2_decomposed_matches_loops():
    rng = np.random.default_rng(5)
    Q = rng.uniform(-1, 1, size=(8, 16))
    K = rng.uniform(-1, 1, size=(8, 16))
    got = att.pairwise_similarity(Q, K, "l2", 16.0)
    want = oracles.naive_similarity(Q, K, "l2", 16.0)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_cosine_scale_invariance():
    rng = np.random.default_rng(6)
    u = rng.uniform(0.1, 1, size=(1, 4))
    A = att.pairwise_similarity(u, 3.0 * u, "cosine", 4.0)
    assert A.item() == pytest.approx(1.0 / np.sqrt(4.0), abs=1e-12)


def test_dot_matches_loops():
    rng = np.random.default_rng(7)
    Q = rng.uniform(-1, 1, size=(6, 5))
    K = rng.uniform(-1, 1, size=(6, 5))
    got = att.pairwise_similarity(Q, K, "dot", 5.0)
    np.testing.assert_allclose(got, oracles.naive_similarity(Q, K, "dot", 5.0), atol=1e-12)


def test_similarity_rejects_unknown_kind_and_zero_rows():
    Q = np.array([[1.0, 0.0]])
    with pytest.raises(ContractError):
        att.pairwise_similarity(Q, Q, "mahalanobis", 1.0)
    Z = np.array([[0.0, 0.0]])
    with pytest.raises(NumericError):
        att.pairwise_similarity(Z, Q, "cosine", 1.0)


# ---------------------------------------------------------------------------
# global path


def test_gda_single_frame_attends_to_itself():
    rng = np.random.default_rng(8)
    d = 6
    model = make_gda(rng, d, kind="dot")
    X = rng.uniform(-1, 1, size=(1, d))
    out = att.gda_forward(X, model)
    np.testing.assert_allclose(out.features.data, X @ model.gda.Wv.data, atol=1e-12)
    np.testing.assert_allclose(out.weights, [[1.0]], atol=1e-15)


@pytest.mark.parametrize("kind", att.SIMILARITY_KINDS)
def test_gda_identical_rows_spread_uniformly(kind):
    rng = np.random.default_rng(9)
    d, T = 4, 5
    model = make_gda(rng, d, kind=kind, positions=False)
    X = np.tile(rng.uniform(0.1, 1, size=(1, d)), (T, 1))
    out = att.gda_forward(X, model)
    np.testing.assert_allclose(out.weights, np.full((T, T), 1.0 / T), atol=1e-12)


@pytest.mark.parametrize("kind", att.SIMILARITY_KINDS)
def test_gda_matches_naive_reference(kind):
    rng = np.random.default_rng(10)
    T, d = 6, 8
    model = make_gda(rng, d, kind=kind)
    p = model.gda
    X = rng.uniform(-1, 1, size=(T, d))
    out = att.gda_forward(X, model)
    want_feat, want_wts = oracles.naive_global_attention(
        X, p.Wq.data, p.Wk.data, p.Wv.data, kind, d, positions=oracles.sinusoid_table(T, d)
    )
    np.testing.assert_allclose(out.weights, want_wts, atol=1e-12)
    np.testing.assert_allclose(out.features.data, want_feat, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(att.SIMILARITY_KINDS))
def test_gda_weight_columns_sum_to_one(seed, kind):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 9))
    d = int(rng.integers(2, 7)) * 2
    model = make_gda(rng, d, kind=kind)
    X = rng.uniform(-1, 1, size=(T, d))
    out = att.gda_forward(X, model)
    np.testing.assert_allclose(out.weights.sum(axis=0), np.ones(T), atol=1e-10)


@pytest.mark.parametrize("kind", att.SIMILARITY_KINDS)
def test_gda_grads_match_fd(kind):
    rng = np.random.default_rng(11)
    T, d = 6, 8
    model = make_gda(rng, d, kind=kind)
    X = rng.uniform(-1, 1, size=(T, d))
    W = Matrix(rng.uniform(-1, 1, size=(T, d)))  # mixing weights, so grads are generic
    params = [model.gda.Wq, model.gda.Wk, model.gda.Wv]

    def run():
        tape = Tape()
        out = att.gda_forward(X, model, tape)
        loss = oracles.sum_all(oracles.multiply(out.features, W, tape), tape)
        return loss, tape

    for m in params:
        m.grad = np.zeros_like(m.data)
    loss, tape = run()
    ag.backward(loss, tape)
    numeric = finite_difference_grads(lambda: run()[0].item(), params)
    for m, num in zip(params, numeric):
        np.testing.assert_allclose(m.grad, num, rtol=1e-4, atol=1e-6)


def test_gda_permutation_equivariant_without_positions():
    rng = np.random.default_rng(12)
    T, d = 7, 6
    model = make_gda(rng, d, kind="l2", positions=False)
    X = rng.uniform(-1, 1, size=(T, d))
    perm = rng.permutation(T)
    base = att.gda_forward(X, model).features.data
    shuffled = att.gda_forward(X[perm], model).features.data
    unshuffled = np.empty_like(shuffled)
    unshuffled[perm] = shuffled
    np.testing.assert_allclose(unshuffled, base, atol=1e-12)


@pytest.mark.parametrize("positions", [False, True], ids=["bare", "positions"])
@pytest.mark.parametrize("T", [1, 2, 7, 300])
@pytest.mark.parametrize("kind", att.SIMILARITY_KINDS)
def test_forward_only_gda_equals_taped_gda_byte_for_byte(kind, T, positions):
    # d=4 keeps these products in the BLAS's small-matrix range, where a
    # product taken from a transposed view differs in the last bit
    rng = np.random.default_rng(T)
    d = 4
    model = make_gda(rng, d, kind=kind, positions=positions)
    X = rng.uniform(-1, 1, size=(T, d))
    x_bytes = X.tobytes()
    bare = att.gda_forward(X, model)
    taped = att.gda_forward(X, model, Tape())
    assert X.tobytes() == x_bytes
    assert bare.features.data.tobytes() == taped.features.data.tobytes()
    assert bare.weights.tobytes() == taped.weights.tobytes()
    assert bare.weights.T.flags.c_contiguous  # a view of the buffer that mixed the values


@pytest.mark.parametrize("taped", [False, True], ids=["no-tape", "tape"])
def test_forward_only_gda_holds_one_t_by_t_buffer(taped):
    T, d = 1000, 64
    rng = np.random.default_rng(0)
    model = make_gda(rng, d, positions=False)
    X = rng.uniform(-1, 1, size=(T, d))
    tracemalloc.start()
    try:
        att.gda_forward(X, model, Tape() if taped else None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * T * T * 8


@pytest.mark.parametrize("kind, bound", [("l2", 4.0), ("dot", 4.0), ("cosine", 5.0)])
def test_gda_forward_and_backward_hold_few_t_by_t_buffers(kind, bound):
    # the forward's buffer, then the backward's one gradient buffer and its
    # passing temporaries; cosine recomputes Q K^T in its backward
    T, d = 1000, 64
    rng = np.random.default_rng(0)
    model = make_gda(rng, d, kind=kind, positions=False)
    p = model.gda
    X = rng.uniform(-1, 1, size=(T, d))
    G = rng.uniform(-1, 1, size=(T, d))
    tracemalloc.start()
    try:
        tape = Tape()
        out = att.gda_forward(X, model, tape)
        out.features.grad = G
        [bwd] = tape.records
        bwd()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(m.grad is not None for m in (p.Wq, p.Wk, p.Wv))
    assert peak < bound * T * T * 8


def loss_grads(run, mats, loss, rng, held=None):
    """Output bytes and the gradients of the parameters `mats` under a
    loss on the features, the weights or both, for run(tape) -> (features,
    weights). The gradients start from zero, or from copies of `held`."""
    for i, m in enumerate(mats):
        m.grad = np.zeros_like(m.data) if held is None else held[i].copy()
    tape = Tape()
    features, weights = run(tape)
    mix_f = Matrix(rng.uniform(-1, 1, size=features.shape))
    mix_w = Matrix(rng.uniform(-1, 1, size=weights.shape))
    terms = []
    if loss in ("features", "both"):
        terms.append(oracles.sum_all(oracles.multiply(features, mix_f, tape), tape))
    if loss in ("weights", "both"):
        terms.append(oracles.sum_all(oracles.multiply(Matrix(weights), mix_w, tape), tape))
    ag.backward(terms[0] if len(terms) == 1 else oracles.add(*terms, tape), tape)
    return [a.tobytes() for a in [features.data, weights] + [m.grad for m in mats]]


def constant_weights(chain):
    """The op chain's (features, weights) with the weights as a constant
    array, as the fused attention paths give them: a loss on them reaches
    no parameter."""
    features, weights = chain
    return features, weights.data


def gda_chain(X, model, tape):
    """oracles.gda_chain on Matrix copies of the features and of the
    position table the model's config adds."""
    P = Matrix(att.sinusoidal_positions(*X.shape)) if model.cfg.use_positions else None
    return oracles.gda_chain(Matrix(X), model, P, tape)


@pytest.mark.parametrize("loss", ["features", "weights", "both"])
@pytest.mark.parametrize("positions", [False, True], ids=["bare", "positions"])
@pytest.mark.parametrize("T", [1, 2, 7, 31, 32, 33, 257, 300])
@pytest.mark.parametrize("kind", att.SIMILARITY_KINDS)
def test_gda_bytes_and_grads_equal_the_generic_op_chain(kind, T, positions, loss):
    # d=4 keeps the products in the BLAS's small-matrix range; T=31..33 sit
    # either side of a row block, and T=257 is past two transpose tiles
    rng = np.random.default_rng(T)
    d = 4
    model = make_gda(rng, d, kind=kind, positions=positions)
    X = rng.uniform(-1, 1, size=(T, d))

    def fused(tape):
        out = att.gda_forward(X, model, tape)
        return out.features, out.weights

    mats = [model.gda.Wq, model.gda.Wk, model.gda.Wv]
    want = loss_grads(lambda tape: constant_weights(gda_chain(X, model, tape)), mats,
                      loss, np.random.default_rng(1))
    assert loss_grads(fused, mats, loss, np.random.default_rng(1)) == want


@pytest.mark.parametrize("positions", [False, True], ids=["bare", "positions"])
@pytest.mark.parametrize("kind", att.SIMILARITY_KINDS)
def test_gda_grads_add_onto_held_grads_as_the_op_chain_does(kind, positions):
    rng = np.random.default_rng(3)
    T, d = 7, 4
    model = make_gda(rng, d, kind=kind, positions=positions)
    X = rng.uniform(-1, 1, size=(T, d))
    mats = [model.gda.Wq, model.gda.Wk, model.gda.Wv]
    held = [rng.normal(size=m.shape) for m in mats]

    def fused(tape):
        out = att.gda_forward(X, model, tape)
        return out.features, out.weights

    want = loss_grads(lambda tape: constant_weights(gda_chain(X, model, tape)), mats,
                      "both", np.random.default_rng(1), held)
    assert loss_grads(fused, mats, "both", np.random.default_rng(1), held) == want


@pytest.mark.parametrize("T", [1, 2, 7, 31, 32, 33, 257, 300])
@pytest.mark.parametrize("kind", att.SIMILARITY_KINDS)
def test_similarity_bytes_equal_the_generic_op_chain(kind, T):
    # the gradient bytes are pinned through gda_forward's weights record
    rng = np.random.default_rng(T)
    Q, K = rng.normal(size=(T, 4)), rng.normal(size=(T, 4))
    q_bytes, k_bytes = Q.tobytes(), K.tobytes()
    want = oracles.similarity_chain(Matrix(Q), Matrix(K), kind, 3.0).data.tobytes()
    assert att.pairwise_similarity(Q, K, kind, 3.0).tobytes() == want
    assert Q.tobytes() == q_bytes and K.tobytes() == k_bytes


@pytest.mark.parametrize("positions", [False, True], ids=["bare", "positions"])
@pytest.mark.parametrize("kind", att.SIMILARITY_KINDS)
def test_gda_forward_makes_one_record(kind, positions):
    rng = np.random.default_rng(0)
    T, d = 5, 4
    model = make_gda(rng, d, kind=kind, positions=positions)
    X = rng.uniform(-1, 1, size=(T, d))
    tape = Tape()
    att.gda_forward(X, model, tape)
    assert len(tape.records) == 1
    att.gda_forward(X, model, tape)
    assert len(tape.records) == 2


def test_gda_features_and_weights_get_no_gradient():
    rng = np.random.default_rng(2)
    T, d = 6, 4
    model = make_gda(rng, d)
    X = rng.uniform(-1, 1, size=(T, d))
    before = X.tobytes()
    tape = Tape()
    out = att.gda_forward(X, model, tape)
    weights = out.weights.tobytes()
    ag.backward(oracles.sum_all(out.features, tape), tape)
    assert all(type(a) is np.ndarray for a in (X, out.weights))
    assert [X.tobytes(), out.weights.tobytes()] == [before, weights]
    assert all(m.grad is not None for m in (model.gda.Wq, model.gda.Wk, model.gda.Wv))


@pytest.mark.parametrize("n", [1, 7, 127, 128, 129, 256, 300, 513])
def test_transpose_in_place_equals_the_copied_transpose(n):
    a = np.random.default_rng(n).normal(size=(n, n))
    assert att._transpose_in_place(a.copy()).tobytes() == a.T.copy().tobytes()


# ---------------------------------------------------------------------------
# local path


def test_literal_variant_collapses_to_value_projection():
    rng = np.random.default_rng(13)
    T, d, R = 9, 5, 2
    model = make_lca(rng, d, R, variant="literal")
    X = rng.uniform(-1, 1, size=(T, d))
    out = att.lca_forward(X, model)
    np.testing.assert_allclose(out.features.data, X @ model.lca.Wv2.data, atol=1e-10)


def test_contextual_identical_window_gives_value_projection():
    rng = np.random.default_rng(14)
    d, R = 4, 2
    model = make_lca(rng, d, R)
    X = np.tile(rng.uniform(-1, 1, size=(1, d)), (7, 1))
    out = att.lca_forward(X, model)
    np.testing.assert_allclose(out.features.data, X @ model.lca.Wv2.data, atol=1e-10)


@pytest.mark.parametrize("T", [1, 3, 7])
@pytest.mark.parametrize("boundary", att.BOUNDARY_POLICIES)
@pytest.mark.parametrize("variant", att.LCA_VARIANTS)
def test_lca_matches_naive_loops(variant, boundary, T):
    # T=1 and T=3 are shorter than the 5-frame window, so every anchor
    # reaches past at least one end
    rng = np.random.default_rng(15)
    d, R = 6, 2
    model = make_lca(rng, d, R, variant=variant, boundary=boundary)
    p = model.lca
    X = rng.uniform(-1, 1, size=(T, d))
    out = att.lca_forward(X, model)
    want_feat, want_wts = oracles.naive_local_attention(
        X, p.Wq2.data, p.Wk2.data, p.Wv2.data, p.rel_pos.data, R, variant, boundary
    )
    np.testing.assert_allclose(out.features.data, want_feat, atol=1e-10)
    np.testing.assert_allclose(out.weights, want_wts, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(att.LCA_VARIANTS))
def test_lca_window_distributions_sum_to_one(seed, variant):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 10))
    d = int(rng.integers(2, 7))
    R = int(rng.integers(1, 4))
    model = make_lca(rng, d, R, variant=variant)
    X = rng.uniform(-1, 1, size=(T, d))
    out = att.lca_forward(X, model)
    assert out.weights.shape == (T, 2 * R + 1)
    np.testing.assert_allclose(out.weights.sum(axis=1), np.ones(T), atol=1e-10)


@pytest.mark.parametrize("boundary", att.BOUNDARY_POLICIES)
@pytest.mark.parametrize("variant", att.LCA_VARIANTS)
def test_lca_grads_match_fd(variant, boundary):
    rng = np.random.default_rng(16)
    T, d, R = 5, 4, 1
    model = make_lca(rng, d, R, variant=variant, boundary=boundary)
    p = model.lca
    X = rng.uniform(-1, 1, size=(T, d))
    W = Matrix(rng.uniform(-1, 1, size=(T, d)))
    params = [p.Wq2, p.Wk2, p.Wv2, p.rel_pos]

    def run():
        tape = Tape()
        out = att.lca_forward(X, model, tape)
        return oracles.sum_all(oracles.multiply(out.features, W, tape), tape), tape

    for m in params:
        m.grad = np.zeros_like(m.data)
    loss, tape = run()
    ag.backward(loss, tape)
    numeric = finite_difference_grads(lambda: run()[0].item(), params)
    for m, num in zip(params, numeric):
        np.testing.assert_allclose(m.grad, num, rtol=1e-4, atol=1e-6)


def fused_lca(X, model, tape):
    out = att.lca_forward(X, model, tape)
    return out.features, out.weights


@pytest.mark.parametrize("loss", ["features", "weights", "both"])
@pytest.mark.parametrize("d", [4, 64])
@pytest.mark.parametrize("R", [1, 2, 4])
@pytest.mark.parametrize("T", [1, 2, 7, 300])
@pytest.mark.parametrize("boundary", att.BOUNDARY_POLICIES)
@pytest.mark.parametrize("variant", att.LCA_VARIANTS)
def test_lca_bytes_and_grads_equal_the_generic_op_chain(variant, boundary, T, R, d, loss):
    rng = np.random.default_rng(T)
    model = make_lca(rng, d, R, variant=variant, boundary=boundary)
    p = model.lca
    X = rng.uniform(-1, 1, size=(T, d))
    x_bytes = X.tobytes()
    bare = att.lca_forward(X, model)
    assert X.tobytes() == x_bytes
    mats = [p.Wq2, p.Wk2, p.Wv2, p.rel_pos]
    want = loss_grads(lambda tape: constant_weights(oracles.lca_chain(Matrix(X), model, tape)),
                      mats, loss, np.random.default_rng(1))
    assert loss_grads(lambda tape: fused_lca(X, model, tape), mats,
                      loss, np.random.default_rng(1)) == want
    assert [bare.features.data.tobytes(), bare.weights.tobytes()] == want[:2]


@pytest.mark.parametrize("boundary", att.BOUNDARY_POLICIES)
@pytest.mark.parametrize("variant", att.LCA_VARIANTS)
def test_lca_grads_add_onto_held_grads_as_the_op_chain_does(variant, boundary):
    rng = np.random.default_rng(3)
    T, d, R = 7, 4, 2
    model = make_lca(rng, d, R, variant=variant, boundary=boundary)
    p = model.lca
    X = rng.uniform(-1, 1, size=(T, d))
    mats = [p.Wq2, p.Wk2, p.Wv2, p.rel_pos]
    held = [rng.normal(size=m.shape) for m in mats]
    want = loss_grads(lambda tape: constant_weights(oracles.lca_chain(Matrix(X), model, tape)),
                      mats, "both", np.random.default_rng(1), held)
    assert loss_grads(lambda tape: fused_lca(X, model, tape), mats,
                      "both", np.random.default_rng(1), held) == want


@pytest.mark.parametrize("boundary", att.BOUNDARY_POLICIES)
@pytest.mark.parametrize("variant", att.LCA_VARIANTS)
def test_lca_forward_makes_one_record(variant, boundary):
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(5, 4))
    tape = Tape()
    for calls, R in enumerate((1, 2, 4), start=1):
        att.lca_forward(X, make_lca(rng, 4, R, variant=variant, boundary=boundary), tape)
        assert len(tape.records) == calls


@pytest.mark.parametrize("boundary", att.BOUNDARY_POLICIES)
@pytest.mark.parametrize("variant", att.LCA_VARIANTS)
def test_lca_output_that_misses_the_loss_leaves_operand_grads_unset(variant, boundary):
    rng = np.random.default_rng(4)
    model = make_lca(rng, 4, 2, variant=variant, boundary=boundary)
    p = model.lca
    X = rng.uniform(-1, 1, size=(6, 4))
    x_bytes = X.tobytes()
    mats = [p.Wq2, p.Wk2, p.Wv2, p.rel_pos]
    tape = Tape()
    att.lca_forward(X, model, tape)
    x = Matrix([[1.0, -2.0]])
    ag.backward(oracles.sum_all(oracles.scale(x, 2.0, tape), tape), tape)
    assert all(m.grad is None for m in mats) and X.tobytes() == x_bytes


def test_zero_boundary_policy_differs_from_clamp_at_edges():
    rng = np.random.default_rng(17)
    T, d, R = 5, 4, 2
    clamp = make_lca(rng, d, R, boundary="clamp")
    X = rng.uniform(-1, 1, size=(T, d))
    out_c = att.lca_forward(X, clamp)
    out_z = att.lca_forward(X, replace(clamp, cfg=replace(clamp.cfg, window_boundary="zero")))
    # interior anchor (h=2) has no padding, so the two policies agree there
    np.testing.assert_allclose(out_c.features.data[2], out_z.features.data[2], atol=1e-12)
    assert not np.allclose(out_c.features.data[0], out_z.features.data[0])
    np.testing.assert_allclose(out_z.weights.sum(axis=1), np.ones(T), atol=1e-10)


def test_lca_param_validation():
    # the model refuses, when it is built, local matrices its dim and radius disagree with
    for rows, cols, R in ((4, 3, 1), (1, 3, 1), (5, 2, 2)):  # even, R = 0, wrong width
        want = f"lca.rel_pos must be {2 * R + 1}x3, got {rows}x{cols}"
        with pytest.raises(ShapeError, match=want):
            oracles.model_with(3, TrainConfig(neighbor_R=R),
                               {"lca.rel_pos": Matrix(np.zeros((rows, cols)))})
    with pytest.raises(ShapeError, match="lca.Wq2 must be 3x3, got 3x2"):  # queries too narrow
        oracles.model_with(3, TrainConfig(neighbor_R=1), {"lca.Wq2": Matrix(np.eye(3)[:, :2])})


def test_gda_refuses_projections_that_are_not_d_by_d():
    # the model refuses them when it is built, so gda_forward never sees one
    rng = np.random.default_rng(24)
    for name, bad in (("Wq", (4, 3)), ("Wk", (4, 3)), ("Wv", (4, 2))):
        mats = {f"gda.{name}": Matrix(rng.uniform(-1, 1, size=bad))}
        with pytest.raises(ShapeError, match=f"gda.{name} must be 4x4, got {bad[0]}x{bad[1]}"):
            oracles.model_with(4, TrainConfig(), mats)


@pytest.mark.parametrize("T, row", [(6, 0), (40, -1)], ids=["first-row", "last-row"])
@pytest.mark.parametrize("layer", ["gda", "lca"])
@pytest.mark.parametrize("bad", ["nan", "+inf", "-inf", "-inf column"])
def test_column_softmax_refuses_non_finite_scores_before_touching_them(monkeypatch, layer, bad,
                                                                        T, row):
    # each layer's scores, with one bad entry (or column) planted on the way
    # in; in GDA's 40 x 40 buffer the last row lies in a later row block
    real, seen = att._softmax_columns, []

    def planted(s):
        if bad == "-inf column":
            s[:, 1] = -np.inf
        else:
            s[row, 1] = float(bad)
        seen.append((s, s.copy()))
        return real(s)

    monkeypatch.setattr(att, "_softmax_columns", planted)
    rng = np.random.default_rng(25)
    X = rng.uniform(-1, 1, size=(T, 4))
    with pytest.raises(NumericError, match="column_softmax: input contains NaN or Inf"):
        if layer == "gda":
            att.gda_forward(X, make_gda(rng, 4, positions=False))
        else:
            att.lca_forward(X, make_lca(rng, 4, 1))
    [(s, before)] = seen
    assert s.tobytes() == before.tobytes()


@pytest.mark.parametrize("rows, R", [(3, 3), (5, 1)])
def test_lca_refuses_rel_pos_rows_its_config_radius_disagrees_with(rows, R):
    # a model whose radius is changed is built again, and refused
    rng = np.random.default_rng(rows)
    model = make_lca(rng, 4, (rows - 1) // 2)
    X = rng.uniform(-1, 1, size=(6, 4))
    with pytest.raises(ShapeError, match=f"lca.rel_pos must be {2 * R + 1}x4, got {rows}x4"):
        replace(model, cfg=replace(model.cfg, neighbor_R=R))
    assert att.lca_forward(X, model).weights.shape == (6, rows)


@pytest.mark.parametrize("path", ["global", "local"])
@pytest.mark.parametrize("shape", [(4,), (3, 4, 1)], ids=["1-D", "3-D"])
def test_attention_refuses_features_that_are_not_2d(path, shape):
    rng = np.random.default_rng(21)
    X = np.zeros(shape)
    with pytest.raises(ShapeError, match=rf"{path} attention .* got shape {re.escape(str(shape))}"):
        if path == "global":
            att.gda_forward(X, make_gda(rng, 4))
        else:
            att.lca_forward(X, make_lca(rng, 4, 1))


@pytest.mark.parametrize("path", ["global", "local"])
@pytest.mark.parametrize("shape", [(0, 4), (3, 5)], ids=["no-frames", "wrong-dim"])
def test_attention_refuses_features_without_frames_or_of_the_wrong_dim(path, shape):
    rng = np.random.default_rng(21)
    X = np.zeros(shape)
    with pytest.raises(ShapeError, match=f"{path} attention .* got {shape[0]}x{shape[1]}"):
        if path == "global":
            att.gda_forward(X, make_gda(rng, 4))
        else:
            att.lca_forward(X, make_lca(rng, 4, 1))


# ---------------------------------------------------------------------------
# fusion


def test_fuse_zero_contributions_is_identity():
    rng = np.random.default_rng(19)
    X = rng.uniform(-1, 1, size=(4, 3))
    Z = Matrix(np.zeros((4, 3)))
    np.testing.assert_array_equal(att.dca_fuse(X, Z, Z).data, X)


def test_fuse_triples_equal_inputs():
    M = Matrix(np.full((2, 2), 1.5))
    np.testing.assert_allclose(att.dca_fuse(M.data, M, M).data, 3.0 * M.data, atol=1e-15)


def test_fuse_matches_elementwise_loops():
    rng = np.random.default_rng(20)
    a, b, c = (rng.uniform(-1, 1, size=(3, 4)) for _ in range(3))
    got = att.dca_fuse(a, Matrix(b), Matrix(c)).data
    want = [[a[i][j] + b[i][j] + c[i][j] for j in range(4)] for i in range(3)]
    np.testing.assert_allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("aliased", [False, True], ids=["distinct", "one-matrix"])
def test_fuse_is_one_record_with_the_bytes_of_the_generic_op_chain(aliased):
    rng = np.random.default_rng(23)
    mats = [Matrix(rng.normal(size=(5, 3))) for _ in range(3)]
    if aliased:
        mats = mats[:1] * 3
    mix = Matrix(rng.normal(size=(5, 3)))

    def run(fuse):
        for m in mats:
            m.grad = np.full(m.shape, 0.1)
        tape = Tape()
        out = fuse(mats[0].data, *mats[1:], tape)
        records = len(tape.records)
        ag.backward(oracles.sum_all(oracles.multiply(out, mix, tape), tape), tape)
        return records, [out.data.tobytes()] + [m.grad.tobytes() for m in mats]

    # the raw features X are a constant, so the chain adds a copy of them
    chain = lambda X, Xg, Xl, tape: oracles.add(oracles.add(Matrix(X), Xg, tape), Xl, tape)
    records, got = run(att.dca_fuse)
    assert records == 1
    assert got == run(chain)[1]


def test_fuse_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        att.dca_fuse(np.zeros((2, 2)), Matrix(np.zeros((2, 2))), Matrix(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        att.dca_fuse(np.zeros((2, 2)), None, Matrix(np.zeros((3, 2))))


@pytest.mark.parametrize("absent", ["global", "local", "both"])
def test_fuse_adds_zeros_for_absent_paths_and_gives_them_no_share(absent):
    # -0.0 in X comes out +0.0, as it does when a zero array is added
    rng = np.random.default_rng(26)
    X = rng.normal(size=(5, 3))
    X[0, 0] = -0.0
    Xg, Xl = Matrix(rng.normal(size=(5, 3))), Matrix(rng.normal(size=(5, 3)))
    if absent in ("global", "both"):
        Xg = None
    if absent in ("local", "both"):
        Xl = None
    zeros = np.zeros_like(X)
    want = X + (zeros if Xg is None else Xg.data) + (zeros if Xl is None else Xl.data)
    tape = Tape()
    out = att.dca_fuse(X, Xg, Xl, tape)
    assert out.data.tobytes() == want.tobytes()
    assert len(tape.records) == 1
    ag.backward(oracles.sum_all(out, tape), tape)
    assert all(m.grad is not None for m in (Xg, Xl) if m is not None)


# ---------------------------------------------------------------------------
# partition map


def test_partition_l2_matches_nearest_neighbor():
    rng = np.random.default_rng(21)
    pts = rng.uniform(0, 1, size=(3, 2))
    grid = att.GridSpec(nx=50, ny=50)
    winners, xs, ys = att.partition_map(pts, "l2", grid)
    for iy in range(0, 50, 7):
        for ix in range(0, 50, 7):
            assert winners[iy, ix] == oracles.nearest_point_index(xs[ix], ys[iy], pts)


def test_partition_cosine_matches_the_nearest_direction():
    pts = np.array([[1.0, 0.1], [-0.3, 1.0], [-1.0, -0.8], [0.6, -1.0]])
    grid = att.GridSpec(xmin=-1, xmax=1, ymin=-1, ymax=1, nx=21, ny=21)
    winners, xs, ys = att.partition_map(pts, "cosine", grid)
    # the origin cell has similarity 0 to every point, so the lowest index wins
    assert xs[10] == ys[10] == 0.0 and winners[10, 10] == 0
    checked = 0
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            gaps = oracles.nearest_direction_gaps(x, y, pts)
            first, second = sorted(gaps)[:2]
            if (x, y) != (0.0, 0.0) and second - first > 1e-9:  # no near-tie
                assert winners[iy, ix] == int(np.argmin(gaps))
                checked += 1
    assert checked > 400


def test_partition_dot_two_point_boundary_is_linear():
    pts = np.array([[1.0, 0.2], [0.2, 1.0]])
    grid = att.GridSpec(xmin=-1, xmax=1, ymin=-1, ymax=1, nx=41, ny=41)
    winners, xs, ys = att.partition_map(pts, "dot", grid)
    diff = pts[0] - pts[1]
    for iy in range(41):
        for ix in range(41):
            margin = xs[ix] * diff[0] + ys[iy] * diff[1]
            assert winners[iy, ix] == (0 if margin >= 0 else 1)


def test_partition_rejects_degenerate_inputs():
    with pytest.raises(ContractError):
        att.partition_map([[0.5, 0.5]], "l2")
    with pytest.raises(ContractError):
        att.partition_map([[0.5, 0.5], [0.5, 0.5]], "l2")
    with pytest.raises(ContractError):
        att.partition_map([[0.0, 0.0], [1.0, 1.0]], "chebyshev")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericError):
            att.partition_map([[0.1, 0.2], [0.3, bad]], "l2")


def test_partition_csv_shape_and_header():
    grid = att.GridSpec(nx=5, ny=4)
    text = att.partition_map_csv([[0.1, 0.1], [0.9, 0.9]], "l2", grid)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,winner_index"
    assert len(lines) == 1 + 5 * 4
    x, y, w = lines[1].split(",")
    assert float(x) == 0.0 and float(y) == 0.0 and w in {"0", "1"}


def test_partition_dot_scaling_grows_winning_region():
    rng = np.random.default_rng(22)
    pts = rng.uniform(0.05, 1.0, size=(3, 2))
    grid = att.GridSpec(nx=60, ny=60)
    before, _, _ = att.partition_map(pts, "dot", grid)
    scaled = pts.copy()
    scaled[1] *= 2.0
    after, _, _ = att.partition_map(scaled, "dot", grid)
    assert np.all(after[before == 1] == 1)
