import re
from dataclasses import FrozenInstanceError, replace
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divsum import attention as att
from divsum import autograd as ag
from divsum import heads as hd
from divsum import model as mdl
from divsum.attention import GdaParams, LcaParams
from divsum.autograd import ContractError, Matrix, NumericError, ShapeError, Tape
from divsum.config import TrainConfig
from divsum.training import init_params, loss_and_grads

from . import oracles
from .oracles import finite_difference_grads


def affine(rng, rows, cols):
    return hd.Affine(
        W=Matrix(rng.uniform(-0.5, 0.5, size=(rows, cols))),
        b=Matrix(rng.uniform(-0.5, 0.5, size=(1, cols))),
    )


def make_heads(rng, d):
    return hd.HeadParams(
        score1=affine(rng, d, d),
        score2=affine(rng, d, 1),
        embed=affine(rng, d, d),
        recon1=affine(rng, d, d),
        recon2=affine(rng, d, d),
    )


def with_heads(h, **settings):
    """A model holding the heads h, zeros for the attention matrices, and
    the config TrainConfig(**settings)."""
    mats = {f"heads.{name}.{leaf}": getattr(getattr(h, name), leaf)
            for name in ("score1", "score2", "embed", "recon1", "recon2") for leaf in ("W", "b")}
    return oracles.model_with(h.score1.W.rows, TrainConfig(**settings), mats)


def col(values):
    return Matrix(np.reshape(values, (-1, 1)))


def make_model(rng, d, R, **settings):
    """A model of random matrices whose config is TrainConfig(neighbor_R=R, **settings)."""
    sq = lambda: Matrix(rng.uniform(-0.5, 0.5, size=(d, d)))
    return mdl.ModelParams(
        gda=GdaParams(Wq=sq(), Wk=sq(), Wv=sq()),
        lca=LcaParams(
            Wq2=sq(), Wk2=sq(), Wv2=sq(),
            rel_pos=Matrix(rng.uniform(-0.5, 0.5, size=(2 * R + 1, d))),
        ),
        heads=make_heads(rng, d),
        cfg=TrainConfig(neighbor_R=R, **settings),
    )


def switched(params, **settings):
    """params with the config keys `settings` changed."""
    return replace(params, cfg=replace(params.cfg, **settings))


# ---------------------------------------------------------------------------
# score head


def test_zero_head_scores_half():
    d = 4
    zeros = lambda r, c: hd.Affine(W=Matrix(np.zeros((r, c))), b=Matrix(np.zeros((1, c))))
    h = hd.HeadParams(
        score1=zeros(d, d), score2=zeros(d, 1), embed=zeros(d, d),
        recon1=zeros(d, d), recon2=zeros(d, d),
    )
    y = hd.score_frames(Matrix(np.random.default_rng(0).uniform(-1, 1, (5, d))), with_heads(h))
    np.testing.assert_array_equal(y.data, np.full((5, 1), 0.5))


def test_scores_strictly_inside_unit_interval():
    rng = np.random.default_rng(1)
    model = with_heads(make_heads(rng, 6))
    y = hd.score_frames(Matrix(rng.uniform(-3, 3, (20, 6))), model).data
    assert np.all(y > 0.0) and np.all(y < 1.0)


def test_single_row_matches_batched_row():
    rng = np.random.default_rng(2)
    model = with_heads(make_heads(rng, 5))
    X = rng.uniform(-1, 1, (4, 5))
    batched = hd.score_frames(Matrix(X), model).data
    single = hd.score_frames(Matrix(X[2:3]), model).data
    np.testing.assert_allclose(single, batched[2:3], atol=1e-12)


def test_score_head_grads_match_fd():
    rng = np.random.default_rng(3)
    d = 5
    h = make_heads(rng, d)
    model = with_heads(h)
    X = Matrix(rng.uniform(-1, 1, (6, d)))
    params = [h.score1.W, h.score1.b, h.score2.W, h.score2.b]

    def run():
        tape = Tape()
        return oracles.sum_all(hd.score_frames(X, model, tape), tape), tape

    for m in params:
        m.grad = np.zeros_like(m.data)
    loss, tape = run()
    ag.backward(loss, tape)
    numeric = finite_difference_grads(lambda: run()[0].item(), params)
    for m, num in zip(params, numeric):
        np.testing.assert_allclose(m.grad, num, rtol=1e-4, atol=1e-6)


def test_head_params_validate_dimension_chain():
    cfg = TrainConfig(neighbor_R=1)
    mats = dict(init_params(4, 1, 0, cfg).named_parameters())
    mats["heads.score2.W"] = Matrix(np.zeros((4, 2)))
    # the score head must end in a single score column
    with pytest.raises(ShapeError, match="^heads.score2.W must be 4x1, got 4x2$"):
        mdl.ModelParams.from_named(mats, cfg)


def test_a_head_layer_refuses_an_input_of_the_wrong_width():
    model = with_heads(make_heads(np.random.default_rng(4), 4))
    with pytest.raises(ShapeError, match="affine input 3x5, weight 4x4"):
        hd.score_frames(Matrix(np.zeros((3, 5))), model)


def test_the_model_refuses_a_head_layer_its_neighbours_disagree_with():
    # checked once, when the model is built, rather than by each head call
    rng = np.random.default_rng(4)
    h = make_heads(rng, 4)
    broken = replace(h, score1=affine(rng, 4, 3))  # one column short of score2's rows
    with pytest.raises(ShapeError, match="^heads.score1.W must be 4x4, got 4x3$"):
        with_heads(broken)
    wide_bias = replace(h, score2=hd.Affine(W=h.score2.W, b=Matrix(np.zeros((1, 2)))))
    with pytest.raises(ShapeError, match="^heads.score2.b must be 1x1, got 1x2$"):
        with_heads(wide_bias)


# ---------------------------------------------------------------------------
# classification loss


def test_bce_at_half_is_ln2():
    y = col([0.5, 0.5, 0.5])
    for gt in ([0.0, 1.0, 0.0], [1.0, 1.0, 1.0]):
        assert hd.bce_loss(y, gt).item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_perfect_prediction_is_tiny():
    y = col([1.0, 0.0, 1.0])
    assert hd.bce_loss(y, [1.0, 0.0, 1.0]).item() <= 1e-6


def test_bce_matches_loop_oracle():
    rng = np.random.default_rng(5)
    y = rng.uniform(0.01, 0.99, size=12)
    gt = rng.integers(0, 2, size=12).astype(float)
    got = hd.bce_loss(Matrix(y[:, None]), gt).item()
    assert got == pytest.approx(oracles.loop_bce(y, gt), abs=1e-12)


def test_bce_refuses_a_prediction_that_is_not_a_column():
    with pytest.raises(ShapeError, match="^bce_loss expects column vectors$"):
        hd.bce_loss(Matrix(np.full((3, 2), 0.5)), [1.0, 0.0, 1.0])


def test_bce_length_mismatch():
    with pytest.raises(ShapeError):
        hd.bce_loss(col([0.5, 0.5]), [1.0])


def test_bce_decreases_toward_target():
    gt = [1.0, 0.0, 1.0, 0.0]
    worse = hd.bce_loss(col([0.6, 0.4, 0.6, 0.4]), gt).item()
    better = hd.bce_loss(col([0.8, 0.2, 0.8, 0.2]), gt).item()
    assert better < worse


def test_bce_grads_match_fd():
    rng = np.random.default_rng(6)
    y = Matrix(rng.uniform(0.05, 0.95, size=(8, 1)))
    gt = rng.integers(0, 2, size=8).astype(float)

    def run():
        tape = Tape()
        return hd.bce_loss(y, gt, tape), tape

    y.grad = np.zeros_like(y.data)
    loss, tape = run()
    ag.backward(loss, tape)
    numeric = finite_difference_grads(lambda: run()[0].item(), [y])
    np.testing.assert_allclose(y.grad, numeric[0], rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------------
# repelling loss


def test_repelling_identical_rows_is_one():
    E = Matrix(np.tile([[0.3, -0.7, 0.2]], (4, 1)))
    assert hd.repelling_loss(E).item() == pytest.approx(1.0, abs=1e-12)


def test_repelling_orthogonal_pair_is_zero():
    E = Matrix([[1.0, 0.0], [0.0, 2.0]])
    assert hd.repelling_loss(E).item() == pytest.approx(0.0, abs=1e-12)


def test_repelling_matches_double_loop():
    rng = np.random.default_rng(7)
    E = rng.uniform(-1, 1, size=(5, 6))
    got = hd.repelling_loss(Matrix(E)).item()
    assert got == pytest.approx(oracles.loop_repelling(E), abs=1e-12)


def test_repelling_contract_errors():
    with pytest.raises(ContractError):
        hd.repelling_loss(Matrix([[1.0, 2.0]]))
    with pytest.raises(NumericError):
        hd.repelling_loss(Matrix([[1.0, 0.0], [0.0, 0.0]]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 8), cols=st.integers(1, 6))
def test_repelling_stays_in_unit_range(seed, rows, cols):
    rng = np.random.default_rng(seed)
    E = rng.uniform(-1, 1, size=(rows, cols))
    E[np.sum(E * E, axis=1) == 0.0] = 1.0  # astronomically unlikely, but the contract forbids it
    val = hd.repelling_loss(Matrix(E)).item()
    assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9


def test_repelling_grads_match_fd():
    rng = np.random.default_rng(8)
    E = Matrix(rng.uniform(0.2, 1.0, size=(5, 4)))

    def run():
        tape = Tape()
        return hd.repelling_loss(E, tape), tape

    E.grad = np.zeros_like(E.data)
    loss, tape = run()
    ag.backward(loss, tape)
    numeric = finite_difference_grads(lambda: run()[0].item(), [E])
    np.testing.assert_allclose(E.grad, numeric[0], rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------------
# reconstruction loss


def test_reconstruction_zero_at_identity():
    X = np.random.default_rng(9).uniform(-1, 1, (4, 3))
    assert hd.reconstruction_loss(X, Matrix(X.copy())).item() == 0.0


def test_reconstruction_three_four_five():
    assert hd.reconstruction_loss(np.array([[3.0, 4.0]]), Matrix([[0.0, 0.0]])).item() == \
        pytest.approx(5.0, abs=1e-12)


def test_reconstruction_matches_loop_oracle():
    rng = np.random.default_rng(10)
    X = rng.uniform(-1, 1, (6, 5))
    Xr = rng.uniform(-1, 1, (6, 5))
    got = hd.reconstruction_loss(X, Matrix(Xr)).item()
    assert got == pytest.approx(oracles.loop_reconstruction(X, Xr), abs=1e-12)


def test_reconstruction_shape_mismatch():
    with pytest.raises(ShapeError):
        hd.reconstruction_loss(np.zeros((2, 3)), Matrix(np.zeros((3, 2))))


def test_reconstruction_grads_match_fd():
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, (5, 4))
    Xr = Matrix(rng.uniform(-1, 1, (5, 4)))

    def run():
        tape = Tape()
        return hd.reconstruction_loss(X, Xr, tape), tape

    Xr.grad = np.zeros_like(Xr.data)
    loss, tape = run()
    ag.backward(loss, tape)
    numeric = finite_difference_grads(lambda: run()[0].item(), [Xr])
    np.testing.assert_allclose(Xr.grad, numeric[0], rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------------
# combined objective


def test_total_loss_weights():
    parts = hd.LossParts(cls=Matrix([[7.0]]), repel=Matrix([[2.0]]),
                         recon=Matrix([[3.0]]))
    only_cls = hd.total_loss(parts, TrainConfig(alpha=0.0, beta=0.0))
    assert only_cls.item() == pytest.approx(7.0)
    unsup = hd.total_loss(hd.LossParts(cls=None, repel=parts.repel, recon=parts.recon),
                          TrainConfig(alpha=0.1, beta=1.0))
    assert unsup.item() == pytest.approx(3.2, abs=1e-12)


# ---------------------------------------------------------------------------
# assembled model


def test_full_forward_loss_grads_match_fd():
    rng = np.random.default_rng(12)
    T, d, R = 4, 4, 1
    params = make_model(rng, d, R, alpha=0.1, beta=1.0, supervised=True)
    X = rng.uniform(-1, 1, (T, d))
    gt = rng.integers(0, 2, size=T).astype(float)
    mats = [p for _, p in params.named_parameters()]
    _, grads = loss_and_grads(X, params, gt)
    numeric = finite_difference_grads(lambda: mdl.forward_loss(X, params, gt).total.item(),
                                      mats)
    for (name, _), g, num in zip(params.named_parameters(), grads, numeric):
        np.testing.assert_allclose(g, num, rtol=1e-4, atol=1e-6,
                                   err_msg=f"gradient mismatch for {name}")


def test_gradient_reaches_every_head():
    rng = np.random.default_rng(13)
    params = make_model(rng, 4, 1, supervised=True)
    X = rng.uniform(-1, 1, (5, 4))
    gt = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    _, grads = loss_and_grads(X, params, gt)
    for (name, _), g in zip(params.named_parameters(), grads):
        assert np.any(g != 0.0), f"no gradient reached {name}"


def test_forward_scores_ablation_toggles():
    rng = np.random.default_rng(14)
    params = make_model(rng, 4, 1)
    X = rng.uniform(-1, 1, (5, 4))
    both = mdl.forward_scores(X, params)
    no_gda = mdl.forward_scores(X, switched(params, use_gda=False))
    no_lca = mdl.forward_scores(X, switched(params, use_lca=False))
    neither = mdl.forward_scores(X, switched(params, use_gda=False, use_lca=False))
    assert no_gda.global_attention is None and no_gda.local_attention is not None
    np.testing.assert_allclose(
        no_gda.fused.data, X + no_gda.local_attention.features.data, atol=1e-12
    )
    np.testing.assert_allclose(
        no_lca.fused.data, X + no_lca.global_attention.features.data, atol=1e-12
    )
    np.testing.assert_array_equal(neither.fused.data, X)
    assert not np.allclose(both.fused.data, neither.fused.data)


def test_forward_scores_refuses_features_without_frames():
    params = make_model(np.random.default_rng(22), 4, 1)
    for model in (params, switched(params, use_gda=False)):
        with pytest.raises(ShapeError, match="attention .* got 0x4"):
            mdl.forward_scores(np.zeros((0, 4)), model)


@pytest.mark.parametrize("shape", [(4,), (5, 4, 1)], ids=["1-D", "3-D"])
def test_forward_scores_refuses_features_that_are_not_2d(shape):
    params = make_model(np.random.default_rng(22), 4, 1)
    for model in (params, switched(params, use_gda=False, use_lca=False)):
        with pytest.raises(ShapeError, match=re.escape(f"got shape {shape}")):
            mdl.forward_scores(np.zeros(shape), model)


def test_supervised_forward_requires_labels():
    rng = np.random.default_rng(15)
    params = make_model(rng, 4, 1, supervised=True)
    X = rng.uniform(-1, 1, (4, 4))
    with pytest.raises(ContractError):
        mdl.forward_loss(X, params, None)


def test_unsupervised_forward_needs_no_labels():
    rng = np.random.default_rng(16)
    params = make_model(rng, 4, 1, supervised=False)
    X = rng.uniform(-1, 1, (4, 4))
    out = mdl.forward_loss(X, params, None)
    assert out.parts.cls is None
    assert np.isfinite(out.total.item())


def test_unsupervised_forward_refuses_labels():
    # so "never reads labels" is checked where the labels would enter
    rng = np.random.default_rng(16)
    params = make_model(rng, 4, 1, supervised=False)
    X = rng.uniform(-1, 1, (4, 4))
    with pytest.raises(ContractError, match="unsupervised loss was passed labels"):
        mdl.forward_loss(X, params, np.array([1.0, 0.0, 1.0, 0.0]))


@pytest.mark.parametrize("key, value", [
    ("sim_kind", "cosine"), ("scale_q", 2.0), ("lca_variant", "literal"),
    ("window_boundary", "zero"), ("recon_final_sigmoid", True), ("use_positions", False),
    ("use_gda", False), ("use_lca", False),
])
def test_each_setting_reaches_the_model_from_its_config(key, value):
    cfg = TrainConfig(neighbor_R=1)
    X = np.random.default_rng(23).uniform(-1, 1, (6, 4))
    gt = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    base, other = (init_params(4, 1, 0, c) for c in (cfg, replace(cfg, **{key: value})))
    assert other.cfg != base.cfg
    totals = [mdl.forward_loss(X, model, gt).total.item() for model in (base, other)]
    assert totals[0] != totals[1]


@pytest.mark.parametrize("holder, name", [
    ("", "cfg"), ("gda", "Wq"), ("lca", "rel_pos"), ("heads", "score1"), ("heads.score1", "b"),
    ("cfg", "alpha"),
], ids=["ModelParams", "GdaParams", "LcaParams", "HeadParams", "Affine", "TrainConfig"])
def test_the_model_and_its_holders_refuse_field_rebinding(holder, name):
    # so the shapes ModelParams checked when it was built hold for its whole life
    params = init_params(4, 1, 0, TrainConfig(neighbor_R=1))
    obj = attrgetter(holder)(params) if holder else params
    with pytest.raises(FrozenInstanceError):
        setattr(obj, name, getattr(obj, name))


def test_named_parameters_are_stable_and_complete():
    rng = np.random.default_rng(17)
    params = make_model(rng, 4, 2)
    names = [n for n, _ in params.named_parameters()]
    assert names == [n for n, _ in params.named_parameters()]
    assert len(names) == len(set(names)) == 17
    assert "lca.rel_pos" in names and "heads.recon2.b" in names


# ---------------------------------------------------------------------------
# fused heads and losses against the generic-op chains


def reconstruction_chain(X, Xrec, tape=None):
    """oracles.reconstruction_chain on a Matrix copy of the feature array X."""
    return oracles.reconstruction_chain(Matrix(X), Xrec, tape)


CHAINS = {"score_frames": oracles.score_chain, "embed_frames": oracles.embed_chain,
          "reconstruct_frames": oracles.reconstruct_chain, "bce_loss": oracles.bce_chain,
          "repelling_loss": oracles.repelling_chain,
          "reconstruction_loss": reconstruction_chain,
          "total_loss": oracles.total_loss_chain}


def training_step(monkeypatch, chains, T, d, supervised, final_sigmoid=False, seed=0,
                  held=False):
    """forward_loss plus backward on a fresh model, through the fused heads
    and losses or through the chains. Returns the step's tape and the bytes
    of the total, the loss parts and every parameter gradient."""
    with monkeypatch.context() as patch:
        if chains:
            for name, chain in CHAINS.items():
                patch.setattr(hd, name, chain)
        rng = np.random.default_rng(seed)
        params = make_model(rng, d, 2, supervised=supervised, recon_final_sigmoid=final_sigmoid)
        X = rng.normal(size=(T, d))
        gt = rng.integers(0, 2, size=T).astype(float) if supervised else None
        mats = [m for _, m in params.named_parameters()]
        if held:
            for m in mats:
                m.grad = rng.normal(size=m.shape)
        else:
            params.zero_grads()
        tape = Tape()
        out = mdl.forward_loss(X, params, gt, tape)
        ag.backward(out.total, tape)
    parts = [out.total, out.parts.repel, out.parts.recon] + [out.parts.cls] * supervised
    grads = [None if m.grad is None else m.grad.tobytes() for m in mats]  # None: unreached
    return tape, [m.data.tobytes() for m in parts] + grads


@pytest.mark.parametrize("held", [False, True], ids=["x-grad-empty", "x-grad-held"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("final_sigmoid", [False, True], ids=["recon-linear", "recon-sigmoid"])
@pytest.mark.parametrize("supervised", [True, False], ids=["supervised", "unsupervised"])
@pytest.mark.parametrize("d", [4, 64])
@pytest.mark.parametrize("T", [2, 7, 300])
def test_heads_and_losses_equal_the_generic_op_chain(monkeypatch, T, d, supervised,
                                                     final_sigmoid, seed, held):
    args = (T, d, supervised, final_sigmoid, seed, held)
    _, fused = training_step(monkeypatch, False, *args)
    _, chain = training_step(monkeypatch, True, *args)
    assert len(fused) == len(chain) == 3 + supervised + 17
    for i, (got, want) in enumerate(zip(fused, chain)):
        assert got == want, i


@pytest.mark.parametrize("supervised, records, chain_records", [(True, 10, 43), (False, 9, 32)],
                         ids=["supervised", "unsupervised"])
def test_forward_loss_makes_10_records(monkeypatch, supervised, records, chain_records):
    # one per attention path and the fusion, then one record per head
    # (score, embed, reconstruction) and one per loss; the chains' heads
    # make 13 records and their losses 27 (16 unsupervised)
    assert len(training_step(monkeypatch, False, 7, 4, supervised)[0].records) == records
    assert len(training_step(monkeypatch, True, 7, 4, supervised)[0].records) == chain_records


@pytest.mark.parametrize("supervised", [True, False], ids=["supervised", "unsupervised"])
def test_a_step_gives_the_features_and_attention_weights_no_gradient(monkeypatch, supervised):
    outputs = []

    def kept(path):
        def run(*args):
            outputs.append(path(*args))
            return outputs[-1]
        return run

    for name in ("gda_forward", "lca_forward"):
        monkeypatch.setattr(att, name, kept(getattr(att, name)))
    rng = np.random.default_rng(5)
    params = make_model(rng, 4, 2, supervised=supervised)
    X = rng.normal(size=(7, 4))
    gt = rng.integers(0, 2, size=7).astype(float) if supervised else None
    constants = [X] + [gt] * supervised
    before = [a.tobytes() for a in constants]
    params.zero_grads()
    tape = Tape()
    out = mdl.forward_loss(X, params, gt, tape)
    weights = [o.weights.tobytes() for o in outputs]
    ag.backward(out.total, tape)
    assert len(outputs) == 2
    assert all(type(a) is np.ndarray for a in constants + [o.weights for o in outputs])
    assert [a.tobytes() for a in constants] == before
    assert [o.weights.tobytes() for o in outputs] == weights
    assert all(m.grad is not None and np.any(m.grad != 0.0)
               for name, m in params.named_parameters() if name.startswith(("gda.", "lca.")))


@pytest.mark.parametrize("final_sigmoid", [False, True], ids=["recon-linear", "recon-sigmoid"])
@pytest.mark.parametrize("head", [hd.score_frames, hd.embed_frames, hd.reconstruct_frames],
                         ids=["score", "embed", "reconstruct"])
def test_each_head_makes_one_record(head, final_sigmoid):
    rng = np.random.default_rng(3)
    model = with_heads(make_heads(rng, 4), recon_final_sigmoid=final_sigmoid)
    X = Matrix(rng.normal(size=(5, 4)))
    tape = Tape()
    head(X, model, tape)
    assert len(tape.records) == 1


@pytest.mark.parametrize("fused, chain", [
    (hd.bce_loss, oracles.bce_chain),
    (hd.repelling_loss, oracles.repelling_chain),
    (hd.reconstruction_loss, reconstruction_chain),
    (hd.total_loss, oracles.total_loss_chain),
], ids=["bce", "repelling", "reconstruction", "total"])
def test_losses_add_onto_held_grads_as_the_chains_do(fused, chain):
    # each operand's shares reach its held gradient one by one, in the chain's order
    def run(loss):
        rng = np.random.default_rng(20)
        a = Matrix(rng.uniform(0.05, 0.95, size=(50, 1 if fused is hd.bce_loss else 16)))
        b = Matrix(rng.normal(size=a.shape))
        parts = hd.LossParts(*(Matrix(rng.normal(size=(1, 1))) for _ in range(3)))
        args, operands = {
            hd.bce_loss: ((a, (a.data[:, 0] > 0.5).astype(float)), [a]),
            hd.repelling_loss: ((a,), [a]),
            hd.reconstruction_loss: ((a.data, b), [b]),  # a is the constant target
            hd.total_loss: ((parts, TrainConfig(alpha=0.3, beta=0.7)),
                            [parts.cls, parts.repel, parts.recon]),
        }[fused]
        for m in operands:
            m.grad = rng.normal(size=m.shape)
        tape = Tape()
        out = loss(*args, tape)
        ag.backward(out, tape)
        return [out.data.tobytes()] + [m.grad.tobytes() for m in operands]

    assert run(fused) == run(chain)
