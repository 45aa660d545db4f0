import ctypes
import gc
import json
import os
import platform
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from divsum import attention as att
from divsum import autograd as ag
from divsum import heads as hd
from divsum import training as tr
from divsum.autograd import ContractError, Matrix, NumericError, ShapeError, Tape
from divsum.config import ConfigError, TrainConfig, config_from_text, config_to_text, \
    load_config, parse_config_text
from divsum.data import DataFormatError, VideoRecord, synth_generate, SynthSpec
from divsum.model import ModelParams, forward_scores
from divsum.segmentation import score_video, summarize_video

from . import oracles


def tiny_cfg(**kw):
    base = dict(learning_rate=1e-3, weight_decay=0.0, epochs=2, neighbor_R=1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def tiny_videos(n=3, T=10, d=4, seed=0):
    return synth_generate(SynthSpec(videos=n, frames=T, dim=d, shots_per_video=3,
                                    seed=seed, budget_ratio=0.3))


# ---------------------------------------------------------------------------
# config


def test_config_defaults_are_valid():
    cfg = TrainConfig()
    assert cfg.alpha == 0.1 and cfg.beta == 1.0 and cfg.sim_kind == "l2"
    assert cfg.recon_final_sigmoid is False and cfg.early_stop is False


def test_config_text_round_trip():
    cfg = TrainConfig(learning_rate=0.5, epochs=7, sim_kind="cosine", use_lca=False)
    assert config_from_text(config_to_text(cfg)) == cfg


def test_config_parse_types_and_comments():
    got = parse_config_text("# comment\n\nepochs = 9\nuse_gda = off\nalpha=0.25\n")
    assert got == {"epochs": 9, "use_gda": False, "alpha": 0.25}


def test_config_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("epochs=1\nnot a pair\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("momentum=0.9")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("use_gda=maybe")
    with pytest.raises(ConfigError, match="int"):
        parse_config_text("epochs=2.5")


def test_config_refuses_a_repeated_key_naming_both_lines(tmp_path):
    with pytest.raises(ConfigError, match="^line 4: epochs is already set on line 2$"):
        parse_config_text("# run\nepochs=2\nalpha=0.5\n epochs = 3\n")
    p = tmp_path / "run.cfg"
    p.write_text("epochs=2\nepochs=2\n")
    with pytest.raises(ConfigError, match="^line 2: epochs is already set on line 1$"):
        load_config(p)


def test_config_precedence_file_then_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("epochs=5\nlearning_rate=0.01\n")
    cfg = load_config(p, overrides={"epochs": 11})
    assert cfg.epochs == 11 and cfg.learning_rate == 0.01
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(neighbor_R=0)
    bad_values = [("learning_rate", np.nan), ("scale_q", np.inf), ("min_delta", np.nan),
                  ("alpha", -np.inf), ("weight_decay", -5.0), ("seed", -1),
                  ("sim_kind", "l2        # dot | cosine | l2"), ("lca_variant", "both"),
                  ("window_boundary", "wrap"), ("scale_q", -1.0), ("alpha", -0.1),
                  ("beta", -0.5)]
    for key, value in bad_values:
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: value})
        with pytest.raises(ConfigError, match=key):
            config_from_text(f"{key}={value}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(None, {key: value})


@pytest.mark.parametrize("key, value, rule", [
    ("patience", 0, ">= 1"), ("patience", -5, ">= 1"), ("min_delta", -1e-3, ">= 0"),
])
def test_config_refuses_early_stop_settings_that_act_like_others(key, value, rule):
    # patience 0 or below stopped like 1; a negative min_delta counted a rise as progress
    for build in (lambda: TrainConfig(**{key: value}),
                  lambda: config_from_text(f"{key}={value}\n"),
                  lambda: load_config(None, {key: value})):
        with pytest.raises(ConfigError, match=f"^{key} must be {rule}, got {value}$"):
            build()
    assert TrainConfig(patience=1, min_delta=0.0).patience == 1


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration", 1)[1].split("```\n")[1]
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.learning_rate, cfg.epochs, cfg.sim_kind, cfg.neighbor_R) == (0.003, 60, "l2", 2)
    assert (cfg.alpha, cfg.beta, cfg.supervised) == (0.1, 1.0, True)


# ---------------------------------------------------------------------------
# initialization


def test_init_is_deterministic_per_seed():
    a = tr.init_params(6, 2, seed=3)
    b = tr.init_params(6, 2, seed=3)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)
    c = tr.init_params(6, 2, seed=4)
    assert not np.array_equal(a.gda.Wq.data, c.gda.Wq.data)


def test_init_biases_zero_weights_bounded():
    params = tr.init_params(8, 2, seed=0)
    for name, p in params.named_parameters():
        if name.endswith(".b"):
            np.testing.assert_array_equal(p.data, np.zeros_like(p.data))
        else:
            bound = np.sqrt(6.0 / (p.rows + p.cols))
            assert np.abs(p.data).max() <= bound, name
            assert np.abs(p.data).max() > 0.0


def test_init_variance_matches_fanin_fanout():
    params = tr.init_params(64, 2, seed=1)
    W = params.gda.Wq.data
    want = 2.0 / (64 + 64)
    assert abs(W.var() / want - 1.0) < 0.2


def test_init_rejects_bad_dim():
    with pytest.raises(ContractError):
        tr.init_params(0, 2, seed=0)


def test_init_refuses_a_radius_its_config_disagrees_with(tmp_path):
    with pytest.raises(ContractError, match="R=3, the config has neighbor_R=2"):
        tr.init_params(8, 3, 0, TrainConfig())
    params = tr.init_params(8, 3, 0)  # no config: one with neighbor_R=3
    assert (params.cfg.neighbor_R, params.lca.rel_pos.rows) == (3, 7)
    tr.save_checkpoint(tmp_path / "r3.ckpt", params, tr.AdamState.for_params(params),
                       TrainConfig(neighbor_R=3), epoch=0)


# ---------------------------------------------------------------------------
# optimizer


def grads_of(params, fn):
    """One gradient per parameter, fn(parameter), in PARAMETERS order."""
    return [fn(p) for _, p in params.named_parameters()]


def test_adam_zero_gradients_leave_params_alone():
    params = tr.init_params(4, 1, 0, tiny_cfg())
    state = tr.AdamState.for_params(params)
    before = [p.data.copy() for _, p in params.named_parameters()]
    tr.adam_step(params, grads_of(params, lambda p: np.zeros_like(p.data)), state)
    for want, (_, p) in zip(before, params.named_parameters()):
        np.testing.assert_array_equal(p.data, want)
    assert state.step == 1


def test_adam_first_step_is_signed_learning_rate():
    params = tr.init_params(4, 1, 0, tiny_cfg(learning_rate=0.05))
    state = tr.AdamState.for_params(params)
    rng = np.random.default_rng(0)
    grads = grads_of(params, lambda p: rng.uniform(0.5, 2.0, size=p.data.shape)
                     * rng.choice([-1.0, 1.0], size=p.data.shape))
    before = [p.data.copy() for _, p in params.named_parameters()]
    tr.adam_step(params, grads, state)
    for prev, (_, p), g in zip(before, params.named_parameters(), grads):
        step = prev - p.data
        np.testing.assert_allclose(step, 0.05 * np.sign(g), rtol=1e-6)


def test_adam_decay_applies_after_gradient_step():
    params = tr.init_params(2, 1, 0, tiny_cfg(learning_rate=0.1, weight_decay=0.5))
    state = tr.AdamState.for_params(params)
    before = [p.data.copy() for _, p in params.named_parameters()]
    tr.adam_step(params, grads_of(params, lambda p: np.ones_like(p.data)), state)
    for prev, (_, p) in zip(before, params.named_parameters()):
        g = np.ones_like(prev)
        stepped = prev - 0.1 * g / (np.abs(g) + tr.ADAM_EPS)
        want = stepped - 0.1 * 0.5 * stepped  # decay sees the updated value
        np.testing.assert_allclose(p.data, want, rtol=1e-12)


def test_adam_requires_populated_gradients():
    params = tr.init_params(3, 1, 0, tiny_cfg())
    state = tr.AdamState.for_params(params)
    with pytest.raises(ContractError, match="gradient"):
        tr.adam_step(params, grads_of(params, lambda p: None), state)


def unsupervised_step_grads(seed):
    """A fresh unsupervised model, its Adam state after one step on random
    gradients, and the gradients loss_and_grads gives a second step."""
    rng = np.random.default_rng(seed)
    cfg = tiny_cfg(supervised=False, learning_rate=1e-2, weight_decay=1e-4)
    params = tr.init_params(4, 1, seed, cfg)
    state = tr.AdamState.for_params(params)
    tr.adam_step(params, grads_of(params, lambda p: rng.normal(size=p.shape)), state)
    _, grads = tr.loss_and_grads(rng.normal(size=(6, 4)), params)
    return params, state, grads


def model_bytes(params, state):
    return ([p.data.tobytes() for _, p in params.named_parameters()]
            + [a.tobytes() for a in state.m + state.v])


def test_adam_steps_an_unreached_parameter_as_a_zero_gradient():
    # an unsupervised step never reaches the score head; a zero-filled
    # gradient there gives the same parameter and moment bytes
    unreached = {"heads.score1.W", "heads.score1.b", "heads.score2.W", "heads.score2.b"}
    cleared, cleared_state, grads = unsupervised_step_grads(7)
    named = cleared.named_parameters()
    assert {n for (n, _), g in zip(named, grads) if g is None} == unreached
    filled, filled_state, _ = unsupervised_step_grads(7)
    zeros = [np.zeros(p.shape) if g is None else g.copy() for (_, p), g in zip(named, grads)]
    tr.adam_step(cleared, grads, cleared_state)
    tr.adam_step(filled, zeros, filled_state)
    assert model_bytes(cleared, cleared_state) == model_bytes(filled, filled_state)


def test_adam_refuses_a_step_with_no_gradient_and_changes_nothing():
    params, state, grads = unsupervised_step_grads(8)
    before = model_bytes(params, state)
    with pytest.raises(ContractError, match="no gradient on any parameter"):
        tr.adam_step(params, [None] * len(grads), state)
    assert model_bytes(params, state) == before and state.step == 1


@pytest.mark.parametrize("resize", [lambda g: g[:-1], lambda g: g + [g[0]], lambda g: []],
                         ids=["one-short", "one-over", "empty"])
def test_adam_refuses_a_list_of_the_wrong_length_and_changes_nothing(resize):
    params, state, grads = unsupervised_step_grads(9)
    before = model_bytes(params, state)
    wrong = resize(grads)
    with pytest.raises(ContractError,
                       match=rf"^adam_step: {len(wrong)} gradients for 17 parameters$"):
        tr.adam_step(params, wrong, state)
    assert model_bytes(params, state) == before and state.step == 1


def test_adam_state_shape_mismatch():
    params = tr.init_params(3, 1, 0, tiny_cfg())
    state = tr.AdamState.for_params(params)
    state.m.pop()
    with pytest.raises(ContractError, match="state"):
        tr.adam_step(params, grads_of(params, lambda p: np.ones_like(p.data)), state)


@pytest.mark.parametrize("which, index, bad, match", [
    ("m", 0, lambda a: np.zeros((1, a.shape[1])), r"first moment of gda.Wq has shape \(1, 3\)"),
    ("v", 3, lambda a: np.zeros((a.shape[0], 1)), r"second moment of lca.Wq2 has shape \(3, 1\)"),
    ("m", 8, lambda a: np.zeros(a.shape[::-1]), r"first moment of heads.score1.b has shape \(3, 1\)"),
    ("v", 0, lambda a: np.zeros(a.shape[::-1]).T, r"second moment of gda.Wq .* C-contiguous"),
    ("m", 1, lambda a: np.zeros(a.shape, dtype=np.float32), r"first moment of gda.Wk .* float64"),
    ("grad", 2, lambda a: np.ones((1, a.shape[1])), r"gradient of gda.Wv has shape \(1, 3\)"),
], ids=["m-row", "v-column", "m-transposed", "v-strided", "m-float32", "grad-row"])
def test_adam_refuses_state_of_the_wrong_shape_or_layout(which, index, bad, match):
    params = tr.init_params(3, 1, 0, tiny_cfg())
    state = tr.AdamState.for_params(params)
    grads = grads_of(params, lambda p: np.ones_like(p.data))
    named = params.named_parameters()
    if which == "grad":
        grads[index] = bad(named[index][1].data)
    else:
        getattr(state, which)[index] = bad(getattr(state, which)[index])
    before = [p.data.copy() for _, p in named]
    with pytest.raises(ContractError, match=match):
        tr.adam_step(params, grads, state)
    assert state.step == 0
    for want, (_, p) in zip(before, named):
        np.testing.assert_array_equal(p.data, want)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-5])
@pytest.mark.parametrize("d, block", [(4, 12), (200, None)],
                         ids=["d4-block12", "d200-module-block"])
def test_adam_in_place_matches_the_allocating_oracle_bytes(monkeypatch, d, block,
                                                          weight_decay):
    # d=4 with 12-entry blocks: parameters of 1 and 4 entries sit below one
    # block, rel_pos (3x4) fills exactly one, the 4x4 weights cross into a
    # second. d=200 puts 40000-entry weights across the module's block.
    if block is not None:
        monkeypatch.setattr(tr, "_ADAM_BLOCK", block)
    assert d * d > tr._ADAM_BLOCK
    cfg = tiny_cfg(learning_rate=1e-2, weight_decay=weight_decay)
    params = tr.init_params(d, 1, 3, cfg)
    state = tr.AdamState.for_params(params)
    named = params.named_parameters()
    ref_p = [p.data.copy() for _, p in named]
    ref_m = [np.zeros_like(a) for a in ref_p]
    ref_v = [np.zeros_like(a) for a in ref_p]
    rng = np.random.default_rng(4)
    for step in range(1, 7):
        grads = [rng.normal(size=a.shape) for a in ref_p]
        tr.adam_step(params, [g.copy() for g in grads], state)
        oracles.allocating_adam_step(ref_p, grads, ref_m, ref_v, step, cfg.learning_rate,
                                     weight_decay)
    for (name, p), m, v, want_p, want_m, want_v in zip(named, state.m, state.v,
                                                         ref_p, ref_m, ref_v):
        assert p.data.tobytes() == want_p.tobytes(), name
        assert m.tobytes() == want_m.tobytes(), name
        assert v.tobytes() == want_v.tobytes(), name


def test_adam_drives_quadratic_to_zero():
    # every entry independently minimizes x^2; gradients fed by hand
    params = tr.init_params(4, 1, 5, tiny_cfg(learning_rate=1e-2))
    state = tr.AdamState.for_params(params)
    for _ in range(500):
        tr.adam_step(params, grads_of(params, lambda p: 2.0 * p.data), state)
    for name, p in params.named_parameters():
        assert np.abs(p.data).max() < 0.1, name


# ---------------------------------------------------------------------------
# training loop


def test_train_epoch_accounting_and_history():
    videos = tiny_videos()
    cfg = tiny_cfg(epochs=3)
    result = tr.train(videos, cfg)
    assert result.epochs_run == 3
    assert len(result.history) == 3
    assert set(result.part_history) == {"cls", "repel", "recon"}
    assert all(len(v) == 3 for v in result.part_history.values())
    assert all(np.isfinite(result.history))


def test_train_unsupervised_history_has_no_cls():
    result = tr.train(tiny_videos(), tiny_cfg(supervised=False))
    assert set(result.part_history) == {"repel", "recon"}


def test_train_is_deterministic():
    videos = tiny_videos()
    a = tr.train(videos, tiny_cfg(epochs=2))
    b = tr.train(videos, tiny_cfg(epochs=2))
    assert a.history == b.history
    for (_, pa), (_, pb) in zip(a.params.named_parameters(), b.params.named_parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_train_loss_decreases_on_easy_data():
    videos = tiny_videos(n=2, T=12, d=4)
    result = tr.train(videos, tiny_cfg(epochs=25, learning_rate=3e-3))
    assert result.history[-1] < result.history[0]


def result_bytes(result: tr.TrainResult) -> list[bytes]:
    """Every parameter, both moments and the history of a training run."""
    arrays = [p.data for _, p in result.params.named_parameters()] + result.state.m \
        + result.state.v
    return [a.tobytes() for a in arrays] + [np.array(result.history).tobytes()]


# Minor faults of three train() calls after an identical warm-up call.
FAULT_PROBE = """
import json, resource
from divsum import training as tr
from divsum.config import TrainConfig
from divsum.data import SynthSpec, synth_generate
videos = [synth_generate(SynthSpec(videos=1, frames=T, dim=32, shots_per_video=3, seed=i,
                                   name=f"v{i}"))[0] for i, T in enumerate((400, 300, 350))]
cfg = TrainConfig(learning_rate=1e-3, weight_decay=0.0, epochs=2, neighbor_R=1, seed=0)
tr.train(videos, cfg)
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    tr.train(videos, cfg)
    faults.append(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator setting is glibc's")
def test_a_repeated_train_call_faults_in_no_fresh_pages():
    # Each step frees and rebuilds the same T x T arrays: a trimmed heap
    # faults them in again (thousands of faults a call), a kept one reuses
    # its pages. The probe runs in a fresh interpreter, because the large
    # arrays earlier tests freed raise glibc's dynamic thresholds, which
    # can stop the trimming without this setting. A kept heap can still
    # grow once, by about one T x T array, on some later call as its free
    # chunks settle, so the median of the three calls is taken.
    src = str(Path(tr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    faults = json.loads(run.stdout)
    assert sorted(faults)[1] < 100, faults


class FakeLibc:
    """A C library whose mallopt records its calls and returns `answer`."""

    def __init__(self, answer):
        self.calls = []

        def mallopt(param, value):  # a function, so the code under test can declare its types
            self.calls.append((param, value))
            return answer

        self.mallopt = mallopt


@pytest.mark.parametrize("answer, calls", [
    (1, [(-3, 32 << 20), (-1, -1)]),  # mmap threshold first, then never trim
    (0, [(-3, 32 << 20)]),  # a refused mmap threshold leaves trimming on
])
def test_train_sets_the_mmap_threshold_before_the_trim_threshold(monkeypatch, answer, calls):
    libc = FakeLibc(answer)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    tr.train(tiny_videos(), tiny_cfg())
    assert libc.calls == calls


class NoMallopt:
    def __init__(self, name):
        pass


def no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("loader", [NoMallopt, no_c_library], ids=["no-mallopt", "no-library"])
def test_train_without_mallopt_gives_the_same_bytes(monkeypatch, loader):
    videos, cfg = tiny_videos(), tiny_cfg()
    want = result_bytes(tr.train(videos, cfg))
    monkeypatch.setattr(ctypes, "CDLL", loader)
    assert result_bytes(tr.train(videos, cfg)) == want


def test_train_rejects_empty_and_mixed_dims():
    with pytest.raises(ContractError, match="empty"):
        tr.train([], tiny_cfg())
    vids = tiny_videos(n=2, d=4) + tiny_videos(n=1, d=6)
    with pytest.raises(ContractError, match="dim"):
        tr.train(vids, tiny_cfg())


@pytest.mark.parametrize("supervised", [True, False], ids=["supervised", "unsupervised"])
def test_train_refuses_a_video_of_one_frame_before_the_first_step(monkeypatch, supervised):
    videos = tiny_videos()
    videos.append(VideoRecord(id="tiny", features=np.ones((1, 4)), gt_binary=np.ones(1)))
    steps = []
    monkeypatch.setattr(tr, "adam_step", lambda *args: steps.append(args))
    with pytest.raises(ContractError, match=r"at least 2 frames .*\['tiny'\]$"):
        tr.train(videos, tiny_cfg(supervised=supervised))
    assert steps == []


@pytest.mark.parametrize("shape", [(8,), (8, 4, 1)], ids=["1-D", "3-D"])
def test_train_refuses_features_that_are_not_2d_before_anything_starts(monkeypatch, shape):
    videos = tiny_videos()
    videos.insert(1, VideoRecord(id="flat", features=np.ones(shape), gt_binary=np.ones(8)))
    inits = []
    monkeypatch.setattr(tr, "init_params", lambda *args: inits.append(args))
    with pytest.raises(ContractError,
                       match=re.escape(f"video flat: features must be T x d, got shape {shape}")):
        tr.train(videos, tiny_cfg())
    assert inits == []


def entry_layouts(videos):
    """The videos with their features as given (C-ordered float64), as a
    Fortran-ordered copy, and as a strided view into a wider array."""
    def strided(f):
        wide = np.zeros((f.shape[0], 2 * f.shape[1]))
        wide[:, ::2] = f
        return wide[:, ::2]

    return {name: [replace(v, features=layout(v.features)) for v in videos]
            for name, layout in (("c", lambda f: f), ("fortran", np.asfortranarray),
                                 ("strided", strided))}


def test_the_features_reach_the_layers_uncopied_and_any_layout_gives_the_same_bytes(monkeypatch):
    layouts = entry_layouts(tiny_videos(n=2, T=10, d=4))
    assert not layouts["fortran"][0].features.flags.c_contiguous
    assert not layouts["strided"][0].features.flags.c_contiguous
    seen = []
    gda = att.gda_forward
    monkeypatch.setattr(att, "gda_forward", lambda X, *args: seen.append(X) or gda(X, *args))
    cfg = tiny_cfg()
    trained = {name: tr.train(videos, cfg) for name, videos in layouts.items()}
    own = [v.features for v in layouts["c"]]
    steps = cfg.epochs * len(own)
    assert len(seen) == 3 * steps and all(any(x is f for f in own) for x in seen[:steps])
    want = result_bytes(trained["c"])
    assert all(result_bytes(result) == want for result in trained.values())

    params = trained["c"].params
    seen.clear()
    scores = {name: [score_video(v, params).tobytes() for v in videos]
              for name, videos in layouts.items()}
    assert [x is f for x, f in zip(seen, own)] == [True, True]
    assert scores["fortran"] == scores["strided"] == scores["c"]


def test_train_supervised_requires_labels():
    videos = tiny_videos(n=2)
    videos[1].gt_binary = None
    with pytest.raises(ContractError, match=videos[1].id):
        tr.train(videos, tiny_cfg(supervised=True))


class _ProbedRecord(VideoRecord):
    reads: list

    def __getattribute__(self, name):
        if name == "gt_binary":
            object.__getattribute__(self, "reads").append(name)
        return object.__getattribute__(self, name)


def probe_video(rec: VideoRecord) -> _ProbedRecord:
    probed = _ProbedRecord(id=rec.id, features=rec.features, gt_scores=rec.gt_scores,
                           gt_binary=rec.gt_binary, user_summaries=rec.user_summaries,
                           change_points=rec.change_points, picks=rec.picks,
                           corpus_tag=rec.corpus_tag)
    object.__setattr__(probed, "reads", [])
    return probed


def test_unsupervised_training_never_touches_labels():
    videos = [probe_video(v) for v in tiny_videos(n=2)]
    tr.train(videos, tiny_cfg(supervised=False))
    assert all(v.reads == [] for v in videos)
    # sanity: the probe does fire on supervised runs
    tr.train(videos, tiny_cfg(supervised=True))
    assert all(len(v.reads) > 0 for v in videos)


def test_zero_weights_match_pure_classification_run():
    """alpha=beta=0 must reproduce, bit for bit, an optimizer run whose
    graph contains only the classification loss."""
    videos = tiny_videos(n=2, T=8, d=4)
    cfg = tiny_cfg(alpha=0.0, beta=0.0, epochs=2, learning_rate=1e-3,
                   weight_decay=1e-4)
    full = tr.train(videos, cfg)

    params = tr.init_params(4, cfg.neighbor_R, cfg.seed, cfg)
    state = tr.AdamState.for_params(params)
    order = np.random.default_rng(cfg.seed).permutation(len(videos))
    feats = [np.ascontiguousarray(v.features, dtype=np.float64) for v in videos]
    labels = [np.asarray(v.gt_binary, dtype=np.float64) for v in videos]
    for _ in range(cfg.epochs):
        for i in order:
            params.zero_grads()
            tape = Tape()
            out = forward_scores(feats[i], params, tape)
            loss = hd.bce_loss(out.scores, labels[i], tape)
            ag.backward(loss, tape)
            grads = [np.zeros_like(p.data) if p.grad is None else p.grad
                     for _, p in params.named_parameters()]
            tr.adam_step(params, grads, state)

    for (_, pa), (_, pb) in zip(full.params.named_parameters(), params.named_parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_train_stops_on_a_non_finite_loss():
    videos = tiny_videos()
    cfg = tiny_cfg(epochs=3, learning_rate=1e200, use_gda=False, use_lca=False)
    with np.errstate(all="ignore"), \
            pytest.raises(NumericError, match=r"^video synth_\d+ in epoch 0: non-finite loss"):
        tr.train(videos, cfg)


def test_early_stop_halts_on_flat_loss():
    videos = tiny_videos(n=2)
    cfg = tiny_cfg(learning_rate=1e-12, epochs=50, early_stop=True, patience=3,
                   min_delta=1e-5)
    result = tr.train(videos, cfg)
    assert result.epochs_run == 4  # first epoch sets the best, then 3 stale


@pytest.mark.parametrize("supervised", [True, False], ids=["supervised", "unsupervised"])
@pytest.mark.parametrize("stop", [None, "fires", "waits"])
def test_train_returns_parameters_without_gradients(supervised, stop):
    early = {} if stop is None else dict(early_stop=True, patience=3, min_delta=1e-5,
                                         learning_rate=1e-12 if stop == "fires" else 1e-3)
    cfg = tiny_cfg(supervised=supervised, epochs=6, **early)
    result = tr.train(tiny_videos(n=2), cfg)
    assert result.epochs_run == (4 if stop == "fires" else 6)
    assert [n for n, p in result.params.named_parameters() if p.grad is not None] == []


@pytest.mark.parametrize("supervised", [True, False], ids=["supervised", "unsupervised"])
def test_no_gradient_of_a_step_is_alive_when_the_next_forward_starts(monkeypatch, supervised):
    # one d=1024 gradient set kept into the next forward is about 80 MiB of peak RSS
    last: list = []  # weak references to the latest step's gradients
    alive_at_forward = []
    step, forward = tr.loss_and_grads, tr.forward_loss

    def watched_forward(*args):
        alive_at_forward.append(sum(ref() is not None for ref in last))
        return forward(*args)

    def watched_step(*args):
        out, grads = step(*args)
        last[:] = [weakref.ref(g) for g in grads if g is not None]
        assert last
        return out, grads

    monkeypatch.setattr(tr, "forward_loss", watched_forward)
    monkeypatch.setattr(tr, "loss_and_grads", watched_step)
    cfg = tiny_cfg(supervised=supervised, epochs=2)
    tr.train(tiny_videos(n=3), cfg)
    assert alive_at_forward == [0] * 6
    assert all(ref() is None for ref in last)


def test_loss_and_grads_clears_held_gradients_and_leaves_none():
    params = tr.init_params(4, 1, 0, tiny_cfg())
    video = tiny_videos(n=1)[0]
    _, clean = tr.loss_and_grads(video.features, params, video.gt_binary)
    for _, p in params.named_parameters():  # as a backward that failed midway leaves them
        p.grad = np.ones(p.shape)
    _, again = tr.loss_and_grads(video.features, params, video.gt_binary)
    assert [g.tobytes() for g in again] == [g.tobytes() for g in clean]
    assert all(p.grad is None for _, p in params.named_parameters())


def test_loss_and_grads_refuses_a_non_finite_loss_before_the_backward(monkeypatch):
    backward = []
    monkeypatch.setattr(ag, "backward", lambda *args: backward.append(args))
    params = tr.init_params(4, 1, 0, tiny_cfg(use_gda=False, use_lca=False))
    video = tiny_videos(n=1)[0]
    with np.errstate(all="ignore"), \
            pytest.raises(NumericError, match=r"^non-finite loss (nan|inf)"):
        tr.loss_and_grads(video.features * 1e200, params, video.gt_binary)
    assert backward == []


def test_train_names_the_video_and_epoch_whose_step_refuses_its_input():
    videos = tiny_videos()
    videos[2] = replace(videos[2], features=videos[2].features * 1e160)
    with pytest.raises(NumericError, match=r"^video synth_002 in epoch 0: column_softmax: "
                                           r"input contains NaN or Inf$"):
        tr.train(videos, tiny_cfg())


# ---------------------------------------------------------------------------
# checkpoints


def trained_state(tmp_path):
    videos = tiny_videos(n=2, T=8, d=4)
    cfg = tiny_cfg(epochs=1)
    result = tr.train(videos, cfg)
    params = result.params
    state = tr.AdamState.for_params(params)
    state.step = 7
    rng = np.random.default_rng(0)
    state.m = [rng.normal(size=a.shape) for a in state.m]
    state.v = [rng.uniform(size=a.shape) for a in state.v]
    path = tmp_path / "run.ckpt"
    tr.save_checkpoint(path, params, state, cfg, epoch=13)
    return path, params, state, cfg


def test_checkpoint_round_trip(tmp_path):
    path, params, state, cfg = trained_state(tmp_path)
    got_params, got_state, got_cfg, got_epoch = tr.load_checkpoint(path)
    assert got_epoch == 13 and got_cfg == cfg and got_state.step == 7
    for (na, pa), (nb, pb) in zip(params.named_parameters(), got_params.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)
    for a, b in zip(state.m, got_state.m):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(state.v, got_state.v):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_save_load_save_byte_stable(tmp_path):
    path, *_ = trained_state(tmp_path)
    params, state, cfg, epoch = tr.load_checkpoint(path)
    path2 = tmp_path / "again.ckpt"
    tr.save_checkpoint(path2, params, state, cfg, epoch)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_truncation_names_the_piece(tmp_path):
    path, params, _, cfg = trained_state(tmp_path)
    blob = path.read_bytes()
    named = params.named_parameters()
    first, entries = named[0][0], sum(p.data.size for _, p in named)
    # magic, version, config, epoch, count; then name, rows, cols, data
    first_data = 20 + len(config_to_text(cfg).encode()) + 4 + len(first) + 8
    moments = len(blob) - 2 * 8 * entries
    cuts = {2: "truncated while reading magic",
            len(blob) // 2: "truncated",
            first_data + 8: f"truncated while reading {first} data",
            moments - 2: "truncated while reading optimizer step",
            len(blob) - 8: "truncated while reading second moments"}
    bad = tmp_path / "bad.ckpt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for cut, message in cuts.items():
            bad.write_bytes(blob[:cut])
            with pytest.raises(ContractError, match=message):
                tr.load_checkpoint(bad)
        bad.write_bytes(blob + bytes(8))
        with pytest.raises(ContractError, match="8 unexpected trailing bytes"):
            tr.load_checkpoint(bad)
        gc.collect()  # an unclosed file warns when it is collected
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def wide_state(d=128):
    """An initial d-wide model and an Adam state with nonzero moments."""
    cfg = tiny_cfg()
    params = tr.init_params(d, cfg.neighbor_R, 0, cfg)
    state = tr.AdamState.for_params(params)
    rng = np.random.default_rng(0)
    state.m = [rng.normal(size=a.shape) for a in state.m]
    state.v = [rng.uniform(size=a.shape) for a in state.v]
    return params, state, cfg


def traced_peak(run) -> int:
    """The peak bytes tracemalloc sees allocated while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checkpoint_save_copies_no_array(tmp_path):
    params, state, cfg = wide_state()
    peak = traced_peak(lambda: tr.save_checkpoint(tmp_path / "w.ckpt", params, state, cfg, 1))
    assert peak < 2**20 + len(config_to_text(cfg))


def test_checkpoint_load_holds_each_array_once(tmp_path):
    params, state, cfg = wide_state()
    path = tmp_path / "w.ckpt"
    tr.save_checkpoint(path, params, state, cfg, 1)
    arrays = sum(p.data.nbytes for _, p in params.named_parameters()) \
        + sum(a.nbytes for a in state.m + state.v)
    assert traced_peak(lambda: tr.load_checkpoint(path)) <= 1.1 * arrays


def test_parameters_only_load_gives_the_full_loads_model(tmp_path):
    path, params, _, cfg = trained_state(tmp_path)
    got_params, got_state, got_cfg, got_epoch = tr.load_checkpoint(path, params_only=True)
    assert got_state is None and got_cfg == cfg and got_epoch == 13
    for (na, pa), (nb, pb) in zip(params.named_parameters(), got_params.named_parameters()):
        assert na == nb and pa.data.tobytes() == pb.data.tobytes()


def test_parameters_only_load_holds_only_the_parameters(tmp_path):
    params, state, cfg = wide_state()
    path = tmp_path / "w.ckpt"
    tr.save_checkpoint(path, params, state, cfg, 1)
    arrays = sum(p.data.nbytes for _, p in params.named_parameters())
    assert traced_peak(lambda: tr.load_checkpoint(path, params_only=True)) <= 1.1 * arrays


@pytest.mark.parametrize("params_only", [False, True], ids=["full", "params-only"])
@pytest.mark.parametrize("length", [-1, 1], ids=["one-byte-short", "one-byte-long"])
def test_a_checkpoint_of_the_wrong_length_is_refused_in_both_modes(tmp_path, params_only,
                                                                   length):
    path, *_ = trained_state(tmp_path)
    blob = path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:length] if length < 0 else blob + bytes(length))
    load = partial(tr.load_checkpoint, params_only=True) if params_only else tr.load_checkpoint
    with pytest.raises(ContractError, match=f"^{re.escape(str(bad))}: "):
        load(bad)


def test_checkpoint_rejects_wrong_magic_and_version(tmp_path):
    path, *_ = trained_state(tmp_path)
    blob = bytearray(path.read_bytes())
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"WHAT" + bytes(blob[4:]))
    with pytest.raises(ContractError, match="magic"):
        tr.load_checkpoint(bad)
    blob[4] = 42
    bad.write_bytes(bytes(blob))
    with pytest.raises(ContractError, match="version"):
        tr.load_checkpoint(bad)


def handmade_checkpoint(path, cfg, entries, cut=None):
    """A checkpoint file built byte by byte: epoch 0, the (name, array)
    entries as its parameter table, step 0 and zero moments. With `cut`,
    the file ends after the name of entry `cut`."""
    cfg_raw = config_to_text(cfg).encode("utf-8")
    blob = tr.CHECKPOINT_MAGIC + struct.pack("<II", tr.CHECKPOINT_VERSION, len(cfg_raw)) \
        + cfg_raw + struct.pack("<II", 0, len(entries))
    for i, (name, a) in enumerate(entries):
        blob += struct.pack("<I", len(name)) + name.encode("utf-8")
        if i == cut:
            break
        blob += struct.pack("<II", *a.shape) + a.astype("<f8").tobytes()
    else:
        blob += struct.pack("<I", 0) + bytes(2 * 8 * sum(a.size for _, a in entries))
    path.write_bytes(blob)
    return path


def model_entries(d=4):
    params = tr.init_params(d, 1, 0, tiny_cfg())
    return [(name, p.data) for name, p in params.named_parameters()]


def test_checkpoint_missing_parameter_is_named(tmp_path):
    path = handmade_checkpoint(tmp_path / "empty.ckpt", tiny_cfg(), [])
    with pytest.raises(ContractError, match="missing parameter gda.Wq"):
        tr.load_checkpoint(path)


def test_handmade_checkpoint_matches_a_saved_one(tmp_path):
    params = tr.init_params(4, 1, 0, tiny_cfg())
    tr.save_checkpoint(tmp_path / "saved.ckpt", params, tr.AdamState.for_params(params),
                       tiny_cfg(), epoch=0)
    made = handmade_checkpoint(tmp_path / "made.ckpt", tiny_cfg(), model_entries())
    assert made.read_bytes() == (tmp_path / "saved.ckpt").read_bytes()


@pytest.mark.parametrize("kept", [1, 7, 16])
def test_a_table_cut_short_names_the_next_parameter(tmp_path, kept):
    entries = model_entries()
    path = handmade_checkpoint(tmp_path / "short.ckpt", tiny_cfg(), entries[:kept])
    with pytest.raises(ContractError, match=f"missing parameter {entries[kept][0]}$"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("table", ["swapped", "repeated", "extra"])
def test_a_misplaced_parameter_is_refused_before_its_data(tmp_path, table):
    entries = model_entries()
    at = {"swapped": 3, "repeated": 5, "extra": 0}[table]
    if table == "swapped":
        entries[3], entries[4] = entries[4], entries[3]
    elif table == "repeated":
        entries[5] = entries[4]
    else:
        entries.append(("extra", np.zeros((1, 1))))
    for cut in (None, at):  # a file that ends after the name fails the same way
        path = handmade_checkpoint(tmp_path / "bad.ckpt", tiny_cfg(), entries, cut)
        with pytest.raises(ContractError, match="parameter order does not match this build"):
            tr.load_checkpoint(path)


@pytest.mark.parametrize("fault, message", [
    ("magic", "not a checkpoint file (bad magic)"),
    ("version", f"checkpoint version 42, this build reads {tr.CHECKPOINT_VERSION}"),
    ("missing", "checkpoint is missing parameter lca.Wq2"),
    ("order", "checkpoint parameter order does not match this build"),
])
@pytest.mark.parametrize("params_only", [False, True])
def test_a_malformed_checkpoint_raises_data_format_error(tmp_path, fault, message, params_only):
    # as a malformed video container does; DataFormatError is a ContractError
    entries = model_entries()
    if fault == "order":
        entries[3], entries[4] = entries[4], entries[3]
    path = handmade_checkpoint(tmp_path / "bad.ckpt", tiny_cfg(),
                               entries[:3] if fault == "missing" else entries)
    blob = bytearray(path.read_bytes())
    if fault == "magic":
        blob[:4] = b"WHAT"
    elif fault == "version":
        blob[4] = 42
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError) as refused:
        tr.load_checkpoint(path, params_only=params_only)
    assert str(refused.value) == f"{path}: {message}"


def mixed_width_entries():
    """A d=4 model whose local path is 6 wide."""
    wide = dict(model_entries(6))
    return [(n, wide[n] if n.startswith("lca.") else a) for n, a in model_entries(4)]


def test_a_model_whose_parts_disagree_on_the_feature_dim_is_refused():
    mats = {n: Matrix(a) for n, a in mixed_width_entries()}
    with pytest.raises(ShapeError, match="^lca.Wq2 must be 4x4, got 6x6$"):
        ModelParams.from_named(mats, tiny_cfg())


def test_a_checkpoint_whose_parts_disagree_on_the_feature_dim_is_refused(tmp_path):
    path = handmade_checkpoint(tmp_path / "mixed.ckpt", tiny_cfg(), mixed_width_entries())
    with pytest.raises(ShapeError, match="lca.Wq2 must be 4x4, got 6x6"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("tensor", ["parameter", "first moment", "second moment"])
def test_checkpoint_refuses_non_finite_tensors(tmp_path, tensor):
    path, params, state, cfg = trained_state(tmp_path)
    target = {"parameter": params.heads.score2.b.data, "first moment": state.m[3],
              "second moment": state.v[3]}[tensor]
    target.flat[0] = np.nan
    bad = tmp_path / "bad.ckpt"
    with pytest.raises(NumericError, match=f"non-finite {tensor}"):
        tr.save_checkpoint(bad, params, state, cfg, epoch=1)
    assert not bad.exists()


def test_ablated_model_summarizes_the_same_after_a_checkpoint(tmp_path):
    videos = tiny_videos(n=2, T=12, d=4)
    cfg = tiny_cfg(use_gda=False)
    result = tr.train(videos, cfg)
    path = tmp_path / "nogda.ckpt"
    tr.save_checkpoint(path, result.params, result.state, cfg, epoch=result.epochs_run)
    loaded, *_ = tr.load_checkpoint(path)
    assert loaded.cfg.use_gda is False and loaded.cfg.use_lca is True
    for v in videos:
        here = summarize_video(v, result.params, 0.3)
        there = summarize_video(v, loaded, 0.3)
        np.testing.assert_array_equal(there.frame_scores, here.frame_scores)
        np.testing.assert_array_equal(there.mask.frame_mask, here.mask.frame_mask)
        gda_on = summarize_video(v, replace(loaded, cfg=replace(loaded.cfg, use_gda=True)), 0.3)
        assert not np.array_equal(gda_on.frame_scores, here.frame_scores)


@pytest.mark.parametrize("key, value", [
    ("sim_kind", "dot"), ("scale_q", 2.0), ("neighbor_R", 2), ("lca_variant", "literal"),
    ("window_boundary", "zero"), ("recon_final_sigmoid", True), ("use_positions", False),
    ("use_gda", False), ("use_lca", False),
])
def test_checkpoint_refuses_a_config_that_describes_another_model(tmp_path, key, value):
    cfg = tiny_cfg()
    params = tr.init_params(4, cfg.neighbor_R, 0, cfg)
    state = tr.AdamState.for_params(params)
    path = tmp_path / "run.ckpt"
    with pytest.raises(ContractError, match=f"config with {key}={value!r} for a model with "):
        tr.save_checkpoint(path, params, state, replace(cfg, **{key: value}), epoch=1)
    assert not path.exists()


def test_checkpoint_config_must_follow_a_switched_model(tmp_path):
    cfg = tiny_cfg()
    params = tr.init_params(4, cfg.neighbor_R, 0, cfg)
    state = tr.AdamState.for_params(params)
    path = tmp_path / "run.ckpt"
    no_gda = replace(params, cfg=replace(cfg, use_gda=False))
    # a default config would reload this model with GDA on
    with pytest.raises(ContractError, match="use_gda=True for a model with use_gda=False"):
        tr.save_checkpoint(path, no_gda, state, cfg, epoch=1)
    tr.save_checkpoint(path, no_gda, state, no_gda.cfg, epoch=1)
    assert tr.load_checkpoint(path)[0].cfg.use_gda is False
    # scale_q=0 resolves to the feature dim, but the config must be the model's own
    with pytest.raises(ContractError, match="scale_q=4.0 for a model with scale_q=0.0"):
        tr.save_checkpoint(path, params, state, replace(cfg, scale_q=4.0), epoch=1)


def test_checkpoint_refuses_a_radius_its_relative_embeddings_disagree_with(tmp_path):
    path, *_ = trained_state(tmp_path)
    blob = path.read_bytes()
    assert blob.count(b"neighbor_R=1\n") == 1
    path.write_bytes(blob.replace(b"neighbor_R=1\n", b"neighbor_R=2\n"))
    with pytest.raises(ShapeError, match=f"{path.name}: lca.rel_pos must be 5x4, got 3x4$"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("old, new, error, message", [
    (b"epochs=1\n", b"epochs=0\n", ConfigError, "epochs must be >= 1, got 0"),
    (b"use_gda=True\n", b"use_gdx=True\n", ConfigError, "unknown config key: 'use_gdx'"),
    (b"use_gda=True\n", b"use_gda=mayb\n", ConfigError,
     "use_gda: expected a boolean, got 'mayb'"),
    (b"epochs=1\n", b"seed=111\n", ConfigError, "line 12: seed is already set on line 4"),
], ids=["epochs-0", "unknown-key", "not-a-boolean", "repeated-key"])
def test_a_checkpoint_config_refusal_names_the_file(tmp_path, old, new, error, message):
    path, *_ = trained_state(tmp_path)
    blob = path.read_bytes()
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, new))
    with pytest.raises(error) as refused:
        tr.load_checkpoint(path)
    assert str(refused.value) == f"{path}: {message}"


def test_a_misshapen_checkpoint_matrix_refusal_names_the_file(tmp_path):
    entries = model_entries()
    entries[9] = ("heads.score2.W", np.zeros((4, 2)))
    path = handmade_checkpoint(tmp_path / "wide.ckpt", tiny_cfg(), entries)
    with pytest.raises(ShapeError) as refused:
        tr.load_checkpoint(path)
    assert str(refused.value) == f"{path}: heads.score2.W must be 4x1, got 4x2"


def test_a_model_without_positions_runs_gda_on_the_raw_features():
    cfg = tiny_cfg(use_positions=False)
    params = tr.init_params(4, cfg.neighbor_R, 0, cfg)
    X = np.random.default_rng(0).uniform(size=(7, 4))
    out = forward_scores(X, params)
    gda = att.gda_forward(X, params)
    g = params.gda
    want, _ = oracles.naive_global_attention(X, g.Wq.data, g.Wk.data, g.Wv.data, cfg.sim_kind, 4)
    np.testing.assert_allclose(gda.features.data, want, atol=1e-12)  # no positions added
    np.testing.assert_array_equal(out.global_attention.features.data, gda.features.data)
    np.testing.assert_array_equal(out.global_attention.weights, gda.weights)
    fused = att.dca_fuse(X, gda.features, att.lca_forward(X, params).features)
    np.testing.assert_array_equal(out.scores.data, hd.score_frames(fused, params).data)
    with_positions = forward_scores(X, replace(params, cfg=replace(cfg, use_positions=True)))
    assert not np.array_equal(with_positions.scores.data, out.scores.data)


@pytest.mark.parametrize("paths", [{"use_gda": False}, {"use_gda": False, "use_lca": False}],
                         ids=["lca-only", "no-attention"])
def test_an_odd_dim_model_without_gda_trains_and_summarizes(paths):
    # only GDA reads the position table, which needs an even dim
    videos = tiny_videos(d=7)
    cfg = tiny_cfg(**paths)
    assert cfg.use_positions
    params = tr.train(videos, cfg).params
    for v in videos:
        scores = summarize_video(v, params, 0.3).frame_scores
        assert scores.shape == (v.frame_count,) and np.all(np.isfinite(scores))
    with pytest.raises(ContractError, match=r"^video synth_\d+ in epoch 0: "
                                            r"position table needs an even dim, got 7$"):
        tr.train(videos, replace(cfg, use_gda=True))


def test_a_checkpoint_keeps_a_model_without_positions(tmp_path):
    videos = tiny_videos(n=2, T=12, d=4)
    cfg = tiny_cfg(use_positions=False)
    result = tr.train(videos, cfg)
    path = tmp_path / "nopos.ckpt"
    tr.save_checkpoint(path, result.params, result.state, cfg, epoch=result.epochs_run)
    loaded, _, got_cfg, _ = tr.load_checkpoint(path)
    assert loaded.cfg.use_positions is False and got_cfg.use_positions is False
    for v in videos:
        np.testing.assert_array_equal(summarize_video(v, loaded, 0.3).frame_scores,
                                      summarize_video(v, result.params, 0.3).frame_scores)


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path):
    """Training N epochs straight equals train, checkpoint, reload, continue."""
    videos = tiny_videos(n=2, T=8, d=4)
    cfg = tiny_cfg(epochs=4, learning_rate=1e-3)
    straight = tr.train(videos, cfg)

    # manual loop so the optimizer state can be captured mid-run
    params = tr.init_params(4, cfg.neighbor_R, cfg.seed, cfg)
    state = tr.AdamState.for_params(params)
    order = np.random.default_rng(cfg.seed).permutation(len(videos))
    feats = [np.ascontiguousarray(v.features, dtype=np.float64) for v in videos]
    labels = [np.asarray(v.gt_binary, dtype=np.float64) for v in videos]

    def one_epoch(params, state):
        for i in order:
            _, grads = tr.loss_and_grads(feats[i], params, labels[i])
            tr.adam_step(params, grads, state)

    for _ in range(2):
        one_epoch(params, state)
    path = tmp_path / "mid.ckpt"
    tr.save_checkpoint(path, params, state, cfg, epoch=2)
    params2, state2, cfg2, epoch2 = tr.load_checkpoint(path)
    assert epoch2 == 2
    for _ in range(2):
        one_epoch(params2, state2)

    for (_, pa), (_, pb) in zip(straight.params.named_parameters(),
                                params2.named_parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
