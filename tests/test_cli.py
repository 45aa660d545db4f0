import errno
import json
import os
import re
import stat
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from divsum import data as dat
from divsum import checks, cli, evaluation, segmentation
from divsum.cli import main
from divsum.config import TrainConfig, config_to_text
from divsum.evaluation import EvalProtocol, human_baseline, random_baseline
from divsum.training import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, load_checkpoint

from .test_data import write_features_of_shape


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def dataset(tmp_path):
    ds = tmp_path / "ds"
    assert run("synth", "--out", str(ds), "--videos", "4", "--frames", "24",
               "--dim", "6", "--shots", "4", "--seed", "0",
               "--budget-ratio", "0.3") == 0
    return ds


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def test_check_subcommand_passes():
    assert run("check") == 0


def _first_record_altered(field, change):
    """A load_dataset whose first record comes back with `field` changed."""
    def patch(real):
        def load(path):
            records = real(path)
            setattr(records[0], field, change(getattr(records[0], field)))
            return records
        return load
    return patch


def _raising(real):
    def fault(*args, **kwargs):
        raise RuntimeError("planted fault")
    return fault


# (check, module the check reads the name from, name, real -> replacement, detail)
BROKEN_PIECES = {
    "knapsack-takes-every-shot": (
        "knapsack vs exhaustive search", checks, "knapsack_select",
        lambda real: lambda lengths, scores, budget: list(range(len(lengths))),
        "budget violated"),
    "knapsack-takes-none": (
        "knapsack vs exhaustive search", checks, "knapsack_select",
        lambda real: lambda lengths, scores, budget: [], r"suboptimal by \S+"),
    "partition-map-all-zero": (
        "partition map vs nearest neighbor", checks, "partition_map",
        lambda real: lambda *a: (np.zeros_like(real(*a)[0]),) + real(*a)[1:],
        r"cell \(\d+,\d+\) disagrees with nearest neighbor"),
    "tau-never-1": (
        "rank metric calibration", evaluation, "kendall_tau", lambda real: lambda x, y: 0.5,
        "identical rankings did not give exactly 1"),
    "rho-never-negative": (
        "rank metric calibration", evaluation, "spearman_rho",
        lambda real: lambda x, y: abs(real(x, y)), "reversed rankings did not give exactly -1"),
    "features-altered": (
        "dataset round trip", checks, "load_dataset",
        _first_record_altered("features", lambda f: f + 1.0),
        "record synth_000 did not survive the round trip"),
    "labels-altered": (
        "dataset round trip", checks, "load_dataset",
        _first_record_altered("gt_binary", lambda b: 1 - b),
        "labels of synth_000 did not survive the round trip"),
    "segmentation-raises": (
        "segmentation on planted shots", checks, "kts_segment", _raising,
        "raised RuntimeError: planted fault"),
}


@pytest.mark.parametrize("label, owner, name, patch, detail", BROKEN_PIECES.values(),
                         ids=BROKEN_PIECES.keys())
def test_check_fails_when_the_piece_it_checks_is_broken(monkeypatch, capsys, label, owner,
                                                        name, patch, detail):
    monkeypatch.setattr(owner, name, patch(getattr(owner, name)))
    fn = dict(checks.ALL_CHECKS)[label]
    if detail.startswith("raised "):  # run_self_checks turns the raise into the failure
        with pytest.raises(RuntimeError, match="^planted fault$"):
            fn()
    else:
        assert not fn()[0]
    lines = []
    assert not checks.run_self_checks(printer=lines.append)
    prefix = f"[FAIL] {label}: "
    failed = [line for line in lines[:-1] if not line.startswith("[ok] ")]
    assert len(failed) == 1 and failed[0].startswith(prefix), lines
    assert re.fullmatch(detail, failed[0][len(prefix):]), failed[0]
    assert lines[-1] == "SELF-CHECK FAILURES PRESENT"
    assert run("check") == 1
    assert prefix in capsys.readouterr().out


def test_synth_writes_dataset_and_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("synth", "--out", str(out), "--videos", "2", "--frames", "20",
                   "--dim", "4", "--shots", "3", "--seed", "5") == 0
    assert (a / "manifest.json").exists()
    names = json.loads((a / "manifest.json").read_text())["videos"]
    assert len(names) == 2
    for name in names + ["manifest.json"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_then_summarize_respects_budget(tmp_path, dataset):
    ckpt = tmp_path / "run.ckpt"
    assert run("train", "--data", str(dataset), "--out", str(ckpt),
               "--epochs", "1", "--lr", "1e-3", "--radius", "1") == 0
    assert ckpt.exists()
    header, rows = read_csv(ckpt.with_suffix(".history.csv"))
    assert header == ["epoch", "total", "cls", "recon", "repel"]
    assert len(rows) == 1

    out = tmp_path / "sum.csv"
    assert run("summarize", "--checkpoint", str(ckpt), "--data", str(dataset),
               "--budget-ratio", "0.3", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["video_id", "frame", "score", "selected"]
    budget = int(np.floor(0.3 * 24))
    per_video = {}
    for vid, _, _, sel in rows:
        per_video[vid] = per_video.get(vid, 0) + int(sel)
    assert len(per_video) == 4
    assert all(n <= budget for n in per_video.values())


def test_summarize_one_video(tmp_path, dataset, capsys):
    ckpt, full, one = tmp_path / "run.ckpt", tmp_path / "all.csv", tmp_path / "one.csv"
    assert run("train", "--data", str(dataset), "--out", str(ckpt), "--epochs", "1",
               "--radius", "1") == 0
    assert run("summarize", "--checkpoint", str(ckpt), "--data", str(dataset),
               "--out", str(full)) == 0
    assert run("summarize", "--checkpoint", str(ckpt), "--data", str(dataset),
               "--video", "synth_002", "--out", str(one)) == 0
    assert read_csv(one) == (read_csv(full)[0],
                             [r for r in read_csv(full)[1] if r[0] == "synth_002"])
    assert len(read_csv(one)[1]) == 24
    capsys.readouterr()
    missing = tmp_path / "missing.csv"
    assert run("summarize", "--checkpoint", str(ckpt), "--data", str(dataset),
               "--video", "synth_999", "--out", str(missing)) == 1
    assert capsys.readouterr().err == "error: video id 'synth_999' not in the dataset\n"
    assert not missing.exists()


@pytest.mark.parametrize("baseline", ["random", "human"])
def test_evaluate_prints_the_baseline_it_is_asked_for(tmp_path, dataset, capsys, baseline):
    assert run("evaluate", "--data", str(dataset), "--folds", "2", "--epochs", "1",
               "--radius", "1", "--seed", "3", "--budget-ratio", "0.3",
               "--baseline", baseline) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    protocol = EvalProtocol(folds=2, seed=3, budget_ratio=0.3)
    base = (random_baseline if baseline == "random" else human_baseline)(
        dat.load_dataset(dataset), protocol)
    assert line == (f"{baseline} baseline: F={base.mean_f:.2f} tau={base.kendall:.3f} "
                    f"rho={base.spearman:.3f}")


@pytest.mark.parametrize("case", ["unlabelled-aux", "labelled-aux", "split-file"])
def test_the_baseline_scores_only_the_held_out_videos(tmp_path, dataset, capsys, case):
    # an auxiliary corpus is only trained on, and a split file may hold
    # videos out of every test list: neither enters the baseline
    protocol = EvalProtocol(seed=3, budget_ratio=0.3)
    if case == "split-file":
        data, held = dataset, ["synth_000", "synth_001"]
        splits = tmp_path / "splits.json"
        splits.write_text(json.dumps({"splits": [
            {"train": ["synth_002", "synth_003"], "test": held}]}))
        flags = ["--splits", str(splits)]
    else:
        spec = dict(videos=3, frames=24, dim=6, shots_per_video=4, budget_ratio=0.3)
        a = dat.synth_generate(dat.SynthSpec(**spec, seed=0, name="a"))
        b = dat.synth_generate(dat.SynthSpec(**spec, seed=1, name="b"))
        flags = ["--mode", "transfer", "--target-corpus", "a"]
        if case == "unlabelled-aux":  # so it can only be trained on without labels
            b = [replace(v, user_summaries=None, gt_binary=None) for v in b]
            flags.append("--unsupervised")
        data, held = tmp_path / "ab", [v.id for v in a]
        dat.save_dataset(data, a + b, "ab")
        protocol = replace(protocol, mode="transfer", target_corpus="a")
    assert run("evaluate", "--data", str(data), "--epochs", "1", "--radius", "1",
               "--seed", "3", "--budget-ratio", "0.3", "--baseline", "random", *flags) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    base = random_baseline([v for v in dat.load_dataset(data) if v.id in held], protocol)
    assert line == (f"random baseline: F={base.mean_f:.2f} tau={base.kendall:.3f} "
                    f"rho={base.spearman:.3f}")


def test_identical_seeds_produce_identical_files(tmp_path, dataset):
    outs = []
    for tag in ("x", "y"):
        ckpt = tmp_path / f"{tag}.ckpt"
        summ = tmp_path / f"{tag}.csv"
        assert run("train", "--data", str(dataset), "--out", str(ckpt),
                   "--epochs", "1", "--lr", "1e-3", "--radius", "1",
                   "--seed", "3") == 0
        assert run("summarize", "--checkpoint", str(ckpt), "--data", str(dataset),
                   "--budget-ratio", "0.3", "--out", str(summ)) == 0
        outs.append((ckpt.read_bytes(), summ.read_bytes(),
                     ckpt.with_suffix(".history.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_cli_overrides_beat_config_file(tmp_path, dataset):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=3\nlearning_rate=0.001\nneighbor_R=1\n")
    ckpt = tmp_path / "o.ckpt"
    assert run("train", "--data", str(dataset), "--out", str(ckpt),
               "--config", str(cfg), "--epochs", "1") == 0
    _, _, loaded_cfg, epoch = load_checkpoint(ckpt)
    assert loaded_cfg.epochs == 1 and loaded_cfg.learning_rate == 0.001
    assert epoch == 1


def test_each_model_flag_overrides_its_config_key(tmp_path, dataset):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=1\nsim_kind=dot\nneighbor_R=3\nlearning_rate=0.5\n"
                   "lca_variant=literal\nsupervised=false\nalpha=0.5\n")
    ckpt = tmp_path / "o.ckpt"
    assert run("train", "--data", str(dataset), "--out", str(ckpt), "--config", str(cfg),
               "--sim", "cosine", "--radius", "1", "--lr", "1e-3", "--beta", "0.25") == 0
    got = load_checkpoint(ckpt)[2]
    assert got == TrainConfig(epochs=1, sim_kind="cosine", neighbor_R=1, learning_rate=1e-3,
                              lca_variant="literal", supervised=False, alpha=0.5, beta=0.25)


def test_unsupervised_flag_reaches_training(tmp_path, dataset):
    ckpt = tmp_path / "u.ckpt"
    assert run("train", "--data", str(dataset), "--out", str(ckpt),
               "--epochs", "1", "--lr", "1e-3", "--radius", "1",
               "--unsupervised") == 0
    header, _ = read_csv(ckpt.with_suffix(".history.csv"))
    assert header == ["epoch", "total", "recon", "repel"]  # no cls column


def test_evaluate_writes_report_and_reuses_splits(tmp_path, dataset):
    args = ["evaluate", "--data", str(dataset), "--folds", "2",
            "--epochs", "1", "--lr", "1e-3", "--radius", "1",
            "--budget-ratio", "0.3", "--splits", str(tmp_path / "splits.json"),
            "--report", str(tmp_path / "rep.txt"), "--csv", str(tmp_path / "rep.csv")]
    assert run(*args) == 0
    splits = json.loads((tmp_path / "splits.json").read_text())
    assert len(splits["splits"]) == 2
    first_csv = (tmp_path / "rep.csv").read_bytes()
    assert run(*args) == 0  # second run loads the persisted splits
    assert (tmp_path / "rep.csv").read_bytes() == first_csv
    text = (tmp_path / "rep.txt").read_text()
    assert "mean" in text and "protocol: canonical" in text
    header, rows = read_csv(tmp_path / "rep.csv")
    assert header == ["video", "fscore", "kendall_tau", "spearman_rho"]
    assert rows[-1][0] == "mean"


def test_train_refuses_a_history_that_is_its_checkpoint(tmp_path, dataset, capsys):
    ckpt, link = tmp_path / "run.ckpt", tmp_path / "history.csv"
    link.symlink_to(ckpt.name)  # names the checkpoint-to-be
    for history in (ckpt, link):
        assert run("train", "--data", str(dataset), "--out", str(ckpt), "--history",
                   str(history), "--epochs", "1", "--radius", "1") == 1
        assert capsys.readouterr().err == (
            f"error: --out and --history name the same file: {history}\n")
    assert sorted(os.listdir(tmp_path)) == ["ds", "history.csv"]


def test_summarize_refuses_to_write_over_its_checkpoint(tmp_path, dataset, capsys):
    ckpt, linked = tmp_path / "run.ckpt", tmp_path / "linked.ckpt"
    assert run("train", "--data", str(dataset), "--out", str(ckpt), "--epochs", "1",
               "--radius", "1") == 0
    os.link(ckpt, linked)  # a hard link is written in place, so it counts too
    saved = ckpt.read_bytes()
    capsys.readouterr()
    for out in (ckpt, linked):
        assert run("summarize", "--checkpoint", str(ckpt), "--data", str(dataset),
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: --out and --checkpoint name the same file: {ckpt}\n")
    assert ckpt.read_bytes() == saved


@pytest.mark.parametrize("argv", [
    ["train", "--out", "run.cfg"],
    ["train", "--out", "run.ckpt", "--history", "run.cfg"],
    ["evaluate", "--report", "run.cfg"],
    ["ablate", "--axis", "radius", "--out", "run.cfg"],
], ids=["train-out", "train-history", "evaluate-report", "ablate-out"])
def test_no_output_may_overwrite_the_config_file(tmp_path, dataset, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("epochs=1\nneighbor_R=1\n")
    assert run(*argv, "--data", str(dataset), "--config", "run.cfg") == 1
    assert capsys.readouterr().err == (
        f"error: {argv[-2]} and --config name the same file: run.cfg\n")
    assert sorted(os.listdir(tmp_path)) == ["ds", "run.cfg"]
    assert Path("run.cfg").read_text() == "epochs=1\nneighbor_R=1\n"


def file_bytes(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("argv, victim", [
    (["train", "--data", "ds", "--epochs", "1", "--out"], "manifest.json"),
    (["summarize", "--data", "ds/manifest.json", "--checkpoint", "run.ckpt", "--out"],
     "synth_001.dsv"),
    (["evaluate", "--epochs", "1", "--csv"], "manifest.json"),  # $DIVSUM_DATA_DIR
    (["ablate", "--data", "ds", "--axis", "radius", "--epochs", "1", "--out"], "synth_002.dsv"),
], ids=["train", "summarize", "evaluate", "ablate"])
def test_no_output_may_overwrite_the_dataset(tmp_path, dataset, capsys, monkeypatch, argv,
                                            victim):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DIVSUM_DATA_DIR", "ds")
    if argv[0] == "summarize":
        assert run("train", "--out", "run.ckpt", "--epochs", "1", "--radius", "1") == 0
    saved = file_bytes(tmp_path)
    capsys.readouterr()
    assert run(*argv, f"ds/{victim}") == 1
    assert capsys.readouterr().err == (
        f"error: {argv[-1]} and --data name the same file: ds/{victim}\n")
    assert file_bytes(tmp_path) == saved


@pytest.mark.parametrize("flags, named", [
    (["--splits", "S", "--csv", "S"], "--csv and --splits"),
    (["--report", "R", "--csv", "R"], "--report and --csv"),
    (["--splits", "S", "--report", "S"], "--report and --splits"),
], ids=["splits-csv", "report-csv", "splits-report"])
def test_evaluate_refuses_outputs_that_name_one_file(tmp_path, dataset, capsys, flags, named):
    splits = tmp_path / "S"
    splits.write_text(json.dumps({"splits": [{"train": ["synth_000"], "test": ["synth_001"]}]}))
    saved = sorted(os.listdir(tmp_path)), splits.read_bytes()
    assert run("evaluate", "--data", str(dataset), "--epochs", "1", "--radius", "1",
               *[str(tmp_path / f) if f in "SR" else f for f in flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} name the same file: {tmp_path}")
    assert (sorted(os.listdir(tmp_path)), splits.read_bytes()) == saved


@pytest.mark.parametrize("axis, values", [
    ("similarity", ["dot", "cosine", "l2"]),
    ("radius", ["R=1", "R=2", "R=3", "R=4"]),
    ("losses", ["cls", "cls+repel", "cls+recon", "cls+repel+recon"]),
    ("variant", ["literal", "contextual"]),
])
def test_ablate_emits_one_row_per_value_of_its_axis(tmp_path, dataset, axis, values):
    out = tmp_path / "abl.csv"
    assert run("ablate", "--data", str(dataset), "--axis", axis,
               "--epochs", "1", "--lr", "1e-3", "--radius", "1",
               "--budget-ratio", "0.3", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["axis", "value", "seed", "mean_f", "kendall_tau", "spearman_rho"]
    assert [r[1] for r in rows] == values
    assert all(r[0] == axis for r in rows)


def test_partition_map_csv_shape(tmp_path):
    out = tmp_path / "pm.csv"
    assert run("partition-map", "--sim", "l2", "--points", "0.2,0.2;0.8,0.8",
               "--grid-size", "15", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["x", "y", "winner_index"]
    assert len(rows) == 15 * 15
    assert {r[2] for r in rows} == {"0", "1"}


class FullDisk:
    """A file whose first write lands and then fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, part):
        self.fh.write(part)
        raise OSError(errno.ENOSPC, "No space left on device")


def test_an_interrupted_write_keeps_the_old_file_and_no_temp(tmp_path, dataset,
                                                             monkeypatch, capsys):
    ckpt, pm = tmp_path / "run.ckpt", tmp_path / "pm.csv"
    assert run("train", "--data", str(dataset), "--out", str(ckpt),
               "--epochs", "1", "--lr", "1e-3", "--radius", "1") == 0
    assert run("partition-map", "--points", "0.2,0.2;0.8,0.8", "--grid-size", "5",
               "--out", str(pm)) == 0
    manifest = dataset / "manifest.json"
    old = {path: path.read_bytes() for path in (ckpt, pm, manifest)}
    listings = {d: sorted(os.listdir(d)) for d in (tmp_path, dataset)}

    def open_failing(file, mode="r", **kw):
        fh = open(file, mode, **kw)
        return FullDisk(fh) if any(p.name in str(file) for p in old) else fh

    monkeypatch.setattr(dat, "open", open_failing, raising=False)
    assert run("train", "--data", str(dataset), "--out", str(ckpt),
               "--epochs", "2", "--lr", "1e-3", "--radius", "1") == 1
    assert run("partition-map", "--points", "0.1,0.2;0.8,0.8", "--grid-size", "5",
               "--out", str(pm)) == 1
    assert capsys.readouterr().err.count("No space left on device") == 2
    with pytest.raises(OSError, match="No space left"):
        dat.save_dataset(dataset, dat.load_dataset(dataset), name="renamed")
    assert {path: path.read_bytes() for path in old} == old
    assert {d: sorted(os.listdir(d)) for d in listings} == listings


def test_a_failed_write_names_the_file_asked_for(tmp_path, capsys):
    (tmp_path / "adir").mkdir()
    for out in (tmp_path / "missing" / "pm.csv", tmp_path / "adir"):
        # a temp file would be made beside the target: none is left there
        assert run("partition-map", "--grid-size", "3", "--out", str(out)) == 1
        assert capsys.readouterr().err.rstrip().endswith(f"'{out}'")
        assert sorted(os.listdir(tmp_path)) == ["adir"]
    assert os.listdir(tmp_path / "adir") == []


def test_an_output_through_a_symlink_replaces_the_file_it_names(tmp_path):
    dated, latest = tmp_path / "2026-10-19.csv", tmp_path / "latest.csv"
    dated.write_text("old\n")
    latest.symlink_to(dated.name)
    assert run("partition-map", "--grid-size", "3", "--out", str(latest)) == 0
    assert os.readlink(latest) == dated.name
    assert dated.read_text().startswith("x,y,winner_index\n")
    assert sorted(os.listdir(tmp_path)) == [dated.name, latest.name]


def test_outputs_a_rename_would_change_are_written_in_place(tmp_path, monkeypatch):
    # a hard-linked file, a file in a directory this process may not write
    # to, and a device; os.replace is barred, so a regression fails here
    # rather than renaming a regular file over os.devnull
    def barred(*paths):
        raise AssertionError(f"os.replace{paths}")

    linked, other = tmp_path / "linked" / "pm.csv", tmp_path / "linked" / "pm_too.csv"
    locked = tmp_path / "locked" / "pm.csv"
    for out in (linked, locked):
        out.parent.mkdir()
        out.write_text("old\n")
    os.link(linked, other)
    access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode: (
        False if mode & os.W_OK and os.path.samefile(p, locked.parent) else access(p, mode)))
    monkeypatch.setattr(os, "replace", barred)
    for out in (linked, locked, os.devnull):
        assert run("partition-map", "--grid-size", "3", "--out", str(out)) == 0
    assert other.read_text() == linked.read_text() != "old\n"
    assert locked.read_text() == linked.read_text()
    assert os.stat(linked).st_nlink == 2
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_env_var_supplies_data_dir(tmp_path, dataset, monkeypatch):
    monkeypatch.setenv("DIVSUM_DATA_DIR", str(dataset))
    ckpt = tmp_path / "env.ckpt"
    assert run("train", "--out", str(ckpt), "--epochs", "1", "--lr", "1e-3",
               "--radius", "1") == 0
    assert ckpt.exists()


def test_errors_exit_nonzero(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DIVSUM_DATA_DIR", raising=False)
    assert run("train", "--data", str(tmp_path / "absent"), "--out", "x.ckpt") == 1
    assert "manifest not found" in capsys.readouterr().err
    assert run("train", "--out", "x.ckpt") == 1
    assert "DIVSUM_DATA_DIR" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run("train", "--bogus")
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run("no-such-subcommand")
    assert run("summarize", "--checkpoint", str(tmp_path / "no.ckpt"),
               "--data", str(tmp_path)) == 1


def test_synth_refuses_a_name_that_leaves_the_dataset(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("synth", "--out", "ds", "--name", "../escaped") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "../escaped_000" in err[0]
    assert list(tmp_path.rglob("*")) == []


def test_synth_refuses_a_name_that_is_not_utf8_text(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # "a\udcff" is how Python decodes the command-line bytes b"a\xff"
    assert run("synth", "--out", "ds", "--name", "a\udcff") == 1
    assert capsys.readouterr().err == (
        "error: video id 'a\\udcff_000' is not a file name in the dataset\n")
    assert list(tmp_path.rglob("*")) == []


def test_summarize_names_a_missing_checkpoint_parameter(tmp_path, dataset, capsys):
    cfg_raw = config_to_text(TrainConfig()).encode("utf-8")
    ckpt = tmp_path / "empty.ckpt"
    ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(cfg_raw))
                     + cfg_raw + struct.pack("<III", 0, 0, 0))
    assert run("summarize", "--checkpoint", str(ckpt), "--data", str(dataset),
               "--out", str(tmp_path / "s.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing parameter gda.Wq" in err


@pytest.mark.parametrize("paths", ["on", "off"])
def test_summarize_refuses_a_dataset_of_another_feature_dim(tmp_path, dataset, capsys, paths):
    ckpt, out, cfg = tmp_path / "wide.ckpt", tmp_path / "s.csv", tmp_path / "off.cfg"
    cfg.write_text("use_gda=false\nuse_lca=false\n" if paths == "off" else "")
    wide = tmp_path / "wide"
    assert run("synth", "--out", str(wide), "--videos", "2", "--frames", "24", "--dim", "8",
               "--seed", "0") == 0
    assert run("train", "--data", str(wide), "--out", str(ckpt), "--epochs", "1",
               "--radius", "1", "--config", str(cfg)) == 0
    capsys.readouterr()
    assert run("summarize", "--checkpoint", str(ckpt), "--data", str(dataset),
               "--out", str(out)) == 1
    assert capsys.readouterr().err == (f"error: {ckpt} holds a model of feature dim 8, "
                                       f"{dataset / 'manifest.json'} a dataset of dim 6\n")
    assert not out.exists()


def test_summarize_refuses_features_whose_kts_gram_matrix_overflows(tmp_path, capsys):
    spec = dat.SynthSpec(videos=1, frames=60, dim=8, shots_per_video=4)
    video = replace(dat.synth_generate(spec)[0], change_points=None)  # so KTS runs
    plain, huge = tmp_path / "plain", tmp_path / "huge"
    dat.save_dataset(plain, [video], "plain")
    dat.save_dataset(huge, [replace(video, features=video.features * 1e160)], "huge")
    ckpt, out, cfg = tmp_path / "off.ckpt", tmp_path / "s.csv", tmp_path / "off.cfg"
    cfg.write_text("use_gda=false\nuse_lca=false\n")
    assert run("train", "--data", str(plain), "--out", str(ckpt), "--epochs", "1",
               "--config", str(cfg)) == 0
    capsys.readouterr()
    assert run("summarize", "--checkpoint", str(ckpt), "--data", str(huge),
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: video synth_000: KTS: the features' scatter table")
    assert err.count("\n") == 1
    assert not out.exists()


def test_summarize_names_the_video_whose_scoring_fails(tmp_path, capsys):
    spec = dat.SynthSpec(videos=3, frames=60, dim=8, shots_per_video=4)
    videos = [replace(v, change_points=None) for v in dat.synth_generate(spec)]  # so KTS runs
    plain, huge = tmp_path / "plain", tmp_path / "huge"
    dat.save_dataset(plain, videos, "plain")
    videos[1] = replace(videos[1], features=videos[1].features * 1e160)
    dat.save_dataset(huge, videos, "huge")
    ckpt, out = tmp_path / "run.ckpt", tmp_path / "s.csv"
    assert run("train", "--data", str(plain), "--out", str(ckpt), "--epochs", "1",
               "--radius", "1") == 0
    capsys.readouterr()
    assert run("summarize", "--checkpoint", str(ckpt), "--data", str(huge),
               "--out", str(out)) == 1
    printed, err = capsys.readouterr()
    # the attention scores overflow first; the model-free KTS refusal is named above
    assert err == f"error: video {videos[1].id}: column_softmax: input contains NaN or Inf\n"
    assert printed.startswith(f"{videos[0].id}: kept ")
    assert not out.exists()


def divsum_process(*argv) -> subprocess.CompletedProcess:
    """divsum run as its own process, so its stderr is what a user sees:
    numpy's warnings reach it, not the test runner's warning capture."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "divsum.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command, paths", [
    ("summarize", "use_gda=true"), ("summarize", "use_gda=false"),
    ("train", "use_gda=true"), ("train", "use_gda=false"),
])
def test_attention_that_overflows_fails_with_one_line(tmp_path, command, paths):
    spec = dat.SynthSpec(videos=2, frames=40, dim=8, shots_per_video=4)
    videos = dat.synth_generate(spec)
    plain, huge = tmp_path / "plain", tmp_path / "huge"
    dat.save_dataset(plain, videos, "plain")
    videos[1] = replace(videos[1], features=videos[1].features * 1e160)
    dat.save_dataset(huge, videos, "huge")
    ckpt, out, cfg = tmp_path / "run.ckpt", tmp_path / "out", tmp_path / "run.cfg"
    cfg.write_text(paths + "\n")
    train = ("--epochs", "1", "--radius", "1", "--config", str(cfg))
    if command == "summarize":
        assert run("train", "--data", str(plain), "--out", str(ckpt), *train) == 0
        done = divsum_process("summarize", "--checkpoint", str(ckpt), "--data", str(huge),
                              "--out", str(out))
        want = f"error: video {videos[1].id}: column_softmax: input contains NaN or Inf\n"
    else:
        done = divsum_process("train", "--data", str(huge), "--out", str(out), *train)
        want = (f"error: video {videos[1].id} in epoch 0: "
                f"column_softmax: input contains NaN or Inf\n")
    assert done.returncode == 1
    assert done.stderr == want  # one line: numpy's overflow warnings are silenced
    assert not out.exists()


def test_a_human_baseline_without_two_user_summaries_fails_before_any_fold_trains(
        tmp_path, capsys, monkeypatch):
    ds, report = tmp_path / "ds", tmp_path / "r.txt"
    assert run("synth", "--out", str(ds), "--videos", "4", "--frames", "24", "--dim", "6",
               "--users", "1", "--seed", "0") == 0
    calls = []
    monkeypatch.setattr(evaluation, "train", lambda *args: calls.append(args))
    capsys.readouterr()
    assert run("evaluate", "--data", str(ds), "--folds", "2", "--epochs", "1",
               "--baseline", "human", "--report", str(report)) == 1
    assert capsys.readouterr() == ("", "error: human baseline needs videos with >= 2 user "
                                       "summaries\n")
    assert calls == [] and not report.exists()


@pytest.mark.parametrize("part", ["config", "parameter name"])
def test_summarize_names_a_non_utf8_checkpoint_string(tmp_path, dataset, capsys, part):
    cfg_raw = config_to_text(TrainConfig()).encode("utf-8")
    if part == "config":
        body = struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<II", 0, 0)
    else:
        body = (struct.pack("<I", len(cfg_raw)) + cfg_raw + struct.pack("<III", 0, 1, 2)
                + b"\xff\xfe")
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + body)
    assert run("summarize", "--checkpoint", str(ckpt), "--data", str(dataset),
               "--out", str(tmp_path / "s.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{ckpt}: {part} is not valid UTF-8" in err


@pytest.mark.parametrize("flags, field, made, run_value", [
    (["--folds", "3"], "folds", "2", "3"),
    (["--split-seed", "5"], "seed", "0", "5"),
    (["--mode", "augmented"], "mode", "'canonical'", "'augmented'"),
    (["--target-corpus", "synth"], "target_corpus", "None", "'synth'"),
], ids=["folds", "seed", "mode", "target-corpus"])
def test_evaluate_refuses_a_split_file_made_for_another_protocol(tmp_path, dataset, capsys,
                                                                 flags, field, made, run_value):
    splits = tmp_path / "splits.json"
    base = ["evaluate", "--data", str(dataset), "--folds", "2", "--epochs", "1",
            "--radius", "1", "--budget-ratio", "0.3", "--splits", str(splits)]
    assert run(*base) == 0
    capsys.readouterr()
    saved = splits.read_bytes()
    assert run(*base, *flags) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {splits}: split file has {field} {made}, "
                   f"this run has {field} {run_value}\n")
    assert splits.read_bytes() == saved


def test_evaluate_reuses_a_hand_written_split_file_without_protocol_fields(tmp_path, dataset):
    ids = sorted(p.stem for p in dataset.glob("*.dsv"))
    splits = tmp_path / "splits.json"
    splits.write_text(json.dumps({"splits": [{"train": ids[:3], "test": ids[3:]}]}))
    assert run("evaluate", "--data", str(dataset), "--folds", "4", "--split-seed", "9",
               "--epochs", "1", "--radius", "1", "--budget-ratio", "0.3",
               "--splits", str(splits), "--csv", str(tmp_path / "rep.csv")) == 0
    _, rows = read_csv(tmp_path / "rep.csv")
    assert [r[0] for r in rows] == ids[3:] + ["mean"]


@pytest.mark.parametrize("folds, message", [
    (0, "no splits to evaluate"),
    (1, "split 0 has an empty test list"),
], ids=["no-splits", "empty-test"])
def test_evaluate_refuses_an_empty_split_file_with_one_line(tmp_path, dataset, capsys,
                                                             folds, message):
    ids = sorted(p.stem for p in dataset.glob("*.dsv"))
    splits = tmp_path / "splits.json"
    splits.write_text(json.dumps({"splits": [{"train": ids, "test": []}] * folds}))
    assert run("evaluate", "--data", str(dataset), "--epochs", "1", "--radius", "1",
               "--splits", str(splits), "--csv", str(tmp_path / "rep.csv")) == 1
    printed, err = capsys.readouterr()
    assert printed == "" and err == f"error: {message}\n"
    assert not (tmp_path / "rep.csv").exists()


def test_evaluate_refuses_a_split_file_that_tests_a_video_twice(tmp_path, dataset, capsys):
    splits, report = tmp_path / "splits.json", tmp_path / "rep.txt"
    splits.write_text(json.dumps({"splits": [
        {"train": ["synth_002", "synth_003"], "test": ["synth_000", "synth_001"]},
        {"train": ["synth_000", "synth_001"], "test": ["synth_000", "synth_000"]}]}))
    assert run("evaluate", "--data", str(dataset), "--folds", "2", "--epochs", "1",
               "--radius", "1", "--splits", str(splits), "--report", str(report)) == 1
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err == "error: splits test a video more than once: 'synth_000'\n"
    assert not report.exists()


def test_evaluate_refuses_a_split_file_that_trains_on_a_video_twice(tmp_path, dataset, capsys):
    splits, report = tmp_path / "splits.json", tmp_path / "rep.txt"
    splits.write_text(json.dumps({"splits": [
        {"train": ["synth_002", "synth_002"], "test": ["synth_000", "synth_001"]}]}))
    assert run("evaluate", "--data", str(dataset), "--epochs", "1", "--radius", "1",
               "--splits", str(splits), "--report", str(report)) == 1
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err == "error: split 0 trains on a video more than once: 'synth_002'\n"
    assert not report.exists()


def test_evaluate_refuses_a_split_file_that_tests_a_video_it_trains_on(
        tmp_path, dataset, capsys, monkeypatch):
    splits, report = tmp_path / "splits.json", tmp_path / "rep.txt"
    splits.write_text(json.dumps({"splits": [
        {"train": ["synth_000", "synth_001"], "test": ["synth_000", "synth_002"]}]}))
    calls = []
    monkeypatch.setattr(evaluation, "train", lambda *args: calls.append(args))
    assert run("evaluate", "--data", str(dataset), "--epochs", "1", "--radius", "1",
               "--splits", str(splits), "--report", str(report)) == 1
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err == "error: split 0 tests videos it also trains on: 'synth_000'\n"
    assert calls == [] and not report.exists()


MANIFEST = {"name": "synth", "dim": 6, "videos": [], "aggregation": "mean_over_users"}


@pytest.mark.parametrize("which, content, field", [
    ("manifest", [], "must be a JSON object"),
    ("manifest", {**MANIFEST, "dim": "four"}, "'dim'"),
    ("manifest", {**MANIFEST, "videos": None}, "'videos'"),
    ("manifest", b'{"name": "\xff"}', "not valid UTF-8"),
    ("splits", [], "must be a JSON object"),
    ("splits", {"splits": ["ab"]}, "'splits'"),
    ("splits", {"splits": [{"train": 5, "test": []}]}, "split 0 field 'train'"),
], ids=["manifest-list", "manifest-dim", "manifest-videos", "manifest-bytes",
        "splits-list", "splits-entry", "splits-train"])
def test_wrongly_shaped_json_names_file_and_field(tmp_path, dataset, capsys,
                                                   which, content, field):
    raw = content if isinstance(content, bytes) else json.dumps(content).encode("utf-8")
    if which == "manifest":
        target = dataset / "manifest.json"
        argv = ["train", "--data", str(dataset), "--out", str(tmp_path / "x.ckpt")]
    else:
        target = tmp_path / "splits.json"
        argv = ["evaluate", "--data", str(dataset), "--splits", str(target)]
    target.write_bytes(raw)
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}: ") and field in err


@pytest.mark.parametrize("shape", [(0, 4), (4, 0)], ids=["no-frames", "no-dims"])
def test_train_on_a_video_without_frames_or_dims_fails_with_one_line(tmp_path, capsys, shape):
    ds = tmp_path / "ds"
    ds.mkdir()
    write_features_of_shape(ds / "empty.dsv", shape)
    (ds / "manifest.json").write_text(
        json.dumps({"name": "x", "dim": shape[1], "videos": ["empty.dsv"]}))
    assert run("train", "--data", str(ds), "--out", str(tmp_path / "x.ckpt"),
               "--unsupervised") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "video empty: features" in err[0]
    assert not (tmp_path / "x.ckpt").exists()


def test_train_on_a_video_of_one_frame_fails_with_one_line(tmp_path, dataset, capsys):
    manifest = json.loads((dataset / "manifest.json").read_text())
    manifest["videos"].append("tiny.dsv")
    (dataset / "manifest.json").write_text(json.dumps(manifest))
    dat.save_video(dataset / "tiny.dsv", dat.VideoRecord(id="tiny", features=np.ones((1, 6))))
    assert run("train", "--data", str(dataset), "--out", str(tmp_path / "x.ckpt"),
               "--unsupervised") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "['tiny']" in err[0]
    assert not (tmp_path / "x.ckpt").exists()


def test_bad_points_and_bad_config_fail_cleanly(tmp_path, dataset, capsys):
    assert run("partition-map", "--points", "1,2;zap", "--out",
               str(tmp_path / "x.csv")) == 1
    assert "cannot parse points" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key=1\n")
    assert run("train", "--data", str(dataset), "--out", str(tmp_path / "x.ckpt"),
               "--config", str(cfg)) == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("points, message", [
    ("0.1,0.2;0.3", "exactly two coordinates"),
    ("0.1,0.2;0.3,0.4,0.5", "exactly two coordinates"),
    ("0.1,0.2;0.3,nan", "must be finite"),
    ("0.1,0.2;inf,0.4", "must be finite"),
], ids=["one-coordinate", "three-coordinates", "nan", "inf"])
def test_bad_points_fail_with_one_line(tmp_path, capsys, points, message):
    out = tmp_path / "x.csv"
    assert run("partition-map", "--points", points, "--out", str(out)) == 1
    printed, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert printed == "" and not out.exists()


def test_non_utf8_config_file_fails_cleanly(tmp_path, dataset, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# caf\xe9\nepochs=1\n")
    assert run("train", "--data", str(dataset), "--out", str(tmp_path / "x.ckpt"),
               "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"config file {cfg} is not valid UTF-8" in err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("argv, setting", [
    (["synth", "--seed", "-1"], "seed"),
    (["synth", "--users", "-1"], "users"),
    (["synth", "--noise", "-1"], "noise"),
    (["synth", "--noise", "inf"], "synthetic noise must be finite"),
    (["synth", "--budget-ratio", "nan"], "budget_ratio"),
    (["evaluate", "--data", "{data}", "--split-seed", "-1"], "seed"),
    (["partition-map", "--seed", "-3"], "--seed"),
    (["partition-map", "--num-points", "-2"], "--num-points"),
    (["partition-map", "--grid-size", "-1"], "grid sizes"),
    (["ablate", "--data", "{data}", "--axis", "radius", "--repeats", "0"], "--repeats"),
    (["ablate", "--data", "{data}", "--axis", "radius", "--repeats", "-1"], "--repeats"),
    # sizes too large to allocate: 291 and 349 TiB, beyond any 48-bit address
    # space, so they are refused whatever the kernel's overcommit policy
    (["synth", "--frames", "40", "--shots", "4", "--dim", "10000000000000"],
     "error: synth: out of memory: "),
    (["partition-map", "--grid-size", "4000000"], "error: partition-map: out of memory: "),
    # sizes past the largest size numpy can index (2**63 - 1 on 64-bit builds)
    (["synth", "--frames", "10000000000000000000"], "synthetic frames must be in [1, "),
    (["synth", "--dim", "100000000000000000000"], "synthetic dim must be in [1, "),
    (["partition-map", "--grid-size", "100000000000000000000"], "grid sizes must be in [1, "),
    (["partition-map", "--num-points", "100000000000000000000"], "--num-points must be in [0, "),
], ids=["synth-seed", "synth-users", "synth-noise", "synth-noise-inf", "synth-budget-ratio",
        "evaluate-split-seed",
        "partition-map-seed", "partition-map-num-points", "partition-map-grid-size",
        "ablate-repeats-0", "ablate-repeats-negative", "synth-dim-too-large",
        "partition-map-grid-too-large", "synth-frames-past-index", "synth-dim-past-index",
        "partition-map-grid-past-index", "partition-map-num-points-past-index"])
def test_out_of_range_numbers_fail_with_one_line(tmp_path, dataset, capsys, argv, setting):
    out = ["--out", str(tmp_path / "out")] if argv[0] != "evaluate" else []
    assert run(*[a.format(data=dataset) for a in argv], *out) == 1
    printed, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1 and setting in err
    assert printed == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--epochs", "1", "--out", "out.ckpt"],
    ["summarize", "--checkpoint", "run.ckpt", "--out", "out.csv"],
    ["evaluate", "--epochs", "1", "--folds", "2", "--csv", "out.csv"],
    ["ablate", "--axis", "radius", "--epochs", "1", "--out", "out.csv"],
], ids=["train", "summarize", "evaluate", "ablate"])
def test_a_manifest_entry_holding_nul_fails_with_one_line(tmp_path, dataset, capsys,
                                                          monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run("train", "--data", "ds", "--out", "run.ckpt", "--epochs", "1",
               "--radius", "1") == 0
    manifest = Path("ds/manifest.json")
    raw = json.loads(manifest.read_text())
    entries = ["a\u0000.dsv", "\ud800.dsv"]  # NUL, and a lone surrogate UTF-8 cannot encode
    manifest.write_text(json.dumps({**raw, "videos": raw["videos"] + entries}))
    saved = file_bytes(tmp_path)
    capsys.readouterr()
    assert run(*argv, "--data", "ds") == 1
    assert capsys.readouterr().err == (
        f"error: {manifest}: manifest entries are not file names in its directory: "
        "'a\\x00.dsv', '\\ud800.dsv'\n")
    assert file_bytes(tmp_path) == saved


@pytest.mark.parametrize("budget", ["0", "1.5", "nan"])
@pytest.mark.parametrize("argv", [
    ["evaluate", "--folds", "2", "--csv"],
    ["ablate", "--axis", "radius", "--out"],
], ids=["evaluate", "ablate"])
def test_a_bad_budget_fails_with_one_line_before_any_fold_trains(tmp_path, dataset, capsys,
                                                                  monkeypatch, argv, budget):
    calls = []
    monkeypatch.setattr(evaluation, "train", lambda *args: calls.append(args))
    out = tmp_path / "out.csv"
    assert run(*argv, str(out), "--data", str(dataset), "--epochs", "1",
               "--budget-ratio", budget) == 1
    assert capsys.readouterr().err == (
        f"error: budget_ratio must be in (0, 1], got {float(budget)}\n")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("budget", ["0", "1.5", "nan"])
def test_summarize_refuses_a_bad_budget_before_it_scores_a_video(tmp_path, dataset, capsys,
                                                                 monkeypatch, budget):
    ckpt, out = tmp_path / "run.ckpt", tmp_path / "sum.csv"
    assert run("train", "--data", str(dataset), "--out", str(ckpt), "--epochs", "1",
               "--radius", "1") == 0
    calls = []
    scores = segmentation.forward_scores
    monkeypatch.setattr(segmentation, "forward_scores",
                        lambda *args: calls.append(args) or scores(*args))
    capsys.readouterr()
    assert run("summarize", "--checkpoint", str(ckpt), "--data", str(dataset),
               "--budget-ratio", budget, "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: budget_ratio must be in (0, 1], got {float(budget)}\n")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--out", "nodir/m.ckpt"], "--out: no directory {root}/nodir to hold 'nodir/m.ckpt'"),
    (["train", "--out", "m.ckpt", "--history", "nodir/h.csv"],
     "--history: no directory {root}/nodir to hold 'nodir/h.csv'"),
    (["train", "--out", "outdir"], "--out names a directory: 'outdir'"),
    (["train", "--out", "dangling"], "--out: no directory {root}/nodir to hold 'dangling'"),
    (["summarize", "--checkpoint", "run.ckpt", "--out", "nodir/s.csv"],
     "--out: no directory {root}/nodir to hold 'nodir/s.csv'"),
    (["evaluate", "--folds", "2", "--csv", "nodir/r.csv"],
     "--csv: no directory {root}/nodir to hold 'nodir/r.csv'"),
    (["evaluate", "--folds", "2", "--report", "outdir"], "--report names a directory: 'outdir'"),
    (["ablate", "--axis", "radius", "--out", "run.ckpt/a.csv"],
     "--out: no directory {root}/run.ckpt to hold 'run.ckpt/a.csv'"),
    (["partition-map", "--out", "nodir/p.csv"],
     "--out: no directory {root}/nodir to hold 'nodir/p.csv'"),
], ids=["train-out", "train-history", "train-out-directory", "train-out-dangling-symlink",
        "summarize-out", "evaluate-csv", "evaluate-report-directory", "ablate-out-under-a-file",
        "partition-map-out"])
def test_an_output_that_cannot_be_written_fails_with_one_line_before_any_work(
        tmp_path, dataset, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run("train", "--data", "ds", "--out", "run.ckpt", "--epochs", "1",
               "--radius", "1") == 0
    Path("outdir").mkdir()
    Path("dangling").symlink_to("nodir/x.csv")
    calls = []
    for module in (cli, evaluation):
        monkeypatch.setattr(module, "train", lambda *args: calls.append(args))
    saved = sorted(tmp_path.rglob("*")), file_bytes(tmp_path)
    capsys.readouterr()
    rest = {"partition-map": [], "summarize": ["--data", "ds"]}.get(
        argv[0], ["--data", "ds", "--epochs", "1"])
    assert run(*argv, *rest) == 1
    printed, err = capsys.readouterr()
    assert err == f"error: {message.format(root=os.path.realpath(tmp_path))}\n"
    assert printed == "" and calls == []
    assert (sorted(tmp_path.rglob("*")), file_bytes(tmp_path)) == saved
