import ast
import hashlib
import json
import re
import struct
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from divsum import data as dat
from divsum import training as tr
from divsum.autograd import Matrix
from divsum.config import TrainConfig
from divsum.model import PARAMETERS, ModelParams
from divsum.segmentation import ShotPartition, kts_segment, shot_scores


def full_record(rng, T=12, d=5, tag="demo"):
    part = ShotPartition([0, 4, 9], T)
    users = [rng.integers(0, 2, size=T).astype(int) for _ in range(3)]
    return dat.VideoRecord(
        id="vid_full",
        features=rng.uniform(size=(T, d)),
        gt_scores=rng.uniform(size=T),
        gt_binary=rng.integers(0, 2, size=T).astype(int),
        user_summaries=users,
        change_points=part,
        picks=np.arange(T) * 15,
        corpus_tag=tag,
    )


def assert_records_equal(a: dat.VideoRecord, b: dat.VideoRecord):
    assert a.id == b.id and a.corpus_tag == b.corpus_tag
    np.testing.assert_array_equal(a.features, b.features)
    for name in ("gt_scores", "gt_binary", "picks"):
        va, vb = getattr(a, name), getattr(b, name)
        assert (va is None) == (vb is None), name
        if va is not None:
            np.testing.assert_array_equal(va, vb)
    assert (a.user_summaries is None) == (b.user_summaries is None)
    if a.user_summaries is not None:
        assert len(a.user_summaries) == len(b.user_summaries)
        for ua, ub in zip(a.user_summaries, b.user_summaries):
            np.testing.assert_array_equal(ua, ub)
    assert (a.change_points is None) == (b.change_points is None)
    if a.change_points is not None:
        np.testing.assert_array_equal(a.change_points.change_points,
                                      b.change_points.change_points)


# ---------------------------------------------------------------------------
# video files


def test_round_trip_all_sections(tmp_path):
    rec = full_record(np.random.default_rng(0))
    p = tmp_path / "v.dsv"
    dat.save_video(p, rec)
    assert_records_equal(rec, dat.load_video(p))


def test_round_trip_features_only(tmp_path):
    rec = dat.VideoRecord(id="bare", features=np.random.default_rng(1).uniform(size=(7, 3)))
    p = tmp_path / "bare.dsv"
    dat.save_video(p, rec)
    got = dat.load_video(p)
    assert_records_equal(rec, got)
    assert got.gt_scores is None and got.change_points is None


def test_load_video_reads_the_features_once_from_the_open_file(tmp_path):
    # the features are read straight into their own array; only validate's
    # T x d finiteness mask comes on top, not a copy of the file
    T, d = 800, 1024
    rec = dat.VideoRecord(id="wide", features=np.random.default_rng(3).uniform(size=(T, d)),
                          gt_scores=np.linspace(0.0, 1.0, T))
    p = tmp_path / "wide.dsv"
    dat.save_video(p, rec)
    del rec
    tracemalloc.start()
    try:
        got = dat.load_video(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.features.shape == (T, d)
    assert peak < 1.5 * T * d * 8


def test_save_load_save_is_byte_stable(tmp_path):
    rec = full_record(np.random.default_rng(2))
    p1, p2 = tmp_path / "a.dsv", tmp_path / "b.dsv"
    dat.save_video(p1, rec)
    dat.save_video(p2, dat.load_video(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_only_writer_write_writes_files():
    # every output is atomic because Writer.write is the one code that
    # opens a file for writing or renames one into place
    found = []
    for path in sorted(Path(dat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "data.py":
            writer = next(n for n in tree.body if getattr(n, "name", "") == "Writer")
            write = next(n for n in writer.body if getattr(n, "name", "") == "write")
            allowed = {id(n) for n in ast.walk(write)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            modes = [a.value for a in node.args[1:2] + [k.value for k in node.keywords
                                                       if k.arg == "mode"]
                     if isinstance(a, ast.Constant)]
            writes = (name in ("write_text", "write_bytes")
                      or name == "open" and any(set(m) & set("wax+") for m in modes)
                      or name in ("replace", "rename") and isinstance(func, ast.Attribute)
                      and getattr(func.value, "id", "") == "os")
            if writes:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_bad_magic_is_rejected(tmp_path):
    p = tmp_path / "x.dsv"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(dat.DataFormatError, match="magic"):
        dat.load_video(p)


def test_unknown_version_is_rejected(tmp_path):
    rec = dat.VideoRecord(id="v", features=np.zeros((2, 2)))
    p = tmp_path / "v.dsv"
    dat.save_video(p, rec)
    blob = bytearray(p.read_bytes())
    blob[4] = 99  # version byte
    p.write_bytes(bytes(blob))
    with pytest.raises(dat.DataFormatError, match="version"):
        dat.load_video(p)


def test_truncation_names_the_failing_part(tmp_path):
    rec = full_record(np.random.default_rng(3))
    p = tmp_path / "v.dsv"
    dat.save_video(p, rec)
    blob = p.read_bytes()
    # chop the file at a few depths and check each error names a real part
    for cut, expect in ((2, "magic"), (10, "frame count"), (30, "video id"),
                        (100, "features")):
        q = tmp_path / f"cut{cut}.dsv"
        q.write_bytes(blob[:cut])
        with pytest.raises(dat.DataFormatError, match=expect):
            dat.load_video(q)
    # drop the last byte: the final section comes up short
    q = tmp_path / "short.dsv"
    q.write_bytes(blob[:-1])
    with pytest.raises(dat.DataFormatError, match="picks"):
        dat.load_video(q)


@pytest.mark.parametrize("annotated", [True, False])
def test_trailing_bytes_name_the_file_and_count(tmp_path, annotated):
    rng = np.random.default_rng(3)
    rec = full_record(rng) if annotated else dat.VideoRecord(
        id="bare", features=rng.uniform(size=(6, 3)))
    p = tmp_path / "v.dsv"
    dat.save_video(p, rec)
    p.write_bytes(p.read_bytes() + b"garbage!")
    with pytest.raises(dat.DataFormatError, match="8 unexpected trailing bytes") as exc:
        dat.load_video(p)
    assert str(p) in str(exc.value)


def test_unordered_change_points_name_the_file_and_section(tmp_path):
    rec = full_record(np.random.default_rng(3))
    p = tmp_path / "v.dsv"
    dat.save_video(p, rec)
    ordered = np.array([0, 4, 9], dtype="<u4").tobytes()
    blob = p.read_bytes()
    assert blob.count(ordered) == 1
    p.write_bytes(blob.replace(ordered, np.array([0, 9, 4], dtype="<u4").tobytes()))
    with pytest.raises(dat.DataFormatError, match="change_points") as exc:
        dat.load_video(p)
    assert str(p) in str(exc.value)


@pytest.mark.parametrize("part", ["video id", "corpus tag"])
def test_non_utf8_strings_name_the_file_and_part(tmp_path, part):
    rec = full_record(np.random.default_rng(3), tag="tagX")
    rec.id = "vidX"
    p = tmp_path / "v.dsv"
    dat.save_video(p, rec)
    text = b"vidX" if part == "video id" else b"tagX"
    blob = p.read_bytes()
    assert blob.count(text) == 1
    p.write_bytes(blob.replace(text, b"\xff\xfe\xfd\xfc"))
    with pytest.raises(dat.DataFormatError, match=part) as exc:
        dat.load_video(p)
    assert str(p) in str(exc.value)


def test_validation_catches_length_mismatches():
    feats = np.zeros((5, 2))
    with pytest.raises(dat.DataFormatError, match="gt_scores"):
        dat.VideoRecord(id="v", features=feats, gt_scores=np.zeros(4)).validate()
    with pytest.raises(dat.DataFormatError, match="0 or 1"):
        dat.VideoRecord(id="v", features=feats, gt_binary=np.full(5, 2)).validate()
    with pytest.raises(dat.DataFormatError, match="user summary 1"):
        dat.VideoRecord(id="v", features=feats,
                        user_summaries=[np.zeros(5, dtype=int), np.zeros(3, dtype=int)]).validate()
    part = ShotPartition([0, 2], 4)
    with pytest.raises(dat.DataFormatError, match="change points"):
        dat.VideoRecord(id="v", features=feats, change_points=part).validate()
    with pytest.raises(dat.DataFormatError, match="NaN"):
        dat.VideoRecord(id="v", features=np.full((2, 2), np.nan)).validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gt_scores_are_refused_on_save(tmp_path, bad):
    rec = full_record(np.random.default_rng(11))
    rec.gt_scores[3] = bad
    with pytest.raises(dat.DataFormatError, match="video vid_full: gt_scores contain NaN or Inf"):
        dat.save_video(tmp_path / "v.dsv", rec)
    assert not (tmp_path / "v.dsv").exists()


def test_non_finite_gt_scores_are_refused_on_load(tmp_path):
    rec = full_record(np.random.default_rng(12))
    p = tmp_path / "v.dsv"
    dat.save_video(p, rec)
    blob = p.read_bytes()
    value = np.float64(rec.gt_scores[3]).astype("<f8").tobytes()
    assert blob.count(value) == 1
    p.write_bytes(blob.replace(value, np.float64(np.nan).astype("<f8").tobytes()))
    with pytest.raises(dat.DataFormatError, match="video vid_full: gt_scores contain NaN or Inf"):
        dat.load_video(p)


def write_features_of_shape(path, shape):
    """A features-only video "empty" whose header claims `shape`, one of
    whose sizes is 0: a one-frame file with its header patched and its
    feature values cut."""
    one_frame = np.ones((1, max(shape[1], 1)))
    dat.save_video(path, dat.VideoRecord(id="empty", features=one_frame))
    blob = path.read_bytes()
    path.write_bytes(blob[:8] + struct.pack("<II", *shape) + blob[16:-one_frame.nbytes])


@pytest.mark.parametrize("shape", [(0, 4), (4, 0)], ids=["no-frames", "no-dims"])
def test_features_without_frames_or_dims_are_refused(tmp_path, shape):
    message = re.escape(f"video empty: features are {shape[0]}x{shape[1]}")
    with pytest.raises(dat.DataFormatError, match=message):
        dat.save_video(tmp_path / "v.dsv", dat.VideoRecord(id="empty", features=np.zeros(shape)))
    assert not (tmp_path / "v.dsv").exists()
    write_features_of_shape(tmp_path / "w.dsv", shape)
    with pytest.raises(dat.DataFormatError, match=message):
        dat.load_video(tmp_path / "w.dsv")


def test_validate_refuses_features_that_are_not_2d():
    with pytest.raises(dat.DataFormatError, match="^video flat: features must be 2-D$"):
        dat.VideoRecord(id="flat", features=np.ones(4)).validate()


def test_validate_refuses_a_user_summary_entry_that_is_not_0_or_1():
    users = [np.array([1, 0, 0, 1]), np.array([0, 2, 0, 1])]
    rec = dat.VideoRecord(id="v", features=np.ones((4, 2)), user_summaries=users)
    message = "^video v: user summary 1 entries must be 0 or 1$"
    with pytest.raises(dat.DataFormatError, match=message):
        rec.validate()


def test_a_write_into_a_missing_directory_names_the_callers_path(tmp_path):
    path = tmp_path / "absent" / "v.dsv"
    with pytest.raises(FileNotFoundError,
                       match=re.escape(f"No such file or directory: '{path}'")) as err:
        dat.save_video(path, full_record(np.random.default_rng(0)))
    assert err.value.filename == str(path)
    assert list(tmp_path.rglob("*.tmp")) == []


# The optional sections of a .dsv file, in flag-bit order (README).
SECTIONS = ("gt_scores", "gt_binary", "user_summaries", "change_points", "picks")


@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("section", SECTIONS)
def test_section_length_off_by_one_names_the_file_and_section(tmp_path, section, delta):
    rec = full_record(np.random.default_rng(13))
    p = tmp_path / "v.dsv"
    dat.save_video(p, rec)
    blob = bytearray(p.read_bytes())
    T, d = rec.features.shape
    pos = 4 + 4 * 4 + 4 + len(rec.id) + 4 + len(rec.corpus_tag) + 8 * T * d
    for name in SECTIONS:
        n = int.from_bytes(blob[pos:pos + 4], "little")
        if name == section:
            blob[pos:pos + 4] = (n + delta).to_bytes(4, "little")
            break
        pos += 4 + n
    p.write_bytes(bytes(blob))
    with pytest.raises(dat.DataFormatError, match=section) as exc:
        dat.load_video(p)
    assert str(p) in str(exc.value)


@pytest.mark.parametrize("bit", [5, 31])
def test_unknown_flag_bit_names_the_file_and_bit(tmp_path, bit):
    rec = dat.VideoRecord(id="bare", corpus_tag="t",
                          features=np.random.default_rng(14).normal(size=(6, 3)))
    p = tmp_path / "v.dsv"
    dat.save_video(p, rec)
    blob = bytearray(p.read_bytes())
    flags = int.from_bytes(blob[16:20], "little")  # after magic, version, T, d
    assert flags == 0
    blob[16:20] = (1 << bit).to_bytes(4, "little")
    p.write_bytes(bytes(blob))
    with pytest.raises(dat.DataFormatError, match=rf"unknown section flag bits \[{bit}\]") as exc:
        dat.load_video(p)
    assert str(p) in str(exc.value)


def arithmetic_record(annotated: bool) -> dat.VideoRecord:
    """A small record whose every value is exact arithmetic (no RNG)."""
    T, d = 6, 3
    rec = dat.VideoRecord(id="golden", corpus_tag="tag",
                          features=(np.arange(T * d).reshape(T, d) - 7.5) / 4.0)
    if annotated:
        rec.gt_scores = np.arange(T) / 8.0
        rec.gt_binary = np.arange(T) % 2
        rec.user_summaries = [(np.arange(T) + u) % 2 for u in range(2)]
        rec.change_points = ShotPartition([0, 2, 5], T)
        rec.picks = np.arange(T) * 15
    return rec


def write_golden_checkpoint(path):
    """A d=4, R=1 model of arithmetic weights with zero Adam moments."""
    cfg = TrainConfig(neighbor_R=1)
    size = {"d": 4, "span": 3, 1: 1}
    mats = {}
    for k, (name, rows, cols) in enumerate(PARAMETERS):
        shape = size[rows], size[cols]
        mats[name] = Matrix((np.arange(shape[0] * shape[1]).reshape(shape) - k) / 16.0)
    params = ModelParams.from_named(mats, cfg)
    tr.save_checkpoint(path, params, tr.AdamState.for_params(params), cfg, epoch=3)


# sha256 of each file; these pin the byte layout README documents.
GOLDEN = {
    "video_annotated": "d10282acb6c7f4fdb75212a09f7917458b5900c0cc622f31469bc5c282220679",
    "video_bare": "fe7e672afd5fc0dcd02640b499eea0cda10d03188f914beaa4a30e6cfbceacef",
    "checkpoint": "6a92ec3c27795d20c6c077c499f6a0b6a0f62214f8c5fd26b879280f7f16b7d4",
}


@pytest.mark.parametrize("which", sorted(GOLDEN))
def test_written_bytes_match_the_documented_layout(tmp_path, which):
    p = tmp_path / which
    if which == "checkpoint":
        write_golden_checkpoint(p)
    else:
        dat.save_video(p, arithmetic_record(annotated=which == "video_annotated"))
    assert hashlib.sha256(p.read_bytes()).hexdigest() == GOLDEN[which]


# ---------------------------------------------------------------------------
# manifests and datasets


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    recs = [full_record(rng), dat.VideoRecord(id="second", features=rng.uniform(size=(9, 5)))]
    manifest_path = dat.save_dataset(tmp_path / "ds", recs, name="demo",
                                     aggregation="max_over_users")
    m = dat.load_manifest(manifest_path)
    assert m.name == "demo" and m.dim == 5 and m.aggregation == "max_over_users"
    assert m.video_files == ["vid_full.dsv", "second.dsv"]
    got = dat.load_dataset(tmp_path / "ds")  # directory form
    assert len(got) == 2
    for want, have in zip(recs, got):
        assert_records_equal(want, have)


def test_dataset_rejects_mixed_dims(tmp_path):
    rng = np.random.default_rng(5)
    recs = [
        dat.VideoRecord(id="a", features=rng.uniform(size=(4, 3))),
        dat.VideoRecord(id="b", features=rng.uniform(size=(4, 6))),
    ]
    with pytest.raises(dat.DataFormatError, match="dim"):
        dat.save_dataset(tmp_path / "ds", recs, name="bad")


def test_dataset_refuses_empty(tmp_path):
    with pytest.raises(dat.DataFormatError, match="empty"):
        dat.save_dataset(tmp_path / "ds", [], name="none")


@pytest.mark.parametrize("bad", ["", ".", "..", "../escaped_000", "a/b", "a\\b"])
def test_dataset_refuses_ids_that_are_not_file_names(tmp_path, bad):
    recs = [dat.VideoRecord(id="fine", features=np.zeros((2, 3))),
            dat.VideoRecord(id=bad, features=np.zeros((2, 3)))]
    with pytest.raises(dat.DataFormatError, match=re.escape(f"video id {bad!r}")):
        dat.save_dataset(tmp_path / "ds", recs, name="bad")
    assert list(tmp_path.iterdir()) == []


def test_dataset_refuses_duplicate_ids_naming_them(tmp_path):
    recs = [dat.VideoRecord(id=i, features=np.full((2, 3), float(n)))
            for n, i in enumerate(["a", "b", "a", "c", "b"])]
    with pytest.raises(dat.DataFormatError, match=re.escape("duplicate video ids: 'a', 'b'")):
        dat.save_dataset(tmp_path / "ds", recs, name="dup")
    assert list(tmp_path.iterdir()) == []


def test_dataset_refuses_an_unknown_aggregation_before_writing(tmp_path):
    recs = [dat.VideoRecord(id=i, features=np.zeros((2, 3))) for i in "ab"]
    with pytest.raises(dat.DataFormatError, match="unknown aggregation mode: 'median'"):
        dat.save_dataset(tmp_path / "ds", recs, name="x", aggregation="median")
    assert list(tmp_path.iterdir()) == []


def test_dataset_refuses_an_invalid_record_before_writing(tmp_path):
    bad = np.zeros((2, 3))
    bad[1, 2] = np.nan
    recs = [dat.VideoRecord(id="a", features=np.zeros((2, 3))),
            dat.VideoRecord(id="b", features=bad)]
    with pytest.raises(dat.DataFormatError, match="video b: features contain NaN or Inf"):
        dat.save_dataset(tmp_path / "ds", recs, name="x")
    assert not (tmp_path / "ds").exists()


def patched_manifest(tmp_path, ids, videos):
    """A saved dataset of zero-feature videos `ids` whose manifest lists `videos`."""
    mp = dat.save_dataset(tmp_path / "ds", [dat.VideoRecord(id=i, features=np.zeros((2, 3)))
                                            for i in ids], name="x")
    raw = json.loads(mp.read_text())
    raw["videos"] = videos
    mp.write_text(json.dumps(raw))
    return mp


@pytest.mark.parametrize("videos, named", [
    (["a.dsv", "b.dsv", "a.dsv"], "lists video files more than once: 'a.dsv'"),
    (["a.dsv", "../other/z.dsv", "b.dsv"],
     "are not file names in its directory: '../other/z.dsv'"),
    (["a.dsv", "sub\\b.dsv"], "are not file names in its directory: 'sub\\\\b.dsv'"),
], ids=["file-twice", "outside", "backslash"])
def test_load_dataset_refuses_repeated_or_outside_entries_before_reading_videos(
        tmp_path, monkeypatch, videos, named):
    mp = patched_manifest(tmp_path, ["a", "b"], videos)
    monkeypatch.setattr(dat, "load_video", lambda path: pytest.fail(f"read {path}"))
    with pytest.raises(dat.DataFormatError, match=re.escape(f"{mp}: manifest")) as err:
        dat.load_dataset(tmp_path / "ds")
    assert named in str(err.value)


def test_load_dataset_refuses_another_format_version(tmp_path):
    mp = patched_manifest(tmp_path, "ab", ["a.dsv", "b.dsv"])
    raw = json.loads(mp.read_text())
    raw["format_version"] = 2
    mp.write_text(json.dumps(raw))
    with pytest.raises(dat.DataFormatError,
                       match=re.escape(f"{mp}: manifest format version 2, this build reads 1")):
        dat.load_dataset(mp)


@pytest.mark.parametrize("version, videos, named", [
    (2, ["a.dsv", "b.dsv"], "format version 2, this build reads 1"),
    (1, ["a.dsv", "b.dsv", "a.dsv"], "lists video files more than once: 'a.dsv'"),
    (1, ["a.dsv", "../x.dsv"], "entries are not file names in its directory: '../x.dsv'"),
    (1, ["a.dsv", "a/b.dsv"], "entries are not file names in its directory: 'a/b.dsv'"),
    (1, ["a.dsv", "a\u0000.dsv"], "entries are not file names in its directory: 'a\\x00.dsv'"),
    (2, ["a.dsv", "a.dsv", "a\u0000.dsv"], "format version 2, this build reads 1"),
], ids=["version", "file-twice", "parent", "subdirectory", "nul", "several-faults"])
def test_load_manifest_refuses_each_manifest_fault_without_reading_videos(
        tmp_path, monkeypatch, version, videos, named):
    mp = patched_manifest(tmp_path, ["a", "b"], videos)
    mp.write_text(json.dumps({**json.loads(mp.read_text()), "format_version": version}))
    monkeypatch.setattr(dat, "load_video", lambda path: pytest.fail(f"read {path}"))
    for load in (dat.load_manifest, dat.load_dataset):
        with pytest.raises(dat.DataFormatError) as err:
            load(tmp_path / "ds")
        assert str(err.value) == f"{mp}: manifest {named}"


def test_load_dataset_refuses_two_files_holding_one_video_id(tmp_path):
    mp = patched_manifest(tmp_path, ["a", "b"], ["a.dsv", "b.dsv", "copy.dsv"])
    (tmp_path / "ds" / "copy.dsv").write_bytes((tmp_path / "ds" / "a.dsv").read_bytes())
    with pytest.raises(dat.DataFormatError,
                       match=re.escape(f"{mp}: manifest lists files that hold the same "
                                       "video ids: 'a'")):
        dat.load_dataset(mp)


def test_manifest_dim_mismatch_detected(tmp_path):
    rng = np.random.default_rng(6)
    recs = [dat.VideoRecord(id="a", features=rng.uniform(size=(4, 3)))]
    mp = dat.save_dataset(tmp_path / "ds", recs, name="x")
    raw = json.loads(mp.read_text())
    raw["dim"] = 7
    mp.write_text(json.dumps(raw))
    with pytest.raises(dat.DataFormatError, match="disagrees with manifest"):
        dat.load_dataset(tmp_path / "ds")


def test_manifest_errors_name_the_problem(tmp_path):
    with pytest.raises(dat.DataFormatError, match="not found"):
        dat.load_manifest(tmp_path / "missing")
    bad = tmp_path / "manifest.json"
    bad.write_text("{nope")
    with pytest.raises(dat.DataFormatError, match="JSON"):
        dat.load_manifest(tmp_path)
    bad.write_text(json.dumps({"name": "x", "videos": []}))
    with pytest.raises(dat.DataFormatError, match="dim"):
        dat.load_manifest(tmp_path)
    with pytest.raises(dat.DataFormatError, match="aggregation"):
        dat.DatasetManifest(name="x", dim=2, video_files=[], aggregation="median")


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_is_deterministic():
    spec = dat.SynthSpec(videos=3, frames=30, dim=8, shots_per_video=5, seed=7)
    a = dat.synth_generate(spec)
    b = dat.synth_generate(spec)
    for ra, rb in zip(a, b):
        assert_records_equal(ra, rb)
    c = dat.synth_generate(dat.SynthSpec(videos=3, frames=30, dim=8,
                                         shots_per_video=5, seed=8))
    assert any(not np.array_equal(ra.features, rc.features) for ra, rc in zip(a, c))


def test_synth_structural_properties():
    spec = dat.SynthSpec(videos=4, frames=48, dim=10, shots_per_video=6,
                         seed=1, users=3, budget_ratio=0.2)
    recs = dat.synth_generate(spec)
    assert len(recs) == 4
    budget = int(np.floor(0.2 * 48))
    for rec in recs:
        rec.validate()
        assert rec.frame_count == 48 and rec.dim == 10
        assert rec.change_points.num_shots == 6
        assert rec.change_points.shot_lengths.min() >= 2
        assert rec.gt_binary.sum() <= budget
        assert len(rec.user_summaries) == 3
        for u in rec.user_summaries:
            assert u.sum() <= budget
        np.testing.assert_array_equal(rec.picks, np.arange(48) * 15)
        # selected frames carry clearly higher annotated scores
        assert rec.gt_binary.any()
        assert rec.gt_scores[rec.gt_binary == 1].min() > rec.gt_scores[rec.gt_binary == 0].max()


def test_synth_key_shots_separate_in_feature_space():
    recs = dat.synth_generate(dat.SynthSpec(videos=5, frames=40, dim=16, seed=3))
    for rec in recs:
        key = rec.gt_binary == 1
        assert rec.features[key].mean() > rec.features[~key].mean() + 0.1


def test_synth_noise_free_videos_segment_exactly():
    recs = dat.synth_generate(dat.SynthSpec(videos=3, frames=36, dim=8,
                                            shots_per_video=4, noise=0.0, seed=5))
    for rec in recs:
        part = kts_segment(rec.features, max_shots=8)
        merged_ok = np.all(np.isin(part.change_points, rec.change_points.change_points))
        # adjacent key shots may merge (identical only up to prototypes), so
        # require recovered cuts to be a subset of the planted ones at minimum
        assert merged_ok
        assert part.num_shots >= 2


def test_synth_size_validation():
    with pytest.raises(dat.DataFormatError):
        dat.synth_generate(dat.SynthSpec(videos=0))
    with pytest.raises(dat.DataFormatError):
        dat.synth_generate(dat.SynthSpec(frames=10, shots_per_video=8))


@pytest.mark.parametrize("noise", [np.inf, -np.inf, np.nan, -0.5])
def test_synth_spec_refuses_a_noise_that_is_not_finite_and_nonnegative(noise):
    # refused when the spec is made, before synth_generate draws anything
    with pytest.raises(dat.DataFormatError,
                       match=r"^synthetic noise must be finite and >= 0, got "):
        dat.SynthSpec(noise=noise)


@pytest.mark.parametrize("shots", [16, 20])
def test_synth_packs_tight_shots_quickly(shots):
    start = time.perf_counter()
    recs = dat.synth_generate(dat.SynthSpec(frames=40, shots_per_video=shots))
    assert time.perf_counter() - start < 1.0
    for rec in recs:
        lengths = rec.change_points.shot_lengths
        assert lengths.sum() == 40 and lengths.size == shots and lengths.min() >= 2
        if shots == 20:
            assert lengths.tolist() == [2] * 20


def test_default_synth_corpus_bytes_are_pinned(tmp_path):
    # the packed-shot fallback must leave every accepted rejection draw as it was
    dat.save_dataset(tmp_path, dat.synth_generate(dat.SynthSpec()), name="synth")
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == (
        "587578e98d09b9de55c5ea623f2cfbeb0189e6fbb20de9e68ee2ce24b5dc58c2")


def test_synth_gt_respects_shot_structure():
    recs = dat.synth_generate(dat.SynthSpec(videos=2, frames=32, dim=6,
                                            shots_per_video=4, seed=9))
    for rec in recs:
        means = shot_scores(rec.gt_binary.astype(float), rec.change_points)
        assert set(np.round(means, 12)) <= {0.0, 1.0}  # whole shots in or out
