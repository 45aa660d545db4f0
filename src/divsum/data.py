"""Dataset container format, validation, and the synthetic generator.

Each video lives in its own binary file: a fixed header (magic, version,
frame count, feature dim, section flags, id, corpus tag), the feature
rows as little-endian float64, then the optional sections in flag-bit
order, each prefixed with its byte length so a truncated file names the
section it died in. A JSON manifest ties the files of a dataset together
and carries the F-score aggregation mode.

Writer and Reader are the one codec of both binary formats, this video
container and the training checkpoint: a Writer assembles a file and
writes it atomically, and a Reader decodes it in the same order from the
open file, each section in place. Every file the package writes, text
ones included, goes through Writer.write.

Converters from common benchmark dumps are deliberately out of scope;
the format is documented in the README so users can write their own.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import ContractError
from .segmentation import ShotPartition, _check_budget_ratio, select_frames

MAGIC = b"DSUM"
FORMAT_VERSION = 1

AGGREGATION_MODES = ("max_over_users", "mean_over_users")


class DataFormatError(ContractError):
    """Raised when an input file is malformed, with the failing part named."""


@dataclass
class VideoRecord:
    """One video's features plus whatever annotations it carries.

    Features are held as a raw T x d array, which the model reads as a
    constant: `train` and `score_video` convert it once, where it enters.
    """

    id: str
    features: np.ndarray
    gt_scores: np.ndarray | None = None
    gt_binary: np.ndarray | None = None
    user_summaries: list[np.ndarray] | None = None
    change_points: ShotPartition | None = None
    picks: np.ndarray | None = None
    corpus_tag: str = ""

    @property
    def frame_count(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def validate(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DataFormatError(f"video {self.id}: features must be 2-D")
        if 0 in feats.shape:
            raise DataFormatError(f"video {self.id}: features are {feats.shape[0]}x"
                                  f"{feats.shape[1]}, need at least one frame and one dim")
        if not np.all(np.isfinite(feats)):
            raise DataFormatError(f"video {self.id}: features contain NaN or Inf")
        T = feats.shape[0]
        for name, vec in (("gt_scores", self.gt_scores), ("gt_binary", self.gt_binary),
                          ("picks", self.picks)):
            if vec is not None and len(vec) != T:
                raise DataFormatError(
                    f"video {self.id}: {name} has {len(vec)} entries for {T} frames"
                )
        if self.gt_scores is not None and not np.all(
                np.isfinite(np.asarray(self.gt_scores, dtype=np.float64))):
            raise DataFormatError(f"video {self.id}: gt_scores contain NaN or Inf")
        if self.gt_binary is not None and not np.all(np.isin(self.gt_binary, (0, 1))):
            raise DataFormatError(f"video {self.id}: gt_binary entries must be 0 or 1")
        if self.user_summaries is not None:
            for u, s in enumerate(self.user_summaries):
                if len(s) != T:
                    raise DataFormatError(
                        f"video {self.id}: user summary {u} has {len(s)} entries for {T} frames"
                    )
                if not np.all(np.isin(s, (0, 1))):
                    raise DataFormatError(
                        f"video {self.id}: user summary {u} entries must be 0 or 1"
                    )
        if self.change_points is not None and self.change_points.total_frames != T:
            raise DataFormatError(
                f"video {self.id}: change points cover {self.change_points.total_frames} "
                f"frames, features have {T}"
            )


@dataclass
class DatasetManifest:
    name: str
    dim: int
    video_files: list[str]
    aggregation: str = "mean_over_users"

    def __post_init__(self):
        if self.aggregation not in AGGREGATION_MODES:
            raise DataFormatError(f"unknown aggregation mode: {self.aggregation!r}")


# ---------------------------------------------------------------------------
# the binary codec and the video files


class Writer:
    """Assembles a binary file as a list of byte buffers, mirroring Reader:
    little-endian u32 values, length-prefixed UTF-8 strings, typed arrays
    and length-prefixed sections. An array is held as a view of its own
    buffer, so assembling a file copies no array already in the stored
    dtype and layout.

    write() is the one function in the package that writes a file."""

    def __init__(self):
        self.parts: list = []  # bytes, or byte views of arrays

    def put(self, raw) -> "Writer":
        self.parts.append(raw)
        return self

    def u32(self, *values: int) -> "Writer":
        return self.put(struct.pack(f"<{len(values)}I", *values))

    def string(self, s: str) -> "Writer":
        raw = s.encode("utf-8")
        return self.u32(len(raw)).put(raw)

    def array(self, a, dtype: str) -> "Writer":
        """The entries of `a` in row-major order, stored as `dtype`; `a` is
        copied only when its dtype or layout differs, and must not change
        before write()."""
        flat = np.ascontiguousarray(a, dtype=dtype).reshape(-1)
        return self.put(memoryview(flat.view("u1")))

    @contextmanager
    def section(self):
        """A Writer whose bytes land here behind their u32 length."""
        sub = Writer()
        yield sub
        self.u32(sum(len(part) for part in sub.parts)).parts.extend(sub.parts)

    def write(self, path):
        """Streams the parts into a new temp file beside the file `path`
        names (through any symlinks), then renames it over that file: a
        reader finds the old file or the new one, never a mix, and a failed
        write leaves no temp file behind. A target that a rename would
        change into something else (see _replaceable) is written in place,
        without that guarantee. There is no fsync, so after a machine crash
        the target may be empty or torn and its old contents lost."""
        path = Path(path)
        target = Path(os.path.realpath(path))
        in_place = not _replaceable(target)
        tmp = target if in_place else target.parent / f".{target.name}.{os.urandom(6).hex()}.tmp"
        try:
            with open(tmp, "wb" if in_place else "xb") as fh:
                for part in self.parts:
                    fh.write(part)
            if not in_place:
                os.replace(tmp, target)
        except BaseException as e:
            if not in_place:
                tmp.unlink(missing_ok=True)
            if isinstance(e, OSError) and e.filename == str(tmp):  # name the caller's file
                raise type(e)(e.errno, e.strerror, str(path)) from None
            raise


def _replaceable(target: Path) -> bool:
    """Whether a new file renamed over `target` (a path with no symlink)
    leaves it what it was: `target` is absent, or a regular file with no
    other hard link, in a directory this process may write to. A device,
    a FIFO or a hard-linked file is not, nor a file in a read-only
    directory."""
    try:
        st = target.stat()
    except OSError:  # absent, or the write will name what is wrong
        return True
    return (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
            and os.access(target.parent, os.W_OK))


class Reader:
    """Reads the next `size` bytes of a binary stream in order; every read
    names what it was after, and every error names `where` (the file, or
    the file and a section). Each read is checked against the bytes left
    before anything is allocated, so a corrupt length cannot ask for more
    memory than the file holds."""

    def __init__(self, stream, where, size: int):
        self.stream = stream
        self.where = where
        self.left = size

    def _need(self, have: int, n: int, what: str):
        if have < n:
            raise DataFormatError(f"{self.where}: truncated while reading {what}")

    def take(self, n: int, what: str) -> bytes:
        self._need(self.left, n, what)
        raw = self.stream.read(n)
        self._need(len(raw), n, what)
        self.left -= n
        return raw

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def expect_end(self):
        """Every byte has been read."""
        if self.left:
            raise DataFormatError(f"{self.where}: {self.left} unexpected trailing bytes")

    def string(self, what: str) -> str:
        raw = self.take(self.u32(what + " length"), what)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError:
            raise DataFormatError(f"{self.where}: {what} is not valid UTF-8") from None

    def array(self, dtype: str, shape, what: str) -> np.ndarray:
        """A fresh array of little-endian `dtype` entries in `shape` (an int
        or a tuple), read straight into its own buffer."""
        count = math.prod(shape) if isinstance(shape, tuple) else shape
        n = np.dtype(dtype).itemsize * count
        self._need(self.left, n, what)
        out = np.empty(shape, dtype)
        self._need(self.stream.readinto(out), n, what)
        self.left -= n
        return out

    @contextmanager
    def section(self, name: str):
        """A Reader over the next u32-length-prefixed section, read in place;
        the with-block must read the section to its last byte."""
        n = self.u32(f"{name} section length")
        self._need(self.left, n, f"{name} section")
        self.left -= n
        sub = Reader(self.stream, f"{self.where}: {name} section", n)
        yield sub
        sub.expect_end()


def _read_partition(r: Reader, T: int) -> ShotPartition:
    starts = r.array("<u4", r.u32("shot count"), "shot starts").astype(int)
    try:
        return ShotPartition(starts, T)
    except ContractError as e:
        raise DataFormatError(f"{r.where}: {e}") from None


# The optional sections in flag-bit order, keyed by the VideoRecord field
# each holds: (write the value, read it back for a video of T frames).
_SECTIONS = {
    "gt_scores": (lambda w, scores: w.array(scores, "<f8"),
                  lambda r, T: r.array("<f8", T, "scores")),
    "gt_binary": (lambda w, labels: w.array(labels, "u1"),
                  lambda r, T: r.array("u1", T, "labels").astype(int)),
    "user_summaries": (lambda w, users: w.u32(len(users)).array(users, "u1"),
                       lambda r, T: list(r.array("u1", (r.u32("user count"), T),
                                                 "summaries").astype(int))),
    "change_points": (lambda w, part: w.u32(part.num_shots).array(part.change_points, "<u4"),
                      _read_partition),
    "picks": (lambda w, picks: w.array(picks, "<u4"),
              lambda r, T: r.array("<u4", T, "picks").astype(int)),
}


def save_video(path, rec: VideoRecord):
    rec.validate()
    T, d = np.shape(rec.features)
    values = [getattr(rec, name) for name in _SECTIONS]
    flags = sum(1 << bit for bit, value in enumerate(values) if value is not None)
    w = Writer().put(MAGIC).u32(FORMAT_VERSION, T, d, flags)
    w.string(rec.id).string(rec.corpus_tag).array(rec.features, "<f8")
    for (write, _), value in zip(_SECTIONS.values(), values):
        if value is not None:
            with w.section() as s:
                write(s, value)
    w.write(path)


def load_video(path) -> VideoRecord:
    with open(path, "rb") as fh:
        r = Reader(fh, path, os.fstat(fh.fileno()).st_size)
        if r.take(4, "magic") != MAGIC:
            raise DataFormatError(f"{path}: not a video container (bad magic)")
        version = r.u32("version")
        if version != FORMAT_VERSION:
            raise DataFormatError(
                f"{path}: format version {version}, this build reads {FORMAT_VERSION}"
            )
        T, d, flags = r.u32("frame count"), r.u32("feature dim"), r.u32("flags")
        unknown = [bit for bit in range(len(_SECTIONS), 32) if flags >> bit & 1]
        if unknown:
            raise DataFormatError(f"{path}: unknown section flag bits {unknown}")
        # keyword arguments are evaluated left to right, in file order
        rec = VideoRecord(id=r.string("video id"), corpus_tag=r.string("corpus tag"),
                          features=r.array("<f8", (T, d), "features"))
        for bit, (name, (_, read)) in enumerate(_SECTIONS.items()):
            if flags >> bit & 1:
                with r.section(name) as s:
                    setattr(rec, name, read(s, T))
        r.expect_end()
    rec.validate()
    return rec


# ---------------------------------------------------------------------------
# manifests and whole datasets


def _repeated(names) -> str:
    """The names that occur more than once, sorted and quoted; '' if none."""
    return ", ".join(repr(n) for n, count in sorted(Counter(names).items()) if count > 1)


def _is_file_name(name: str) -> bool:
    """Whether `name` is UTF-8 text naming a file inside a dataset
    directory. Lone surrogates are the only characters UTF-8 cannot encode."""
    return name not in ("", ".", "..") and not any(
        c in "/\\\0" or "\ud800" <= c <= "\udfff" for c in name)


def save_dataset(directory, records: list[VideoRecord], name: str,
                 aggregation: str = "mean_over_users") -> Path:
    """Write every record plus a manifest; returns the manifest path.

    Refuses, before writing anything, an empty record list, a record that
    fails validate(), mixed feature dims, duplicate video ids, any video id
    that is not a plain file name stem, and an unknown aggregation mode.
    """
    if not records:
        raise DataFormatError("refusing to write an empty dataset")
    repeated = _repeated(rec.id for rec in records)
    if repeated:
        raise DataFormatError(f"duplicate video ids: {repeated}")
    for rec in records:
        rec.validate()
    dim = records[0].dim
    for rec in records:
        if rec.dim != dim:
            raise DataFormatError(
                f"video {rec.id} has dim {rec.dim}, dataset started with {dim}"
            )
        if not _is_file_name(rec.id):
            raise DataFormatError(f"video id {rec.id!r} is not a file name in the dataset")
    files = [f"{rec.id}.dsv" for rec in records]
    manifest = DatasetManifest(name=name, dim=dim, video_files=files, aggregation=aggregation)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for rec, fname in zip(records, files):
        save_video(directory / fname, rec)
    path = directory / "manifest.json"
    text = json.dumps({
        "name": manifest.name,
        "dim": manifest.dim,
        "format_version": FORMAT_VERSION,
        "aggregation": manifest.aggregation,
        "videos": manifest.video_files,
    }, indent=2) + "\n"
    Writer().put(text.encode()).write(path)
    return path


def read_json_object(path, what: str) -> dict:
    """A UTF-8 JSON file whose top level is an object; any other content
    is a DataFormatError naming the file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataFormatError(f"{path}: {what} not found") from None
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: {what} is not valid UTF-8") from None
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{path}: {what} is not valid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise DataFormatError(f"{path}: {what} must be a JSON object, "
                              f"got {type(raw).__name__}")
    return raw


_REQUIRED = object()
_JSON_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
    "a list of objects": lambda v: isinstance(v, list) and all(isinstance(s, dict) for s in v),
}


def json_field(raw: dict, key: str, kind: str, where: str, default=_REQUIRED):
    """raw[key] (or default when absent), checked to be of the named kind;
    `where` prefixes the DataFormatError for a missing or mistyped field."""
    if key not in raw:
        if default is _REQUIRED:
            raise DataFormatError(f"{where} missing field '{key}'")
        return default
    value = raw[key]
    if not _JSON_KINDS[kind](value):
        raise DataFormatError(f"{where} field '{key}' must be {kind}, got {value!r:.40}")
    return value


def _manifest_file(path) -> Path:
    """`path`, or the manifest.json in it when `path` is a directory."""
    path = Path(path)
    return path / "manifest.json" if path.is_dir() else path


def load_manifest(path) -> DatasetManifest:
    """Read a manifest (file or directory) and make every check that needs
    no video file: each field's type, then the aggregation mode, the format
    version, a file listed twice, and an entry that is not a file name in
    the manifest's directory."""
    path = _manifest_file(path)
    raw = read_json_object(path, "manifest")
    where = f"{path}: manifest"
    name, dim, files, aggregation, version = (
        json_field(raw, "name", "a string", where),
        json_field(raw, "dim", "an integer", where),
        json_field(raw, "videos", "a list of strings", where),
        json_field(raw, "aggregation", "a string", where, "mean_over_users"),
        json_field(raw, "format_version", "an integer", where, FORMAT_VERSION),
    )
    manifest = DatasetManifest(name=name, dim=dim, video_files=files, aggregation=aggregation)
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{where} format version {version}, "
                              f"this build reads {FORMAT_VERSION}")
    repeated = _repeated(files)
    if repeated:
        raise DataFormatError(f"{where} lists video files more than once: {repeated}")
    outside = [f for f in files if not _is_file_name(f)]
    if outside:
        raise DataFormatError(f"{where} entries are not file names in its directory: "
                              f"{', '.join(map(repr, outside))}")
    return manifest


def load_dataset(path) -> list[VideoRecord]:
    """Read a manifest (file or directory) through load_manifest, then every
    video it lists. Refuses a video whose dim disagrees with the manifest's
    and two files holding the same video id."""
    path = _manifest_file(path)
    manifest = load_manifest(path)
    records = []
    for fname in manifest.video_files:
        rec = load_video(path.parent / fname)
        if rec.dim != manifest.dim:
            raise DataFormatError(
                f"{fname}: feature dim {rec.dim} disagrees with manifest dim {manifest.dim}"
            )
        records.append(rec)
    repeated = _repeated(rec.id for rec in records)
    if repeated:
        raise DataFormatError(f"{path}: manifest lists files that hold the same video ids: "
                              f"{repeated}")
    return records


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class SynthSpec:
    videos: int = 5
    frames: int = 40
    dim: int = 16
    shots_per_video: int = 8
    noise: float = 0.05
    seed: int = 0
    users: int = 3
    budget_ratio: float = 0.15
    name: str = "synth"

    def __post_init__(self):
        top = np.iinfo(np.intp).max  # the largest size numpy can index
        for key in ("videos", "frames", "dim", "shots_per_video"):
            if not 1 <= getattr(self, key) <= top:
                raise DataFormatError(f"synthetic {key} must be in [1, {top}], "
                                      f"got {getattr(self, key)}")
        if self.shots_per_video * 2 > self.frames:
            raise DataFormatError(
                f"cannot fit {self.shots_per_video} shots of >= 2 frames into {self.frames}"
            )
        for key in ("seed", "users"):
            if not getattr(self, key) >= 0:
                raise DataFormatError(f"synthetic {key} must be >= 0, got {getattr(self, key)}")
        if not 0 <= self.noise < np.inf:  # a NaN noise is refused too
            raise DataFormatError(f"synthetic noise must be finite and >= 0, got {self.noise}")
        _check_budget_ratio(self.budget_ratio)


# Rejection draws before the direct one; every spec in the suite, CI
# and the benchmark is accepted within 17.
_PARTITION_TRIES = 1000


def _random_partition(rng, T: int, shots: int, min_len: int) -> ShotPartition:
    """Shot lengths summing to T, each at least min_len.

    Draws uniform cut points and keeps the first draw whose shots are all
    long enough. Tightly packed specs almost never pass, so after
    _PARTITION_TRIES draws the partition is drawn directly: uniform over
    the compositions of T with every part >= min_len.
    """
    for _ in range(_PARTITION_TRIES):
        cuts = np.sort(rng.choice(np.arange(1, T), size=shots - 1, replace=False))
        if np.diff(cuts, prepend=0, append=T).min() >= min_len:
            return ShotPartition(np.concatenate([[0], cuts]), T)
    free = T - shots * (min_len - 1)  # the lengths less min_len - 1 compose `free`
    cuts = np.sort(rng.choice(np.arange(1, free), size=shots - 1, replace=False))
    lengths = np.diff(np.concatenate([[0], cuts, [free]])) + (min_len - 1)
    return ShotPartition(np.cumsum(lengths) - lengths, T)


def synth_generate(spec: SynthSpec) -> list[VideoRecord]:
    """Piecewise-constant videos with planted key shots.

    Key shots draw their prototypes from the top of the feature range and
    their frame scores high, so importance is learnable from features;
    the key set is chosen to fit the summary budget, so the binarized
    labels mostly coincide with it. Fully deterministic per seed.
    """
    rng = np.random.default_rng(spec.seed)
    records = []
    for v in range(spec.videos):
        part = _random_partition(rng, spec.frames, spec.shots_per_video, min_len=2)
        S = part.num_shots
        budget = int(np.floor(spec.budget_ratio * spec.frames))
        # mark key shots greedily in random order while they still fit
        order = rng.permutation(S)
        key = np.zeros(S, dtype=bool)
        used = 0
        for i in order:
            if used + part.shot_lengths[i] <= budget:
                key[i] = True
                used += int(part.shot_lengths[i])
        if not key.any():
            key[int(np.argmin(part.shot_lengths))] = True
        protos = np.where(
            key[:, None],
            rng.uniform(0.6, 1.0, size=(S, spec.dim)),
            rng.uniform(0.0, 0.4, size=(S, spec.dim)),
        )
        feats = np.repeat(protos, part.shot_lengths, axis=0)
        if spec.noise > 0.0:
            feats = feats + rng.normal(0.0, spec.noise, size=feats.shape)
        frame_key = np.repeat(key, part.shot_lengths)
        gt_scores = np.where(
            frame_key,
            rng.uniform(0.75, 0.95, size=spec.frames),
            rng.uniform(0.05, 0.25, size=spec.frames),
        )
        gt_binary = select_frames(gt_scores, part, spec.budget_ratio).frame_mask
        users = []
        for _ in range(spec.users):
            noisy = np.clip(gt_scores + rng.normal(0.0, 0.1, size=spec.frames), 0.0, 1.0)
            users.append(select_frames(noisy, part, spec.budget_ratio).frame_mask)
        records.append(VideoRecord(
            id=f"{spec.name}_{v:03d}",
            features=feats,
            gt_scores=gt_scores,
            gt_binary=gt_binary,
            user_summaries=users,
            change_points=part,
            picks=np.arange(spec.frames) * 15,
            corpus_tag=spec.name,
        ))
    return records
