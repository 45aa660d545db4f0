"""Command-line entry point.

Subcommands: synth, train, summarize, evaluate, ablate, partition-map,
check. Every run with the same inputs and seeds writes identical output
files on the same BLAS build at the same BLAS thread count (a product may
split differently across thread counts). Datasets resolve from --data,
falling back to $DIVSUM_DATA_DIR.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .attention import GridSpec, SIMILARITY_KINDS, LCA_VARIANTS, partition_map_csv
from .autograd import ContractError, NumericError, ShapeError
from .checks import run_self_checks
from .config import ConfigError, TrainConfig, load_config
from .data import (AGGREGATION_MODES, DatasetManifest, SynthSpec, Writer, _manifest_file,
                   load_dataset, load_manifest, save_dataset, synth_generate)
from .evaluation import (EvalProtocol, PROTOCOL_MODES, build_folds, evaluate,
                         human_baseline, load_splits, random_baseline, report_csv,
                         report_text, save_splits)
from .segmentation import _check_budget_ratio, summarize_video
from .training import load_checkpoint, save_checkpoint, train

DATA_DIR_ENV = "DIVSUM_DATA_DIR"


def _add_model_flags(p: argparse.ArgumentParser):
    """The config file and the flags that override it; each flag's dest is
    the TrainConfig key it sets, and an absent flag is None."""
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, help="RNG seed (init + data order)")
    p.add_argument("--sim", dest="sim_kind", choices=SIMILARITY_KINDS,
                   help="pairwise similarity kind")
    p.add_argument("--radius", dest="neighbor_R", metavar="RADIUS", type=int,
                   help="local window radius R")
    p.add_argument("--lca-variant", choices=LCA_VARIANTS, help="local attention variant")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float,
                   help="learning rate")
    p.add_argument("--alpha", type=float, help="repelling loss weight")
    p.add_argument("--beta", type=float, help="reconstruction loss weight")
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--unsupervised", dest="supervised", action="store_false", default=None,
                   help="train without ground-truth labels")


def _config_from_args(args) -> TrainConfig:
    keys = {f.name for f in fields(TrainConfig)}
    return load_config(args.config, {k: v for k, v in vars(args).items()
                                     if k in keys and v is not None})


def _manifest(args) -> tuple[Path, DatasetManifest, list]:
    """The manifest file --data (else $DIVSUM_DATA_DIR) names, its checked
    contents, and the clash check's ("--data", path) inputs: that file and
    every video file it lists."""
    data = args.data or os.environ.get(DATA_DIR_ENV)
    if not data:
        raise ContractError(f"no dataset given: pass --data or set ${DATA_DIR_ENV}")
    path = _manifest_file(data)
    manifest = load_manifest(path)
    files = (path, *(path.parent / f for f in manifest.video_files))
    return path, manifest, [("--data", f) for f in files]


def _file_identity(path):
    """The file `path` names through any symlinks: its device and inode
    when it exists, so hard links match too, else its real path."""
    real = os.path.realpath(path)
    try:
        st = os.stat(real)
    except OSError:
        return real
    return st.st_dev, st.st_ino


def _refuse_clashes(outputs: dict, inputs: list):
    """Refuses, naming its flag, an output that names an existing directory
    or whose directory (through any symlinks) is missing or is not one;
    and, naming both flags, an output that names the same file as another
    output or an input. Outputs map flags to paths or None; inputs are
    (flag, path or None) pairs."""
    seen = {}
    for i, (flag, path) in enumerate([*outputs.items(), *inputs]):
        if path is None:
            continue
        key = _file_identity(path)
        if key in seen:
            raise ContractError(f"{seen[key]} and {flag} name the same file: {path}")
        if i < len(outputs):
            real = os.path.realpath(path)
            if os.path.isdir(real):
                raise ContractError(f"{flag} names a directory: '{path}'")
            if not os.path.isdir(os.path.dirname(real)):
                raise ContractError(f"{flag}: no directory {os.path.dirname(real)} "
                                    f"to hold '{path}'")
            seen[key] = flag


def _history_csv(result) -> str:
    cols = ["epoch", "total"] + sorted(result.part_history)
    rows = [",".join(cols)]
    for e in range(result.epochs_run):
        cells = [str(e), f"{result.history[e]:.8f}"]
        cells += [f"{result.part_history[c][e]:.8f}" for c in sorted(result.part_history)]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    spec = SynthSpec(videos=args.videos, frames=args.frames, dim=args.dim,
                     shots_per_video=args.shots, noise=args.noise, seed=args.seed,
                     users=args.users, budget_ratio=args.budget_ratio, name=args.name)
    records = synth_generate(spec)
    manifest = save_dataset(args.out, records, name=spec.name, aggregation=args.agg)
    print(f"wrote {len(records)} videos to {manifest}")
    return 0


def cmd_train(args) -> int:
    out = Path(args.out)
    history_path = Path(args.history) if args.history else out.with_suffix(".history.csv")
    data, _, inputs = _manifest(args)
    _refuse_clashes({"--out": out, "--history": history_path},
                    [("--config", args.config), *inputs])
    cfg = _config_from_args(args)
    videos = load_dataset(data)
    result = train(videos, cfg)
    save_checkpoint(out, result.params, result.state, cfg, epoch=result.epochs_run)
    Writer().put(_history_csv(result).encode()).write(history_path)
    print(f"trained {result.epochs_run} epochs on {len(videos)} videos; "
          f"final loss {result.history[-1]:.6f}")
    print(f"checkpoint: {out}")
    print(f"loss history: {history_path}")
    return 0


def cmd_summarize(args) -> int:
    _check_budget_ratio(args.budget_ratio)
    data, manifest, inputs = _manifest(args)
    _refuse_clashes({"--out": args.out}, [("--checkpoint", args.checkpoint), *inputs])
    params, _, _, _ = load_checkpoint(args.checkpoint, params_only=True)
    if manifest.dim != params.gda.Wq.rows:
        raise ContractError(f"{args.checkpoint} holds a model of feature dim "
                            f"{params.gda.Wq.rows}, {data} a dataset of dim {manifest.dim}")
    videos = load_dataset(data)
    if args.video is not None:
        videos = [v for v in videos if v.id == args.video]
        if not videos:
            raise ContractError(f"video id {args.video!r} not in the dataset")
    rows = ["video_id,frame,score,selected"]
    for v in videos:
        detail = summarize_video(v, params, args.budget_ratio)
        for t in range(v.frame_count):
            rows.append(f"{v.id},{t},{detail.frame_scores[t]:.8f},"
                        f"{detail.mask.frame_mask[t]}")
        kept = int(detail.mask.frame_mask.sum())
        print(f"{v.id}: kept {kept}/{v.frame_count} frames "
              f"({len(detail.mask.selected_shots)} shots)")
    Writer().put(("\n".join(rows) + "\n").encode()).write(args.out)
    print(f"summary: {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    data, manifest, inputs = _manifest(args)
    _refuse_clashes({"--report": args.report, "--csv": args.csv, "--splits": args.splits},
                    [("--config", args.config), *inputs])
    cfg = _config_from_args(args)
    protocol = EvalProtocol(mode=args.mode, folds=args.folds,
                            agg=args.agg or manifest.aggregation,
                            seed=args.split_seed if args.split_seed is not None else cfg.seed,
                            target_corpus=args.target_corpus, budget_ratio=args.budget_ratio)
    videos = load_dataset(data)
    # the baseline needs no model, so a refusal comes before any fold trains
    base = None if args.baseline == "none" else (
        random_baseline if args.baseline == "random" else human_baseline)(videos, protocol)
    splits = None
    if args.splits:
        split_path = Path(args.splits)
        if split_path.exists():
            splits = load_splits(split_path, protocol)
        else:
            splits = build_folds(videos, protocol)
            save_splits(split_path, splits, protocol)
            print(f"splits: {split_path}")
    report = evaluate(videos, cfg, protocol, splits=splits)
    text = report_text(report)
    print(text, end="")
    if base is not None:
        print(f"{args.baseline} baseline: F={base.mean_f:.2f} "
              f"tau={base.kendall:.3f} rho={base.spearman:.3f}")
    if args.report:
        Writer().put(text.encode()).write(args.report)
    if args.csv:
        Writer().put(report_csv(report).encode()).write(args.csv)
    return 0


# Each ablation axis as (label, config changes) pairs, one per value.
_ABLATION_AXES = {
    "similarity": [(k, {"sim_kind": k}) for k in SIMILARITY_KINDS],
    "radius": [(f"R={r}", {"neighbor_R": r}) for r in (1, 2, 3, 4)],
    "losses": [("cls", {"alpha": 0.0, "beta": 0.0}), ("cls+repel", {"beta": 0.0}),
               ("cls+recon", {"alpha": 0.0}), ("cls+repel+recon", {})],
    "variant": [(v, {"lca_variant": v}) for v in LCA_VARIANTS],
}


def cmd_ablate(args) -> int:
    if args.repeats < 1:
        raise ContractError(f"--repeats must be >= 1, got {args.repeats}")
    data, manifest, inputs = _manifest(args)
    _refuse_clashes({"--out": args.out}, [("--config", args.config), *inputs])
    cfg = _config_from_args(args)
    protocol = EvalProtocol(mode="canonical", folds=args.folds,
                            agg=args.agg or manifest.aggregation, seed=cfg.seed,
                            budget_ratio=args.budget_ratio)
    videos = load_dataset(data)
    rows = ["axis,value,seed,mean_f,kendall_tau,spearman_rho"]
    for label, changes in _ABLATION_AXES[args.axis]:
        for r in range(args.repeats):
            seed = cfg.seed + r
            report = evaluate(videos, replace(cfg, **changes, seed=seed),
                              replace(protocol, seed=seed))
            row = (f"{args.axis},{label},{seed},{report.mean_f:.4f},"
                   f"{report.kendall:.4f},{report.spearman:.4f}")
            rows.append(row)
            print(row)
    if args.out:
        Writer().put(("\n".join(rows) + "\n").encode()).write(args.out)
        print(f"ablation table: {args.out}")
    return 0


def _parse_points(text: str) -> np.ndarray:
    try:
        pts = [[float(c) for c in pair.split(",")] for pair in text.split(";") if pair]
    except ValueError:
        raise ContractError(f"cannot parse points {text!r}; want 'x,y;x,y;...'")
    if any(len(p) != 2 for p in pts):
        raise ContractError("every point needs exactly two coordinates")
    return np.asarray(pts, dtype=np.float64)


def cmd_partition_map(args) -> int:
    _refuse_clashes({"--out": args.out}, [])
    if args.points:
        pts = _parse_points(args.points)
    else:
        for flag, value, top in (("--seed", args.seed, np.inf),
                                 ("--num-points", args.num_points, np.iinfo(np.intp).max)):
            if not 0 <= value <= top:
                raise ContractError(f"{flag} must be in [0, {top}], got {value}")
        rng = np.random.default_rng(args.seed)
        pts = rng.uniform(0.1, 0.9, size=(args.num_points, 2))
    grid = GridSpec(nx=args.grid_size, ny=args.grid_size)
    Writer().put(partition_map_csv(pts, args.sim, grid).encode()).write(args.out)
    coords = "; ".join(f"({x:.3f}, {y:.3f})" for x, y in pts)
    print(f"partition map for {len(pts)} points [{coords}] with {args.sim}: {args.out}")
    return 0


def cmd_check(args) -> int:
    return 0 if run_self_checks() else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divsum",
        description="Video summarization with diverse contextual attention.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--videos", type=int, default=5)
    p.add_argument("--frames", type=int, default=40)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--shots", type=int, default=8)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--users", type=int, default=3)
    p.add_argument("--budget-ratio", type=float, default=0.15)
    p.add_argument("--name", default="synth")
    p.add_argument("--agg", choices=AGGREGATION_MODES, default="mean_over_users")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model, write a checkpoint")
    p.add_argument("--data", help=f"dataset dir/manifest (default ${DATA_DIR_ENV})")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", help="loss history CSV (default <out>.history.csv)")
    _add_model_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("summarize", help="summaries for a dataset from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help=f"dataset dir/manifest (default ${DATA_DIR_ENV})")
    p.add_argument("--video", help="restrict to one video id")
    p.add_argument("--budget-ratio", type=float, default=0.15)
    p.add_argument("--out", default="summary.csv", help="per-frame CSV")
    p.set_defaults(fn=cmd_summarize)

    p = sub.add_parser("evaluate", help="cross-validation protocol run")
    p.add_argument("--data", help=f"dataset dir/manifest (default ${DATA_DIR_ENV})")
    p.add_argument("--mode", choices=PROTOCOL_MODES, default="canonical")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--agg", choices=AGGREGATION_MODES,
                   help="F aggregation (default: manifest setting)")
    p.add_argument("--target-corpus", help="corpus under test (multi-corpus datasets)")
    p.add_argument("--split-seed", type=int, help="fold split seed (default: --seed)")
    p.add_argument("--splits", help="split JSON to reuse, or to create if absent")
    p.add_argument("--budget-ratio", type=float, default=0.15)
    p.add_argument("--baseline", choices=("none", "random", "human"), default="none")
    p.add_argument("--report", help="write the text report here")
    p.add_argument("--csv", help="write the per-video CSV here")
    _add_model_flags(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ablate", help="grid runs over one design axis")
    p.add_argument("--data", help=f"dataset dir/manifest (default ${DATA_DIR_ENV})")
    p.add_argument("--axis", choices=_ABLATION_AXES, required=True)
    p.add_argument("--repeats", type=int, default=1, help="seeded repetitions per value")
    p.add_argument("--folds", type=int, default=1,
                   help="folds per run (1 = train==test smoke)")
    p.add_argument("--agg", choices=AGGREGATION_MODES)
    p.add_argument("--budget-ratio", type=float, default=0.15)
    p.add_argument("--out", help="result CSV")
    _add_model_flags(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("partition-map", help="similarity winner grid as CSV")
    p.add_argument("--sim", choices=SIMILARITY_KINDS, default="l2")
    p.add_argument("--points", help="'x,y;x,y;...' (default: random)")
    p.add_argument("--num-points", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-size", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_partition_map)

    p = sub.add_parser("check", help="run the built-in oracle self-tests")
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractError, NumericError, ShapeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # a size flag too large to allocate
        print(f"error: {args.command}: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
