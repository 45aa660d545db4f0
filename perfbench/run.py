"""Benchmark runner for divsum.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_long --seed 1 --seconds 20 --trace 0

One process drives the workload in a closed loop with a single caller:
each item starts when the previous one has finished. BLAS gets as many
threads as the process may use CPUs. ``divsum`` is imported from
``src/`` next to this directory, never from an installed copy; without
it the runner exits with code 2 and prints no result.

``--trace 0`` reports the end-to-end metrics, as wall-clock times;
``--trace 1`` alternates untraced passes with passes that have the layer
wrappers of ``tracer.py`` installed, and reports the per-layer metrics. Before the result, one
line ``{"perfbench": ...}`` carries the machine fingerprint, the sample
counts and any failed check. The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.

``--record-reference`` rewrites ``reference.json`` from the probe
corpora; do that only for a change that is meant to alter the numbers.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 3
MODULES = ("attention", "autograd", "config", "data", "evaluation", "heads", "model",
           "segmentation", "training")

END_TO_END = {"frames_per_s": "frames/s", "item_ms_p50": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}
LAYER_TIMES = (
    "attention.lca.fwd_ms", "attention.lca.bwd_ms",
    "attention.gda.fwd_ms", "attention.gda.bwd_ms",
    "heads.fwd_ms", "heads.bwd_ms", "heads.losses.fwd_ms", "heads.losses.bwd_ms",
    "model.fwd_self_ms", "model.bwd_ms", "model.zero_grads_ms",
    "autograd.backward_ms", "training.adam_step_ms", "training.loop_self_ms",
    "segmentation.kts_segment_ms", "segmentation.knapsack_select_ms",
    "segmentation.score_video_ms", "segmentation.summarize_self_ms",
    "evaluation.kendall_tau_ms", "evaluation.spearman_rho_ms",
    "evaluation.video_fscore_ms",
)
RECORD_LAYERS = ("attention.lca", "attention.gda", "heads", "heads.losses", "model")
LAYER_COUNTS = (*(f"{layer}.records" for layer in RECORD_LAYERS), "autograd.records",
                "segmentation.kts.dp_cells", "segmentation.knapsack.cells")
SETUP_PHASES = {"data.synth_generate_s": "synth_generate_s",
                "data.save_dataset_s": "save_dataset_s",
                "data.load_dataset_s": "load_dataset_s",
                "training.checkpoint_roundtrip_s": "checkpoint_roundtrip_s"}
PER_LAYER = {
    **{name: "ms" for name in LAYER_TIMES},
    "other_ms": "ms", "trace.item_ms_p50": "ms", "trace.overhead_ms": "ms",
    **{name: "count" for name in LAYER_COUNTS},
    "segmentation.kts.shots_over_max": "ratio",
    "data.bytes_read": "B",
    **{name: "s" for name in SETUP_PHASES},
}


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_blas_threads(n: int):
    """Must run before numpy is imported to take effect."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def import_divsum() -> dict | None:
    """The divsum modules from ./src, or None when the sources are absent."""
    if not (SRC / "divsum" / "__init__.py").is_file():
        print(f"perfbench: no divsum sources under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    ds = {name: importlib.import_module(f"divsum.{name}") for name in MODULES}
    where = Path(ds["model"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        print(f"perfbench: divsum was imported from {where}, not {SRC}", file=sys.stderr)
        return None
    return ds


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_runtime_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    base = Path(np.__file__).resolve().parent
    libs = sorted(base.parent.glob("numpy.libs/*openblas*")) + sorted(
        base.glob(".libs/*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(), "cpus_usable": usable_cpus(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_runtime_threads(np),
                 "threads_requested": os.environ.get("OPENBLAS_NUM_THREADS")},
        "platform": platform.platform(), "seed": seed,
    }


def _items(passes) -> list[float]:
    return [ms for p in passes for ms in p.items_ms]


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0  # 0 only when every item failed


def end_to_end(passes, setups) -> dict[str, float]:
    """Wall-clock figures; throughput is the median over passes of frames
    per second of the pass's timed wall time."""
    rates = [p.frames / p.wall_s for p in passes if p.items_ms]
    return {
        "frames_per_s": _p50(rates),
        "item_ms_p50": _p50(_items(passes)),
        "setup_s": statistics.median(s.setup_s for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, plain, setups) -> dict[str, float]:
    """Per-item means of self time, counts per pass over the corpus, and
    set-up phases as medians over the set-ups. The overhead compares the
    traced passes with the untraced passes interleaved with them."""
    items = sum(p.attempted for p in traced)
    out = {key: 1000.0 * tracer.self_s.get(key, 0.0) / items for key in LAYER_TIMES}
    wall_ms = 1000.0 * sum(p.wall_s for p in traced)
    out["other_ms"] = (wall_ms - items * sum(out[k] for k in LAYER_TIMES)) / items
    out["trace.item_ms_p50"] = _p50(_items(traced))
    out["trace.overhead_ms"] = out["trace.item_ms_p50"] - _p50(_items(plain))
    sums = dict(tracer.sums)
    sums["autograd.records"] = sum(v for k, v in sums.items() if k.endswith(".records"))
    for key in LAYER_COUNTS:
        out[key] = sums.get(key, 0) / len(traced)
    max_shots = sums.get("segmentation.kts.max_shots", 0)
    out["segmentation.kts.shots_over_max"] = (
        sums.get("segmentation.kts.shots", 0) / max_shots if max_shots else 0.0)
    out["data.bytes_read"] = setups[-1].bytes_read
    for name, phase in SETUP_PHASES.items():
        out[name] = statistics.median(s.phases[phase] for s in setups)
    return out


def record_reference(ds, wl) -> int:
    values = {}
    for name, w in wl.WORKLOADS.items():
        prep = wl.prepare(ds, w, 0, WORKDIR / str(os.getpid()), None, False)
        if prep.problems:
            print("\n".join(prep.problems), file=sys.stderr)
            return 1
        values[name] = prep.probe_values
    wl.REFERENCE_FILE.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")
    return 0


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description="divsum benchmark")
    ap.add_argument("--workload", choices=sorted(names))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not args.record_reference and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    pin_blas_threads(usable_cpus())
    import numpy as np

    import workloads as wl
    from tracer import Tracer

    args = parse_args(argv, wl.WORKLOADS)
    ds = import_divsum()
    if ds is None:
        return 2
    if args.record_reference:
        return record_reference(ds, wl)
    w = wl.WORKLOADS[args.workload]
    reference = wl.load_reference()
    workdir = WORKDIR / str(os.getpid())
    setups = []
    for _ in range(SETUP_REPEATS):
        if setups:  # only the last set-up is measured; release the others' data
            setups[-1].corpus = setups[-1].params = None
        setups.append(wl.prepare(ds, w, args.seed, workdir, reference, bool(args.trace)))
    prep = setups[-1]
    checked: dict = {}
    first: list = []
    # One untimed pass first: it touches the working set once and runs the
    # reference-formula checks, so the timed passes start warm.
    warm = wl.run_passes(ds, w, prep, 0, checked, first)
    if args.trace:
        tracer = Tracer(ds)
        passes = wl.run_passes(ds, w, prep, args.seconds, checked, first, tracer)
        plain = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        metrics = per_layer(tracer, traced, plain, setups)
        units = PER_LAYER
    else:
        passes = wl.run_passes(ds, w, prep, args.seconds, checked, first)
        metrics = end_to_end(passes, setups)
        units = END_TO_END
    try:
        WORKDIR.rmdir()
    except OSError:
        pass

    ran = warm + passes
    problems = [p for s in setups for p in s.problems] + [p for r in ran for p in r.problems]
    attempted = sum(s.probe_attempted for s in setups) + sum(r.attempted for r in ran)
    failed = sum(s.probe_failed for s in setups) + sum(r.failed for r in ran)
    measured = passes if not args.trace else plain
    items = _items(measured)
    detail = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint(np, args.seed),
        "warmup_pass_s": warm[0].wall_s, "passes": len(passes), "items": len(items),
        "frames_per_pass": passes[0].frames,
        "setup_s_samples": [s.setup_s for s in setups],
        "problems": problems[:20],
    }
    if len(items) >= 100:  # at least ten samples beyond the 90th percentile
        detail["item_ms_p90"] = statistics.quantiles(items, n=10)[-1]
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
