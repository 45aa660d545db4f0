"""The committed BENCH_<n>.json series: one file per measured change, each
holding the last-line result of perfbench/run.py for every benchmark
workload at both trace levels."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def series():
    files = {}
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        assert match, f"{path.name} is not named BENCH_<n>.json"
        files[int(match.group(1))] = path
    return files


def test_bench_files_are_numbered_from_zero_without_gaps():
    numbers = sorted(series())
    assert numbers and numbers == list(range(len(numbers)))


def test_every_bench_file_holds_every_workload_at_both_trace_levels():
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for n, path in sorted(series().items()):
        bench = json.loads(path.read_text())
        assert bench["fingerprint"]["cpu_model"], path.name
        for name in workloads:
            for trace in ("0", "1"):
                result = bench["runs"][name][trace]
                assert result["correct"] is True, (path.name, name, trace)
                assert result["failed"] == 0 and result["attempted"] > 0, (path.name, name)
                assert result["metrics"], (path.name, name, trace)
