"""Tests of the benchmark itself (stdlib unittest; pytest runs them too).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

DS = run.import_divsum()

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

TINY_TRAIN = wl.Workload("tiny_train", "train", 8, (20, 30), 3, probe_frames=(20,))
TINY_SHOTLESS = wl.Workload("tiny_shotless", "score", 8, (40, 60), 3, probe_frames=(40,),
                            keep_shots=False)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def prepared(w, seed=3):
    with tempfile.TemporaryDirectory() as tmp:
        return wl.prepare(DS, w, seed, Path(tmp) / "work", None, True)


def one_pass(w, prep, checked=None):
    if w.kind == "train":
        return wl.train_pass(DS, prep.corpus, prep.cfg)[0]
    checked = {} if checked is None else checked
    return wl.score_pass(DS, prep.corpus, prep.params, checked)[0]


def traced_pass(w, prep):
    with tracer.Tracer(DS) as t:
        res = one_pass(w, prep)
    return res, t


def cli(*args, cwd=HERE.parent, script=HERE / "run.py"):
    out = subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                         text=True, timeout=170)
    return out.returncode, out.stdout.strip().splitlines()


class CommandLine(unittest.TestCase):
    def test_untraced_result_has_every_end_to_end_metric(self):
        code, lines = cli("--workload", "train_long", "--seed", "4", "--seconds", "0.1",
                          "--trace", "0")
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines[-2])
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
        detail = json.loads(lines[-2])["perfbench"]
        self.assertEqual(detail["fingerprint"]["seed"], 4)
        for key in ("nproc", "cpu_model", "python", "numpy", "blas"):
            self.assertIn(key, detail["fingerprint"])

    def test_traced_result_has_every_per_layer_metric(self):
        code, lines = cli("--workload", "score_annotated", "--seed", "4", "--seconds", "0.1",
                          "--trace", "1")
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"], lines[-2])
        want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        value = {k: v["value"] for k, v in result["metrics"].items()}
        for name in ("segmentation.kts_segment_ms", "autograd.backward_ms",
                     "training.adam_step_ms", "attention.lca.bwd_ms", "autograd.records"):
            self.assertEqual(value[name], 0, name)
        for name in ("attention.lca.fwd_ms", "attention.gda.fwd_ms",
                     "evaluation.kendall_tau_ms", "segmentation.knapsack.cells",
                     "data.bytes_read"):
            self.assertGreater(value[name], 0, name)

    def test_exits_nonzero_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            code, lines = cli("--workload", "train_long", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=tmp, script=Path(tmp) / HERE.name / "run.py")
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith('{"correct"') for line in lines))


class Workloads(unittest.TestCase):
    def test_frame_counts_stay_in_range_and_repeat_per_seed(self):
        for w in wl.WORKLOADS.values():
            T = wl.frame_counts(w, 7)
            self.assertEqual(T, wl.frame_counts(w, 7))
            self.assertEqual(len(T), w.videos)
            self.assertTrue(all(w.frames[0] <= t <= w.frames[1] for t in T))

    def test_probe_values_match_the_recorded_reference(self):
        reference = wl.load_reference()
        for w in wl.WORKLOADS.values():
            with tempfile.TemporaryDirectory() as tmp:
                prep = wl.prepare(DS, w, 1, Path(tmp) / "work", reference, False)
            self.assertEqual(prep.problems, [], w.name)
            self.assertEqual(prep.probe_failed, 0)

    def test_untimed_warm_and_timed_passes_reproduce_each_other(self):
        for w in (TINY_TRAIN, TINY_SHOTLESS):
            prep = prepared(w)
            first = []
            passes = wl.run_passes(DS, w, prep, 0, {}, first)
            passes += wl.run_passes(DS, w, prep, 0, {}, first, tracer.Tracer(DS))
            self.assertTrue(all(p.failed == 0 and p.problems == [] for p in passes))
            self.assertEqual([p.traced for p in passes], [False, False, True])
            self.assertEqual(len(passes[0].items_ms), passes[0].attempted)


class Tracing(unittest.TestCase):
    def test_exact_counts_repeat_bit_for_bit(self):
        for w in (TINY_TRAIN, TINY_SHOTLESS):
            runs = []
            for _ in range(2):
                prep = prepared(w)
                _, t = traced_pass(w, prep)
                runs.append((dict(t.sums), prep.bytes_read))
            self.assertEqual(runs[0], runs[1])
            self.assertGreater(runs[0][1], 0)
            self.assertTrue(all(isinstance(v, int) for v in runs[0][0].values()))
        self.assertGreater(runs[0][0]["segmentation.kts.dp_cells"], 0)

    def test_training_records_are_charged_to_their_layers(self):
        prep = prepared(TINY_TRAIN)
        _, t = traced_pass(TINY_TRAIN, prep)
        for layer in ("attention.lca", "attention.gda", "heads", "heads.losses"):
            self.assertGreater(t.sums[f"{layer}.records"], 0, layer)
            self.assertGreater(t.self_s[f"{layer}.bwd_ms"], 0, layer)
        self.assertNotIn("other.records", t.sums)
        self.assertGreater(t.self_s["training.adam_step_ms"], 0)

    def test_wrappers_change_no_output_and_are_removed(self):
        owners = [(o, n) for o, n, *_ in tracer.targets(DS)]
        owners.append((DS["autograd"].Tape, "record"))
        before = [vars(o).get(n) for o, n in owners]
        for w in (TINY_TRAIN, TINY_SHOTLESS):
            prep = prepared(w)
            plain = one_pass(w, prep)
            traced, _ = traced_pass(w, prep)
            self.assertEqual(plain.signatures, traced.signatures)
            self.assertTrue(plain.signatures)
        self.assertTrue(all(vars(o).get(n) is b for (o, n), b in zip(owners, before)))


class Checks(unittest.TestCase):
    def setUp(self):
        self.patches = tracer.Patches()

    def tearDown(self):
        self.patches.undo()

    def test_wrong_rank_metric_fails_every_item(self):
        ev = DS["evaluation"]
        tau = ev.kendall_tau
        self.patches.set(ev, "kendall_tau", lambda x, y: tau(x, y) + 1e-6)
        prep = prepared(TINY_SHOTLESS)
        res = one_pass(TINY_SHOTLESS, prep)
        self.assertEqual(res.failed, res.attempted)
        self.assertEqual(res.items_ms, [])

    def test_suboptimal_selection_fails_the_item(self):
        sg = DS["segmentation"]
        self.patches.set(sg, "knapsack_select", lambda lengths, scores, budget: [])
        # 50-frame annotated shots fit a budget of 0.15 T, so [] is not optimal
        w = wl.Workload("tiny_annotated", "score", 8, (400, 420), 2, probe_frames=(400,))
        prep = prepared(w)
        res = one_pass(w, prep)
        self.assertEqual(res.failed, res.attempted)

    def test_changed_output_on_a_later_pass_fails_the_item(self):
        prep = prepared(TINY_SHOTLESS)
        checked = {}
        self.assertEqual(one_pass(TINY_SHOTLESS, prep, checked).failed, 0)
        ev = DS["evaluation"]
        rho = ev.spearman_rho
        self.patches.set(ev, "spearman_rho", lambda x, y: rho(x, y) * (1 + 1e-15) + 1e-15)
        res = one_pass(TINY_SHOTLESS, prep, checked)
        self.assertEqual(res.failed, res.attempted)

    def test_non_finite_training_fails_the_pass(self):
        tr = DS["training"]
        step = tr.adam_step

        def poisoned(params, state, cfg):
            step(params, state, cfg)
            params.heads.score2.b.data[0, 0] = math.nan

        self.patches.set(tr, "adam_step", poisoned)
        prep = prepared(TINY_TRAIN)
        res = one_pass(TINY_TRAIN, prep)
        self.assertEqual(res.failed, res.attempted)
        self.assertTrue(res.problems)

    def test_reference_values_outside_tolerance_are_reported(self):
        want = {"final_loss": 2.0}
        self.assertEqual(checks.reference_problems({"final_loss": 2.0 + 1e-7}, want), [])
        self.assertTrue(checks.reference_problems({"final_loss": 2.0 + 1e-5}, want))
        self.assertTrue(checks.reference_problems({"final_loss": math.nan}, want))
        self.assertTrue(checks.reference_problems({}, want))

    def test_reference_formulas_against_brute_force(self):
        x = [0.1, 0.4, 0.4, 0.2, 0.9, 0.9, 0.3]
        y = [1.0, 0.0, 2.0, 2.0, 3.0, 1.0, 0.5]
        sign = lambda v: (v > 0) - (v < 0)
        pairs = list(combinations(range(len(x)), 2))
        s = sum(sign(x[i] - x[j]) * sign(y[i] - y[j]) for i, j in pairs)
        tx = sum(x[i] != x[j] for i, j in pairs)
        ty = sum(y[i] != y[j] for i, j in pairs)
        self.assertAlmostEqual(checks.tau_b_ref(x, y, chunk=3), s / math.sqrt(tx * ty), 14)
        self.assertAlmostEqual(checks.rho_ref([1, 2, 2, 3], [1, 2, 3, 4]),
                               DS["evaluation"].spearman_rho([1, 2, 2, 3], [1, 2, 3, 4]), 14)
        self.assertEqual(checks.knapsack_best([2, 3, 4], [3.0, 4.0, 5.5], 5), 7.0)
        self.assertAlmostEqual(checks.fscore_ref([1, 1, 0, 0], [[1, 0, 1, 0], [0, 0, 0, 1]]),
                               25.0)


if __name__ == "__main__":
    unittest.main()
