"""Tests of perfbench/run.py.

    python3 -m unittest discover -s perfbench -v

The smoke test runs every workload, untraced and traced, through the same
code as a real run on tiny inputs (`--scale tiny`).
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics each workload's traced run must measure (non-zero).
LAYERS = {
    "arbmis_planar_1m": ["graph.io_read_ms", "graph.io_mb_per_s", "graph.csr_build_ms",
                         "graph.gen_ms", "graph.degeneracy_ms", "core.arbmis_ms",
                         "core.shattering_ms", "core.arbmis_self_ms", "core.rounds.shattering",
                         "core.shatter_iterations", "core.check_mis_ms",
                         "obs.recorder_overhead_ratio"],
    "churn_100k": ["graph.gen_ms", "graph.csr_build_ms", "dynamic.new_ms",
                   "dynamic.uniform_apply_us_p50", "dynamic.hub_apply_us_p50",
                   "dynamic.compactions", "dynamic.compaction_ms",
                   "dynamic.region_nodes_per_batch", "dynamic.region_nodes_per_update",
                   "dynamic.repair_rounds_per_batch", "flat.new_ms", "flat.luby_solve_ms",
                   "flat.metivier_solve_ms", "flat.round_ns_p50", "flat.active_node_rounds",
                   "flat.ns_per_active_node", "flat.rounds.luby", "flat.rounds.metivier",
                   "flat.order_degree_ratio", "flat.layout_degree_ms", "flat.threads2_ratio"],
    "experiments_quick": ["bench.E1_ms", "bench.E9_ms", "bench.sched_cells",
                          "bench.sched_speedup_2w"],
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def test_workloads_match_the_declaration(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                                "--trace", str(trace), "--scale", "tiny")
                    self.assertEqual(out.returncode, 0, out.stderr)
                    last = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(last["correct"])
                    self.assertGreaterEqual(last["attempted"], 1)
                    self.assertEqual(last["failed"], 0)
                    self.assertRegex(out.stdout, r"fail_frac +0 \(0/\d+ ops\)")
                    declared = SPEC["per_layer" if trace else "end_to_end"]
                    self.assertEqual(list(last["metrics"]), [m["name"] for m in declared])
                    for m in declared:
                        got = last["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIn(f" {m['name']} ", out.stdout)
                        if not trace:
                            self.assertGreater(got["value"], 0, m["name"])
                    if trace:
                        for name in LAYERS[workload] + ["trace.overhead_ratio"]:
                            self.assertGreater(last["metrics"][name]["value"], 0, name)


class RunTest(unittest.TestCase):
    def test_outside_a_checkout_it_fails_without_a_result(self):
        stripped = run.WORK / "stripped"
        shutil.rmtree(stripped, ignore_errors=True)
        stripped.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        shutil.copytree(BENCH, stripped / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "target"))
        try:
            out = bench("--workload", "churn_100k", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=stripped)
        finally:
            shutil.rmtree(stripped)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)

    def test_a_transcript_digest_that_differs_between_modes_fails_every_op(self):
        facts = {"scale": "tiny", "source_sha256": "ab", "n": "2000", "unit_ops": "4096"}
        other = run.WORK / "results" / "digest-test.json"
        other.parent.mkdir(parents=True, exist_ok=True)
        try:
            for stored, failed in (("0011", 0), ("0012", 5)):
                other.write_text(json.dumps({"facts": {**facts, "transcript_digest": stored}}))
                r = run.Run()
                r.facts.update({**facts, "transcript_digest": "0011"})
                for _ in range(5):
                    r.op(True)
                run.check_digest(r, other)
                self.assertEqual((r.attempted, r.failed), (5, failed))
            r.facts["unit_ops"] = "8192"
            r.failed = 0
            run.check_digest(r, other)
            self.assertEqual(r.facts["digest_vs_other_mode"], "no record for this input")
            self.assertEqual(r.failed, 0)
        finally:
            other.unlink()

    def test_e9_mean_rounds_reads_the_four_algorithm_columns(self):
        report = (
            "== E8 — x ==\n\nrounds\n------\n 1 2\n\n\n"
            "== E9 — §1 comparison ==\n\n"
            "  family  α  luby  metivier  ghaffari  arbmis  arbmis shatter-only\n"
            "------------------------------------------------------------------\n"
            "    tree  1    18         9        46     170                  170\n"
            "ba(m=2)   2    20        11        40     200                  199\n"
            "note: n = 2000\n"
        )
        self.assertEqual(run.e9_mean_rounds(report), (18 + 9 + 46 + 170 + 20 + 11 + 40 + 200) / 8)


if __name__ == "__main__":
    unittest.main()
