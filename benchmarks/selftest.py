"""
Self-tests of the benchmark itself (not of braidcob):

    python3 benchmarks/selftest.py

They check that a seed fixes the operation list, that the checker counts a
wrong answer and an exception without stopping the run, that every honest
certificate passes and every tampered one is rejected with its expected exit
code, and that the tracer restores every binding it replaces.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import Runner, tail  # noqa: E402


def scratch_dir():
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=out)


class OperationLists(unittest.TestCase):
    def test_one_seed_one_list(self):
        bc = workloads.Modules()
        for name in workloads.NAMES:
            with scratch_dir() as a, scratch_dir() as b, scratch_dir() as c:
                first = workloads.build(name, 11, Path(a), bc)
                again = workloads.build(name, 11, Path(b), bc)
                other = workloads.build(name, 12, Path(c), bc)
            self.assertEqual(first.digest(), again.digest(), name)
            self.assertNotEqual(first.digest(), other.digest(), name)
            self.assertEqual(len(first.ops), len(other.ops), name)


class Checker(unittest.TestCase):
    def test_wrong_answer_and_exception_are_counted(self):
        def boom():
            raise ZeroDivisionError("injected")

        ops = [
            workloads.Op("wrong", "2+2", lambda: 2 + 2,
                         lambda got: None if got == 5 else f"got {got}"),
            workloads.Op("raises", "boom", boom, lambda got: None),
            workloads.Op("right", "2+2", lambda: 2 + 2,
                         lambda got: None if got == 4 else f"got {got}"),
        ]
        runner = Runner()
        runner.one_pass(ops)
        self.assertEqual(runner.attempted, 3)
        self.assertEqual(len(runner.failures), 2)
        self.assertIn("got 4", runner.failures[0])
        self.assertIn("ZeroDivisionError", runner.failures[1])
        self.assertEqual(len(runner.latencies_ms), 3)

    def test_tail_keeps_ten_samples_beyond(self):
        # 20 operations, so three passes give 60 samples: p83.33
        value, pct, n = tail([float(i) for i in range(60)], 20)
        self.assertEqual((value, round(pct, 2), n), (49.0, 83.33, 60))
        value, pct, n = tail([float(i) for i in range(120)], 20)
        self.assertEqual((value, n), (99.0, 120))
        self.assertEqual(sum(1 for i in range(120) if i > value), 20)


class Certificates(unittest.TestCase):
    def test_honest_pass_and_tampered_rejected(self):
        bc = workloads.Modules()
        with scratch_dir() as d:
            wl = workloads.build("certify", 5, Path(d), bc)
            kinds = {op.kind for op in wl.ops}
            self.assertTrue({"verify-honest", "verify-shift_position",
                             "verify-change_end", "verify-corrupt_field"}
                            <= kinds)
            runner = Runner()
            runner.one_pass(wl.ops)
        self.assertEqual(runner.failures, [])


class Contract(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layers = dict(tracer.layer_metrics([]), trace_overhead_s=0.0)
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]),
                         sorted(layers))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.unit(m["name"]), m["name"])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.NAMES))
        self.assertEqual(run.WORKLOADS, workloads.NAMES)


class Tracing(unittest.TestCase):
    def test_install_and_restore(self):
        bc = workloads.Modules()
        before = {(m, k): v for m in sys.modules if m.startswith("braidcob")
                  for k, v in vars(sys.modules[m]).items()}
        from_json = vars(bc.certificates.CobordismCertificate)["from_json"]
        trefoil = bc.words.make_word(2, (1, 1, 1))
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(bc.certificates.sigma6, before[
                ("braidcob.certificates", "sigma6")])
            self.assertIs(bc.replication.sigma6, bc.signature.sigma6)
            self.assertEqual(bc.replication.sigma6(trefoil), 2)
        finally:
            tr.uninstall()
        after = {(m, k): v for m in sys.modules if m.startswith("braidcob")
                 for k, v in vars(sys.modules[m]).items()}
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertIs(vars(bc.certificates.CobordismCertificate)["from_json"],
                      from_json)
        names = [s[tracer.NAME] for s in tr.spans]
        self.assertEqual(names[0], "signature.sigma6")
        self.assertIn("seifert.seifert_matrix", names)
        self.assertEqual(names.count("signature.signature_at"), 3)

    def test_self_time_subtracts_children(self):
        spans = [["a", 0.0, 10.0, -1, 0, 0, None],
                 ["b", 1.0, 4.0, 0, 0, 0, None],
                 ["c", 2.0, 3.0, 1, 0, 0, None]]
        self.assertEqual(tracer.self_times(spans), [7.0, 2.0, 1.0])


if __name__ == "__main__":
    unittest.main()
