"""Self-check of the benchmark's oracles: each accepts a real `buchi`
output and rejects a deliberately corrupted copy of it.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import sys
import unittest
from fractions import Fraction

import oracles
import procs
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def buchi(*argv: str) -> str:
    res = procs.run(["-m", "buchi", *argv], SRC, procs.pinned_env(SRC), 60)
    assert res.returncode == 0, res.stderr
    return res.stdout.decode("utf-8")


class SeqSearchOracle(unittest.TestCase):
    def test_accepts_real_and_rejects_non_sequence(self):
        expected = oracles.count_sequences(oracles.square_triples(300), 4, 300)
        text = buchi("seq", "search", "--json", "--length", "4", "--bound", "300")
        self.assertIsNone(oracles.check_seq_search(text, 4, 300, expected))
        data = json.loads(text)
        data["nontrivial"][0][-1] += 1
        self.assertIn("second difference",
                      oracles.check_seq_search(json.dumps(data), 4, 300, expected))

    def test_rejects_missing_and_trivial(self):
        text = buchi("seq", "search", "--json", "--length", "3", "--bound", "60")
        expected = oracles.count_sequences(oracles.square_triples(60), 3, 60)
        data = json.loads(text)
        data["nontrivial"].pop()
        self.assertIsNotNone(oracles.check_seq_search(json.dumps(data), 3, 60, expected))
        data["nontrivial"].append([4, 5, 6])
        self.assertIn("consecutive",
                      oracles.check_seq_search(json.dumps(data), 3, 60, expected))


class SurfaceScanOracle(unittest.TestCase):
    def test_accepts_real_and_rejects_non_square_hit(self):
        nodes = [Fraction(0), Fraction(1), Fraction(3)]
        expected = len(oracles.scan_reference(nodes, 60, True))
        text = buchi("surface", "scan", "--json", "--nodes=0,1,3", "--height", "60",
                     "--integers-only")
        self.assertIsNone(oracles.check_surface_scan(text, nodes, 60, True, expected))
        data = json.loads(text)
        data["candidates"][0]["v"] = str(Fraction(data["candidates"][0]["v"]) + 1)
        self.assertIn("not a square",
                      oracles.check_surface_scan(json.dumps(data), nodes, 60, True, expected))

    def test_rational_reference_matches_program(self):
        nodes = [Fraction(0), Fraction(1, 2), Fraction(3)]
        expected = len(oracles.scan_reference(nodes, 8, False))
        text = buchi("surface", "scan", "--json", "--nodes=0,1/2,3", "--height", "8")
        self.assertEqual(expected, 1)
        self.assertIsNone(oracles.check_surface_scan(text, nodes, 8, False, expected))
        self.assertIsNotNone(oracles.check_surface_scan(text, nodes, 8, False, expected + 1))


class PadicOracle(unittest.TestCase):
    def test_pjf_accepts_real_and_rejects_wrong_constant(self):
        num, den = [4, 0, 9, 2], [27, 1, 1]
        constant = oracles.pjf_constant([Fraction(c) for c in num],
                                        [Fraction(c) for c in den], 3)
        self.assertEqual(constant, 3)
        text = buchi("padic", "pjf", "--json", "--p", "3",
                     "--num=" + workloads.poly_text(num), "--den=" + workloads.poly_text(den),
                     "--rhos=-2,-1/2,0,3/2,4")
        self.assertIsNone(oracles.check_padic_pjf(text, 5, constant))
        data = json.loads(text)
        data["constant"] = str(constant + 1)
        self.assertIn("expected", oracles.check_padic_pjf(json.dumps(data), 5, constant))

    def test_fmt_smt_delta_reject_failure(self):
        self.assertIsNotNone(oracles.check_padic_delta('{"holds": false}'))
        self.assertIsNotNone(oracles.check_padic_fmt(
            json.dumps({"grid": ["0"], "defects": ["0"], "passed": False}), 1))
        self.assertIsNotNone(oracles.check_padic_smt(
            json.dumps({"grid": ["0"], "values": ["0"], "passed": True}), 2))


class CompileCheckOracle(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
        self.path = os.path.join(ROOT, "perfbench", "out", f"test-{os.getpid()}.txt")

    def tearDown(self):
        if os.path.exists(self.path):
            os.remove(self.path)

    def test_check_accepts_real_and_rejects_wrong_count(self):
        case = workloads._check_case(random.Random(7), os.path.dirname(self.path), 0, 2)
        (self.path, text), = case.files.items()
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out = buchi(*case.argv)
        self.assertEqual(case.check(out), (None, 0))
        data = json.loads(out)
        data["source_solutions"] += 1
        self.assertIn("source solutions", case.check(json.dumps(data))[0])

    def test_compile_accepts_both_emits_and_rejects_reused_witness(self):
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write("x = (a - b)^3; y*y = a + 2\n")
        source = {"x", "y", "a", "b"}
        counts = []
        for emit in ("json", "text"):
            verdict, count = oracles.check_compile(
                buchi("compile", "--in", self.path, "--emit", emit), emit, source)
            self.assertIsNone(verdict)
            counts.append(count)
        self.assertEqual(counts[0], counts[1])
        data = json.loads(buchi("compile", "--in", self.path, "--emit", "json"))
        data["squares"][1]["rhs"] = data["squares"][0]["rhs"]
        self.assertIn("reused", oracles.check_compile(json.dumps(data), "json", source)[0])
        data["linear"][0]["const"] = 0.5
        self.assertIn("not an integer",
                      oracles.check_compile(json.dumps(data), "json", source)[0])


class TracerRestores(unittest.TestCase):
    def test_install_and_remove_leave_package_unchanged(self):
        sys.path.insert(0, SRC)
        try:
            import buchi.cli
            from buchi import surfaces, symbolic
        finally:
            sys.path.remove(SRC)
        before = (surfaces.is_square_rat, symbolic.UPoly.__mul__, buchi.cli.main)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(surfaces.is_square_rat, before[0])
            product = symbolic.UPoly([1, 1]) * symbolic.UPoly([1, -1])
        finally:
            tracer.remove()
        self.assertEqual(product, symbolic.UPoly([1, 0, -1]))
        self.assertEqual(tracer.calls["symbolic.upoly_mul"], 1)
        self.assertEqual((surfaces.is_square_rat, symbolic.UPoly.__mul__, buchi.cli.main),
                         before)


class BenchmarkSpec(unittest.TestCase):
    def test_metric_names_and_units_match_the_code(self):
        import run
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        names = list(tracing.Tracer().metrics()) + ["cli.stdout_bytes", "trace.overhead_s"]
        self.assertEqual([m["name"] for m in spec["per_layer"]], names)
        self.assertTrue(all(m["unit"] == tracing.unit_of(m["name"]) for m in spec["per_layer"]))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        with open(os.path.join(ROOT, "perfbench", "layers.json"), encoding="utf-8") as handle:
            layer_map = json.load(handle)["per_layer"]
        self.assertEqual(list(layer_map), names)
        groups = {g: w for w, gs in workloads.GROUPS.items() for g in gs}
        for entry in layer_map.values():
            self.assertLessEqual(set(entry["moves"]), set(run.END_TO_END_UNITS))
            self.assertEqual(set(entry["on"]), {groups[g] for g in entry["groups"]})


if __name__ == "__main__":
    unittest.main()
