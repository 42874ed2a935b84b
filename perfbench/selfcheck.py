"""Checks of the benchmark itself.  Run from the repository root:

    python3 perfbench/selfcheck.py

Covers the determinism of the seeded corpora, the exact-arithmetic oracles
on known values, that two traced runs with one seed give identical counts,
and that the benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import exact  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_documents(self):
        for workload in corpus.WORKLOADS:
            docs = [[json.dumps([c.command, c.flags, c.doc], sort_keys=True)
                     for c in corpus.generate(workload, seed)]
                    for seed in (7, 7, 8)]
            self.assertEqual(docs[0], docs[1], workload)
        small = [[c.doc for c in corpus.generate("cli-small", s)]
                 for s in (7, 8)]
        self.assertNotEqual(small[0], small[1])

    def test_known_defects_pinned_to_document(self):
        cases = {c.name: c for c in corpus.generate("cli-small", 1)}
        certify = cases["certify-x3+x+1"]

        def rejected_at(prime):
            doc = json.dumps({"verdict": False, "failing_prime": prime})
            return certify.verdict(corpus.Outcome(2, doc, ""))[0]

        self.assertEqual(rejected_at("31"), "known")
        self.assertEqual(rejected_at("3"), "fail")
        internal = json.dumps({"code": "InternalError", "message": "'alpha'"})
        for name in ("malformed-serre-lattice", "malformed-matrix-size"):
            self.assertEqual(cases[name].verdict(
                corpus.Outcome(1, "", internal))[0],
                "known" if name == "malformed-serre-lattice" else "fail")

    def test_names_unique(self):
        for workload in corpus.WORKLOADS:
            names = [c.name for c in corpus.generate(workload, 1)]
            self.assertEqual(len(names), len(set(names)), workload)


class ExactTest(unittest.TestCase):
    def test_known_values(self):
        self.assertEqual(exact.poly_disc([1, 1, 0, 1]), -31)
        self.assertEqual(exact.poly_disc([-5, 0, 1]), 20)
        self.assertEqual(exact.invariant_factors([2, 3]), [6])
        self.assertEqual(exact.invariant_factors([4, 6, 1]), [2, 12])
        self.assertEqual(exact.ramified_primes(-1, -1), [2])
        self.assertEqual(exact.ramified_primes(-1, 3), [2, 3])
        self.assertEqual(exact.ramified_primes(1, 5), [])
        hurwitz = [[Fraction(1, 2)] * 4, [0, 1, 0, 0], [0, 0, 1, 0],
                   [0, 0, 0, 1]]
        table = exact.quaternion_table(-1, -1)
        self.assertEqual(exact.order_disc(table, hurwitz), -64)
        self.assertTrue(exact.is_order(table, hurwitz, [1, 0, 0, 0]))
        self.assertFalse(exact.is_order(table, [[1, 0, 0, 0], [0, 1, 0, 0],
                                                 [0, 0, 1, 0], [0, 0, 0, 2]],
                                        [1, 0, 0, 0]))
        self.assertEqual(exact.fp_frac_parse("2t+1/t^2+4", 5),
                         ((1, 2), (4, 0, 1)))

    def test_unimodular(self):
        import random

        rng = random.Random(3)
        for n in (1, 2, 5):
            self.assertIn(exact.det(exact.unimodular(rng, n)), (1, -1))


class BenchTest(unittest.TestCase):
    def test_traced_counts_repeat(self):
        runs = []
        for _ in range(2):
            p = run_bench(ROOT, "--workload", "cli-small", "--seed", "3",
                          "--seconds", "1", "--trace", "1")
            self.assertEqual(p.returncode, 0, p.stderr)
            metrics = json.loads(p.stdout.splitlines()[-1])["metrics"]
            runs.append({k: v["value"] for k, v in metrics.items()
                         if v["unit"] in ("count", "bits")})
        self.assertTrue(any(runs[0].values()))
        self.assertEqual(runs[0], runs[1])

    def test_refuses_without_sources(self):
        bare = os.path.join(HERE, "work", "selfcheck-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            p = run_bench(bare, "--workload", "serre", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
