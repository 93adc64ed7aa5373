#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the checkout root:

    python3 perfbench/test_perfbench.py

The smoke tests build the solver and run every workload at the tiny size
(one input per family) with --trace 0 and --trace 1, twice per seed, so
the determinism check runs too.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def span(sid, parent, start, end, name="s"):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end}


class SelfTimes(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            span(1, 0, 0.0, 10.0),
            span(2, 1, 1.0, 4.0),   # child
            span(3, 1, 3.0, 6.0),   # overlaps child 2: [3, 4] counted once
            span(4, 1, 8.0, 12.0),  # runs past its parent: clipped at 10
            span(5, 2, 1.5, 2.5),   # grandchild: only its parent's self shrinks
        ]
        got = run.self_times(spans)
        self.assertAlmostEqual(got[1], 10.0 - (5.0 + 2.0))
        self.assertAlmostEqual(got[2], 3.0 - 1.0)
        self.assertAlmostEqual(got[3], 3.0)
        self.assertAlmostEqual(got[4], 4.0)
        self.assertAlmostEqual(got[5], 1.0)

    def test_telemetry_depths_become_parents(self):
        raw = [["subgradient", 1.0, 2.0, 2], ["descent", 0.5, 3.0, 1],
               ["component-0", 0.0, 4.0, 0]]
        out = run.telemetry_spans(raw, 100.0, 7, run.Tracer())
        by_name = {s["name"]: s for s in out}
        self.assertEqual(by_name["scg.component"]["parent"], 7)
        self.assertEqual(by_name["scg.descent"]["parent"], by_name["scg.component"]["id"])
        self.assertEqual(by_name["scg.subgradient"]["parent"], by_name["scg.descent"]["id"])
        self.assertEqual(by_name["scg.descent"]["start"], 100.5)


class BestOfTwo(unittest.TestCase):
    def test_mean_of_the_smaller_over_all_pairs(self):
        # pairs (1, 2), (1, 3), (2, 3): smaller ones 1, 1, 2
        self.assertAlmostEqual(run.best_of_two([3.0, 1.0, 2.0]), 4.0 / 3.0)
        self.assertAlmostEqual(run.best_of_two([5.0, 2.0]), 2.0)


class MatrixChecker(unittest.TestCase):
    # the odd 5-cycle: {0, 2, 3} is an optimal cover of cost 3
    rows = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]
    costs = [1] * 5

    def answer(self, cost, lb, cols):
        return run.answer_of(
            f"problem: 5 rows x 5 cols\nscg: cost {cost}, lower bound {lb}\n"
            f"columns: {' '.join(map(str, cols))}\ninput 5x5 -> core 5x5\n")

    def test_accepts_a_valid_cover(self):
        self.assertIsNone(run.check_matrix(self.rows, self.costs, self.answer(3, 3, [0, 2, 3]), None))

    def test_rejects_a_corrupted_cover(self):
        why = run.check_matrix(self.rows, self.costs, self.answer(2, 2, [0, 2]), None)
        self.assertEqual(why, "cover is infeasible")

    def test_rejects_a_wrong_cost(self):
        why = run.check_matrix(self.rows, self.costs, self.answer(2, 2, [0, 2, 3]), None)
        self.assertIn("cost differs", why)

    def test_rejects_a_bound_above_cost(self):
        why = run.check_matrix(self.rows, self.costs, self.answer(3, 4, [0, 2, 3]), None)
        self.assertIn("lower bound", why)

    def test_rejects_a_wrong_planted_cost(self):
        why = run.check_matrix(self.rows, self.costs, self.answer(3, 3, [0, 2, 3]), 2)
        self.assertIn("certificate", why)

    def test_joins_a_wrapped_column_list(self):
        text = "scg: cost 3, lower bound 3\ncolumns: 0 2\n3\ninput 5x5 -> core 5x5\nCC 0.01s\n"
        self.assertEqual(run.answer_of(text), "scg: cost 3, lower bound 3\ncolumns: 0 2 3\n")


def bench(workload, trace, seed=1):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return r.returncode, r.stdout, r.stderr


class Smoke(unittest.TestCase):
    def run_workload(self, workload):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            results = []
            for _ in range(2):
                code, out, err = bench(workload, trace)
                self.assertEqual(code, 0, err)
                result = json.loads(out.strip().splitlines()[-1])
                self.assertTrue(result["correct"], err)
                self.assertEqual(result["failed"], 0)
                want = {m["name"]: m["unit"] for m in run.SPEC[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                results.append(result["metrics"])
            if trace:
                for name in ("subgradient.steps", "reduce2.core_nnz", "partition.components",
                             "scg.cost_sum", "scg.optimal_frac"):
                    self.assertEqual(results[0][name], results[1][name], name)
            else:
                self.assertEqual(results[0]["cost_over_lb"], results[1]["cost_over_lb"])

    def test_cyclic_cores(self):
        self.run_workload("cyclic-cores")

    def test_large_sparse(self):
        self.run_workload("large-sparse")

    def test_two_level(self):
        self.run_workload("two-level")

    def test_two_level_checker_rejects_a_dropped_cube(self):
        work = os.path.join(run.STATE, "work", "test-check")
        run.build()
        inputs, _ = run.generate("two-level", 1, work, tiny=True)
        idx = next(i for i, inp in enumerate(inputs) if inp["kind"] == "pla")
        _, code, _, text = run.run_proc(run.solve_argv(inputs[idx], work),
                                        os.path.join(work, "o"), os.path.join(work, "e"))
        good = run.answer_of(text)
        lines = good.splitlines()
        cost = len(lines) - 3
        dropped = "\n".join([lines[0].replace(str(cost + 1), str(cost), 1)] + lines[1:-1]) + "\n"
        verdicts = run.check_answers({(idx, good): None, (idx, dropped): None}, inputs, work)
        self.assertIsNone(verdicts[(idx, good)])
        self.assertIsNotNone(verdicts[(idx, dropped)])


class Determinism(unittest.TestCase):
    def test_only_runs_of_the_same_code_are_compared(self):
        state = run.STATE
        run.STATE = os.path.join(state, "test-determinism")
        try:
            if os.path.exists(os.path.join(run.STATE, "determinism.json")):
                os.remove(os.path.join(run.STATE, "determinism.json"))
            self.assertEqual(run.determinism_check("old", "w", 1, "f", {"cost_sum": 5}), [])
            self.assertEqual(run.determinism_check("new", "w", 1, "f", {"cost_sum": 4}), [])
            self.assertEqual(run.determinism_check("old", "w", 1, "f", {"cost_sum": 5}), [])
            self.assertTrue(run.determinism_check("new", "w", 1, "f", {"cost_sum": 5}))
        finally:
            run.STATE = state


class MetricsDoc(unittest.TestCase):
    def test_every_metric_has_a_kind_and_a_layer_mapping(self):
        with open(os.path.join(HERE, "metrics.json")) as f:
            doc = json.load(f)
        for key, fields in (("end_to_end", {"kind", "meaning"}),
                            ("per_layer", {"kind", "moves", "on"})):
            self.assertEqual(list(doc[key]), [m["name"] for m in run.SPEC[key]])
            for name, info in doc[key].items():
                self.assertEqual(set(info), fields, name)


if __name__ == "__main__":
    unittest.main()
