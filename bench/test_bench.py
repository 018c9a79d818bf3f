"""Self-test of the benchmark at tiny scale.

    python3 -m unittest bench/test_bench.py
"""

import contextlib
import io
import json
import random
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_TRACE = {"solve_exact": 4, "bounds_fuzz": 3, "trees_large": 6}


def build(name):
    return workloads.WORKLOADS[name](1, workloads.import_idrd())


def corrupt(name, out):
    """A wrong value or an invalid witness, as a faulty program would return."""
    if name == "solve_exact":
        code, text = out
        envelope = json.loads(text)
        envelope["payload"]["witnesses"]["idrdn"] = [0] * envelope["payload"]["invariants"]["order"]
        return code, json.dumps(envelope)
    if name == "bounds_fuzz":
        out.violations.append(("1 0\n", "B1-lower"))
        return out
    if isinstance(out[0], int) and len(out) == 5:
        return out[:3] + (out[3] + 1, out[4])
    return out[:-1] + ("T_family" if out[-1] == "neither" else "neither",)


class Benchmark(unittest.TestCase):
    def setUp(self):
        patches = (
            mock.patch.dict(run.TRACE_REQUESTS, TINY_TRACE),
            mock.patch.object(run, "SETUP_REPEATS", 1),
        )
        for patch in patches:
            patch.start()
            self.addCleanup(patch.stop)

    def test_every_workload_reports_every_metric_by_name_and_unit(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for name in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.3",
                                         "--trace", str(trace)])
                    self.assertEqual(code, 0)
                    record, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], record)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {m: v["unit"] for m, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in spec[key]},
                    )
                    self.assertEqual(record["run"]["seed"], 3)

    def test_corrupted_output_is_counted_as_failed(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                workload = build(name)
                call = workload.call
                workload.call = lambda req: corrupt(name, call(req))
                res = run.measure(workload, count=6)
                self.assertEqual(len(res.failures), 6, res.failures)
                self.assertEqual(res.graphs, 0)

    def test_traced_self_times_sum_to_request_durations(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                workload = build(name)
                originals = dict(vars(workload.mods.solvers))
                tracer = tracing.Tracer()
                undo = tracing.install(tracer, workload.mods)
                try:
                    res = run.measure(workload, count=TINY_TRACE[name], tracer=tracer)
                finally:
                    undo()
                self.assertEqual(res.failures, [])
                self.assertEqual(dict(vars(workload.mods.solvers)), originals)
                own = tracing.self_times(tracer.spans)
                total = {}
                for i, span in enumerate(tracer.spans):
                    root = i
                    while tracer.spans[root][0] >= 0:
                        root = tracer.spans[root][0]
                    total[root] = total.get(root, 0.0) + own[i]
                roots = [i for i, span in enumerate(tracer.spans) if span[2] == "request"]
                self.assertEqual(len(roots), TINY_TRACE[name])
                for root in roots:
                    self.assertAlmostEqual(total[root], tracer.spans[root][5], delta=1e-9)

    def test_checkers_agree_with_the_program_on_known_trees(self):
        mods = workloads.import_idrd()
        rng = random.Random(5)
        trees = [(n, workloads.random_tree_edges(n, rng)) for n in range(2, 40)]
        for text in ("star:6", "doublestar:2,3", "subdivstar:9,3", "subdivdoublestar:2,3",
                     "coronastar:4", "path:9"):
            g = mods.families.generate(mods.families.parse_family_spec(text))
            trees.append((g.n, list(g.edges)))
        for n, edges in trees:
            g = mods.graph.build_graph(n, edges)
            self.assertEqual(
                workloads.tree_membership(n, edges), mods.families.classify_tree(g).membership
            )
            self.assertEqual(workloads.tree_matching_size(n, edges), mods.solvers.max_matching(g))


if __name__ == "__main__":
    unittest.main()
