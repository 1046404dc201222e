"""Self-tests of the benchmark's own code.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

fc = run.load_flatcheck()
EXPECTED = run.load_expected()
SMALL = [(name, workloads.fixture_text(run.ROOT, name))
         for name in ("driftless", "pendulum")]


def _resolve(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class GeneratedInputs(unittest.TestCase):
    def test_generated_text_parses(self):
        for wl in workloads.NAMES:
            for name, text in workloads.workload(wl, run.ROOT):
                sysdef = fc.parse_system(text)
                self.assertIn(name, EXPECTED)
                self.assertEqual(len(sysdef.declared_flat_outputs or []),
                                 sysdef.m if EXPECTED[name]["finds_declared_outputs"]
                                 else 0, name)
                self.assertEqual(fc.parse_system(fc.render_system(sysdef)).f,
                                 sysdef.f, name)

    def test_direct_sum_keeps_fixture_answers(self):
        for fixture, extra in workloads.WIDE:
            base = fc.parse_system(workloads.fixture_text(run.ROOT, fixture))
            wide = fc.parse_system(
                workloads.widened_text(workloads.fixture_text(run.ROOT, fixture), extra))
            self.assertEqual(wide.f[:base.n], base.f)
            self.assertEqual(wide.m, base.m + extra)
            exp_base = EXPECTED[fixture]
            exp_wide = EXPECTED["%s_plus%d" % (fixture, extra)]
            self.assertEqual(exp_wide["j_min"],
                             exp_base["j_min"] + [0] * extra)
            self.assertEqual(exp_wide["kappa"],
                             sorted(exp_base["kappa"] + [2] * extra, reverse=True))
            self.assertEqual(exp_wide["k_star"], exp_base["k_star"])


class Checks(unittest.TestCase):
    def test_wrong_answer_is_counted(self):
        bench = run.Bench(fc, SMALL[:1], seed=0)
        bench.expected[0] = dict(bench.expected[0], kappa=[5, 3])
        bench.analyze_one(0)
        bench.analyze_one(0)
        self.assertEqual((bench.attempted, bench.failed), (1, 1))
        self.assertEqual(len(bench.wrong), 1)
        self.assertIn("kappa", bench.wrong[0])


class Tracing(unittest.TestCase):
    def test_untraced_run_sees_original_functions(self):
        tr = tracer.Tracer()
        originals = {}
        with tr:
            self.assertTrue(tr._patches)
            for owner, attr, orig in tr._patches:
                originals[(id(owner), attr)] = (owner, attr, orig)
                self.assertIsNot(_resolve(owner, attr), orig)
            # every binding of lie_bracket in the package is wrapped
            wrapped = fc.jetgeom.lie_bracket
            for mod in (fc, fc.prolong, fc.flatness):
                self.assertIs(mod.lie_bracket, wrapped)
        for owner, attr, orig in originals.values():
            self.assertIs(_resolve(owner, attr), orig, attr)
        self.assertFalse(hasattr(fc.jetgeom.lie_bracket, "__wrapped__"))
        self.assertFalse(hasattr(fc.Expr.__add__, "__wrapped__"))

    def test_traced_call_counts_repeat(self):
        counts = []
        for _ in range(2):
            bench = run.Bench(fc, SMALL, seed=3)
            tr = tracer.Tracer()
            with tr:
                bench.round()
            metrics = tr.metrics(1.0)
            counts.append({k: v for k, (v, unit) in metrics.items()
                           if unit in ("count", "dim")})
            self.assertFalse(bench.wrong)
        self.assertGreater(counts[0]["expr.arith_calls"], 0)
        self.assertEqual(counts[0], counts[1])


if __name__ == "__main__":
    unittest.main()
