"""The benchmark's own self-tests (perfbench/selftest.py), run under pytest:
traced counts repeat across rounds, wrong answers are counted, and every
binding of lie_bracket in the package is wrapped."""

import importlib.util
import unittest
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_perfbench_selftest_suite_passes():
    spec = importlib.util.spec_from_file_location("perfbench_selftest",
                                                  SELFTEST)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    suite = unittest.defaultTestLoader.loadTestsFromModule(mod)
    result = unittest.TextTestRunner(verbosity=0).run(suite)
    assert result.testsRun == suite.countTestCases() > 0
    assert result.wasSuccessful(), result.failures + result.errors
