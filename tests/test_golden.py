"""Byte-for-byte report pins: `emit_report` at seeds 0 and 11 for every
bundled fixture, and at seed 0 for the six systems that the benchmark's
deep_chains and wide_inputs workloads generate (perfbench/workloads.py) and
for driftless plus three integrators (m = 5), must equal the committed files
in tests/golden/ (`<name>.json` for seed 0, `<name>_seed11.json` for seed
11). A refactor that keeps the verdicts must keep these bytes too;
regenerate the files only for an intended change of the report."""

import pytest

from flatcheck.flatness import Budgets, analyze
from flatcheck.sysdsl import emit_report, parse_system

from conftest import ROOT, load_fixture, load_workloads, widened_fixture

GOLDEN = ROOT / "tests" / "golden"
NAMES = ["chained", "driftless", "clm", "pendulum", "threeinput"]


def _generated_systems():
    mod = load_workloads()
    return [pair for name in ("deep_chains", "wide_inputs")
            for pair in mod.workload(name, str(ROOT))]


GENERATED = _generated_systems()


@pytest.mark.parametrize("name", NAMES)
def test_report_bytes_match_golden(reports, name):
    want = (GOLDEN / ("%s.json" % name)).read_bytes()
    assert emit_report(reports[name]).encode() == want


@pytest.mark.parametrize("name", NAMES)
def test_report_bytes_match_golden_seed11(name):
    want = (GOLDEN / ("%s_seed11.json" % name)).read_bytes()
    rep = analyze(load_fixture(name + ".flt"), Budgets(seed=11))
    assert emit_report(rep).encode() == want


@pytest.mark.parametrize("name,text", GENERATED, ids=[n for n, _ in GENERATED])
def test_generated_report_bytes_match_golden(name, text):
    want = (GOLDEN / ("%s.json" % name)).read_bytes()
    rep = analyze(parse_system(text), Budgets(seed=0))
    assert emit_report(rep).encode() == want


def test_driftless_plus3_report_bytes_match_golden():
    # five inputs: the sigma box has (2k+1)^4 tuples per initialization
    want = (GOLDEN / "driftless_plus3.json").read_bytes()
    rep = analyze(widened_fixture("driftless", 3), Budgets(seed=0))
    assert emit_report(rep).encode() == want
