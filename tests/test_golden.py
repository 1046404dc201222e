"""Byte-for-byte report pins: `emit_report` at seeds 0 and 11 for every
bundled fixture must equal the committed files in tests/golden/
(`<name>.json` for seed 0, `<name>_seed11.json` for seed 11). A refactor
that keeps the verdicts must keep these bytes too; regenerate the files only
for an intended change of the report."""

from pathlib import Path

import pytest

from flatcheck.flatness import Budgets, analyze
from flatcheck.sysdsl import emit_report

from conftest import load_fixture

GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = ["chained", "driftless", "clm", "pendulum", "threeinput"]


@pytest.mark.parametrize("name", NAMES)
def test_report_bytes_match_golden(reports, name):
    want = (GOLDEN / ("%s.json" % name)).read_bytes()
    assert emit_report(reports[name]).encode() == want


@pytest.mark.parametrize("name", NAMES)
def test_report_bytes_match_golden_seed11(name):
    want = (GOLDEN / ("%s_seed11.json" % name)).read_bytes()
    rep = analyze(load_fixture(name + ".flt"), Budgets(seed=11))
    assert emit_report(rep).encode() == want
