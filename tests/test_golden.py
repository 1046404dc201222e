"""Byte-for-byte report pins: `emit_report` at seed 0 for every bundled
fixture must equal the committed files in tests/golden/. A refactor that
keeps the verdicts must keep these bytes too; regenerate the files only for
an intended change of the report."""

from pathlib import Path

import pytest

from flatcheck.sysdsl import emit_report

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ["chained", "driftless", "clm", "pendulum",
                                  "threeinput"])
def test_report_bytes_match_golden(reports, name):
    want = (GOLDEN / ("%s.json" % name)).read_bytes()
    assert emit_report(reports[name]).encode() == want
