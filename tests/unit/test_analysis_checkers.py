"""Fixture-driven checker tests.

Every ``*_bad.py`` fixture marks each violation with a trailing
``# lint:expect RULEID`` comment; the test asserts the analyzer reports
*exactly* that set of (rule id, line number) pairs — nothing missing,
nothing extra.  ``*_good.py`` fixtures carry no markers and must come
back clean, which pins the checkers' false-positive behaviour too.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.cli import main as cli_main
from repro.analysis.runner import analyze

FIXTURES = Path(__file__).parent / "analysis_fixtures"
EXPECT = re.compile(r"#\s*lint:expect\s+([A-Z]+\d+)")


def expected_findings(path: Path) -> set:
    out = set()
    for lineno, text in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        for rule_id in EXPECT.findall(text):
            out.add((rule_id, lineno))
    return out


ALL_FIXTURES = sorted(FIXTURES.glob("*.py"))
BAD_FIXTURES = [p for p in ALL_FIXTURES if p.stem.endswith("_bad")]
GOOD_FIXTURES = [p for p in ALL_FIXTURES if p.stem.endswith("_good")]


def test_fixture_inventory():
    # One good/bad pair per checker family, plus the batching pair
    # exercising the RPC checker's RPC004/RPC005 rules, plus the three
    # interprocedural pairs (lock order, WAL reach, crashpoint reach)
    # and the crash-scope pair (REC040 on an entry point's own write).
    assert len(BAD_FIXTURES) == 13
    assert len(GOOD_FIXTURES) == 13
    assert len(ALL_FIXTURES) == 26


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_fixture_findings_exact(path):
    result = analyze([path])
    got = {(f.rule_id, f.line) for f in result.findings}
    assert got == expected_findings(path)


@pytest.mark.parametrize("path", BAD_FIXTURES, ids=lambda p: p.stem)
def test_bad_fixture_marks_something(path):
    assert expected_findings(path), f"{path.name} has no lint:expect markers"


@pytest.mark.parametrize("path", BAD_FIXTURES, ids=lambda p: p.stem)
def test_cli_exits_nonzero_on_bad_fixture(path, capsys):
    exit_code = cli_main([str(path)])
    out = capsys.readouterr().out
    assert exit_code == 1
    for rule_id, _ in expected_findings(path):
        assert rule_id in out


@pytest.mark.parametrize("path", GOOD_FIXTURES, ids=lambda p: p.stem)
def test_cli_exits_zero_on_good_fixture(path, capsys):
    assert cli_main([str(path)]) == 0


def test_findings_carry_location_and_hint():
    result = analyze([FIXTURES / "wal_bad.py"])
    assert result.findings, "wal_bad.py must produce findings"
    for finding in result.findings:
        assert finding.path == "wal_bad.py"
        assert finding.line > 0
        assert finding.qualname.startswith("Mutator.")
        assert finding.fix_hint
