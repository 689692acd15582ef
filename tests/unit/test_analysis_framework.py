"""Framework tests: finding model, inline suppression, reporters, CLI,
and the self-check that the repo's own tree is protocol-clean."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.checkers import all_rules
from repro.analysis.cli import main as cli_main
from repro.analysis.findings import Finding
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.analysis.runner import analyze

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "analysis_fixtures"


def _finding(rule="REC001", path="core/x.py", qualname="C.f", line=10):
    return Finding(path=path, line=line, rule_id=rule, qualname=qualname,
                   message="m", fix_hint="h")


# -- finding model -----------------------------------------------------------

def test_fingerprint_is_line_free():
    a = _finding(line=10)
    b = _finding(line=99)
    assert a.fingerprint == b.fingerprint == "REC001:core/x.py:C.f"


def test_finding_to_dict_roundtrips_through_json():
    data = json.loads(json.dumps(_finding().to_dict()))
    assert data["rule"] == "REC001"
    assert data["fingerprint"] == "REC001:core/x.py:C.f"


# -- reporters ---------------------------------------------------------------

def test_text_reporter_mentions_rule_and_counts():
    text = render_text([_finding()], [_finding(rule="DET002")])
    assert "REC001" in text
    assert "1 protocol violation" in text
    assert "1 finding suppressed" in text


def test_json_reporter_is_valid_json():
    data = json.loads(render_json([_finding()], []))
    assert data["counts"] == {"new": 1, "suppressed": 0}
    assert data["findings"][0]["rule"] == "REC001"


def test_json_reporter_emit_parse_emit_identity():
    first = render_json([_finding()], [_finding(rule="DET002")])
    assert json.dumps(json.loads(first), indent=2) == first


def test_sarif_reporter_shape():
    data = json.loads(render_sarif([_finding()], []))
    assert data["version"] == "2.1.0"
    run = data["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.analysis"
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(all_rules())
    result = run["results"][0]
    assert result["ruleId"] == "REC001"
    assert rule_ids[result["ruleIndex"]] == "REC001"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "core/x.py"
    assert location["region"]["startLine"] == 10
    assert "suppressions" not in result
    fingerprint = result["partialFingerprints"]["reproFingerprint/v1"]
    assert fingerprint == "REC001:core/x.py:C.f"


def test_sarif_reporter_marks_suppressed_results():
    data = json.loads(render_sarif([], [_finding()]))
    result = data["runs"][0]["results"][0]
    assert result["suppressions"] == [{"kind": "inSource"}]


def test_sarif_reporter_emit_parse_emit_identity():
    first = render_sarif([_finding()], [_finding(rule="DET002")])
    assert json.dumps(json.loads(first), indent=2) == first


# -- CLI ---------------------------------------------------------------------

def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in all_rules():
        assert rule_id in out


def test_cli_missing_path_exits_2(capsys):
    assert cli_main(["definitely/not/a/path.py"]) == 2


def test_cli_json_format(capsys):
    assert cli_main([str(FIXTURES / "wal_bad.py"), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["counts"]["new"] > 0


def test_cli_sarif_format(capsys):
    assert cli_main([str(FIXTURES / "wal_bad.py"), "--format", "sarif"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["version"] == "2.1.0"
    assert data["runs"][0]["results"]


def test_cli_clean_on_good_tree(capsys):
    assert cli_main([str(FIXTURES / "wal_good.py")]) == 0
    assert "no new protocol violations" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--baseline=b.txt", "--write-baseline"])
def test_cli_has_no_baseline_flags(flag, capsys):
    """Inline allows are the only suppression; the flags are gone."""
    with pytest.raises(SystemExit) as info:
        cli_main([str(FIXTURES / "wal_bad.py"), flag])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# -- inline suppression ------------------------------------------------------

def test_inline_allow_suppresses_finding(tmp_path):
    """An allow on the line above the finding claims it: the finding is
    reported as suppressed, not dropped, and the run is clean."""
    source = tmp_path / "funnel.py"
    source.write_text(
        "class M:\n"
        "    def f(self):\n"
        "        page = self.pool.get(7)\n"
        "        # lint: allow[REC001] logged by the caller\n"
        "        page.insert_record(b'x', slot=0)\n",
        encoding="utf-8",
    )
    result = analyze([source])
    assert result.findings == []
    assert result.exit_code == 0
    assert [f.rule_id for f in result.suppressed] == ["REC001"]


# -- the repo's own tree -----------------------------------------------------

def test_repo_tree_is_protocol_clean():
    """`python -m repro.analysis src/repro` must pass on this tree:
    every deliberate exception is an inline ``# lint: allow[...]`` at
    its site."""
    result = analyze([REPO_ROOT / "src" / "repro"])
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings)
    # Inline allows claim findings in exactly: the offline-bootstrap
    # format and its unlogged writes, the SMP-first privilege-under-pin
    # sites, the Histogram instrument's own count/sum state (OBS001 is
    # about ad-hoc counters; the instrument IS the registry's data
    # source), and the network's failover-epoch bump (protocol state,
    # not a metric).  The disk-write funnel and the standby's replica
    # install are not entry points, so WAL100/REC040 check their
    # callers and nothing there needs claiming.
    assert {f.qualname for f in result.suppressed} == {
        "Server.bootstrap",
        "Client.allocate_page", "Client.deallocate_page",
        "Histogram.observe", "Network.bump_epoch"}


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src/repro"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no new protocol violations" in proc.stdout
