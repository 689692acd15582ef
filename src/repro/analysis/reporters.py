"""Text and JSON reporters for linter results."""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.findings import Finding


def render_text(new: List[Finding], suppressed: List[Finding]) -> str:
    lines: List[str] = []
    for finding in new:
        lines.append(finding.render())
    if suppressed:
        lines.append(f"({len(suppressed)} finding"
                     f"{'s' if len(suppressed) != 1 else ''} suppressed by "
                     "inline allow)")
    if new:
        lines.append(f"{len(new)} protocol violation"
                     f"{'s' if len(new) != 1 else ''} found")
    else:
        lines.append("no new protocol violations")
    return "\n".join(lines)


def render_json(new: List[Finding], suppressed: List[Finding]) -> str:
    return json.dumps({
        "findings": [f.to_dict() for f in new],
        "suppressed": [f.to_dict() for f in suppressed],
        "counts": {"new": len(new), "suppressed": len(suppressed)},
    }, indent=2)


def render_sarif(new: List[Finding], suppressed: List[Finding]) -> str:
    """SARIF 2.1.0, the interchange format CI code-scanning ingests.

    Suppressed findings are emitted with a SARIF ``suppressions`` entry
    rather than dropped, so the artifact is a complete record of the
    run; only unsuppressed results fail CI.
    """
    from repro.analysis.checkers import all_rules

    rules = all_rules()
    rule_ids = sorted(rules)
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}

    def result(finding: Finding, suppressed_kind: str = "") -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "ruleId": finding.rule_id,
            "ruleIndex": rule_index.get(finding.rule_id, -1),
            "level": "error",
            "message": {"text": finding.message
                        + (f" (fix: {finding.fix_hint})"
                           if finding.fix_hint else "")},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {"startLine": max(finding.line, 1)},
                },
                "logicalLocations": [{"fullyQualifiedName": finding.qualname}],
            }],
            "partialFingerprints": {"reproFingerprint/v1": finding.fingerprint},
        }
        if suppressed_kind:
            entry["suppressions"] = [{"kind": suppressed_kind}]
        return entry

    return json.dumps({
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro.analysis",
                    "rules": [
                        {"id": rule_id,
                         "shortDescription": {"text": rules[rule_id]}}
                        for rule_id in rule_ids
                    ],
                },
            },
            "results": [result(f) for f in new]
                       + [result(f, "inSource") for f in suppressed],
        }],
    }, indent=2)
