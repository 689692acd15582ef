"""Programmatic entry point: load sources, run checkers, apply
inline suppressions."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence, Tuple

from repro.analysis.checkers import all_checkers, run_checkers
from repro.analysis.findings import Finding
from repro.analysis.project import Project


@dataclass
class AnalysisResult:
    findings: List[Finding] = field(default_factory=list)    #: actionable
    suppressed: List[Finding] = field(default_factory=list)  #: inline-allowed

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _split_by_allows(project: Project, findings: List[Finding],
                     ) -> Tuple[List[Finding], List[Finding]]:
    """Partition into (kept, inline-allowed).

    A ``# lint: allow[RULE]`` on the finding's line (or standing alone
    on the line above) suppresses it; it is the only suppression there
    is, so every deliberate exception is documented at its site.
    """
    by_relpath = {module.relpath: module for module in project.modules}
    kept: List[Finding] = []
    allowed: List[Finding] = []
    for finding in findings:
        module = by_relpath.get(finding.path)
        if module is not None and module.allowed_at(finding.line,
                                                    finding.rule_id):
            allowed.append(finding)
        else:
            kept.append(finding)
    return kept, allowed


def analyze(paths: Sequence[Path]) -> AnalysisResult:
    project = Project.load([Path(p) for p in paths])
    findings = run_checkers(all_checkers(), project)
    findings, inline_allowed = _split_by_allows(project, findings)
    return AnalysisResult(findings=findings, suppressed=sorted(inline_allowed))
