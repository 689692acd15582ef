"""Interprocedural reachability rules (WAL100 / REC040).

Both rules generalize an existing per-function check across call
boundaries using the summaries of
:mod:`repro.analysis.dataflow.summaries`:

WAL100 — from an entry point (an RPC handler or a function nothing in
the project calls), a durable page write is reachable with no log
force dominating it on the path.  This is the write-ahead-log rule of
ARIES/CSA (§WAL, force-before-externalize) stated over whole call
paths; an entry point that writes with no force earlier in its own
body is the one-frame case.

REC040 — same reachability, but the missing dominator is a crashpoint:
a durable write an entry point can reach before any fault-plane
instrumentation has run is a state transition the crash-schedule
explorer can never fail.

Findings anchor at the entry point's first call into the unguarded
chain and carry the full witness, so the fix site (add the force /
crashpoint, or sanction the callee) is visible without re-tracing.
"""

from __future__ import annotations

from typing import Dict, Iterator

from repro.analysis.checkers.base import Checker
from repro.analysis.dataflow.callgraph import build_callgraph
from repro.analysis.dataflow.summaries import (
    Witness, compute_summaries, render_witness,
)
from repro.analysis.findings import Finding
from repro.analysis.project import Project


class ReachabilityChecker(Checker):
    RULES = {
        "WAL100": "durable page write reachable from an entry point with "
                  "no dominating log force on the call path",
        "REC040": "durable write reachable from an entry point with no "
                  "crashpoint instrumentation on the call path",
    }

    def check_project(self, project: Project) -> Iterator[Finding]:
        summaries = compute_summaries(project)
        yield from self._report(project, summaries.unforced, "WAL100",
                                "no log force dominates this path — a "
                                "crash after the write loses the covering "
                                "log record (WAL violation)",
                                "force the log (or call a force-set helper) "
                                "before the first call into this chain, or "
                                "sanction the callee scope with a def-line "
                                "`# lint: allow[WAL100] <why>`")
        yield from self._report(project, summaries.uncovered, "REC040",
                                "no crashpoint dominates this path — the "
                                "crash-schedule explorer cannot fail this "
                                "durable write",
                                "add a named crashpoint before the first "
                                "call into this chain, or sanction the "
                                "scope with a def-line "
                                "`# lint: allow[REC040] <why>`")

    def _report(self, project: Project, summaries: Dict[str, Witness],
                rule_id: str, message: str,
                fix_hint: str) -> Iterator[Finding]:
        graph = build_callgraph(project)
        for key in graph.roots(project):
            witness = summaries.get(key)
            if not witness:
                continue
            head = witness[0]
            scope = graph.scopes[key]
            if scope.module.allowed_at(head.line, rule_id):
                continue
            yield Finding(
                path=head.path, line=head.line, rule_id=rule_id,
                qualname=scope.qualname,
                message=f"{message}; path: {render_witness(witness)}",
                fix_hint=fix_hint,
            )
