"""Summary-based interprocedural reachability for WAL100 / REC040.

Each scope gets a *summary*: the earliest piece of evidence that a
durable page write is reachable from it with no dominating guard — a
log force for WAL100, a crashpoint for REC040 — on the path.  Direct
evidence (a durable write with no guard on an earlier line of the same
scope) seeds the fixpoint; a call site whose callee is summarized as
unguarded propagates the callee's witness upward unless a guard call
appears on an earlier line of the caller.  Propagation therefore
models the dominating-guard discipline one call frame at a time, which
is the same reasoning a reviewer does reading the code top to bottom.

A scope whose ``def`` line carries ``# lint: allow[<RULE>]`` is
*sanctioned*: it never becomes unguarded and so stops propagation —
that is how a deliberate exception (offline bootstrap formatting) is
kept from tainting every caller.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dataflow.callgraph import CallGraph, build_callgraph
from repro.analysis.project import (
    Project, call_name, call_receiver,
)

#: Hard cap on witness chains: anything deeper is a resolution cycle.
MAX_CHAIN = 12
#: Raw page writes to the database disk.
DISK_WRITE_METHODS = {"write_page"}
#: Page-copy writes into the media-recovery archive.
ARCHIVE_WRITE_METHODS = {"backup_from_disk", "backup_page"}


@dataclass(frozen=True)
class WitnessStep:
    """One frame of a call-path witness."""

    path: str
    qualname: str
    line: int
    action: str

    def render(self) -> str:
        return f"{self.path}:{self.line} {self.qualname}: {self.action}"


Witness = Tuple[WitnessStep, ...]


def render_witness(witness: Witness) -> str:
    return " -> ".join(step.render() for step in witness)


@dataclass
class ReachSummaries:
    """Per-scope unguarded-write witnesses for both reachability rules."""

    #: scope key -> witness of a forced-log-free path to a disk write
    unforced: Dict[str, Witness] = field(default_factory=dict)
    #: scope key -> witness of a crashpoint-free path to a durable write
    uncovered: Dict[str, Witness] = field(default_factory=dict)


def _guard_closure(graph: CallGraph, direct_names: Set[str]) -> Set[str]:
    """Scope keys that reach a guard call, via call-graph resolution.

    The project-wide bare-name force set is deliberately coarse (any
    same-named function anywhere counts) — right for the per-function
    ordering checks, far too loose as an interprocedural dominator:
    through it, ``io_retry``/``crashpoint`` themselves become "forcing"
    and WAL100 can never fire.  This closure only propagates through
    edges the call graph actually resolved.
    """
    guarded: Set[str] = set()
    for key, scope in graph.scopes.items():
        for call in scope.calls():
            if call_name(call) in direct_names:
                guarded.add(key)
                break
    changed = True
    while changed:
        changed = False
        for key in graph.scopes:
            if key in guarded:
                continue
            if any(site.callee in guarded for site in graph.callees(key)):
                guarded.add(key)
                changed = True
    return guarded


def _direct_write(call: ast.Call) -> Optional[str]:
    """Label when this call is itself a durable write; None otherwise."""
    name = call_name(call)
    receiver = call_receiver(call) or ""
    if name in DISK_WRITE_METHODS and "disk" in receiver:
        return f"disk.{name}()"
    if name in ARCHIVE_WRITE_METHODS and "archive" in receiver:
        return f"archive.{name}()"
    return None


def _fixpoint(project: Project, graph: CallGraph, rule_id: str,
              guard_kind: str) -> Dict[str, Witness]:
    """One reachability fixpoint; ``guard_kind`` picks the guard calls."""
    direct_names = ({"force", "is_stable"} if guard_kind == "force"
                    else {"crashpoint"})
    guarded_keys = _guard_closure(graph, direct_names)
    guard_sites: Dict[str, Set[int]] = {}
    for key in graph.scopes:
        guard_sites[key] = {site.line for site in graph.callees(key)
                            if site.callee in guarded_keys}

    def is_guard(key: str, call: ast.Call) -> bool:
        return (call_name(call) in direct_names
                or call.lineno in guard_sites[key])

    guard_lines: Dict[str, List[int]] = {}
    direct: Dict[str, Witness] = {}
    sanctioned: Set[str] = set()
    for key, scope in graph.scopes.items():
        def_line = getattr(scope.node, "lineno", 0)
        if scope.module.allowed_at(def_line, rule_id):
            sanctioned.add(key)
            continue
        lines: List[int] = []
        for call in scope.calls():
            if is_guard(key, call):
                lines.append(call.lineno)
        guard_lines[key] = lines
        for call in sorted(scope.calls(), key=lambda c: c.lineno):
            label = _direct_write(call)
            if label is None:
                continue
            if any(line < call.lineno for line in lines):
                continue
            direct[key] = (WitnessStep(scope.module.relpath, scope.qualname,
                                       call.lineno, label),)
            break

    summaries: Dict[str, Witness] = dict(direct)
    changed = True
    while changed:
        changed = False
        for key in sorted(graph.scopes):
            if key in summaries or key in sanctioned:
                continue
            scope = graph.scopes[key]
            lines = guard_lines.get(key, [])
            for site in sorted(graph.callees(key), key=lambda s: s.line):
                below = summaries.get(site.callee)
                if below is None or len(below) >= MAX_CHAIN:
                    continue
                if any(step.qualname == scope.qualname
                       and step.path == scope.module.relpath
                       for step in below):
                    continue  # recursion through over-resolution
                if any(line < site.line for line in lines):
                    continue
                step = WitnessStep(scope.module.relpath, scope.qualname,
                                   site.line, f"calls {site.via}()")
                summaries[key] = (step,) + below
                changed = True
                break
    return summaries


def compute_summaries(project: Project) -> ReachSummaries:
    cached = project.cache.get("summaries")
    if isinstance(cached, ReachSummaries):
        return cached
    graph = build_callgraph(project)
    result = ReachSummaries(
        unforced=_fixpoint(project, graph, "WAL100", "force"),
        uncovered=_fixpoint(project, graph, "REC040", "crash"),
    )
    project.cache["summaries"] = result
    return result
