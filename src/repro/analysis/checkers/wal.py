"""WAL-discipline checks (paper sections 2.4-2.5).

REC001 — a function that acquires a page image and mutates its bytes
must, in the same scope, either advance ``page_LSN`` or append a log
record describing the change.  Mutating a page received as a
*parameter* is exempt: logging is then the caller's contract (this is
how ``repro.core.apply`` replays already-logged records).

Disk writes ahead of the log are WAL100's
(:mod:`repro.analysis.checkers.reachability`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.checkers.base import Checker
from repro.analysis.findings import Finding
from repro.analysis.project import (
    FunctionScope, Project, call_name, call_receiver,
)

#: Page byte mutators that always identify a page receiver.
PAGE_MUTATORS = {"insert_record", "modify_record", "delete_record"}
#: Mutators with ambiguous names; flagged only with acquisition evidence.
GENERIC_MUTATORS = {"set_meta", "format"}
#: Calls that put a page image in the function's hands.
ACQUIRERS = {"_get_page", "_ensure_update_privilege", "_page_for_recovery",
             "restore_page"}
POOL_ACQUIRERS = {"get", "peek", "admit"}
#: Evidence that the mutation is logged in-scope.  The append family is
#: only believed when the receiver looks like a log (so ``list.append``
#: never counts); the helpers are unambiguous on any receiver.
LOG_APPEND_METHODS = {"append", "append_local", "append_from_client"}
LOG_HELPERS = {"apply_logged_update", "log_cdpl"}


def _receiver_base(call: ast.Call) -> str:
    receiver = call_receiver(call)
    return receiver.split(".", 1)[0] if receiver else ""


class WalChecker(Checker):
    RULES = {
        "REC001": "page-byte mutation without page_LSN update or log append "
                  "in scope (WAL, section 2.4)",
    }

    def check_function(self, scope: FunctionScope,
                       project: Project) -> Iterator[Finding]:
        yield from self._check_mutations(scope)

    # -- REC001 --------------------------------------------------------------

    def _check_mutations(self, scope: FunctionScope) -> Iterator[Finding]:
        params = scope.params
        acquires = False
        mutations = []
        logged = self._has_log_evidence(scope)
        for call in scope.calls():
            name = call_name(call)
            if name == "Page" and isinstance(call.func, ast.Name):
                acquires = True
            elif name in ACQUIRERS:
                acquires = True
            elif name in POOL_ACQUIRERS and "pool" in (call_receiver(call) or ""):
                acquires = True
            elif name == "read_page" and "disk" in (call_receiver(call) or ""):
                acquires = True
            if name in PAGE_MUTATORS or name in GENERIC_MUTATORS:
                base = _receiver_base(call)
                if base and base != "self" and base not in params:
                    mutations.append((call, name))
        if logged or not mutations:
            return
        for call, name in mutations:
            if name in GENERIC_MUTATORS and not acquires:
                continue  # e.g. str.format on some local — not a page
            yield self.found(
                scope, call, "REC001",
                f"page mutator .{name}() called without updating page_lsn "
                "or appending a log record in this scope",
                "log the update (and set page.page_lsn) before mutating, "
                "or take the page as a parameter so the caller logs it",
            )

    def _has_log_evidence(self, scope: FunctionScope) -> bool:
        for sub in ast.walk(scope.node):
            if isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and \
                            target.attr == "page_lsn":
                        return True
            elif isinstance(sub, ast.Call):
                name = call_name(sub)
                if name in LOG_HELPERS:
                    return True
                if name in LOG_APPEND_METHODS and \
                        "log" in (call_receiver(sub) or ""):
                    return True
        return False
