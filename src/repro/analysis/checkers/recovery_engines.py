"""Recovery seam check (the restart driver and kernels, DESIGN.md section 13).

REC060 — the recovery driver and kernels touch page images only through
the :class:`~repro.core.recovery.RecoveryPageAccess` seam (``ctx.pages``)
and emit log records only through the
:class:`~repro.core.recovery.ClrWriter` seam (``ctx.clr_writer``).

Every effect restart recovery has on the durable state funnels through
those two protocols.  That is what lets a test substitute a fake page
store or capture the emitted CLR stream, what makes the driver-versus-
reference-passes byte-identity comparisons meaningful (a direct
buffer/pool/disk read or a raw log append is an effect the seams cannot
see), and what keeps recovery inside the server's WAL and dirty-tracking
discipline.  Reading the log (``ctx.log.read_at`` and friends) is fine;
recovery is a log reader by definition.

A scope counts as *recovery code* when a parameter is annotated
``RecoveryContext`` or when it reads ``ctx.pages`` / ``ctx.log`` /
``ctx.clr_writer`` — the latter catches closures that inherit ``ctx``
from an enclosing function without re-annotating it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.checkers.base import Checker
from repro.analysis.findings import Finding
from repro.analysis.project import (
    FunctionScope, Project, call_name, call_receiver,
)

#: Buffer-pool / disk page APIs recovery code must never name.
PAGE_BYPASS_METHODS = {
    "read_page", "write_page", "get_frame", "frame_for", "fix", "unfix",
}
#: Page-seam methods: allowed only on a ``...pages`` receiver.
PAGE_SEAM_METHODS = {"fetch", "mark_dirty"}
#: Raw log-append APIs recovery code must never name.
LOG_APPEND_METHODS = {"append_local", "append_from_client"}

CTX_SEAM_ATTRS = {"pages", "log", "clr_writer"}


def _is_recovery_scope(scope: FunctionScope) -> bool:
    node = scope.node
    args = node.args
    for arg in (args.posonlyargs + args.args + args.kwonlyargs):
        annotation = arg.annotation
        if annotation is not None and "RecoveryContext" in ast.unparse(annotation):
            return True
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Load)
                and sub.attr in CTX_SEAM_ATTRS
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "ctx"):
            return True
    return False


class RecoveryEngineChecker(Checker):
    RULES = {
        "REC060": "recovery driver/kernel code bypasses the "
                  "RecoveryPageAccess / ClrWriter seams (direct pool, "
                  "disk, or log-append access)",
    }

    def check_function(self, scope: FunctionScope,
                       project: Project) -> Iterator[Finding]:
        if not _is_recovery_scope(scope):
            return
        for call in scope.calls():
            name = call_name(call)
            receiver = call_receiver(call) or ""
            if name in PAGE_BYPASS_METHODS:
                yield self.found(
                    scope, call, "REC060",
                    f"{name}() reaches page frames behind the "
                    "RecoveryPageAccess seam — the driver-vs-reference "
                    "comparisons cannot see this effect",
                    "fetch pages via ctx.pages.fetch() and record changes "
                    "with ctx.pages.mark_dirty()",
                )
            elif name in PAGE_SEAM_METHODS and not receiver.endswith("pages"):
                yield self.found(
                    scope, call, "REC060",
                    f"{name}() on {receiver or 'a bare name'!r} — recovery "
                    "page access must go through ctx.pages",
                    "route the access through the RecoveryPageAccess "
                    "protocol (ctx.pages)",
                )
            elif name in LOG_APPEND_METHODS:
                yield self.found(
                    scope, call, "REC060",
                    f"{name}() appends to the log directly — recovery "
                    "records (CLRs, rollback ends) must go through "
                    "ctx.clr_writer",
                    "emit the record with ctx.clr_writer.append()",
                )
            elif (name in {"append", "next_lsn", "force"}
                  and (receiver == "log" or receiver.endswith(".log"))):
                yield self.found(
                    scope, call, "REC060",
                    f"log.{name}() from recovery code — the ClrWriter seam "
                    "owns LSN assignment and record emission",
                    "use ctx.clr_writer.next_lsn() / append(); durability "
                    "is the writer implementation's business",
                )
            elif name == "next_lsn" and not receiver.endswith("clr_writer"):
                yield self.found(
                    scope, call, "REC060",
                    f"next_lsn() on {receiver or 'a bare name'!r} — LSN "
                    "assignment belongs to ctx.clr_writer",
                    "call ctx.clr_writer.next_lsn()",
                )
