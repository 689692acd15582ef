"""Finding model for the recovery-protocol linter.

A finding pins a protocol-invariant violation to a source location and
carries everything a reviewer needs: the rule id, a one-line message,
and a concrete fix hint.  Each finding has a line-number-free
fingerprint (``rule:path:qualname``), which the SARIF report carries so
that code scanning tracks a finding across unrelated edits to its file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One protocol violation at one source location."""

    path: str          #: posix path relative to the scanned root
    line: int          #: 1-based line of the offending node
    rule_id: str       #: e.g. "REC001"
    qualname: str      #: enclosing scope, e.g. "Server.bootstrap"
    message: str = field(compare=False)
    fix_hint: str = field(compare=False, default="")

    @property
    def fingerprint(self) -> str:
        """Line-number-free identity (SARIF ``partialFingerprints``)."""
        return f"{self.rule_id}:{self.path}:{self.qualname}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule_id,
            "qualname": self.qualname,
            "message": self.message,
            "fix_hint": self.fix_hint,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule_id} [{self.qualname}] {self.message}"
        if self.fix_hint:
            text += f"\n    fix: {self.fix_hint}"
        return text
