"""Command-line interface: ``python -m repro.analysis [paths...]``.

Exit status is 0 when no non-suppressed finding exists, 1 otherwise —
which is what the CI ``lint-protocol`` job keys off.  The only
suppression is inline (``# lint: allow[RULE] reason`` at the finding
site): the tree is expected to be clean.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.checkers import all_rules
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.analysis.runner import analyze


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static recovery-protocol linter (WAL, fix/unfix, "
                    "force-ordering, latch/lock order, interprocedural "
                    "reachability, determinism, RPC hygiene).",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to scan "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule id and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id, description in all_rules().items():
            print(f"{rule_id}  {description}")
        return 0
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    result = analyze(paths)
    renderer = {"json": render_json, "sarif": render_sarif}.get(
        args.format, render_text)
    print(renderer(result.findings, result.suppressed))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
