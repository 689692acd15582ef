"""Static recovery-protocol linter for the ARIES/CSA reproduction.

The recovery protocol's correctness is carried by coding discipline —
WAL ordering, fix/unfix pairing, force-before-externalize, determinism
— that dynamic checks (`harness.invariants`) only see on states a test
happens to reach.  This package checks those invariants *statically*
over the AST of every module, so CI fails the moment a new code path
violates the protocol, whether or not a test exercises it.

Usage::

    python -m repro.analysis src/repro

See ``repro.analysis.checkers`` for the rules and DESIGN.md for the
mapping from rule ids to paper sections.
"""

from repro.analysis.findings import Finding
from repro.analysis.runner import AnalysisResult, analyze

__all__ = ["Finding", "AnalysisResult", "analyze"]
