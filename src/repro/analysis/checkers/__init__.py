"""Checker registry for the recovery-protocol linter."""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.checkers.base import Checker, run_checkers
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.lock_order import LockOrderChecker
from repro.analysis.checkers.observability import ObservabilityChecker
from repro.analysis.checkers.ordering import OrderingChecker
from repro.analysis.checkers.pairing import PairingChecker
from repro.analysis.checkers.reachability import ReachabilityChecker
from repro.analysis.checkers.recovery_engines import RecoveryEngineChecker
from repro.analysis.checkers.replication_seam import ReplicationSeamChecker
from repro.analysis.checkers.rpc_hygiene import RpcHygieneChecker
from repro.analysis.checkers.wal import WalChecker

__all__ = [
    "Checker", "run_checkers", "all_checkers", "all_rules",
    "WalChecker", "PairingChecker", "OrderingChecker",
    "DeterminismChecker", "RpcHygieneChecker", "ObservabilityChecker",
    "LockOrderChecker", "ReachabilityChecker",
    "RecoveryEngineChecker", "ReplicationSeamChecker",
]


def all_checkers() -> List[Checker]:
    return [
        WalChecker(),
        PairingChecker(),
        OrderingChecker(),
        DeterminismChecker(),
        RpcHygieneChecker(),
        ObservabilityChecker(),
        LockOrderChecker(),
        ReachabilityChecker(),
        RecoveryEngineChecker(),
        ReplicationSeamChecker(),
    ]


def all_rules() -> Dict[str, str]:
    rules: Dict[str, str] = {}
    for checker in all_checkers():
        rules.update(checker.RULES)
    return dict(sorted(rules.items()))
