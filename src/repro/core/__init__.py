"""ARIES/CSA core: LSNs, log records, clients, server, recovery passes."""

from repro.core.client import Client
from repro.core.client_log import ClientLogManager
from repro.core.coordinator import GlobalTransaction, TwoPhaseCoordinator
from repro.core.commit_lsn import GlobalTransactionTracker
from repro.core.log_records import (
    BeginCheckpointRecord,
    CDPLRecord,
    CommitRecord,
    CompensationRecord,
    DirtyPageEntry,
    EndCheckpointRecord,
    EndRecord,
    LogRecord,
    PrepareRecord,
    SERVER_ID,
    TxnOutcome,
    TxnTableEntry,
    UpdateOp,
    UpdateRecord,
    decode_record,
    encode_record,
)
from repro.core.lsn import LSN, LogAddr, LsnClock, NULL_ADDR, NULL_LSN
from repro.core.recovery import (
    AnalysisResult,
    RestartTxn,
    analysis_pass,
)
from repro.core.server import RecoveryReport, Server
from repro.core.server_log import ServerLogManager
from repro.core.system import ClientServerSystem
from repro.core.transaction import (
    Savepoint,
    Transaction,
    TransactionTable,
    TxnState,
)

__all__ = [
    "AnalysisResult",
    "BeginCheckpointRecord",
    "CDPLRecord",
    "Client",
    "ClientLogManager",
    "ClientServerSystem",
    "CommitRecord",
    "CompensationRecord",
    "DirtyPageEntry",
    "EndCheckpointRecord",
    "EndRecord",
    "GlobalTransaction",
    "GlobalTransactionTracker",
    "TwoPhaseCoordinator",
    "LSN",
    "LogAddr",
    "LogRecord",
    "LsnClock",
    "NULL_ADDR",
    "NULL_LSN",
    "PrepareRecord",
    "RecoveryReport",
    "RestartTxn",
    "SERVER_ID",
    "Savepoint",
    "Server",
    "ServerLogManager",
    "Transaction",
    "TransactionTable",
    "TxnOutcome",
    "TxnState",
    "TxnTableEntry",
    "UpdateOp",
    "UpdateRecord",
    "analysis_pass",
    "decode_record",
    "encode_record",
]
