"""Database-agnostic federated transactions over pluggable storage adapters.

The package layers an optimistic commit protocol over a small storage
abstraction. Each adapter declares how widely it can write atomically; the
commit pipeline groups a transaction's writes so every group lands in one
atomic batch, collapses single-group transactions into one batch, and can keep
per-record transaction metadata either inside the record or in a sibling table
within the same atomic scope.
"""

from types import ModuleType as _ModuleType

from .decoupling import DecoupleConfig, ReadPath
from .errors import (
    AtomicityScopeViolation,
    CapabilityUnsupported,
    ConflictAbort,
    FedtxError,
    InjectedCrash,
    JoinIntegrityError,
    MissingMetadata,
    RecoveryFailed,
    TransactionFinished,
    UnknownStorage,
    UnknownView,
)
from .memstore import (
    FaultKind,
    MemStore,
    MemStoreConfig,
    OpCounters,
    build_memstore,
)
from .model import (
    AtomicityUnit,
    FullKey,
    GroupKey,
    Record,
    TxState,
    TxStatus,
    render_key,
)
from .storage import (
    AdapterCapabilities,
    ConditionalWrite,
    ConditionKind,
    IF_NOT_EXISTS,
    StorageAdapter,
    StorageRegistry,
    UNCONDITIONAL,
    WriteCondition,
    WriteKind,
    if_columns_equal,
    if_tx_id_equals,
)
from .transaction import (
    CoordinatorLocation,
    TransactionManager,
    TxHandle,
)
from .verifier import (
    History,
    HistoryRecorder,
    TxSummary,
    Violation,
    audit_atomicity,
    check_serializable,
)

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
