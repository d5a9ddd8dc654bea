#!/usr/bin/env python3
"""Checking committed histories with a serialization-graph test.

The manager can record every finished transaction: observed read versions,
written versions, and begin/commit stamps. Each version has one writer, so
the checker links writers to readers, readers to the next writer, and each
writer to the next one, adds an edge from T1 to T2 whenever T1 committed
before T2 began, and looks for a cycle. A serial order that reproduces every
observation exists exactly when there is none, and the check stays linear
in the size of the history.

The classic write-skew pair shows both halves: committed under plain
conflict-checking it forms a cycle, while serializable mode refuses to
commit the second transaction in the first place.
"""

from fedtx import (
    AdapterCapabilities,
    AtomicityUnit,
    ConflictAbort,
    FullKey,
    HistoryRecorder,
    MemStoreConfig,
    StorageRegistry,
    TransactionManager,
    build_memstore,
    check_serializable,
)
from fedtx.transaction import CoordinatorLocation


def fresh_env(recorder):
    registry = StorageRegistry()
    for name in ("db", "coord"):
        registry.register(
            build_memstore(name, MemStoreConfig(AdapterCapabilities(AtomicityUnit.STORAGE)))
        )
    manager = TransactionManager(registry, CoordinatorLocation("coord"), history=recorder)
    seed = manager.begin()
    seed.put(key("oncall_a"), {"on_duty": True})
    seed.put(key("oncall_b"), {"on_duty": True})
    seed.commit()
    return manager


def key(pk):
    return FullKey("db", "app", "roster", (pk,))


def write_skew(manager, serializable):
    """Two doctors sign off simultaneously; each saw the other still on duty."""
    t1 = manager.begin(serializable=serializable)
    t2 = manager.begin(serializable=serializable)
    t1.get(key("oncall_b"))
    t2.get(key("oncall_a"))
    t1.put(key("oncall_a"), {"on_duty": False})
    t2.put(key("oncall_b"), {"on_duty": False})
    t1.commit()
    t2.commit()


print(__doc__)

recorder = HistoryRecorder()
manager = fresh_env(recorder)
write_skew(manager, serializable=False)
verdict = check_serializable(recorder.history())
print(f"plain mode committed both; checker says: {verdict}")

recorder = HistoryRecorder()
manager = fresh_env(recorder)
try:
    write_skew(manager, serializable=True)
except ConflictAbort as abort:
    print(f"serializable mode aborted the second transaction: {abort}")
verdict = check_serializable(recorder.history())
print(f"surviving history passes the checker: {verdict is None}")
