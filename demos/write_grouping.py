#!/usr/bin/env python3
"""How write grouping turns a chatty commit into a handful of batches.

A transaction that touches two stores writes eight records. Over stores that
declare only record-level atomicity (``AtomicityUnit.RECORD``, the pre-AU
baseline) every record is its own tiny database, and the commit costs 17
write transactions: eight prepares, one outcome record, eight commits. The
same commit over stores that declare their whole storage as the atomicity
unit groups its writes by scope and takes five, and a transaction confined to
a single store collapses all the way to one batch with no outcome record at
all.
"""

from fedtx import (
    AdapterCapabilities,
    AtomicityUnit,
    FullKey,
    MemStoreConfig,
    StorageRegistry,
    TransactionManager,
    build_memstore,
)
from fedtx.transaction import CoordinatorLocation


def fresh_manager(unit: AtomicityUnit):
    registry = StorageRegistry()
    adapters = {}
    for name in ("inventory", "orders", "coord"):
        caps = AdapterCapabilities(AtomicityUnit.STORAGE if name == "coord" else unit)
        adapter = build_memstore(name, MemStoreConfig(caps))
        registry.register(adapter)
        adapters[name] = adapter
    return TransactionManager(registry, CoordinatorLocation("coord")), adapters


def key(storage, pk):
    return FullKey(storage, "shop", "items", (pk,))


def write_eight(manager):
    tx = manager.begin()
    for i in range(4):
        tx.put(key("inventory", i), {"stock": 10 - i})
        tx.put(key("orders", i), {"qty": i})
    tx.commit()


def total_write_transactions(adapters):
    return sum(a.counters().db_transactions for a in adapters.values())


print(__doc__)

manager, adapters = fresh_manager(AtomicityUnit.RECORD)
write_eight(manager)
print(f"per-record batches : {total_write_transactions(adapters)} write transactions")

manager, adapters = fresh_manager(AtomicityUnit.STORAGE)
write_eight(manager)
print(f"grouped by scope   : {total_write_transactions(adapters)} write transactions")

manager, adapters = fresh_manager(AtomicityUnit.STORAGE)
tx = manager.begin()
for i in range(8):
    tx.put(key("inventory", i), {"stock": i})
tx.commit()
print(
    f"single-store commit: {total_write_transactions(adapters)} write transaction, "
    f"coordinator untouched ({adapters['coord'].counters().atomic_write_batches} writes)"
)
