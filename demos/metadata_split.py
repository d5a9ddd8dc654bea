#!/usr/bin/env python3
"""Keeping transaction metadata out of application tables, affordably.

Running transactions over an existing database normally means adding
bookkeeping columns to every table. Splitting that metadata into a sibling
table avoids the schema change, but naively doubles reads and then doubles
them again with commit-time re-validation. Each upgrade of the storage's read
capability claws the cost back:

  split reads        2 reads per get + 2 validation reads at commit
  consistent read    2 reads in one store transaction, no validation
  join view          1 read, the join happens inside the store
"""

from fedtx import (
    AdapterCapabilities,
    AtomicityUnit,
    DecoupleConfig,
    FullKey,
    MemStoreConfig,
    StorageRegistry,
    TransactionManager,
    build_memstore,
)
from fedtx.transaction import CoordinatorLocation


def fresh_env(consistent: bool, view: bool):
    registry = StorageRegistry()
    store = build_memstore(
        "db",
        MemStoreConfig(
            AdapterCapabilities(
                AtomicityUnit.STORAGE, consistent_readable=consistent, view_joinable=view
            )
        ),
    )
    if view:
        store.register_join_view("acct.balances_with_meta", "acct", "balances", "balances_meta")
    registry.register(store)
    coord = build_memstore("coord", MemStoreConfig(AdapterCapabilities(AtomicityUnit.STORAGE)))
    registry.register(coord)
    manager = TransactionManager(
        registry, CoordinatorLocation("coord"), decoupling=DecoupleConfig()
    )
    return manager, store


def key(pk):
    return FullKey("db", "acct", "balances", (pk,))


def read_eight(manager, store):
    tx = manager.begin()
    for i in range(8):
        tx.get(key(i))
    tx.commit()
    return store.counters()


print(__doc__)

for label, consistent, view in (
    ("split reads     ", False, False),
    ("consistent read ", True, False),
    ("join view       ", True, True),
):
    manager, store = fresh_env(consistent, view)
    seed = manager.begin()
    for i in range(8):
        seed.put(key(i), {"balance": 100 * i})
    seed.commit()
    store.reset_counters()

    counters = read_eight(manager, store)
    print(
        f"{label}: {counters.reads} reads, {counters.db_transactions} store transactions, "
        f"{counters.view_reads} view reads (8 application reads)"
    )

manager, store = fresh_env(False, False)
tx = manager.begin()
for i in range(4):
    tx.put(key(i), {"balance": i})
tx.commit()
counters = store.counters()
print(
    f"\nwrites stay batched: {counters.written_records} physical rows "
    f"(application + metadata) in {counters.atomic_write_batches} batch"
)
