"""Shared builders for registry/manager test environments."""

from __future__ import annotations

import itertools
import random

import pytest

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


# Every settled record carries exactly these; a before-image adds its own.
SEVEN_METADATA_COLUMNS = {
    "_tx_id",
    "_tx_version",
    "_tx_state",
    "_tx_prepared_at",
    "_tx_committed_at",
    "_tx_deleted",
    "_tx_before",
}


def make_caps(unit=AtomicityUnit.STORAGE, consistent=False, view=False):
    return AdapterCapabilities(unit, consistent_readable=consistent, view_joinable=view)


class Env:
    """A registry of named memstores, a coordinator, and one manager."""

    def __init__(self, manager, registry, adapters, coordinator):
        self.manager = manager
        self.registry = registry
        self.adapters = adapters
        self.coordinator = coordinator

    def adapter(self, name):
        return self.adapters[name]

    def counters(self, name):
        return self.adapters[name].counters()

    def dump_all(self):
        records = []
        for adapter in self.adapters.values():
            records.extend(adapter.dump())
        return records


def build_env(
    storages=None,
    decoupled=False,
    register_views=False,
    pushdown=True,
    one_phase=True,
    history=None,
    tx_ids=None,
    async_commit=False,
):
    """storages: mapping name -> AdapterCapabilities (default one STORAGE-unit store)."""
    storages = storages or {"s1": make_caps()}
    registry = StorageRegistry()
    adapters = {}
    for name, caps in storages.items():
        adapter = build_memstore(name, MemStoreConfig(caps))
        if register_views:
            adapter.register_join_view("app.t_with_meta", "app", "t", "t_meta")
        registry.register(adapter)
        adapters[name] = adapter
    coord = build_memstore("coord", MemStoreConfig(make_caps()))
    registry.register(coord)
    adapters["coord"] = coord
    factory = None
    if tx_ids is not None:
        counter = itertools.count()
        factory = lambda: f"{tx_ids}-{next(counter)}"  # noqa: E731
    manager = TransactionManager(
        registry,
        CoordinatorLocation("coord"),
        decoupling=DecoupleConfig() if decoupled else None,
        pushdown_enabled=pushdown,
        one_phase_enabled=one_phase,
        async_commit_records=async_commit,
        tx_id_factory=factory,
        history=history,
    )
    return Env(manager, registry, adapters, coord)


def k(storage="s1", pk=1, ck=None, table="t", namespace="app"):
    return FullKey(storage, namespace, table, (pk,), (ck,) if ck is not None else ())


# The paper's four metadata modes: (decoupled, consistent_readable, view_joinable).
METADATA_MODES = {
    "colocated": (False, False, False),
    "split_reads": (True, False, False),
    "snapshot": (True, True, False),
    "view": (True, True, True),
}


def mode_env_args(mode, storages=("s1",)):
    """The build_env arguments that put STORAGE-unit ``storages`` in ``mode``."""
    decoupled, consistent, view = METADATA_MODES[mode]
    caps = make_caps(consistent=consistent, view=view)
    return dict(storages=dict.fromkeys(storages, caps), decoupled=decoupled, register_views=view)


def run_workload(env, tx_count, ops_per_tx=8, record_count=1_000, read_only=False, seed=7):
    """Load ``record_count`` rows per storage, then run ``tx_count`` transactions.

    Each transaction gets ``ops_per_tx`` distinct keys, split evenly across the
    application storages (the first ones take the remainder), and reads each
    one, rewriting it too unless ``read_only``. Nothing retries: an abort
    propagates. Returns each store's counters for the transactions alone.
    """
    names = [name for name in env.adapters if name != "coord"]
    rng = random.Random(seed)
    for name in names:
        for start in range(0, record_count, 100):
            tx = env.manager.begin()
            for pk in range(start, min(start + 100, record_count)):
                tx.put(k(name, pk), {"payload": rng.randbytes(32)})
            tx.commit()
    env.manager.drain_commit_records()
    for adapter in env.adapters.values():
        adapter.reset_counters()
    base, extra = divmod(ops_per_tx, len(names))
    for tx_index in range(tx_count):
        rng = random.Random(f"{seed}:{tx_index}")
        tx = env.manager.begin()
        for i, name in enumerate(names):
            for pk in rng.sample(range(record_count), base + (i < extra)):
                tx.get(k(name, pk))
                if not read_only:
                    tx.put(k(name, pk), {"payload": rng.randbytes(32)})
        tx.commit()
    env.manager.drain_commit_records()
    return {name: adapter.counters() for name, adapter in env.adapters.items()}


@pytest.fixture
def env():
    return build_env()
