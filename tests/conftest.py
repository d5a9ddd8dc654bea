"""Shared builders for registry/manager test environments."""

from __future__ import annotations

import itertools

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


@pytest.fixture
def env():
    return build_env()
