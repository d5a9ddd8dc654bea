"""Registry routing, capability declarations, and write conditions."""

from collections import Counter

import pytest

from fedtx import (
    AdapterCapabilities,
    AtomicityUnit,
    ConditionalWrite,
    ConditionKind,
    DecoupleConfig,
    MemStore,
    MemStoreConfig,
    StorageRegistry,
    TransactionManager,
    UnknownStorage,
    WriteCondition,
    build_memstore,
    if_columns_equal,
)
from fedtx.decoupling import ReadPath, read_dispatch
from fedtx.model import TransactionMetadata, TxState
from fedtx.records import metadata_columns
from fedtx.transaction import CoordinatorLocation
from conftest import build_env, k, make_caps


def write_committed(manager, key):
    tx = manager.begin()
    tx.put(key, {"v": 7})
    tx.commit()


def registry_with(name="s1", **caps_kwargs):
    registry = StorageRegistry()
    registry.register(build_memstore(name, MemStoreConfig(make_caps(**caps_kwargs))))
    return registry


class TestRegistry:
    def test_routes_to_registered_adapter(self):
        registry = registry_with("s1")
        assert registry.get_database(k("s1")).name == "s1"

    def test_unknown_storage(self):
        registry = registry_with("s1")
        with pytest.raises(UnknownStorage):
            registry.get_database(k("s9"))

    def test_routing_ignores_namespace(self):
        registry = registry_with("s1")
        a = registry.get_database(k("s1", namespace="n1"))
        b = registry.get_database(k("s1", namespace="n2"))
        assert a is b

    def test_duplicate_registration_rejected(self):
        registry = registry_with("s1")
        with pytest.raises(ValueError):
            registry.register(build_memstore("s1", MemStoreConfig(make_caps())))

    def test_atomicity_unit_is_stable_per_adapter(self):
        registry = registry_with("s1", unit=AtomicityUnit.PARTITION)
        assert registry.get_atomicity_unit(k("s1", pk=1)) is AtomicityUnit.PARTITION
        assert registry.get_atomicity_unit(k("s1", pk=2)) is AtomicityUnit.PARTITION


class TestConsistentReadable:
    """The capability, and the read route it gives a key with split metadata."""

    def test_declared_and_colocated(self):
        env = build_env({"s1": make_caps(consistent=True)}, decoupled=True)
        write_committed(env.manager, k())
        result = read_dispatch(env.registry, env.manager.decoupling, k())
        assert result.path is ReadPath.SNAPSHOT

    def test_not_declared(self):
        env = build_env({"s1": make_caps(consistent=False)}, decoupled=True)
        write_committed(env.manager, k())
        result = read_dispatch(env.registry, env.manager.decoupling, k())
        assert result.path is ReadPath.SPLIT_READS

    def test_metadata_outside_scope(self):
        # At PARTITION scope the metadata table is a different scope: no
        # snapshot can cover both rows, so they are read separately.
        env = build_env({"s1": make_caps(AtomicityUnit.PARTITION, consistent=True)})
        meta = TransactionMetadata("t0", 1, TxState.COMMITTED, prepared_at=1, committed_at=2)
        cfg = DecoupleConfig()
        env.adapter("s1").atomic_write([ConditionalWrite(k(), {"v": 7})])
        env.adapter("s1").atomic_write(
            [ConditionalWrite(cfg.metadata_key(k()), metadata_columns(meta))]
        )
        result = read_dispatch(env.registry, cfg, k())
        assert result.path is ReadPath.SPLIT_READS
        assert (result.app_columns, result.meta) == ({"v": 7}, meta)

    def test_no_locator_means_colocated(self):
        # Metadata kept in the record: the capability alone decides.
        env = build_env({"s1": make_caps(consistent=True)})
        write_committed(env.manager, k())
        result = read_dispatch(env.registry, None, k())
        assert result.path is ReadPath.COLOCATED


class TestViewJoinable:
    """The view route needs the declared capability and a registered view."""

    def view_get(self, view=True, register_views=True):
        env = build_env(
            {"s1": make_caps(consistent=True, view=view)},
            decoupled=True,
            register_views=register_views,
        )
        write_committed(env.manager, k())
        return read_dispatch(env.registry, env.manager.decoupling, k())

    def test_declared_with_view(self):
        assert self.view_get().path is ReadPath.VIEW

    def test_not_declared(self):
        assert self.view_get(view=False).path is ReadPath.SNAPSHOT

    def test_declared_without_view(self):
        assert self.view_get(register_views=False).path is ReadPath.SNAPSHOT

    def test_view_get_asks_the_store_once(self):
        class CallCounter(MemStore):
            def __init__(self, name, config):
                super().__init__(name, config)
                self.calls = Counter()

            @property
            def capabilities(self):
                self.calls["capabilities"] += 1
                return super().capabilities

            def view_for(self, key):
                self.calls["view_for"] += 1
                return super().view_for(key)

        store = CallCounter("s1", MemStoreConfig(make_caps(consistent=True, view=True)))
        store.register_join_view("app.t_with_meta", "app", "t", "t_meta")
        registry = StorageRegistry()
        registry.register(store)
        registry.register(build_memstore("coord", MemStoreConfig(make_caps())))
        manager = TransactionManager(
            registry, CoordinatorLocation("coord"), decoupling=DecoupleConfig()
        )
        keys = [k(pk=pk) for pk in range(3)]
        for key in keys:
            write_committed(manager, key)
        store.calls.clear()
        store.reset_counters()
        tx = manager.begin()
        for key in keys:
            assert tx.get(key) == {"v": 7}
        assert store.calls == {"view_for": 3, "capabilities": 3}
        assert store.counters().view_reads == 3


class TestDeclarations:
    def test_view_joinable_implies_consistent_readable(self):
        with pytest.raises(ValueError):
            AdapterCapabilities(AtomicityUnit.STORAGE, consistent_readable=False, view_joinable=True)

    def test_tx_id_condition_requires_id(self):
        with pytest.raises(ValueError):
            WriteCondition(ConditionKind.IF_TX_ID_EQUALS, None)
        with pytest.raises(ValueError):
            WriteCondition(ConditionKind.IF_TX_ID_EQUALS, "")

    def test_other_conditions_reject_id(self):
        with pytest.raises(ValueError):
            WriteCondition(ConditionKind.IF_NOT_EXISTS, "t1")

    def test_columns_condition_requires_columns(self):
        with pytest.raises(ValueError):
            WriteCondition(ConditionKind.IF_COLUMNS_EQUAL)
        with pytest.raises(ValueError):
            WriteCondition(ConditionKind.IF_NOT_EXISTS, expected_columns={})
        with pytest.raises(ValueError):
            WriteCondition(ConditionKind.IF_COLUMNS_EQUAL, "t1", {})
        assert if_columns_equal({"v": 1}).expected_columns == {"v": 1}

    def test_empty_batch_rejected(self):
        registry = registry_with("s1")
        with pytest.raises(ValueError):
            registry.atomic_write([])
