"""Registry routing, capability declarations, and write conditions."""

import pytest

from fedtx import (
    AdapterCapabilities,
    AtomicityUnit,
    ConditionalWrite,
    ConditionKind,
    DecoupleConfig,
    MemStoreConfig,
    StorageRegistry,
    UnknownStorage,
    WriteCondition,
    build_memstore,
)
from fedtx.decoupling import ReadPath, read_dispatch
from fedtx.model import TransactionMetadata, TxState
from fedtx.records import metadata_columns
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
        registry = registry_with("s1", consistent=False)
        assert registry.consistent_readable(k("s1")) is False

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
        assert env.registry.consistent_readable(k("s1")) is True
        result = read_dispatch(env.registry, None, k())
        assert result.path is ReadPath.COLOCATED


class TestViewJoinable:
    def test_declared_with_view(self):
        registry = registry_with("s1", consistent=True, view=True)
        registry.get_database("s1").register_join_view("v", "app", "t", "t_meta")
        assert registry.view_joinable(k("s1")) is True

    def test_not_declared(self):
        registry = registry_with("s1")
        assert registry.view_joinable(k("s1")) is False

    def test_declared_without_view(self):
        registry = registry_with("s1", consistent=True, view=True)
        assert registry.view_joinable(k("s1")) is False


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

    def test_empty_batch_rejected(self):
        registry = registry_with("s1")
        with pytest.raises(ValueError):
            registry.atomic_write([])
