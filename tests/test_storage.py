"""Registry routing, capability declarations, and write conditions."""

import copy
import pickle
from collections import Counter
from types import MappingProxyType

import pytest

from fedtx import (
    AdapterCapabilities,
    AtomicityUnit,
    CapabilityUnsupported,
    ConditionalWrite,
    ConditionKind,
    DecoupleConfig,
    IF_NOT_EXISTS,
    MemStore,
    MemStoreConfig,
    StorageRegistry,
    TransactionManager,
    TxStatus,
    UNCONDITIONAL,
    UnknownStorage,
    WriteCondition,
    WriteKind,
    build_memstore,
    if_columns_equal,
    if_tx_id_equals,
)
from fedtx.decoupling import ReadPath, read_dispatch
from fedtx.model import TxState
from fedtx.transaction import CoordinatorLocation
from conftest import (
    MinimalAdapter,
    TransactionMetadata,
    build_env,
    decode_metadata,
    k,
    make_caps,
    reference_metadata_columns,
)


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
        with pytest.raises(UnknownStorage):
            registry.capabilities(k("s9"))

    def test_a_snapshot_read_of_no_keys_asks_no_store(self):
        registry = StorageRegistry()
        registry.register(MinimalAdapter(caps=make_caps(consistent=True)))
        assert registry.snapshot_read([]) == []

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
        assert registry.capabilities(k("s1", pk=1)).atomicity_unit is AtomicityUnit.PARTITION
        assert registry.capabilities(k("s1", pk=2)).atomicity_unit is AtomicityUnit.PARTITION


class TestAdapterDefaults:
    """What an adapter that implements the abstract methods alone answers to the rest."""

    def test_optional_reads_are_refused(self):
        adapter = MinimalAdapter()
        with pytest.raises(CapabilityUnsupported, match="'bare' is not consistent-readable"):
            adapter.snapshot_read([k("bare")])
        with pytest.raises(CapabilityUnsupported, match="'bare' is not view-joinable"):
            adapter.view_read("v", k("bare"))

    def test_no_table_has_a_view(self):
        assert MinimalAdapter().view_for(k("bare")) is None

    def test_no_row_can_be_listed(self):
        with pytest.raises(CapabilityUnsupported, match="'bare' cannot list its rows"):
            MinimalAdapter().dump()


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
        meta = TransactionMetadata("t0", 1, TxState.COMMITTED)
        cfg = DecoupleConfig()
        env.adapter("s1").atomic_write([ConditionalWrite(k(), {"v": 7})])
        env.adapter("s1").atomic_write(
            [ConditionalWrite(cfg.metadata_key(k()), reference_metadata_columns(meta))]
        )
        result = read_dispatch(env.registry, cfg, k())
        assert result.path is ReadPath.SPLIT_READS
        assert (result.app_columns, decode_metadata(result.meta)) == ({"v": 7}, meta)

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

    @staticmethod
    def counted_view_manager():
        """A manager over a view-joinable store that counts its route queries."""

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
        store.register_join_view("app.u_with_meta", "app", "u", "u_meta")
        registry = StorageRegistry()
        registry.register(store)
        registry.register(build_memstore("coord", MemStoreConfig(make_caps())))
        manager = TransactionManager(
            registry, CoordinatorLocation("coord"), decoupling=DecoupleConfig()
        )
        return store, manager

    def test_view_get_asks_the_store_once(self):
        store, manager = self.counted_view_manager()
        keys = [k(pk=pk) for pk in range(3)]
        tx = manager.begin()
        for key in keys:
            assert tx.get(key) is None
        assert store.calls == {"view_for": 1, "capabilities": 1}  # capabilities: at register
        for key in keys:
            write_committed(manager, key)
        store.calls.clear()
        store.reset_counters()
        tx = manager.begin()
        for key in keys:
            assert tx.get(key) == {"v": 7}
        assert store.calls == {}  # later gets ask the store nothing
        assert store.counters().view_reads == 3

    def test_a_second_table_resolves_its_own_route(self):
        store, manager = self.counted_view_manager()
        tx = manager.begin()
        tx.get(k())
        store.calls.clear()
        assert tx.get(k(table="u")) is None
        assert tx.read_set[k(table="u")].path is ReadPath.VIEW
        assert store.calls == {"view_for": 1}  # the capabilities were kept at register
        tx.get(k(table="u", pk=2))
        tx.get(k(pk=2))
        assert store.calls == {"view_for": 1}

    @pytest.mark.parametrize("tables", [("t",), ("t", "u")], ids=["one-table", "two-tables"])
    def test_a_commit_asks_the_store_for_nothing_but_its_batch(self, tables):
        store, manager = self.counted_view_manager()
        keys = [k(pk=pk, table=table) for table in tables for pk in range(8 // len(tables))]
        tx = manager.begin()
        for key in keys:
            assert tx.get(key) is None  # resolves each table's read route
            tx.put(key, {"v": 1})
        store.calls.clear()
        tx.commit()
        assert tx.status is TxStatus.COMMITTED
        assert store.counters().atomic_write_batches == 1  # one-phase: one group, one batch
        # grouping and expand_writes read the capabilities the registry kept
        assert store.calls == {}
        tx = manager.begin()
        assert [tx.get(key) for key in keys] == [{"v": 1}] * 8

    def test_a_second_config_resolves_its_own_route(self):
        store, manager = self.counted_view_manager()
        manager.begin().get(k())
        # A second config over the same registry that splits only namespace
        # "other": table t is colocated for it, whatever the first config found.
        other = TransactionManager(
            manager.registry,
            manager.coordinator,
            decoupling=DecoupleConfig(namespaces=frozenset({"other"})),
        )
        store.calls.clear()
        tx = other.begin()
        assert tx.get(k()) is None
        assert tx.read_set[k()].path is ReadPath.COLOCATED
        assert store.calls == {}  # a colocated route asks for no view
        tx = manager.begin()  # the first config's route is still kept beside the other's
        assert tx.get(k()) is None
        assert tx.read_set[k()].path is ReadPath.VIEW
        assert store.calls == {}


class TestDeclarations:
    def test_view_joinable_implies_consistent_readable(self):
        with pytest.raises(ValueError):
            AdapterCapabilities(AtomicityUnit.STORAGE, consistent_readable=False, view_joinable=True)

    def test_tx_id_condition_requires_id(self):
        with pytest.raises(ValueError):
            WriteCondition(ConditionKind.IF_TX_ID_EQUALS, None)
        with pytest.raises(ValueError):
            WriteCondition(ConditionKind.IF_TX_ID_EQUALS, "")
        with pytest.raises(ValueError):
            if_tx_id_equals("")  # the commit path's own constructor refuses it too

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


def round_trips(value):
    """``value`` copied, deep-copied and pickled under every protocol."""
    copies = [copy.copy(value), copy.deepcopy(value)]
    pickles = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    return copies + pickles


class TestWriteTuples:
    """A condition and a write are their tuples, built and rebuilt through the checks."""

    def test_fields_are_the_tuple(self):
        condition = if_tx_id_equals("t1")
        write = ConditionalWrite(k(), {"v": 1}, condition)
        assert condition == (ConditionKind.IF_TX_ID_EQUALS, "t1", None)
        assert condition == WriteCondition(ConditionKind.IF_TX_ID_EQUALS, "t1")
        assert type(condition) is WriteCondition
        assert (condition.kind, condition.expected_tx_id, condition.expected_columns) == condition
        assert tuple(write) == (k(), {"v": 1}, condition, WriteKind.PUT)
        assert (write.key, write.columns, write.condition, write.kind) == write
        assert UNCONDITIONAL == (ConditionKind.UNCONDITIONAL, None, None)
        for value in (condition, write):
            assert not hasattr(value, "__dict__")

    def test_repr_names_every_field(self):
        assert repr(if_tx_id_equals("t1")) == (
            "WriteCondition(kind=<ConditionKind.IF_TX_ID_EQUALS: 'IF_TX_ID_EQUALS'>, "
            "expected_tx_id='t1', expected_columns=None)"
        )
        write = ConditionalWrite(k(), {"v": 1}, IF_NOT_EXISTS, WriteKind.DELETE)
        assert repr(write) == (
            f"ConditionalWrite(key={k()!r}, columns={MappingProxyType({'v': 1})!r}, "
            f"condition={IF_NOT_EXISTS!r}, kind=<WriteKind.DELETE: 'DELETE'>)"
        )

    def test_no_public_path_skips_the_checks(self):
        for cls, fields in [
            (WriteCondition, {"kind", "expected_tx_id", "expected_columns"}),
            (ConditionalWrite, {"key", "columns", "condition", "kind"}),
        ]:
            public = {name for name in dir(cls) if not name.startswith("_")}
            # tuple's own count and index, and no namedtuple _make or _replace
            assert public == fields | {"count", "index"}
            assert not hasattr(cls, "_make") and not hasattr(cls, "_replace")

    def test_the_constructor_copies_the_columns_and_owning_takes_them_over(self):
        columns = {"v": 1}
        copied = ConditionalWrite(k(), columns)
        owned = ConditionalWrite._owning(k(), columns)
        columns["v"] = 2
        assert copied.columns == {"v": 1} and owned.columns == {"v": 2}
        assert type(owned) is ConditionalWrite and owned.condition is UNCONDITIONAL
        for write in (copied, owned):
            with pytest.raises(TypeError):
                write.columns["v"] = 3

    @pytest.mark.parametrize(
        "condition",
        [UNCONDITIONAL, IF_NOT_EXISTS, if_tx_id_equals("t1"), if_columns_equal({"v": 1}),
         if_columns_equal(MappingProxyType({"v": 1}))],
        ids=["unconditional", "if-not-exists", "tx-id", "columns", "read-only-columns"],
    )
    def test_copies_and_pickles_are_rebuilt_through_the_checks(self, monkeypatch, condition):
        built = {WriteCondition: [], ConditionalWrite: []}
        for cls in built:

            def counting(cls_, *fields, _new=cls.__new__, _cls=cls):
                built[_cls].append(fields)
                return _new(cls_, *fields)

            monkeypatch.setattr(cls, "__new__", counting)
        write = ConditionalWrite._owning(k(), {"v": 1}, condition)
        copies = round_trips(write)
        assert copies == [write] * len(copies)
        assert {(type(c), type(c.condition)) for c in copies} == {(ConditionalWrite, WriteCondition)}
        assert built[ConditionalWrite] == [(k(), {"v": 1}, condition, WriteKind.PUT)] * len(copies)
        # A shallow copy shares the condition; every other copy rebuilds it too.
        assert built[WriteCondition] == [tuple(condition)] * (len(copies) - 1)
        for c in copies:
            assert type(c.columns) is MappingProxyType
            with pytest.raises(TypeError):
                c.columns["v"] = 2

    def test_an_unpickled_write_holds_a_read_only_copy(self):
        columns = {"v": 1}
        forged = tuple.__new__(ConditionalWrite, (k(), columns, UNCONDITIONAL, WriteKind.PUT))
        for c in round_trips(forged):
            assert type(c.columns) is MappingProxyType and c.columns == {"v": 1}
            columns["v"] += 1  # the copy does not follow the mapping it came from
            assert c.columns == {"v": 1}

    def test_a_forged_condition_does_not_survive_a_round_trip(self):
        forged = [
            tuple.__new__(WriteCondition, (ConditionKind.IF_TX_ID_EQUALS, "", None)),
            tuple.__new__(WriteCondition, (ConditionKind.IF_NOT_EXISTS, "t1", None)),
            tuple.__new__(WriteCondition, (ConditionKind.IF_COLUMNS_EQUAL, None, None)),
        ]
        for condition in forged:
            for p in range(pickle.HIGHEST_PROTOCOL + 1):
                with pytest.raises(ValueError):
                    pickle.loads(pickle.dumps(condition, p))
            with pytest.raises(ValueError):
                copy.copy(condition)
            write = ConditionalWrite._owning(k(), {}, condition)
            with pytest.raises(ValueError):
                copy.deepcopy(write)
