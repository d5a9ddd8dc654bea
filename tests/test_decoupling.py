"""Splitting records across tables and the three read routes."""

import pytest

from fedtx import (
    IF_NOT_EXISTS,
    AtomicityScopeViolation,
    AtomicityUnit,
    ConditionalWrite,
    DecoupleConfig,
    JoinIntegrityError,
    TxState,
    TxStatus,
    UNCONDITIONAL,
    WriteKind,
    if_columns_equal,
    if_tx_id_equals,
)
from fedtx.decoupling import (
    ReadPath,
    SplitWrite,
    expand_writes,
    logical_key,
    metadata_in_scope,
    read_dispatch,
    read_snapshot,
    read_split,
)
from fedtx.model import scope_of
from conftest import (
    METADATA_MODES,
    TransactionMetadata,
    build_env,
    decode_metadata,
    k,
    make_caps,
    mode_env_args,
    reference_metadata_columns,
    split_columns,
    stored_row,
)

CFG = DecoupleConfig()
MODE_PATHS = {
    "colocated": ReadPath.COLOCATED,
    "split_reads": ReadPath.SPLIT_READS,
    "snapshot": ReadPath.SNAPSHOT,
    "view": ReadPath.VIEW,
}


def committed_meta(tx_id="t0", version=1):
    return TransactionMetadata(
        tx_id, version, TxState.COMMITTED, prepared_at=1, committed_at=2
    )


def split_write(columns, condition=UNCONDITIONAL, key=None):
    """A split record's write of the colocated image ``columns``: its two halves, unexpanded."""
    app, meta = split_columns(columns)
    return SplitWrite(key or k(), meta, condition, WriteKind.PUT, app)


def write(env, writes):
    """Apply one batch of record writes the way the commit pipeline does."""
    return env.registry.atomic_write(expand_writes(env.manager.decoupling, writes))


class TestLocator:
    def test_metadata_key_suffixes_table(self):
        meta_key = CFG.metadata_key(k())
        assert meta_key.table == "t_meta"
        assert (meta_key.partition_key, meta_key.clustering_key) == (
            k().partition_key,
            k().clustering_key,
        )

    def test_locator_is_injective(self):
        with pytest.raises(ValueError):
            CFG.metadata_key(k(table="t_meta"))

    def test_inverse(self):
        assert logical_key(CFG.metadata_key(k())) == k()

    def test_namespace_filter(self):
        cfg = DecoupleConfig(namespaces=frozenset({"other"}))
        assert not cfg.applies_to(k())

    @pytest.mark.parametrize("namespace", ["app", "other"])
    def test_a_meta_table_holds_metadata_in_every_namespace(self, namespace):
        meta_key = k(namespace=namespace, table="t_meta")
        assert DecoupleConfig.holds_metadata(meta_key)
        assert not DecoupleConfig.holds_metadata(k(namespace=namespace))
        assert logical_key(meta_key) == k(namespace=namespace)
        assert logical_key(k(namespace=namespace)) == k(namespace=namespace)

    @pytest.mark.parametrize("ck", [None, 3], ids=["no-ck", "ck"])
    @pytest.mark.parametrize("unit", list(AtomicityUnit), ids=lambda unit: unit.name.lower())
    def test_metadata_in_scope_agrees_with_the_metadata_key(self, ck, unit):
        key = k(ck=ck)
        expected = scope_of(CFG.metadata_key(key), unit) == scope_of(key, unit)
        assert metadata_in_scope(unit) is expected
        # the sibling table shares a scope only where the scope stops above the table
        assert expected is (unit >= AtomicityUnit.NAMESPACE)


class TestDecouple:
    def test_column_partition(self):
        env = build_env(decoupled=True)
        logical = split_write(stored_row({"v": 7}, committed_meta()))
        app, meta = expand_writes(env.manager.decoupling, [logical])
        assert (app.key, dict(app.columns)) == (k(), {"v": 7})
        assert meta.key.table == "t_meta"
        assert dict(meta.columns) == reference_metadata_columns(committed_meta())

    def test_round_trip(self):
        env = build_env(decoupled=True)
        columns = stored_row({"v": 7, "w": b"x"}, committed_meta())
        assert write(env, [split_write(columns)]) is None
        rejoined = dict(env.registry.read(k()))
        rejoined.update(env.registry.read(CFG.metadata_key(k())))
        assert rejoined == dict(columns)

    def test_empty(self):
        env = build_env(decoupled=True)
        assert expand_writes(env.manager.decoupling, []) == []


class TestExpandWrites:
    def test_one_logical_write_becomes_two_physical(self):
        env = build_env(decoupled=True)
        logical = split_write(stored_row({"v": 1}, committed_meta()), if_tx_id_equals("t9"))
        physical = expand_writes(env.manager.decoupling, [logical])
        assert len(physical) == 2
        app, meta = physical
        assert app.key.table == "t" and app.condition.kind.name == "UNCONDITIONAL"
        assert meta.key.table == "t_meta" and meta.condition.expected_tx_id == "t9"

    def test_a_split_read_conditions_the_application_row_on_its_columns(self):
        env = seeded_env()
        observed = {k(): read_split(env.registry, env.manager.decoupling, k())}
        logical = split_write(stored_row({"v": 8}, committed_meta("t1", 2)), if_tx_id_equals("t0"))
        app, meta = expand_writes(env.manager.decoupling, [logical], observed)
        assert app.condition == if_columns_equal({"v": 7})
        assert meta.condition == if_tx_id_equals("t0")

    @pytest.mark.parametrize("consistent, view", [(True, False), (True, True)], ids=["snapshot", "view"])
    def test_a_consistent_read_leaves_the_application_row_unconditional(self, consistent, view):
        env = seeded_env(consistent=consistent, view=view)
        observed = {k(): read_dispatch(env.registry, env.manager.decoupling, k())}
        logical = split_write(stored_row({"v": 8}, committed_meta("t1", 2)))
        app, _ = expand_writes(env.manager.decoupling, [logical], observed)
        assert app.condition == UNCONDITIONAL

    @pytest.mark.parametrize(
        "consistent, view",
        [(False, False), (True, False), (True, True)],
        ids=["split_reads", "snapshot", "view"],
    )
    def test_an_absent_read_conditions_the_application_row_on_absence(self, consistent, view):
        """An insert over nothing may not overwrite an application row left without its metadata."""
        env = seeded_env(consistent=consistent, view=view)
        observed = {k(pk=2): read_dispatch(env.registry, env.manager.decoupling, k(pk=2))}
        logical = split_write(stored_row({"v": 8}, committed_meta()), IF_NOT_EXISTS, key=k(pk=2))
        app, meta = expand_writes(env.manager.decoupling, [logical], observed)
        assert (app.condition, meta.condition) == (IF_NOT_EXISTS, IF_NOT_EXISTS)
        env.adapter("s1").atomic_write([ConditionalWrite(k(pk=2), {"v": 1})])  # an orphan row
        assert env.registry.atomic_write([app, meta]) == 0
        assert env.registry.read(k(pk=2)) == {"v": 1}

    def test_a_torn_split_read_fails_its_batch(self):
        env = seeded_env()
        observed = {k(): read_split(env.registry, env.manager.decoupling, k())}
        # another value under the same metadata: what a torn pair looks like
        env.adapter("s1").atomic_write([ConditionalWrite(k(), {"v": 9})])
        logical = split_write(stored_row({"v": 8}, committed_meta("t1", 2)), if_tx_id_equals("t0"))
        physical = expand_writes(env.manager.decoupling, [logical], observed)
        assert env.registry.atomic_write(physical) == 0
        assert env.registry.read(k()) == {"v": 9}
        assert env.registry.read(CFG.metadata_key(k()))["_tx_id"] == "t0"

    def test_single_batch_of_two_rows(self):
        env = build_env(decoupled=True)
        logical = split_write(stored_row({"v": 1}, committed_meta()))
        assert write(env, [logical]) is None
        counters = env.counters("s1")
        assert counters.atomic_write_batches == 1
        assert counters.written_records == 2

    def test_four_logical_writes_one_batch_of_eight(self):
        env = build_env(decoupled=True)
        batch = [
            split_write(stored_row({"v": i}, committed_meta()), key=k(pk=i))
            for i in range(4)
        ]
        assert write(env, batch) is None
        counters = env.counters("s1")
        assert (counters.atomic_write_batches, counters.written_records) == (1, 8)

    def test_failed_metadata_condition_suppresses_application_write(self):
        env = build_env(decoupled=True)
        first = split_write(stored_row({"v": 1}, committed_meta("t0")))
        assert write(env, [first]) is None
        stale = split_write(stored_row({"v": 2}, committed_meta("t1", 2)), if_tx_id_equals("wrong"))
        failed = write(env, [stale])
        assert failed is not None
        assert env.registry.read(k()) == {"v": 1}

    def test_colocation_violation(self):
        """A split write the store cannot batch spans two scopes, and the store refuses it."""
        env = build_env({"s1": make_caps(AtomicityUnit.TABLE)}, decoupled=True)
        logical = split_write(stored_row({"v": 1}, committed_meta()))
        with pytest.raises(AtomicityScopeViolation):
            write(env, [logical])
        assert env.dump_all() == []

    def test_colocated_records_pass_through_in_place(self):
        """A colocated record's write is its row already, and keeps its place among the app rows."""
        env = build_env(decoupled=True)
        colocated = ConditionalWrite(k(pk=2), {"v": 2})
        split = split_write(stored_row({"v": 1}, committed_meta()))
        physical = expand_writes(env.manager.decoupling, [split, colocated])
        assert [write.key for write in physical] == [k(), k(pk=2), CFG.metadata_key(k())]
        assert physical[1] is colocated
        batch = [colocated]
        assert expand_writes(None, batch) is batch  # without a config nothing splits

    @pytest.mark.parametrize("count", [1, 2], ids=["one-key", "two-keys"])
    @pytest.mark.parametrize(
        "unit",
        [AtomicityUnit.RECORD, AtomicityUnit.PARTITION, AtomicityUnit.TABLE],
        ids=lambda unit: unit.name,
    )
    def test_a_split_write_the_store_cannot_batch_is_refused_before_any_store(self, unit, count):
        env = build_env({"s1": make_caps(unit)}, decoupled=True)
        tx = env.manager.begin()
        for pk in range(count):
            with pytest.raises(AtomicityScopeViolation):
                tx.put(k(pk=pk), {"v": pk})
            with pytest.raises(AtomicityScopeViolation):
                tx.delete(k(pk=pk))
        assert tx.write_set == {}
        tx.abort()
        assert tx.status is TxStatus.ABORTED
        # no coordinator row, no stored row, so nothing PREPARED
        assert env.dump_all() == []
        assert all(env.counters(name).atomic_write_batches == 0 for name in env.adapters)


def seeded_env(consistent=False, view=False):
    env = build_env(
        {"s1": make_caps(consistent=consistent, view=view)},
        decoupled=True,
        register_views=view,
    )
    logical = split_write(stored_row({"v": 7}, committed_meta()))
    write(env, [logical])
    return env


class TestReadRoutes:
    def test_dispatch_prefers_view(self):
        env = seeded_env(consistent=True, view=True)
        result = read_dispatch(env.registry, env.manager.decoupling, k())
        assert result.path is ReadPath.VIEW

    def test_dispatch_uses_snapshot_without_view(self):
        env = seeded_env(consistent=True)
        result = read_dispatch(env.registry, env.manager.decoupling, k())
        assert result.path is ReadPath.SNAPSHOT

    def test_dispatch_falls_back_to_split_reads(self):
        env = seeded_env()
        result = read_dispatch(env.registry, env.manager.decoupling, k())
        assert result.path is ReadPath.SPLIT_READS

    def test_dispatch_plain_when_disabled(self):
        env = build_env()
        tx = env.manager.begin()
        tx.put(k(), {"v": 7})
        tx.commit()
        result = read_dispatch(env.registry, None, k())
        assert result.path is ReadPath.COLOCATED
        assert result.app_columns == {"v": 7}

    def test_split_reads_join(self):
        env = seeded_env()
        result = read_split(env.registry, env.manager.decoupling, k())
        assert result.app_columns == {"v": 7}
        assert decode_metadata(result.meta) == committed_meta()

    def test_both_absent(self):
        env = seeded_env()
        result = read_split(env.registry, env.manager.decoupling, k(pk=99))
        assert result.app_columns is None and result.meta is None

    def test_one_sided_pair_is_an_error(self):
        env = seeded_env()
        env.adapter("s1").atomic_write(
            [ConditionalWrite(k(pk=2), {"v": 1})]
        )  # simulated external interference: application row only
        with pytest.raises(JoinIntegrityError):
            read_split(env.registry, env.manager.decoupling, k(pk=2))

    def test_routes_agree_on_quiescent_store(self):
        env = seeded_env(consistent=True, view=True)
        cfg = env.manager.decoupling
        split = read_split(env.registry, cfg, k())
        [snapshot] = read_snapshot(env.registry, cfg, [k()])
        view = read_dispatch(env.registry, cfg, k())
        assert view.path is ReadPath.VIEW
        assert split.app_columns == snapshot.app_columns == view.app_columns
        # A view's metadata row is the whole joined row, a split route's only the _tx_ half.
        metas = [decode_metadata(result.meta) for result in (split, snapshot, view)]
        assert metas[0] == metas[1] == metas[2]

    def test_accessors_decode_once(self):
        env = seeded_env()
        result = read_split(env.registry, env.manager.decoupling, k())
        assert (result.present, result.prepared) == (True, False)
        assert result.meta is result.meta is result.meta_row
        assert result.app_columns is result.app_columns
        absent = read_split(env.registry, env.manager.decoupling, k(pk=99))
        assert (absent.present, absent.prepared) == (False, False)

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_a_result_decoded_late_yields_what_was_read(self, mode):
        """The stored rows a result keeps are snapshots, whatever is written after the read."""
        env = build_env(**mode_env_args(mode))
        cfg = env.manager.decoupling
        tx = env.manager.begin()
        tx.put(k(), {"v": 1})
        tx.commit()
        result = read_dispatch(env.registry, cfg, k())
        assert result.path is MODE_PATHS[mode]
        tx = env.manager.begin()
        tx.put(k(), {"v": 2})
        tx.commit()
        tx = env.manager.begin()
        tx.delete(k())
        tx.commit()
        assert read_dispatch(env.registry, cfg, k()).present is False
        assert (result.present, result.prepared) == (True, False)
        assert result.app_columns == {"v": 1}
        decoded = decode_metadata(result.meta)
        assert (decoded.version, decoded.tx_state) == (1, TxState.COMMITTED)

    def test_snapshot_counts_one_db_transaction(self):
        env = seeded_env(consistent=True)
        env.adapter("s1").reset_counters()
        read_snapshot(env.registry, env.manager.decoupling, [k()])
        counters = env.counters("s1")
        assert (counters.db_transactions, counters.reads) == (1, 2)

    def test_view_counts_one_read(self):
        env = seeded_env(consistent=True, view=True)
        env.adapter("s1").reset_counters()
        assert read_dispatch(env.registry, env.manager.decoupling, k()).path is ReadPath.VIEW
        counters = env.counters("s1")
        assert (counters.reads, counters.view_reads, counters.db_transactions) == (1, 1, 0)
