"""In-memory adapter semantics, checked against a sequential reference map."""

import functools
import random
import sys
import threading
from dataclasses import fields
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from fedtx import (
    AtomicityUnit,
    AtomicityScopeViolation,
    CapabilityUnsupported,
    ConditionalWrite,
    FaultKind,
    FullKey,
    GroupKey,
    IF_NOT_EXISTS,
    InjectedCrash,
    JoinIntegrityError,
    MemStore,
    MemStoreConfig,
    UNCONDITIONAL,
    UnknownView,
    WriteCondition,
    WriteKind,
    build_memstore,
    if_columns_equal,
    if_tx_id_equals,
)
from fedtx.memstore import OpCounters
from fedtx.model import scope_of
from fedtx.records import COL_TX_ID
from conftest import compare_values, k, make_caps


def store(unit=AtomicityUnit.STORAGE, consistent=False, view=False):
    return build_memstore("s1", MemStoreConfig(make_caps(unit, consistent, view)))


def put(key, columns, condition=UNCONDITIONAL):
    return ConditionalWrite(key, columns, condition)


def delete(key, condition=UNCONDITIONAL):
    return ConditionalWrite(key, {}, condition, WriteKind.DELETE)


# Components a key pair may differ in, by index into
# (storage, namespace, table, partition_key, clustering_key).
_OTHER_COMPONENT = {1: "app2", 2: "t2", 3: (2,), 4: (2,)}
_BASE_KEY = ("s1", "app", "t", (1,), (1,))
_SCOPE_UNITS = [
    AtomicityUnit.RECORD,
    AtomicityUnit.PARTITION,
    AtomicityUnit.TABLE,
    AtomicityUnit.NAMESPACE,
]


def key_pair(differ_at):
    """The base key and a key that differs from it in one component (none past the end)."""
    other = list(_BASE_KEY)
    if differ_at in _OTHER_COMPONENT:
        other[differ_at] = _OTHER_COMPONENT[differ_at]
    return FullKey(*_BASE_KEY), FullKey(*other)


def scope_depth(unit):
    return len(scope_of(FullKey(*_BASE_KEY), unit))


class TestReadWrite:
    def test_read_empty(self):
        assert store().read(k()) is None

    def test_read_your_write(self):
        s = store()
        assert s.atomic_write([put(k(), {"v": 1})]) is None
        assert s.read(k()) == {"v": 1}

    def test_failed_condition_leaves_prior_value(self):
        s = store()
        s.atomic_write([put(k(), {"v": 1, COL_TX_ID: "a"})])
        failed = s.atomic_write([put(k(), {"v": 2}, if_tx_id_equals("b"))])
        assert failed == 0
        assert s.read(k()) == {"v": 1, COL_TX_ID: "a"}

    def test_if_not_exists(self):
        s = store()
        assert s.atomic_write([put(k(), {"v": 1}, IF_NOT_EXISTS)]) is None
        assert s.atomic_write([put(k(), {"v": 2}, IF_NOT_EXISTS)]) == 0

    def test_columns_condition_compares_every_column_tag_exactly(self):
        s = store()
        assert s.atomic_write([put(k(), {"v": 1, "b": True})]) is None
        for expected in ({"v": 1, "b": 1}, {"v": 1}, {"v": 1, "b": True, "c": None}, {}):
            assert s.atomic_write([put(k(), {"v": 2}, if_columns_equal(expected))]) == 0
        assert s.atomic_write([put(k(pk=2), {"v": 2}, if_columns_equal({}))]) == 0  # absent
        assert s.atomic_write([put(k(), {"v": 2}, if_columns_equal({"v": 1, "b": True}))]) is None
        assert s.atomic_write([delete(k(), if_columns_equal({"v": 1, "b": True}))]) == 0
        assert s.atomic_write([delete(k(), if_columns_equal({"v": 2}))]) is None
        assert s.read(k()) is None

    def test_delete_with_tx_id_condition_on_absent_record_fails(self):
        s = store()
        assert s.atomic_write([delete(k(), if_tx_id_equals("a"))]) == 0

    def test_delete_removes_record(self):
        s = store()
        s.atomic_write([put(k(), {"v": 1})])
        assert s.atomic_write([delete(k())]) is None
        assert s.read(k()) is None


class TestBatchAtomicity:
    def test_first_failure_reported_in_list_order(self):
        s = store()
        s.atomic_write([put(k(pk=1), {COL_TX_ID: "a"})])
        failed = s.atomic_write(
            [
                put(k(pk=2), {"v": 1}, IF_NOT_EXISTS),
                put(k(pk=1), {"v": 2}, if_tx_id_equals("wrong")),
            ]
        )
        assert failed == 1

    def test_no_partial_batch_on_condition_failure(self):
        s = store()
        s.atomic_write([put(k(pk=1), {COL_TX_ID: "a"})])
        before = {r.key.render(): dict(r.columns) for r in s.dump()}
        failed = s.atomic_write(
            [
                put(k(pk=2), {"v": 1}),
                put(k(pk=1), {"v": 2}, if_tx_id_equals("wrong")),
            ]
        )
        assert failed == 1
        after = {r.key.render(): dict(r.columns) for r in s.dump()}
        assert before == after

    @pytest.mark.parametrize("unit", _SCOPE_UNITS)
    def test_scope_violation_rejected(self, unit):
        """Keys differing in the last component the unit keeps span two scopes."""
        s = store(unit=unit)
        a, b = key_pair(scope_depth(unit) - 1)
        with pytest.raises(AtomicityScopeViolation):
            s.atomic_write([put(a, {"v": 1}), put(b, {"v": 2})])
        assert s.dump() == []

    @pytest.mark.parametrize("unit", _SCOPE_UNITS)
    def test_batch_differing_below_the_unit_is_allowed(self, unit):
        """Keys differing only in the first component the unit drops share a scope."""
        s = store(unit=unit)
        a, b = key_pair(scope_depth(unit))
        assert s.atomic_write([put(a, {"v": 1}), put(b, {"v": 2})]) is None
        assert s.read(b)["v"] == 2

    def test_same_partition_batch_allowed_at_partition_unit(self):
        s = store(unit=AtomicityUnit.PARTITION)
        batch = [put(k(pk=1, ck=1), {"v": 1}), put(k(pk=1, ck=2), {"v": 2})]
        assert s.atomic_write(batch) is None

    @pytest.mark.parametrize(
        "columns, error",
        [({"v": 1.5}, TypeError), ({"": 1}, ValueError), ({7: 1}, ValueError)],
        ids=["float-value", "empty-name", "int-name"],
    )
    def test_bad_columns_reject_the_whole_batch(self, columns, error):
        """Columns are checked once, on the way in, before anything applies."""
        s = store()
        with pytest.raises(error):
            s.atomic_write([put(k(pk=1), {"v": 1}), put(k(pk=2), columns)])
        assert s.counters() == OpCounters()
        assert s.read(k(pk=1)) is None
        assert s.dump() == []


# Each key component's choices; the first is the one a batch shares unless it spreads.
_KEY_CHOICES = (("s1", "s2"), ("app", "app2"), ("t", "t2"), ((1,), (2,)), ((), (1,), (2,)))
_BAD_COLUMNS = [({"v": 1.5}, TypeError), ({"": 1}, ValueError), ({7: 1}, ValueError)]
_GOOD_COLUMNS = st.fixed_dictionaries({"v": st.integers(0, 2), COL_TX_ID: st.sampled_from("ab")})
_CONDITIONS = [
    UNCONDITIONAL,
    IF_NOT_EXISTS,
    if_tx_id_equals("a"),
    if_tx_id_equals("b"),
    if_columns_equal({"v": 0, COL_TX_ID: "a"}),
    if_columns_equal({"v": False, COL_TX_ID: "a"}),  # never holds: False is not 0
]


def _holds(condition, current):
    """Reference for one condition on the stored row ``current`` (or None)."""
    if condition.kind.name == "UNCONDITIONAL":
        return True
    if condition.kind.name == "IF_NOT_EXISTS":
        return current is None
    if condition.kind.name == "IF_COLUMNS_EQUAL":
        expected = condition.expected_columns
        return current == expected and all(type(current[n]) is type(v) for n, v in expected.items())
    return current is not None and current.get(COL_TX_ID) == condition.expected_tx_id


@st.composite
def contract_cases(draw):
    """A unit, the rows stored before the batch, and a batch of (write, column error) pairs.

    Every key below the unit's scope depth is drawn freely; at or above it a
    key keeps the shared first choice unless the batch spreads over scopes.
    Some PUTs and some DELETEs carry bad columns.
    """
    unit = draw(st.sampled_from(list(AtomicityUnit)))
    depth = scope_depth(unit)
    spread = draw(st.booleans())
    row_keys = st.tuples(*map(st.sampled_from, _KEY_CHOICES[1:]))
    stored = draw(st.dictionaries(row_keys, _GOOD_COLUMNS, max_size=6))
    batch = []
    for _ in range(draw(st.sampled_from(range(6)))):
        parts = [
            draw(st.sampled_from(choices)) if spread or i >= depth else choices[0]
            for i, choices in enumerate(_KEY_CHOICES)
        ]
        kind = draw(st.sampled_from(WriteKind))
        columns, error = draw(st.sampled_from([(None, None)] * 3 + _BAD_COLUMNS))
        if columns is None:
            columns = {} if kind is WriteKind.DELETE else draw(_GOOD_COLUMNS)
        condition = draw(st.sampled_from(_CONDITIONS))
        batch.append((ConditionalWrite(FullKey(*parts), columns, condition, kind), error))
    return unit, stored, batch


class TestBatchContractOrder:
    """The order of the batch contract, against a reference, at every unit.

    An empty batch raises ValueError; then a batch spanning scopes raises
    AtomicityScopeViolation, whatever its columns; then the first PUT with bad
    columns raises, whatever the conditions (a DELETE's columns are never
    checked); then the first failing condition's index is returned. A call
    that raises applies and counts nothing, and every call takes a fault-plan
    index.
    """

    @settings(max_examples=300, deadline=None)
    @given(contract_cases())
    # A bad PUT behind a failing condition, a bad PUT in a batch spanning
    # scopes, and a DELETE carrying bad columns.
    @example(
        (AtomicityUnit.RECORD, {}, [
            (put(k(), {"v": 1}, if_tx_id_equals("a")), None),
            (put(k(), {"v": 1.5}), TypeError),
        ])
    )
    @example(
        (AtomicityUnit.STORAGE, {}, [
            (put(k(), {"": 1}), ValueError),
            (put(k(storage="s2"), {"v": 1}), None),
        ])
    )
    @example(
        (AtomicityUnit.PARTITION, {}, [
            (delete(k()), None),
            (ConditionalWrite(k(ck=1), {7: 1}, kind=WriteKind.DELETE), None),
        ])
    )
    def test_each_rule_wins_over_the_ones_after_it(self, case):
        unit, stored, batch = case
        s = store(unit)
        for rk, columns in stored.items():
            s.atomic_write([put(FullKey("s1", *rk), columns)])
        s.reset_counters()
        s.inject_faults([(1, FaultKind.CRASH_BEFORE_BATCH)])
        writes = [write for write, _ in batch]
        rows = {rk: dict(columns) for rk, columns in stored.items()}
        expected = OpCounters()
        bad_puts = [error for write, error in batch if error and write.kind is WriteKind.PUT]
        if not writes:
            outcome = ValueError
        elif len({scope_of(write.key, unit) for write in writes}) > 1:
            outcome = AtomicityScopeViolation
        elif bad_puts:
            outcome = bad_puts[0]
        else:
            failed = [
                i for i, w in enumerate(writes) if not _holds(w.condition, rows.get(w.key[1:]))
            ]
            outcome = failed[0] if failed else None
        if isinstance(outcome, type):
            with pytest.raises(outcome):
                s.atomic_write(writes)
        else:
            assert s.atomic_write(writes) == outcome
            if outcome is None:
                for write in writes:
                    if write.kind is WriteKind.DELETE:
                        rows.pop(write.key[1:], None)
                    else:
                        rows[write.key[1:]] = dict(write.columns)
                expected = OpCounters(
                    atomic_write_batches=1, written_records=len(writes), db_transactions=1
                )
            else:
                expected = OpCounters(condition_failures=1)
        assert s.counters() == expected
        assert {tuple(r.key)[1:]: dict(r.columns) for r in s.dump()} == rows
        # The call took index 0 of the plan, whatever it did, so the next one is #1.
        with pytest.raises(InjectedCrash, match="#1"):
            s.atomic_write([put(k(pk=9), {"v": 0})])
        assert s.read(k(pk=9)) is None

    @pytest.mark.parametrize(
        "key, condition, kind",
        [
            (k(), UNCONDITIONAL, "PUT"),
            (k(), UNCONDITIONAL, None),
            (k(), None, WriteKind.PUT),
            (k(), "IF_NOT_EXISTS", WriteKind.PUT),
            (("s1", "app", "t", (True,), ()), UNCONDITIONAL, WriteKind.PUT),
            ("s1/app/t/pk=[1]/ck=[]", UNCONDITIONAL, WriteKind.PUT),
        ],
        ids=["kind-str", "kind-none", "condition-none", "condition-str", "key-tuple", "key-str"],
    )
    def test_the_constructor_refuses_a_foreign_kind_or_condition(self, key, condition, kind):
        with pytest.raises(TypeError, match="key|kind|condition"):
            ConditionalWrite(key, {"v": 1.5, 3: object()}, condition, kind)

    @pytest.mark.parametrize("kind", ["IF_NOT_EXISTS", None, WriteKind.PUT])
    def test_a_condition_of_a_foreign_kind_is_refused(self, kind):
        with pytest.raises(TypeError, match="ConditionKind"):
            WriteCondition(kind)

    @pytest.mark.parametrize("kind", ["PUT", "DELETE", None])
    def test_a_forged_write_of_a_foreign_kind_is_refused_with_nothing_applied(self, kind):
        """A write built past the constructor whose kind is no ``WriteKind`` stores nothing.

        The staging pass refuses it wherever it stands in the batch, bad
        columns or not, before any condition or row is touched.
        """
        s = store()
        s.inject_faults([(1, FaultKind.CRASH_BEFORE_BATCH)])
        columns = MappingProxyType({"v": 1.5, 3: object()})
        forged = tuple.__new__(ConditionalWrite, (k(pk=2), columns, UNCONDITIONAL, kind))
        with pytest.raises(TypeError, match="not a WriteKind"):
            s.atomic_write([put(k(), {"v": 1}, if_tx_id_equals("a")), forged])
        assert (s.counters(), s.dump()) == (OpCounters(), [])
        with pytest.raises(InjectedCrash, match="#1"):
            s.atomic_write([put(k(pk=9), {"v": 0})])

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(list(AtomicityUnit)),
        st.lists(st.tuples(*map(st.sampled_from, _KEY_CHOICES)), min_size=1, max_size=5),
    )
    def test_a_call_raises_exactly_when_its_keys_span_scopes(self, unit, parts):
        """``snapshot_read`` and ``atomic_write`` agree with one ``scope_of`` per key."""
        keys = [FullKey(*p) for p in parts]
        spans = len({scope_of(key, unit) for key in keys}) > 1
        s = store(unit, consistent=True)
        calls = [s.snapshot_read, lambda keys: s.atomic_write([put(key, {"v": 1}) for key in keys])]
        for call in calls:
            if spans:
                with pytest.raises(AtomicityScopeViolation):
                    call(keys)
            else:
                call(keys)
        if spans:
            assert s.counters() == OpCounters()
            assert s.dump() == []


_META_KEY = k(pk=1, ck=1, table="t_meta")


def _view_store():
    s = store(consistent=True, view=True)
    s.register_join_view("v", "app", "t", "t_meta")
    s.atomic_write([put(k(pk=1, ck=1), {"v": 1}), put(_META_KEY, {COL_TX_ID: "t0"})])
    return s


_SHARED_READS = {
    "read": lambda s: s.read(k(pk=1, ck=1)),
    "snapshot_read": lambda s: s.snapshot_read([k(pk=1, ck=1)])[0],
    "scan": lambda s: s.scan(GroupKey("s1", "app", "t", (1,)))[0][1],
    "view_read": lambda s: s.view_read("v", k(pk=1, ck=1)),
    "dump": lambda s: next(r for r in s.dump() if r.key == k(pk=1, ck=1)).columns,
}
_LATER_WRITES = {
    "overwrite": lambda s: s.atomic_write(
        [put(k(pk=1, ck=1), {"v": 2}), put(_META_KEY, {COL_TX_ID: "t1"})]
    ),
    "delete": lambda s: s.atomic_write([delete(k(pk=1, ck=1)), delete(_META_KEY)]),
}


class TestSharedRows:
    """Reads share the stored row read-only; no later write shows through."""

    @pytest.mark.parametrize("later", sorted(_LATER_WRITES))
    @pytest.mark.parametrize("how", sorted(_SHARED_READS))
    def test_record_keeps_its_columns(self, how, later):
        s = _view_store()
        row = _SHARED_READS[how](s)
        expected = {"v": 1, COL_TX_ID: "t0"} if how == "view_read" else {"v": 1}
        assert row == expected
        with pytest.raises(TypeError):
            row["v"] = 3
        _LATER_WRITES[later](s)
        assert row == expected


class TestScan:
    def prefix(self, pk=1):
        return GroupKey("s1", "app", "t", (pk,))

    def test_scan_empty_partition(self):
        assert store().scan(self.prefix()) == []

    def test_scan_orders_by_clustering_key(self):
        s = store()
        for ck in (3, 1, 2):
            s.atomic_write([put(k(pk=1, ck=ck), {"v": ck})])
        assert [ck for ck, _ in s.scan(self.prefix())] == [(1,), (2,), (3,)]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_scan_order_matches_the_tagged_value_order(self, seed):
        """Native tuple order agrees with a comparator built from ``compare_values``."""

        def reference(a, b):
            for x, y in zip(a, b):
                c = compare_values(x, y)
                if c:
                    return c
            return len(a) - len(b)

        values = {
            int: lambda rng: rng.randint(-3, 3),
            str: lambda rng: rng.choice(["", "a", "ab", "b", "\u00e9"]),
            bytes: lambda rng: rng.choice([b"", b"\x00", b"a", b"ab", b"\xff"]),
        }
        rng = random.Random(seed)
        s = store()
        for pk in range(6):
            # One component type per position keeps every pair comparable;
            # the types still mix across positions and lengths.
            schema = [rng.choice(list(values)) for _ in range(4)]
            cks = {
                tuple(values[t](rng) for t in schema[: rng.randint(0, 4)])
                for _ in range(rng.randint(1, 40))
            }
            for ck in cks:
                s.atomic_write([put(FullKey("s1", "app", "t", (pk,), ck), {"v": 1})])
            scanned = [ck for ck, _ in s.scan(self.prefix(pk))]
            assert scanned == sorted(cks, key=functools.cmp_to_key(reference))

    def test_scan_of_mixed_component_types_raises(self):
        s = store()
        s.atomic_write([put(k(pk=1, ck=1), {"v": 1}), put(k(pk=1, ck="a"), {"v": 2})])
        with pytest.raises(TypeError):
            s.scan(self.prefix())
        s.atomic_write([delete(k(pk=1, ck="a"))])  # the scan released the store's lock
        assert [ck for ck, _ in s.scan(self.prefix())] == [(1,)]

    def test_scan_after_delete(self):
        s = store()
        for ck in (1, 2, 3):
            s.atomic_write([put(k(pk=1, ck=ck), {"v": ck})])
        s.atomic_write([delete(k(pk=1, ck=2))])
        assert [ck for ck, _ in s.scan(self.prefix())] == [(1,), (3,)]
        # a re-put and an overwrite: the scan hands out the rows written last
        s.atomic_write([put(k(pk=1, ck=2), {"v": 20}), put(k(pk=1, ck=3), {"v": 30})])
        assert [(ck, row["v"]) for ck, row in s.scan(self.prefix())] == [
            ((1,), 1), ((2,), 20), ((3,), 30)
        ]

    def test_scan_reads_exactly_the_named_partition(self):
        s = store()
        keys = [k(pk=1, ck=1), k(pk=1), k(pk=2, ck=1), k(table="u", pk=1, ck=1)]
        keys.append(FullKey("s1", "app", "t", (1, 1), (1,)))
        for n, key in enumerate(keys):
            s.atomic_write([put(key, {"v": n})])
        assert s.scan(self.prefix()) == [((), {"v": 1}), ((1,), {"v": 0})]
        with pytest.raises(TypeError):  # a table is no partition
            GroupKey("s1", "app", "t")
        with pytest.raises(TypeError):  # nor is a record
            GroupKey("s1", "app", "t", (1,), (1,))
        with pytest.raises(ValueError):  # (True,) would alias partition (1,)
            GroupKey("s1", "app", "t", (True,))

    @pytest.mark.parametrize("unit", [AtomicityUnit.STORAGE, AtomicityUnit.PARTITION])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scan_matches_filtered_dump_under_random_writes(self, unit, seed):
        """The clustering-key index agrees with a brute-force filter of the store."""
        rng = random.Random(seed)
        s = MemStore("s1", MemStoreConfig(make_caps(unit)))
        # tables, partition keys and clustering keys that share prefixes
        partitions = [
            (ns, table, pk)
            for ns in ("app", "app2")
            for table in ("t", "tt")
            for pk in ((1,), (1, 2))
        ]
        clusterings = [(), (1,), (1, 0), (1, 0, 3), (10,)]

        def check_every_partition():
            dump = s.dump()
            for ns, table, pk in partitions:
                expected = sorted(
                    (
                        (r.key, r.columns) for r in dump
                        if (r.key.namespace, r.key.table, r.key.partition_key) == (ns, table, pk)
                    ),
                    key=lambda item: item[0].clustering_key,
                )
                scanned = [
                    (FullKey("s1", ns, table, pk, ck), row)
                    for ck, row in s.scan(GroupKey("s1", ns, table, pk))
                ]
                assert scanned == expected
            for partition, index in s._clustered.items():  # the very rows _rows holds
                assert all(row is s._rows[partition + (ck,)] for ck, row in index.items())

        emptied = 0
        for step in range(300):
            ns, table, pk = rng.choice(partitions)
            prefix = GroupKey("s1", ns, table, pk)
            batch = []
            for ck in rng.sample(clusterings, rng.randint(1, 3)):
                key = FullKey("s1", ns, table, pk, ck)
                batch.append(delete(key) if rng.random() < 0.5 else put(key, {"v": step}))
            had_rows = bool(s.scan(prefix))
            assert s.atomic_write(batch) is None
            check_every_partition()
            emptied += had_rows and not s.scan(prefix)
        assert emptied > 0  # some partition lost its last row along the way
        for record in s.dump():
            s.atomic_write([delete(record.key)])
        check_every_partition()
        assert s._clustered == {}  # emptied partitions leave no index entry behind

    def test_scans_stay_exact_while_other_partitions_change(self):
        """Threads that each own a partition interleave on the index's shared outer map."""
        s = MemStore("s1", MemStoreConfig(make_caps(AtomicityUnit.PARTITION)))
        errors = []

        def worker(pk):
            rng = random.Random(pk)
            prefix, model = GroupKey("s1", "app", "t", (pk,)), {}
            try:
                for step in range(300):
                    ck = (rng.randrange(4),)
                    if ck in model and rng.random() < 0.5:
                        s.atomic_write([delete(k(pk=pk, ck=ck[0]))])
                        del model[ck]
                    else:
                        s.atomic_write([put(k(pk=pk, ck=ck[0]), {"v": step})])
                        model[ck] = {"v": step}
                    got = [(ck, dict(row)) for ck, row in s.scan(prefix)]
                    assert got == sorted(model.items())
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(pk,)) for pk in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestSnapshotRead:
    def test_requires_capability(self):
        with pytest.raises(CapabilityUnsupported):
            store().snapshot_read([k()])

    def test_empty_and_absent(self):
        s = store(consistent=True)
        assert s.snapshot_read([]) == []
        assert s.counters() == OpCounters()  # a read of nothing reaches no row
        assert s.snapshot_read([k()]) == [None]

    @pytest.mark.parametrize("unit", _SCOPE_UNITS)
    def test_scope_violation(self, unit):
        s = store(unit=unit, consistent=True)
        with pytest.raises(AtomicityScopeViolation):
            s.snapshot_read(list(key_pair(scope_depth(unit) - 1)))

    @pytest.mark.parametrize("unit", _SCOPE_UNITS)
    def test_keys_differing_below_the_unit_read_together(self, unit):
        s = store(unit=unit, consistent=True)
        a, b = key_pair(scope_depth(unit))
        s.atomic_write([put(a, {"v": 1})])
        got = s.snapshot_read([a, b])
        assert got[0]["v"] == 1
        assert got == [s.read(a), s.read(b)]

    def test_pair_consistency_under_concurrent_writer(self):
        s = store(consistent=True)
        k1, k2 = k(pk=1), k(pk=2)
        s.atomic_write([put(k1, {"v": 0}), put(k2, {"v": 0})])
        stop = threading.Event()

        def writer():
            value = 1
            while not stop.is_set():
                s.atomic_write([put(k1, {"v": value}), put(k2, {"v": value})])
                value += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(300):
                a, b = s.snapshot_read([k1, k2])
                assert a["v"] == b["v"]
        finally:
            stop.set()
            thread.join()


class TestViews:
    def view_store(self):
        s = store(consistent=True, view=True)
        s.register_join_view("v", "app", "t", "t_meta")
        return s

    def test_joined_record(self):
        s = self.view_store()
        s.atomic_write([put(k(pk=1), {"v": 1})])
        s.atomic_write([put(k(pk=1, table="t_meta"), {COL_TX_ID: "t0"})])
        assert s.view_read("v", k(pk=1)) == {"v": 1, COL_TX_ID: "t0"}

    def test_absent(self):
        assert self.view_store().view_read("v", k(pk=9)) is None

    def test_one_sided_pair_is_an_error(self):
        s = self.view_store()
        s.atomic_write([put(k(pk=1), {"v": 1})])
        with pytest.raises(JoinIntegrityError):
            s.view_read("v", k(pk=1))

    def test_unknown_view(self):
        with pytest.raises(UnknownView):
            self.view_store().view_read("nope", k())

    def test_requires_capability(self):
        with pytest.raises(CapabilityUnsupported):
            store().view_read("v", k())

    def test_view_for(self):
        s = self.view_store()
        assert s.view_for(k()) == "v"
        assert s.view_for(k(table="other")) is None

    def test_joined_record_is_addressed_to_the_application_table(self):
        """The view joins its own tables' rows, whatever table or storage the key names."""
        s = self.view_store()
        s.atomic_write([put(k(pk=1), {"v": 1})])
        s.atomic_write([put(k(pk=1, table="t_meta"), {COL_TX_ID: "t0"})])
        joined = {"v": 1, COL_TX_ID: "t0"}
        assert s.view_read("v", k(pk=1)) == joined
        assert s.view_read("v", k(pk=1, table="t_meta")) == joined
        assert s.view_read("v", k(storage="elsewhere", pk=1)) == joined

    def test_table_unit_view_join_stays_consistent_beside_a_writer_and_dumps(self):
        """A TABLE-unit view joins rows of two scopes; reads, writes and dumps interleave.

        The writer bumps the application row, then the metadata row, so at
        any one instant the application value is the metadata value or one
        ahead of it. A view read sees one instant.
        """
        s = MemStore("s1", MemStoreConfig(make_caps(AtomicityUnit.TABLE, True, True)))
        s.register_join_view("v", "app", "t", "t_meta")
        app_key, meta_key = k(pk=1), k(pk=1, table="t_meta")
        s.atomic_write([put(app_key, {"v": 0})])
        s.atomic_write([put(meta_key, {COL_TX_ID: "t0"})])
        stop = threading.Event()
        errors = []

        def guarded(fn):
            def run():
                try:
                    fn()
                except Exception as exc:  # noqa: BLE001 - reported by the main thread
                    errors.append(exc)
                    stop.set()

            return run

        @guarded
        def writer():
            n = 0
            while not stop.is_set():
                n += 1
                s.atomic_write([put(app_key, {"v": n})])
                s.atomic_write([put(meta_key, {COL_TX_ID: f"t{n}"})])

        @guarded
        def dumper():
            while not stop.is_set():
                rows = {r.key: dict(r.columns) for r in s.dump()}
                assert set(rows) == {app_key, meta_key}

        @guarded
        def reader():
            for _ in range(10_000):
                joined = s.view_read("v", app_key)
                lag = joined["v"] - int(joined[COL_TX_ID][1:])
                assert lag in (0, 1), dict(joined)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            background = [threading.Thread(target=fn, daemon=True) for fn in (writer, dumper)]
            readers = [threading.Thread(target=reader, daemon=True) for _ in range(2)]
            for thread in background + readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=60)
            stop.set()
            for thread in background:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in background + readers), "lock-order deadlock"
        assert errors == []


class TestFaultInjection:
    def test_crash_before_batch_leaves_store_unchanged(self):
        s = store()
        s.inject_faults([(2, FaultKind.CRASH_BEFORE_BATCH)])
        s.atomic_write([put(k(pk=1), {"v": 1})])
        s.atomic_write([put(k(pk=2), {"v": 2})])
        with pytest.raises(InjectedCrash):
            s.atomic_write([put(k(pk=3), {"v": 3})])
        assert s.read(k(pk=3)) is None
        assert s.counters().atomic_write_batches == 2

    def test_crash_after_batch_applies_it(self):
        s = store()
        s.inject_faults([(0, FaultKind.CRASH_AFTER_BATCH)])
        with pytest.raises(InjectedCrash):
            s.atomic_write([put(k(pk=1), {"v": 1})])
        assert s.read(k(pk=1)) == {"v": 1}
        assert s.counters().atomic_write_batches == 1

    def test_plan_indices_must_increase(self):
        with pytest.raises(ValueError):
            store().inject_faults([(3, FaultKind.CRASH_BEFORE_BATCH), (3, FaultKind.CRASH_AFTER_BATCH)])

    def test_clear_faults(self):
        s = store()
        s.inject_faults([(0, FaultKind.CRASH_BEFORE_BATCH)])
        s.clear_faults()
        assert s.atomic_write([put(k(), {"v": 1})]) is None


    @pytest.mark.parametrize(
        "batch, error",
        [
            ([put(k(pk=1), {"v": 1}, if_tx_id_equals("nope"))], None),
            ([put(k(pk=1), {"v": 1}), put(k(pk=2), {"v": 2})], AtomicityScopeViolation),
            ([], ValueError),
        ],
        ids=["condition-fails", "scope-violation", "empty"],
    )
    def test_a_batch_that_applies_nothing_takes_an_index(self, batch, error):
        s = store(AtomicityUnit.PARTITION)
        s.inject_faults([(1, FaultKind.CRASH_BEFORE_BATCH)])
        if error is None:
            assert s.atomic_write(batch) == 0
        else:
            with pytest.raises(error):
                s.atomic_write(batch)
        with pytest.raises(InjectedCrash, match="#1"):
            s.atomic_write([put(k(pk=3), {"v": 3})])
        assert s.read(k(pk=3)) is None
        assert s.atomic_write([put(k(pk=3), {"v": 3})]) is None  # the plan is spent
        counters = s.counters()
        assert counters.atomic_write_batches == 1
        assert counters.condition_failures == (1 if error is None else 0)

    def test_a_fault_fires_before_any_check(self):
        s = store(AtomicityUnit.PARTITION)
        s.inject_faults([(0, FaultKind.CRASH_BEFORE_BATCH)])
        with pytest.raises(InjectedCrash):
            s.atomic_write([put(k(pk=1), {"v": 1}), put(k(pk=2), {"v": 2})])
        assert s.counters() == OpCounters()

    def test_crash_after_a_failed_condition_counts_the_failure(self):
        s = store()
        s.inject_faults([(0, FaultKind.CRASH_AFTER_BATCH)])
        with pytest.raises(InjectedCrash):
            s.atomic_write([put(k(), {"v": 1}, if_tx_id_equals("nope"))])
        assert s.read(k()) is None
        assert s.counters() == OpCounters(reads=1, condition_failures=1)


class TestCounters:
    def test_batch_and_record_counts(self):
        s = store()
        s.atomic_write([put(k(pk=1), {"v": 1})])
        s.atomic_write([put(k(pk=2), {"v": 1}), put(k(pk=3), {"v": 1})])
        s.atomic_write([put(k(pk=i), {"v": 2}) for i in range(4, 7)])
        counters = s.counters()
        assert counters.atomic_write_batches == 3
        assert counters.written_records == 6
        assert counters.db_transactions == 3

    def test_reset(self):
        s = store()
        s.atomic_write([put(k(), {"v": 1})])
        s.read(k())
        s.reset_counters()
        fresh = s.counters()
        assert fresh.reads == 0 and fresh.atomic_write_batches == 0

    def test_counters_are_a_snapshot(self):
        s = store()
        before = s.counters()
        s.read(k())
        assert before.reads == 0
        assert s.counters().reads == 1


    def test_build_memstore_returns_the_store_itself(self):
        assert type(store()) is MemStore

    def test_counters_stay_exact_under_threads(self):
        s = store(AtomicityUnit.PARTITION, consistent=True)
        threads = 8
        tallies = [OpCounters() for _ in range(threads)]
        barrier = threading.Barrier(threads)
        errors = []

        def work(t):
            tally = tallies[t]
            rng = random.Random(t)
            try:
                barrier.wait()
                for i in range(2_000):
                    pk = rng.randrange(4)  # threads share partitions, so their calls contend
                    op = rng.randrange(5)
                    if op == 0:
                        batch = [put(k(pk=pk, ck=ck), {"v": i}) for ck in range(rng.randint(1, 3))]
                        assert s.atomic_write(batch) is None
                        tally.atomic_write_batches += 1
                        tally.written_records += len(batch)
                        tally.db_transactions += 1
                    elif op == 1:
                        assert s.atomic_write([put(k(pk=pk), {"v": i}, if_tx_id_equals("nope"))]) == 0
                        tally.condition_failures += 1
                    elif op == 2:
                        s.read(k(pk=pk, ck=0))
                        tally.reads += 1
                    elif op == 3:
                        s.scan(GroupKey("s1", "app", "t", (pk,)))
                        tally.scans += 1
                    else:
                        s.snapshot_read([k(pk=pk, ck=0), k(pk=pk, ck=1)])
                        tally.reads += 2
                        tally.db_transactions += 1
            except BaseException as exc:  # reported below; a thread's raise is lost
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert not any(worker.is_alive() for worker in workers)
        expected = OpCounters(
            **{f.name: sum(getattr(tally, f.name) for tally in tallies) for f in fields(OpCounters)}
        )
        assert s.counters() == expected


def run_threads(work, threads, timeout=60):
    """Run ``work(t)`` on ``threads`` threads at a tiny switch interval; return their errors."""
    errors = []

    def guarded(t):
        try:
            work(t)
        except BaseException as exc:  # reported below; a thread's raise is lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # daemon: a thread stuck on a leaked lock must not hold the run open
        workers = [threading.Thread(target=guarded, args=(t,), daemon=True) for t in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers), "a thread never finished"
    return errors


class TestOneCriticalSection:
    """Each call is one critical section: a batch checks and applies at one instant."""

    @pytest.mark.parametrize("threads", [2, 8])
    def test_racing_compare_and_set_loses_no_update(self, threads):
        s = store(AtomicityUnit.PARTITION)
        s.atomic_write([put(k(), {"v": 0})])
        s.reset_counters()
        rounds = 150
        attempts = [0] * threads
        barrier = threading.Barrier(threads)

        def work(t):
            barrier.wait()
            done = 0
            while done < rounds:
                seen = s.read(k())
                attempts[t] += 1
                batch = [put(k(), {"v": seen["v"] + 1}, if_columns_equal(seen))]
                if s.atomic_write(batch) is None:
                    done += 1

        assert run_threads(work, threads) == []
        counters = s.counters()
        assert counters.atomic_write_batches == threads * rounds
        assert counters.condition_failures == sum(attempts) - threads * rounds
        assert counters.reads == sum(attempts)
        assert s.read(k()) == {"v": threads * rounds}

    @pytest.mark.parametrize("how", ["dump", "scan"])
    def test_a_multi_record_read_never_sees_half_a_batch(self, how):
        s = store()
        keys = [k(pk=1, ck=ck) for ck in range(3)]
        s.atomic_write([put(key, {"v": 0}) for key in keys])
        stop = threading.Event()

        def work(t):
            if t == 0:
                value = 1
                while not stop.is_set():
                    s.atomic_write([put(key, {"v": value}) for key in keys])
                    value += 1
                return
            try:
                for _ in range(300):
                    if how == "dump":
                        rows = [(r.key, r.columns) for r in s.dump()]
                    else:
                        scanned = s.scan(GroupKey("s1", "app", "t", (1,)))
                        rows = [(k(pk=1, ck=ck[0]), row) for ck, row in scanned]
                    assert [key for key, _ in rows] == keys
                    assert len({row["v"] for _, row in rows}) == 1
            finally:
                stop.set()

        assert run_threads(work, 2) == []

    @pytest.mark.parametrize("failure", ["view join", "scan sort", "condition", "crash after"])
    def test_a_failed_call_leaves_the_store_to_other_threads(self, failure):
        s = store(consistent=True, view=True)
        s.register_join_view("v", "app", "t", "t_meta")
        if failure == "view join":
            s.atomic_write([put(k(pk=1), {"v": 1})])
            with pytest.raises(JoinIntegrityError):
                s.view_read("v", k(pk=1))
        elif failure == "scan sort":
            s.atomic_write([put(k(pk=1, ck=1), {"v": 1}), put(k(pk=1, ck="a"), {"v": 2})])
            with pytest.raises(TypeError):
                s.scan(GroupKey("s1", "app", "t", (1,)))
        elif failure == "condition":
            assert s.atomic_write([put(k(pk=1), {"v": 1}, if_tx_id_equals("nope"))]) == 0
        else:
            s.inject_faults([(0, FaultKind.CRASH_AFTER_BATCH)])
            with pytest.raises(InjectedCrash):
                s.atomic_write([put(k(pk=1), {"v": 1})])

        # Every later call runs on a thread with a deadline, so a lock the
        # failed call kept fails the test instead of hanging it.
        def work(t):
            before = s.counters()
            assert s.atomic_write([put(k(pk=2), {"v": 2})]) is None
            assert s.read(k(pk=2)) == {"v": 2}
            assert k(pk=2) in [r.key for r in s.dump()]
            after = s.counters()
            assert (after.atomic_write_batches, after.reads) == (
                before.atomic_write_batches + 1,
                before.reads + 1,
            )

        assert run_threads(work, 1, timeout=10) == []


class TestCounterTraceAgreement:
    def test_counters_equal_an_independent_operation_trace(self):
        s = store(consistent=True)
        trace = {"reads": 0, "batches": 0, "written": 0, "db_tx": 0}
        plan = [
            ("write", [put(k(pk=1), {"v": 1}), put(k(pk=2), {"v": 2})]),
            ("read", k(pk=1)),
            ("write", [put(k(pk=1), {"v": 3}, if_tx_id_equals("nope"))]),  # fails
            ("snapshot", [k(pk=1), k(pk=2)]),
            ("read", k(pk=9)),
            ("write", [delete(k(pk=2))]),
        ]
        for op, arg in plan:
            if op == "write":
                if s.atomic_write(arg) is None:
                    trace["batches"] += 1
                    trace["written"] += len(arg)
                    trace["db_tx"] += 1
            elif op == "read":
                s.read(arg)
                trace["reads"] += 1
            else:
                s.snapshot_read(arg)
                trace["reads"] += len(arg)
                trace["db_tx"] += 1
        counters = s.counters()
        assert counters.reads == trace["reads"]
        assert counters.atomic_write_batches == trace["batches"]
        assert counters.written_records == trace["written"]
        assert counters.db_transactions == trace["db_tx"]
        assert counters.condition_failures == 1


# --- oracle equivalence: replay random schedules against a plain dict ---------

ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete", "read", "scan"]),
        st.integers(0, 2),  # partition
        st.integers(0, 2),  # clustering
        st.integers(0, 5),  # value / condition selector
    ),
    max_size=40,
)


class ReferenceMap:
    """Single-threaded model of the conditional-batch contract."""

    def __init__(self):
        self.rows = {}

    def holds(self, write):
        return _holds(write.condition, self.rows.get(write.key))

    def atomic_write(self, writes):
        for i, write in enumerate(writes):
            if not self.holds(write):
                return i
        for write in writes:
            if write.kind is WriteKind.DELETE:
                self.rows.pop(write.key, None)
            else:
                self.rows[write.key] = dict(write.columns)
        return None


@settings(max_examples=60, deadline=None)
@given(ops)
def test_matches_reference_replay(schedule):
    s = MemStore("s1", MemStoreConfig(make_caps()))
    ref = ReferenceMap()
    conditions = [
        UNCONDITIONAL,
        IF_NOT_EXISTS,
        if_tx_id_equals("a"),
        if_tx_id_equals("b"),
        if_columns_equal({"v": 1, COL_TX_ID: "a"}),
        if_columns_equal({"v": True, COL_TX_ID: "a"}),  # never holds: True is not 1
    ]
    for op, pk, ck, x in schedule:
        key = k(pk=pk, ck=ck)
        if op == "put":
            write = ConditionalWrite(key, {"v": x, COL_TX_ID: "a" if x % 2 else "b"}, conditions[x])
            assert s.atomic_write([write]) == ref.atomic_write([write])
        elif op == "delete":
            write = ConditionalWrite(key, {}, conditions[x], WriteKind.DELETE)
            assert s.atomic_write([write]) == ref.atomic_write([write])
        elif op == "read":
            got = s.read(key)
            expected = ref.rows.get(key)
            assert got == expected
        else:
            scanned = s.scan(GroupKey("s1", "app", "t", (pk,)))
            got = {FullKey("s1", "app", "t", (pk,), ck): dict(row) for ck, row in scanned}
            expected = {
                key: dict(columns)
                for key, columns in ref.rows.items()
                if key.partition_key == (pk,)
            }
            assert got == expected
