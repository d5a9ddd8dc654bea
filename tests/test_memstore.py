"""In-memory adapter semantics, checked against a sequential reference map."""

import functools
import random
import sys
import threading
import time
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

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
    WriteKind,
    build_memstore,
    if_columns_equal,
    if_tx_id_equals,
)
from fedtx.memstore import OpCounters, RWLock
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
        assert s.read(k()).columns == {"v": 1}

    def test_failed_condition_leaves_prior_value(self):
        s = store()
        s.atomic_write([put(k(), {"v": 1, COL_TX_ID: "a"})])
        failed = s.atomic_write([put(k(), {"v": 2}, if_tx_id_equals("b"))])
        assert failed == 0
        assert dict(s.read(k()).columns) == {"v": 1, COL_TX_ID: "a"}

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
        assert s.read(b).columns["v"] == 2

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


_META_KEY = k(pk=1, ck=1, table="t_meta")


def _view_store():
    s = store(consistent=True, view=True)
    s.register_join_view("v", "app", "t", "t_meta")
    s.atomic_write([put(k(pk=1, ck=1), {"v": 1}), put(_META_KEY, {COL_TX_ID: "t0"})])
    return s


_SHARED_READS = {
    "read": lambda s: s.read(k(pk=1, ck=1)),
    "snapshot_read": lambda s: s.snapshot_read([k(pk=1, ck=1)])[0],
    "scan": lambda s: s.scan(GroupKey("s1", "app", "t", (1,)))[0],
    "view_read": lambda s: s.view_read("v", k(pk=1, ck=1)),
    "dump": lambda s: next(r for r in s.dump() if r.key == k(pk=1, ck=1)),
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
        record = _SHARED_READS[how](s)
        expected = {"v": 1, COL_TX_ID: "t0"} if how == "view_read" else {"v": 1}
        assert record.columns == expected
        with pytest.raises(TypeError):
            record.columns["v"] = 3
        _LATER_WRITES[later](s)
        assert record.columns == expected


class TestScan:
    def prefix(self, pk=1):
        return GroupKey("s1", "app", "t", (pk,))

    def test_scan_empty_partition(self):
        assert store().scan(self.prefix()) == []

    def test_scan_orders_by_clustering_key(self):
        s = store()
        for ck in (3, 1, 2):
            s.atomic_write([put(k(pk=1, ck=ck), {"v": ck})])
        assert [r.key.clustering_key for r in s.scan(self.prefix())] == [(1,), (2,), (3,)]

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
            scanned = [r.key.clustering_key for r in s.scan(self.prefix(pk))]
            assert scanned == sorted(cks, key=functools.cmp_to_key(reference))

    def test_scan_of_mixed_component_types_raises(self):
        s = store()
        s.atomic_write([put(k(pk=1, ck=1), {"v": 1}), put(k(pk=1, ck="a"), {"v": 2})])
        with pytest.raises(TypeError):
            s.scan(self.prefix())
        s.atomic_write([delete(k(pk=1, ck="a"))])  # the scan released its latch
        assert [r.key.clustering_key for r in s.scan(self.prefix())] == [(1,)]

    def test_scan_after_delete(self):
        s = store()
        for ck in (1, 2, 3):
            s.atomic_write([put(k(pk=1, ck=ck), {"v": ck})])
        s.atomic_write([delete(k(pk=1, ck=2))])
        assert [r.key.clustering_key for r in s.scan(self.prefix())] == [(1,), (3,)]

    def test_scan_requires_partition_depth(self):
        with pytest.raises(ValueError):
            store().scan(GroupKey("s1", "app", "t"))
        with pytest.raises(ValueError):  # a clustering key is deeper than one partition
            store().scan(GroupKey("s1", "app", "t", (1,), (1,)))

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
                        r for r in dump
                        if (r.key.namespace, r.key.table, r.key.partition_key) == (ns, table, pk)
                    ),
                    key=lambda r: r.key.clustering_key,
                )
                assert s.scan(GroupKey("s1", ns, table, pk)) == expected

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
        """Writers on separate partition latches share the index's outer map."""
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
                    got = [(r.key.clustering_key, dict(r.columns)) for r in s.scan(prefix)]
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
        assert got[0].columns["v"] == 1
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
                assert a.columns["v"] == b.columns["v"]
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
        joined = s.view_read("v", k(pk=1))
        assert dict(joined.columns) == {"v": 1, COL_TX_ID: "t0"}

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
        s = self.view_store()
        s.atomic_write([put(k(pk=1), {"v": 1})])
        s.atomic_write([put(k(pk=1, table="t_meta"), {COL_TX_ID: "t0"})])
        assert s.view_read("v", k(pk=1)).key == k(pk=1)
        assert s.view_read("v", k(pk=1, table="t_meta")).key == k(pk=1)
        assert s.view_read("v", k(storage="elsewhere", pk=1)).key == k(pk=1)

    def test_two_latch_join_stays_consistent_beside_a_writer_and_dumps(self):
        """A TABLE-unit view joins rows under two latches; reads, writes and dumps interleave.

        The writer bumps the application row, then the metadata row, so at
        any one instant the application value is the metadata value or one
        ahead of it. A view read that holds both latches sees one instant.
        """
        s = MemStore("s1", MemStoreConfig(make_caps(AtomicityUnit.TABLE, True, True)))
        s.register_join_view("v", "app", "t", "t_meta")
        app_key, meta_key = k(pk=1), k(pk=1, table="t_meta")
        s.atomic_write([put(app_key, {"v": 0})])
        s.atomic_write([put(meta_key, {COL_TX_ID: "t0"})])
        assert len(s._latches) == 2  # one per table
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
                lag = joined.columns["v"] - int(joined.columns[COL_TX_ID][1:])
                assert lag in (0, 1), dict(joined.columns)

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


class TestLatches:
    @pytest.mark.parametrize("threads", [2, 8])
    def test_racing_first_touches_share_one_latch(self, threads):
        s = MemStore("s1", MemStoreConfig(make_caps(AtomicityUnit.PARTITION)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for pk in range(50):
                scope = scope_of(k(pk=pk), AtomicityUnit.PARTITION)
                barrier = threading.Barrier(threads)
                got = []

                def touch():
                    barrier.wait()
                    got.append(s._key_latch(k(pk=pk)))

                workers = [threading.Thread(target=touch) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=30)
                assert len(got) == threads
                assert all(latch is got[0] for latch in got)
                assert isinstance(got[0], RWLock)
                assert s._latches[scope] is got[0]
                assert len(s._latches) == pk + 1
        finally:
            sys.setswitchinterval(interval)


    @staticmethod
    def wait_for_waiters(latch, count, timeout=10):
        deadline = time.monotonic() + timeout
        while latch._waiting != count:
            assert time.monotonic() < deadline, f"{latch._waiting} of {count} threads waiting"
            time.sleep(0.001)

    def test_a_writer_waits_for_the_last_reader(self):
        latch = RWLock()
        latch.acquire_read()
        latch.acquire_read()
        acquired = threading.Event()

        def write():
            latch.acquire_write()
            acquired.set()
            latch.release_write()

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        self.wait_for_waiters(latch, 1)
        latch.release_read()
        assert not acquired.wait(0.05)  # one reader still holds the latch
        latch.release_read()
        assert acquired.wait(10)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert latch._waiting == 0

    def test_readers_wait_for_a_writer_and_all_wake(self):
        latch = RWLock()
        latch.acquire_write()
        done = []

        def read(i):
            latch.acquire_read()
            done.append(i)
            latch.release_read()

        readers = [threading.Thread(target=read, args=(i,), daemon=True) for i in range(4)]
        for reader in readers:
            reader.start()
        self.wait_for_waiters(latch, 4)
        assert done == []
        latch.release_write()
        for reader in readers:
            reader.join(timeout=10)
        assert not any(reader.is_alive() for reader in readers)
        assert sorted(done) == [0, 1, 2, 3]

    def test_two_readers_share_the_latch(self):
        latch = RWLock()
        latch.acquire_read()
        inside, leave = threading.Event(), threading.Event()

        def read():
            latch.acquire_read()
            inside.set()
            leave.wait(10)
            latch.release_read()

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        assert inside.wait(10)  # entered while this thread still holds the latch
        assert latch._readers == 2 and latch._waiting == 0
        leave.set()
        reader.join(timeout=10)
        latch.release_read()
        assert not reader.is_alive()
        latch.acquire_write()  # every reader left, so the latch is free
        latch.release_write()

    def test_mixed_holders_never_overlap_a_writer_or_lose_a_wakeup(self):
        latch = RWLock()
        threads = 8
        book = threading.Lock()
        holders = {"readers": 0, "writers": 0}
        overlaps = []
        barrier = threading.Barrier(threads)

        def hold(rng, write):
            with book:
                kind = "writers" if write else "readers"
                holders[kind] += 1
                if holders["writers"] > 1 or (holders["writers"] and holders["readers"]):
                    overlaps.append(dict(holders))
            for _ in range(rng.randrange(3)):
                time.sleep(0)  # hand the CPU over while holding
            with book:
                holders[kind] -= 1

        def work(t):
            rng = random.Random(t)
            barrier.wait()
            for _ in range(1_500):
                if rng.random() < 0.3:
                    latch.acquire_write()
                    try:
                        hold(rng, True)
                    finally:
                        latch.release_write()
                else:
                    latch.acquire_read()
                    try:
                        hold(rng, False)
                    finally:
                        latch.release_read()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # daemon: a thread stranded by a lost wakeup must not hold the run open
            workers = [threading.Thread(target=work, args=(t,), daemon=True) for t in range(threads)]
            for worker in workers:
                worker.start()
            deadline = time.monotonic() + 60
            for worker in workers:
                worker.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers), "lost wakeup"
        assert overlaps == []
        assert (latch._readers, latch._writer, latch._waiting) == (0, False, 0)


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
        assert s.read(k(pk=1)).columns == {"v": 1}
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
                    pk = rng.randrange(4)  # threads share partitions, so latches contend
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
        current = self.rows.get(write.key)
        kind = write.condition.kind
        if kind.name == "UNCONDITIONAL":
            return True
        if kind.name == "IF_NOT_EXISTS":
            return current is None
        if kind.name == "IF_COLUMNS_EQUAL":
            expected = write.condition.expected_columns
            return current == expected and all(type(current[n]) is type(v) for n, v in expected.items())
        return current is not None and current.get(COL_TX_ID) == write.condition.expected_tx_id

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
            assert (got.columns if got else None) == (dict(expected) if expected else None)
        else:
            got = {r.key: dict(r.columns) for r in s.scan(GroupKey("s1", "app", "t", (pk,)))}
            expected = {
                key: dict(columns)
                for key, columns in ref.rows.items()
                if key.partition_key == (pk,)
            }
            assert got == expected
