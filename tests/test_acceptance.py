"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its runtime budget. Counts are exact, not approximate.
"""

import random
import threading
import time
from contextlib import contextmanager

import pytest

from fedtx import (
    AtomicityUnit,
    ConflictAbort,
    FaultKind,
    InjectedCrash,
    RecoveryFailed,
)
from fedtx.decoupling import ReadPath, logical_key, read_dispatch, read_snapshot, read_split
from fedtx.records import COL_STATE, META_PREFIX
from fedtx.verifier import HistoryRecorder, audit_atomicity, check_serializable
from conftest import (
    METADATA_MODES,
    build_env,
    decode_metadata,
    k,
    make_caps,
    mode_env_args,
    run_workload,
)

COORD = ("coord", "coordinator", "state")


@contextmanager
def criterion(number, label, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} [{label}]: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE {number} [{label}]: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"


def total(counts, name):
    return sum(getattr(c, name) for c in counts.values())


TWO_STORAGES = {"s1": make_caps(), "s2": make_caps()}
# The pre-AU baseline: the same two stores, declaring only record-level atomicity.
TWO_RECORD_STORAGES = dict.fromkeys(TWO_STORAGES, make_caps(AtomicityUnit.RECORD))


def test_criterion_1_grouping_count_reduction():
    """Workload-F, 8 ops, two storages: 5 write transactions per commit vs 17.

    The 17 is the same workload over stores that declare ``AtomicityUnit.RECORD``.
    """
    with criterion(1, "write-transaction reduction", 30):
        with_grouping = run_workload(build_env(TWO_STORAGES), 1_000)
        assert total(with_grouping, "db_transactions") == 5 * 1_000

        without = run_workload(build_env(TWO_RECORD_STORAGES), 1_000)
        assert total(without, "db_transactions") == 17 * 1_000


def test_criterion_2_one_phase_commit():
    """Single storage: exactly one batch per commit, coordinator untouched."""
    with criterion(2, "one-phase commit", 10):
        for ops in (1, 4, 8):
            counts = run_workload(build_env(), 200, ops_per_tx=ops)
            assert counts["s1"].atomic_write_batches == 200
            assert counts["coord"].atomic_write_batches == 0


def test_criterion_3_read_amplification():
    """Workload-C, 8 ops: 8 / 32 / 16-in-8 / 8-view reads per transaction."""
    with criterion(3, "split-metadata read amplification", 30):
        def reads(mode):
            return run_workload(build_env(**mode_env_args(mode)), 200, read_only=True)

        counts = reads("colocated")
        assert total(counts, "reads") == 8 * 200
        assert total(counts, "view_reads") == 0

        counts = reads("split_reads")
        assert total(counts, "reads") == 32 * 200

        counts = reads("snapshot")
        assert total(counts, "reads") == 16 * 200
        assert total(counts, "db_transactions") == 8 * 200  # zero validation reads

        counts = reads("view")
        assert total(counts, "reads") == 8 * 200
        assert total(counts, "view_reads") == 8 * 200


def test_criterion_4_write_batching_with_split_metadata():
    """Split metadata doubles written records without adding batches."""
    with criterion(4, "split-metadata write batching", 30):
        for one_phase in (True, False):
            colocated = build_env(**mode_env_args("colocated"), one_phase=one_phase)
            split = build_env(**mode_env_args("split_reads"), one_phase=one_phase)
            base = run_workload(colocated, 300)["s1"]
            doubled = run_workload(split, 300)["s1"]
            assert doubled.written_records == 2 * base.written_records
            assert doubled.atomic_write_batches == base.atomic_write_batches


def _dump_versions(env):
    versions = {}
    for name in ("s1", "s2"):
        for record in env.adapter(name).dump():
            if COL_STATE not in record.columns:
                continue
            versions[logical_key(record.key).render()] = record.columns["_tx_version"]
    return versions


MODES = list(METADATA_MODES)


def test_criterion_5_serializable_histories():
    """1,000 random concurrent schedules all pass the serial-order search."""
    with criterion(5, "serializability", 300):
        rng = random.Random(501)
        checked = 0
        for i in range(1_000):
            env = build_env(**mode_env_args(MODES[i % 4], ("s1", "s2")))
            keys = [k(s, pk) for s in ("s1", "s2") for pk in range(4)]
            for key in rng.sample(keys, 4):  # preload half the key space
                tx = env.manager.begin()
                tx.put(key, {"v": 0})
                tx.commit()
            initial = _dump_versions(env)
            recorder = HistoryRecorder()
            env.manager.history = recorder
            seeds = [rng.randrange(2**30) for _ in range(4)]

            def worker(seed):
                thread_rng = random.Random(seed)
                for _ in range(thread_rng.randint(1, 2)):
                    tx = env.manager.begin(serializable=True)
                    try:
                        for key in thread_rng.sample(keys, thread_rng.randint(1, 3)):
                            value = tx.get(key)
                            if thread_rng.random() < 0.7:
                                base = value["v"] if value else 0
                                tx.put(key, {"v": base + 1})
                        tx.commit()
                    except (ConflictAbort, RecoveryFailed):
                        pass

            threads = [threading.Thread(target=worker, args=(s,)) for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            env.manager.drain_commit_records()
            history = recorder.history(initial)
            history.final = _dump_versions(env)
            assert check_serializable(history) is None
            checked += len(history.committed())
        assert checked > 1_000  # the schedules actually committed work


def test_criterion_6_crash_atomicity():
    """1,000 crash-injected workloads audit clean after recovery."""
    with criterion(6, "crash atomicity", 300):
        rng = random.Random(601)
        crashes = 0
        for i in range(1_000):
            decoupled = i % 2 == 1
            env = build_env(
                storages={"s1": make_caps(), "s2": make_caps()},
                decoupled=decoupled,
            )
            keys = [k(s, pk) for s in ("s1", "s2") for pk in range(4)]
            for key in rng.sample(keys, 4):
                tx = env.manager.begin()
                tx.put(key, {"v": 0})
                tx.commit()
            initial = _dump_versions(env)
            recorder = HistoryRecorder()
            env.manager.history = recorder

            # plant crashes across every pipeline phase: batch indices cover
            # prepare, outcome, commit-record, and rollback writes
            for name in ("s1", "s2", "coord"):
                if rng.random() < 0.6:
                    kind = rng.choice(list(FaultKind))
                    env.adapter(name).inject_faults([(rng.randrange(6), kind)])

            for _ in range(6):
                tx = env.manager.begin(serializable=rng.random() < 0.3)
                try:
                    for key in rng.sample(keys, rng.randint(1, 3)):
                        value = tx.get(key)
                        base = value["v"] if value else 0
                        tx.put(key, {"v": base + 1})
                    tx.commit()
                except InjectedCrash:
                    crashes += 1
                    if tx.attempt is not None:
                        recorder.record(tx.attempt)
                except (ConflictAbort, RecoveryFailed):
                    pass

            for name in ("s1", "s2", "coord"):
                env.adapter(name).clear_faults()
            env.manager.recover_all_prepared()
            findings = audit_atomicity(env.dump_all(), recorder.history(initial), COORD)
            assert findings == [], f"workload {i}: {findings}"
        assert crashes >= 300  # the faults actually fired


class _InterposingReader:
    """Runs a one-shot ``callback`` right after the store's next application-row read.

    It overrides ``read`` on the store instance, so the registry keeps routing
    to the same store.
    """

    def __init__(self, store):
        self.callback = None
        self._read = store.read
        store.read = self.read

    def read(self, key):
        result = self._read(key)
        if self.callback is not None and not key.table.endswith("_meta"):
            callback, self.callback = self.callback, None
            callback()
        return result


def test_criterion_7_torn_read_safety():
    """A writer landing between the two split reads always forces an abort."""
    with criterion(7, "torn-read safety", 60):
        env = build_env(decoupled=True)
        hook = _InterposingReader(env.adapters["s1"])
        tx = env.manager.begin()
        tx.put(k(), {"v": 0})
        tx.commit()

        aborted = 0
        for round_no in range(1, 101):
            def interpose(value=round_no):
                writer = env.manager.begin()
                writer.put(k(), {"v": value})
                writer.commit()

            reader = env.manager.begin()
            hook.callback = interpose
            stale = reader.get(k())
            assert stale == {"v": round_no - 1}  # joined pair is torn
            try:
                reader.commit()
            except ConflictAbort:
                aborted += 1
        assert aborted == 100


def test_split_reads_read_only_get_keeps_a_committed_write():
    """A writer that dies past its commit point between the two split reads of a get.

    The reader finds the writer's PREPARED metadata beside the application
    row it read before the writer prepared. Rolling forward that torn pair
    would store the old value under the writer's COMMITTED metadata.
    """
    env = build_env(decoupled=True, one_phase=False)
    hook = _InterposingReader(env.adapters["s1"])
    tx = env.manager.begin()
    tx.put(k(), {"v": 0})
    tx.commit()

    def interpose():
        writer = env.manager.begin()
        writer.put(k(), {"v": 10})
        # the outcome record lands, then the writer dies before its commit records
        env.adapter("coord").inject_faults([(0, FaultKind.CRASH_AFTER_BATCH)])
        with pytest.raises(InjectedCrash):
            writer.commit()
        env.adapter("coord").clear_faults()

    reader = env.manager.begin()
    hook.callback = interpose
    assert reader.get(k()) == {"v": 10}
    reader.commit()
    assert env.manager.begin().get(k()) == {"v": 10}, "the writer's committed 10 was lost"
    assert not [r for r in env.dump_all() if r.columns.get(COL_STATE) == "PREPARED"]


def test_split_reads_read_modify_write_keeps_a_concurrent_update():
    """A writer landing between the two split reads of a read-modify-write."""
    env = build_env(decoupled=True)
    hook = _InterposingReader(env.adapters["s1"])
    tx = env.manager.begin()
    tx.put(k(), {"v": 0})
    tx.commit()

    def interpose():
        writer = env.manager.begin()
        writer.put(k(), {"v": 10})
        writer.commit()

    reader = env.manager.begin()
    hook.callback = interpose
    stale = reader.get(k())
    reader.put(k(), {"v": stale["v"] + 1})
    try:
        reader.commit()
    except ConflictAbort:
        return
    assert env.manager.begin().get(k())["v"] >= 10, "the writer's committed 10 was lost"


def test_criterion_8_read_route_equivalence():
    """All three split-read routes agree field-exactly on a quiescent store."""
    with criterion(8, "read route equivalence", 60):
        env = build_env(
            storages={"s1": make_caps(consistent=True, view=True)},
            decoupled=True,
            register_views=True,
        )
        rng = random.Random(801)
        present = set(rng.sample(range(10_000), 8_000))
        for start in range(0, 10_000, 200):
            tx = env.manager.begin()
            for pk in [i for i in range(start, start + 200) if i in present]:
                tx.put(k(pk=pk), {"v": pk, "blob": rng.randbytes(8)})
            tx.commit()

        cfg = env.manager.decoupling
        for pk in rng.sample(range(10_000), 10_000):
            key = k(pk=pk)
            split = read_split(env.registry, cfg, key)
            [snapshot] = read_snapshot(env.registry, cfg, [key])
            view = read_dispatch(env.registry, cfg, key)
            assert view.path is ReadPath.VIEW
            assert split.app_columns == snapshot.app_columns == view.app_columns
            metas = [decode_metadata(result.meta) for result in (split, snapshot, view)]
            assert metas[0] == metas[1] == metas[2]


def _application_state(env):
    state = {}
    for name, adapter in env.adapters.items():
        if name == "coord":
            continue
        for record in adapter.dump():
            columns = {
                name: value
                for name, value in record.columns.items()
                if not name.startswith(META_PREFIX)
            }
            state[record.key.render()] = columns
    return state


def test_criterion_9_grouping_is_semantically_neutral():
    """500-transaction deterministic replay: grouping never changes values.

    The third configuration replays it over stores that declare ``AtomicityUnit.RECORD``.
    """
    with criterion(9, "grouping semantic neutrality", 60):
        states = []
        configs = ((TWO_STORAGES, True), (TWO_STORAGES, False), (TWO_RECORD_STORAGES, True))
        for storages, one_phase in configs:
            env = build_env(storages, one_phase=one_phase)
            run_workload(env, 500, record_count=200, seed=909)
            states.append(_application_state(env))
        assert states[0] == states[1] == states[2]
