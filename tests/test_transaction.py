"""Transaction lifecycle, the commit pipeline, conflicts, and lazy recovery."""

import re
import sys
import threading
from collections import Counter
from dataclasses import replace
from types import MappingProxyType

import pytest

import fedtx.decoupling
import fedtx.memstore
import fedtx.records
import fedtx.transaction
from fedtx import (
    AtomicityUnit,
    CapabilityUnsupported,
    ConditionalWrite,
    ConflictAbort,
    DecoupleConfig,
    FaultKind,
    GroupKey,
    InjectedCrash,
    MissingMetadata,
    OpCounters,
    RecoveryFailed,
    TransactionFinished,
    TransactionManager,
    TxState,
    TxStatus,
    UnknownStorage,
    WriteKind,
)
from fedtx.decoupling import ReadPath, read_dispatch
from fedtx.model import FullKey, Record, value_tag
from fedtx.records import (
    BEFORE_COLUMN_PREFIX,
    COL_BEFORE,
    COL_BEFORE_VERSION,
    COL_DELETED,
    COL_STATE,
    COL_TX_ID,
    COL_VERSION,
    COORD_STATE_COLUMN,
    outcome_committed,
)
from fedtx.storage import WriteCondition
from fedtx.verifier import History, HistoryRecorder, audit_atomicity
from conftest import (
    METADATA_MODES,
    SETTLED_METADATA_COLUMNS,
    BeforeImage,
    MinimalAdapter,
    TransactionMetadata,
    build_env,
    decode_metadata,
    k,
    make_caps,
    mode_env_args,
    reference_columns,
    reference_metadata_columns,
    split_columns,
    stored_row,
)


def committed_value(env, key):
    tx = env.manager.begin()
    return tx.get(key)


def seed(env, key, value):
    tx = env.manager.begin()
    tx.put(key, {"v": value})
    tx.commit()


class TestLifecycle:
    def test_begin_hands_out_distinct_active_transactions(self, env):
        t1, t2 = env.manager.begin(), env.manager.begin()
        assert t1.tx_id != t2.tx_id
        assert t1.status is TxStatus.ACTIVE
        assert t1.read_set == {} and t1.write_set == {}

    def test_read_your_writes(self, env):
        tx = env.manager.begin()
        tx.put(k(), {"v": 1})
        assert tx.get(k()) == {"v": 1}
        assert env.counters("s1").atomic_write_batches == 0

    def test_last_write_wins_in_buffer(self, env):
        tx = env.manager.begin()
        tx.put(k(), {"v": 1})
        tx.put(k(), {"v": 2})
        tx.commit()
        assert committed_value(env, k()) == {"v": 2}

    def test_delete_after_put_buffers_delete(self, env):
        tx = env.manager.begin()
        tx.put(k(), {"v": 1})
        tx.delete(k())
        assert tx.get(k()) is None
        tx.commit()
        assert committed_value(env, k()) is None

    def test_get_of_committed_record_populates_read_set(self, env):
        seed(env, k(), 5)
        tx = env.manager.begin()
        assert tx.get(k()) == {"v": 5}
        meta = decode_metadata(tx.read_set[k()].meta)
        assert meta.version == 1 and meta.tx_state is TxState.COMMITTED

    def test_repeated_get_reads_storage_once(self, env):
        seed(env, k(), 5)
        env.adapter("s1").reset_counters()
        tx = env.manager.begin()
        tx.get(k())
        tx.get(k())
        assert env.counters("s1").reads == 1

    @pytest.mark.parametrize("op", ["put", "delete"])
    @pytest.mark.parametrize("decoupled", [False, True], ids=["no-config", "config"])
    def test_a_write_to_an_unregistered_storage_is_refused_at_once(self, decoupled, op):
        env = build_env(decoupled=decoupled)
        tx = env.manager.begin()
        args = (k("s9"), {"v": 1}) if op == "put" else (k("s9"),)
        with pytest.raises(UnknownStorage, match="'s9'"):
            getattr(tx, op)(*args)
        assert tx.write_set == {}
        tx.commit()
        assert tx.status is TxStatus.COMMITTED

    def test_reserved_columns_rejected(self, env):
        tx = env.manager.begin()
        with pytest.raises(ValueError):
            tx.put(k(), {"_tx_id": "x"})

    def test_no_operations_after_commit(self, env):
        tx = env.manager.begin()
        tx.put(k(), {"v": 1})
        tx.commit()
        with pytest.raises(TransactionFinished):
            tx.get(k())
        with pytest.raises(TransactionFinished):
            tx.commit()


class TestTxIds:
    """A default tx id is the manager's random prefix plus its begin tick."""

    def test_two_managers_over_one_registry_never_share_an_id(self, env):
        other = TransactionManager(env.manager.registry, env.manager.coordinator)
        ids = {env.manager.begin().tx_id for _ in range(100)}
        ids |= {other.begin().tx_id for _ in range(100)}
        assert len(ids) == 200

    def test_threads_beginning_on_one_manager_never_share_an_id(self, env):
        per_thread = [[] for _ in range(4)]

        def begin_many(out):
            for _ in range(1_000):
                out.append(env.manager.begin().tx_id)

        threads = [threading.Thread(target=begin_many, args=(out,)) for out in per_thread]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "a thread hung"
        assert len({tx_id for out in per_thread for tx_id in out}) == 4_000

    def test_a_default_id_is_no_longer_than_a_uuid_string(self, env):
        tx = env.manager.begin()
        assert 0 < len(tx.tx_id) <= 36
        assert tx.tx_id.endswith(f".{tx.begin_at:x}")


class TestAbort:
    def test_abort_before_commit_touches_nothing(self, env):
        tx = env.manager.begin()
        tx.put(k(), {"v": 1})
        tx.abort()
        assert tx.status is TxStatus.ABORTED
        assert env.counters("s1").atomic_write_batches == 0
        assert env.counters("coord").atomic_write_batches == 0

    def test_double_abort_is_idempotent(self, env):
        tx = env.manager.begin()
        tx.abort()
        tx.abort()

    def test_abort_after_commit_is_an_error(self, env):
        tx = env.manager.begin()
        tx.put(k(), {"v": 1})
        tx.commit()
        with pytest.raises(TransactionFinished):
            tx.abort()

    def test_abort_after_crashed_commit_restores_store(self):
        env = build_env({"s1": make_caps(), "s2": make_caps()})
        seed(env, k("s1"), 1)
        seed(env, k("s2"), 2)
        victim = env.manager.begin()
        victim.put(k("s1"), {"v": 10})
        victim.put(k("s2"), {"v": 20})
        env.adapter("coord").inject_faults([(0, FaultKind.CRASH_BEFORE_BATCH)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter("coord").clear_faults()
        victim.abort()
        assert committed_value(env, k("s1")) == {"v": 1}
        assert committed_value(env, k("s2")) == {"v": 2}

    @pytest.mark.parametrize("decoupled", [False, True], ids=["colocated", "split"])
    @pytest.mark.parametrize(
        "one_phase, store, fault, outcome",
        [
            (False, "coord", (0, FaultKind.CRASH_BEFORE_BATCH), TxStatus.ABORTED),
            (False, "s2", (0, FaultKind.CRASH_BEFORE_BATCH), TxStatus.ABORTED),
            (False, "s2", (0, FaultKind.CRASH_AFTER_BATCH), TxStatus.ABORTED),
            (False, "coord", (0, FaultKind.CRASH_AFTER_BATCH), TxStatus.COMMITTED),
            (False, "s1", (1, FaultKind.CRASH_BEFORE_BATCH), TxStatus.COMMITTED),
            (False, "s2", (1, FaultKind.CRASH_BEFORE_BATCH), TxStatus.COMMITTED),
            # The one-phase victim overwrites a key blindly: batch #0 is the
            # guessed batch, which the seeded key fails; #1 is its retry.
            (True, "s1", (1, FaultKind.CRASH_BEFORE_BATCH), TxStatus.ABORTED),
            (True, "s1", (1, FaultKind.CRASH_AFTER_BATCH), TxStatus.COMMITTED),
        ],
        ids=[
            "before-outcome",
            "before-s2-prepare",
            "after-s2-prepare",
            "after-outcome",
            "before-s1-commit-record",
            "before-s2-commit-record",
            "before-one-phase-batch",
            "after-one-phase-batch",
        ],
    )
    def test_abort_after_crashed_commit_follows_the_outcome_record(
        self, decoupled, one_phase, store, fault, outcome
    ):
        recorder = HistoryRecorder()
        env = build_env({"s1": make_caps(), "s2": make_caps()}, decoupled=decoupled, history=recorder)
        seed(env, k("s1"), 1)
        seed(env, k("s2"), 2)
        # A one-phase victim writes one STORAGE-unit store; the outcome is
        # then the batch itself, with no coordinator record.
        writes = {k("s1"): {"v": 10}} if one_phase else {k("s1"): {"v": 10}, k("s2"): {"v": 20}}
        victim = env.manager.begin()
        for key, columns in writes.items():
            victim.put(key, columns)
        env.adapter(store).inject_faults([fault])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter(store).clear_faults()
        raised = False
        try:
            victim.abort()
        except TransactionFinished:
            raised = True
        prepared = [r.key.render() for r in env.dump_all() if r.columns.get(COL_STATE) == "PREPARED"]
        assert prepared == []
        coord_rows = {r.key.partition_key[0]: r.columns for r in env.adapter("coord").dump()}
        if one_phase:
            assert victim.tx_id not in coord_rows
        else:
            assert coord_rows[victim.tx_id]["tx_state"] == outcome.value
        committed = outcome is TxStatus.COMMITTED
        assert raised == committed
        assert victim.status is (TxStatus.COMMITTED if committed else TxStatus.ABORTED)
        assert recorder.history().entries[-1].outcome is outcome
        assert recorder.history().entries[-1].one_phase == one_phase
        seeded = {k("s1"): {"v": 1}, k("s2"): {"v": 2}}
        expected = {key: writes.get(key, seeded[key]) if committed else seeded[key] for key in seeded}
        assert {key: committed_value(env, key) for key in seeded} == expected
        coord = ("coord", "coordinator", "state")
        assert audit_atomicity(env.dump_all(), recorder.history(), coord) == []

    @pytest.mark.parametrize("decoupled", [False, True], ids=["colocated", "split"])
    @pytest.mark.parametrize("fault", list(FaultKind), ids=lambda f: f.name.lower())
    def test_abort_after_crashed_one_phase_delete_follows_the_batch(self, decoupled, fault):
        recorder = HistoryRecorder()
        env = build_env(decoupled=decoupled, history=recorder)
        seed(env, k(), 1)
        victim = env.manager.begin()
        victim.delete(k())
        env.adapter("s1").inject_faults([(0, fault)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter("s1").clear_faults()
        applied = fault is FaultKind.CRASH_AFTER_BATCH
        if applied:
            with pytest.raises(TransactionFinished):
                victim.abort()
        else:
            victim.abort()
        assert victim.status is (TxStatus.COMMITTED if applied else TxStatus.ABORTED)
        assert committed_value(env, k()) == (None if applied else {"v": 1})
        # audit_atomicity leaves deletions out of scope; the history must
        # still say what the store shows.
        assert recorder.history().entries[-1].outcome is victim.status

    @pytest.mark.parametrize("decoupled", [False, True], ids=["colocated", "split"])
    @pytest.mark.parametrize("fault", list(FaultKind), ids=lambda f: f.name.lower())
    def test_abort_after_crashed_one_phase_batch_looks_past_a_rewritten_key(self, decoupled, fault):
        """A later writer of the batch's first key leaves the other key to tell whether it landed."""
        recorder = HistoryRecorder()
        env = build_env(decoupled=decoupled, history=recorder)
        keys = [k(pk=1), k(pk=2)]
        for key in keys:
            seed(env, key, 1)
        victim = env.manager.begin()
        for key in keys:
            victim.put(key, {"v": 10})
        env.adapter("s1").inject_faults([(1, fault)])  # #0: the guessed batch, refuted
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter("s1").clear_faults()
        writer = env.manager.begin()
        writer.put(keys[0], {"v": writer.get(keys[0])["v"] + 100})
        writer.commit()
        applied = fault is FaultKind.CRASH_AFTER_BATCH
        if applied:
            with pytest.raises(TransactionFinished):
                victim.abort()
        else:
            victim.abort()
        assert victim.status is (TxStatus.COMMITTED if applied else TxStatus.ABORTED)
        assert recorder.history().entries[-1].one_phase
        assert recorder.history().entries[-1].outcome is victim.status
        expected = [{"v": 110}, {"v": 10}] if applied else [{"v": 101}, {"v": 1}]
        assert [committed_value(env, key) for key in keys] == expected
        coord = ("coord", "coordinator", "state")
        assert audit_atomicity(env.dump_all(), recorder.history(), coord) == []

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="a landed one-phase batch whose every key was rewritten since reads as not landed",
    )
    def test_abort_after_a_landed_one_phase_batch_with_every_key_rewritten(self):
        """No key still holds the victim's write or the version it observed, yet the batch landed."""
        recorder = HistoryRecorder()
        env = build_env(history=recorder)
        keys = [k(pk=1), k(pk=2)]
        for key in keys:
            seed(env, key, 1)
        victim = env.manager.begin()
        for key in keys:
            victim.put(key, {"v": 10})
        # #0 is the guessed batch, which the seeded keys refute; #1 lands.
        env.adapter("s1").inject_faults([(1, FaultKind.CRASH_AFTER_BATCH)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter("s1").clear_faults()
        writer = env.manager.begin()
        for key in keys:
            writer.put(key, {"v": writer.get(key)["v"] + 100})
        writer.commit()
        assert [committed_value(env, key) for key in keys] == [{"v": 110}, {"v": 110}]
        try:
            victim.abort()
        except TransactionFinished:
            pass
        assert victim.status is TxStatus.COMMITTED
        assert recorder.history().entries[-1].outcome is TxStatus.COMMITTED
        coord = ("coord", "coordinator", "state")
        assert audit_atomicity(env.dump_all(), recorder.history(), coord) == []


class TestCommitAfterCrash:
    """``commit()`` called again after a crashed commit finishes as ``abort()`` would.

    It returns when the stores say the transaction committed and raises
    ``ConflictAbort`` when they say it aborted; a committed handle never
    raises it.
    """

    COORD = ("coord", "coordinator", "state")

    @staticmethod
    def crash_then_commit_again(env, victim, store, fault):
        """Crash ``victim``'s commit at ``fault`` on ``store``, commit again; returns what it raised."""
        env.adapter(store).inject_faults([fault])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter(store).clear_faults()
        try:
            victim.commit()
        except ConflictAbort as error:
            return error
        return None

    def check_finished(self, env, recorder, victim, landed, error):
        assert victim.status is (TxStatus.COMMITTED if landed else TxStatus.ABORTED)
        assert (error is None) == landed
        assert [r.key for r in env.dump_all() if r.columns.get(COL_STATE) == "PREPARED"] == []
        assert recorder.history().entries[-1].outcome is victim.status
        assert audit_atomicity(env.dump_all(), recorder.history(), self.COORD) == []
        with pytest.raises(TransactionFinished):
            victim.commit()

    @pytest.mark.parametrize("fault", list(FaultKind), ids=lambda f: f.name.lower())
    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_commit_after_a_crashed_one_phase_insert(self, mode, fault):
        recorder = HistoryRecorder()
        env = build_env(**mode_env_args(mode), history=recorder)
        victim = env.manager.begin()
        victim.put(k(), {"v": 10})
        error = self.crash_then_commit_again(env, victim, "s1", (0, fault))
        landed = fault is FaultKind.CRASH_AFTER_BATCH
        self.check_finished(env, recorder, victim, landed, error)
        assert recorder.history().entries[-1].one_phase
        assert committed_value(env, k()) == ({"v": 10} if landed else None)
        assert env.counters("coord").atomic_write_batches == 0

    @pytest.mark.parametrize("fault", list(FaultKind), ids=lambda f: f.name.lower())
    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_commit_after_a_crashed_coordinator_write(self, mode, fault):
        recorder = HistoryRecorder()
        env = build_env(**mode_env_args(mode, storages=("s1", "s2")), history=recorder)
        seed(env, k("s1"), 1)
        seed(env, k("s2"), 2)
        victim = env.manager.begin()
        victim.put(k("s1"), {"v": 10})
        victim.put(k("s2"), {"v": 20})
        error = self.crash_then_commit_again(env, victim, "coord", (0, fault))
        landed = fault is FaultKind.CRASH_AFTER_BATCH
        self.check_finished(env, recorder, victim, landed, error)
        coord_rows = {r.key.partition_key[0]: r.columns for r in env.adapter("coord").dump()}
        assert coord_rows[victim.tx_id]["tx_state"] == victim.status.value
        expected = [{"v": 10}, {"v": 20}] if landed else [{"v": 1}, {"v": 2}]
        assert [committed_value(env, key) for key in (k("s1"), k("s2"))] == expected


class TestAttempt:
    @pytest.mark.parametrize("stores", [("s1",), ("s1", "s2")], ids=["one-phase", "two-phase"])
    def test_attempt_is_built_only_for_a_history_sink(self, stores):
        caps = {name: make_caps() for name in ("s1", "s2")}
        for recorder in (None, HistoryRecorder()):
            env = build_env(caps, history=recorder)
            seed(env, k("s1"), 1)
            tx = env.manager.begin()
            for name in stores:
                tx.put(k(name), {"v": 2})
            tx.commit()
            if recorder is None:
                assert tx.attempt is None
                continue
            versions = {"s1": 2, "s2": 1}
            writes = tuple((k(name).render(), versions[name]) for name in stores)
            entry = recorder.history().entries[-1]
            assert (entry.tx_id, entry.writes, entry.one_phase) == (
                tx.tx_id,
                writes,
                len(stores) == 1,
            )
            assert tx.attempt.outcome is TxStatus.ACTIVE
            finished = replace(tx.attempt, outcome=TxStatus.COMMITTED, commit_at=entry.commit_at)
            assert entry == finished


class TestCommitShapes:
    def test_single_storage_commits_in_one_batch(self, env):
        tx = env.manager.begin()
        for i in range(4):
            tx.put(k(pk=i), {"v": i})
        tx.commit()
        assert env.counters("s1").atomic_write_batches == 1
        assert env.counters("s1").written_records == 4
        assert env.counters("coord").atomic_write_batches == 0

    def test_two_storages_use_prepare_state_commit(self):
        env = build_env({"s1": make_caps(), "s2": make_caps()})
        tx = env.manager.begin()
        for i in range(4):
            tx.put(k("s1", pk=i), {"v": i})
            tx.put(k("s2", pk=i), {"v": i})
        tx.commit()
        # per storage: one prepare batch + one commit batch; one outcome write
        assert env.counters("s1").atomic_write_batches == 2
        assert env.counters("s2").atomic_write_batches == 2
        assert env.counters("coord").atomic_write_batches == 1
        total = sum(env.counters(n).db_transactions for n in ("s1", "s2", "coord"))
        assert total == 5

    def test_serializable_mode_disables_single_batch_commit(self, env):
        tx = env.manager.begin(serializable=True)
        tx.put(k(), {"v": 1})
        tx.commit()
        assert env.counters("s1").atomic_write_batches == 2  # prepare + commit
        assert env.counters("coord").atomic_write_batches == 1

    def test_read_only_commit_writes_nothing(self, env):
        seed(env, k(), 1)
        env.adapter("s1").reset_counters()
        env.adapter("coord").reset_counters()
        tx = env.manager.begin()
        tx.get(k())
        tx.commit()
        assert env.counters("s1").atomic_write_batches == 0
        assert env.counters("coord").atomic_write_batches == 0

    def test_noop_delete_commits_without_writes(self, env):
        tx = env.manager.begin()
        tx.delete(k(pk=404))
        tx.commit()
        assert env.counters("s1").atomic_write_batches == 0

    def test_rmw_on_split_tables_still_commits_in_one_batch(self):
        # every read is also written, so its conditional write validates it
        env = build_env(decoupled=True)
        seed(env, k(), 1)
        env.adapter("s1").reset_counters()
        tx = env.manager.begin()
        tx.get(k())
        tx.put(k(), {"v": 2})
        tx.commit()
        counters = env.counters("s1")
        assert counters.atomic_write_batches == 1
        assert counters.written_records == 2  # application row + metadata row
        assert env.counters("coord").atomic_write_batches == 0

    def test_split_read_not_rewritten_forces_full_pipeline(self):
        env = build_env(decoupled=True)
        seed(env, k(pk=1), 1)
        tx = env.manager.begin()
        tx.get(k(pk=1))  # split read needs validation, so no one-phase
        tx.put(k(pk=2), {"v": 2})
        env.adapter("s1").reset_counters()
        tx.commit()
        assert env.counters("coord").atomic_write_batches == 1

    @pytest.mark.parametrize(
        "groups, serializable, split_read",
        [(1, False, False), (2, False, False), (1, True, False), (1, False, True)],
        ids=["single-group", "two-groups", "serializable", "split-read"],
    )
    def test_one_phase_rule(self, groups, serializable, split_read):
        """One group that no re-read must cover commits in one batch; else one coordinator row."""
        env = build_env({"s1": make_caps(), "s2": make_caps()}, decoupled=split_read)
        seed(env, k(pk=2), 0)
        env.adapter("s1").reset_counters()
        tx = env.manager.begin(serializable=serializable)
        if split_read:
            assert tx.get(k(pk=2)) == {"v": 0}  # read by two reads, and not rewritten
        tx.put(k(), {"v": 1})
        if groups == 2:
            tx.put(k("s2"), {"v": 1})
        tx.commit()
        one_phase = (groups, serializable, split_read) == (1, False, False)
        assert env.counters("s1").atomic_write_batches == (1 if one_phase else 2)
        assert len(env.adapter("coord").dump()) == (0 if one_phase else 1)

    def test_version_chain_is_gapless(self, env):
        for value in range(5):
            txn = env.manager.begin()
            txn.put(k(), {"v": value})
            txn.commit()
        (record,) = [r for r in env.adapter("s1").dump()]
        assert record.columns[COL_VERSION] == 5
        assert record.columns[COL_STATE] == TxState.COMMITTED.value

    def test_async_commit_records_drain(self):
        env = build_env({"s1": make_caps(), "s2": make_caps()}, async_commit=True)
        tx = env.manager.begin()
        tx.put(k("s1"), {"v": 1})
        tx.put(k("s2"), {"v": 2})
        tx.commit()
        env.manager.drain_commit_records()
        states = {r.key.storage: r.columns[COL_STATE] for r in env.dump_all() if COL_STATE in r.columns}
        assert states == {"s1": "COMMITTED", "s2": "COMMITTED"}


class TestConflicts:
    def test_concurrent_rmw_exactly_one_commits(self, env):
        seed(env, k(), 0)
        t1, t2 = env.manager.begin(), env.manager.begin()
        assert t1.get(k()) == {"v": 0}
        assert t2.get(k()) == {"v": 0}
        t1.put(k(), {"v": 1})
        t2.put(k(), {"v": 100})
        t1.commit()
        with pytest.raises(ConflictAbort):
            t2.commit()
        # the surviving history equals running the winner alone
        assert committed_value(env, k()) == {"v": 1}
        assert t2.status is TxStatus.ABORTED

    def test_loser_rolls_back_and_records_outcome(self):
        env = build_env({"s1": make_caps(), "s2": make_caps()})
        seed(env, k("s1"), 0)
        t1, t2 = env.manager.begin(), env.manager.begin()
        t1.get(k("s1"))
        t2.get(k("s1"))
        t1.put(k("s1"), {"v": 1})
        t2.put(k("s1"), {"v": 2})
        t2.put(k("s2"), {"v": 2})  # two groups: s2 prepares, s1 fails
        t2_id = t2.tx_id
        t1.commit()
        with pytest.raises(ConflictAbort):
            t2.commit()
        # s2's prepared record was rolled back to absence
        assert committed_value(env, k("s2")) is None
        coord_rows = {r.key.partition_key[0]: r.columns for r in env.adapter("coord").dump()}
        assert coord_rows[t2_id]["tx_state"] == TxStatus.ABORTED.value

    def test_prepare_stops_at_the_first_conflict(self):
        env = build_env({"s1": make_caps(), "s2": make_caps()})
        seed(env, k("s1"), 0)
        t1, t2 = env.manager.begin(), env.manager.begin()
        t1.get(k("s1"))
        t2.get(k("s1"))
        t1.put(k("s1"), {"v": 1})
        t2.put(k("s1"), {"v": 2})
        t2.put(k("s2"), {"v": 2})  # s1's group comes first and fails
        t1.commit()
        with pytest.raises(ConflictAbort):
            t2.commit()
        assert env.counters("s2").atomic_write_batches == 0
        coord_rows = {r.key.partition_key[0]: r.columns for r in env.adapter("coord").dump()}
        assert coord_rows[t2.tx_id]["tx_state"] == TxStatus.ABORTED.value

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_a_dropped_no_op_delete_keeps_its_read_in_the_validation_plan(self, mode):
        """A serializable delete of a key read absent is dropped, but that read is still validated.

        T reads k1 absent; U then inserts k1 and rewrites k2. T reads U's k2,
        so T must serialize after U, where k1 exists. Only the re-read of k1
        shows that, since deleting nothing leaves no write to condition.
        """
        env = build_env(**mode_env_args(mode))
        seed(env, k(pk=2), 0)
        t = env.manager.begin(serializable=True)
        assert t.get(k(pk=1)) is None
        u = env.manager.begin()
        u.put(k(pk=1), {"v": 1})
        u.put(k(pk=2), {"v": 2})
        u.commit()
        assert t.get(k(pk=2)) == {"v": 2}
        t.delete(k(pk=1))
        t.put(k(pk=3), {"v": 3})
        with pytest.raises(ConflictAbort, match=r"presence of .*pk=\[1\].* changed"):
            t.commit()
        assert t.status is TxStatus.ABORTED
        assert committed_value(env, k(pk=1)) == {"v": 1}
        assert committed_value(env, k(pk=3)) is None

    def test_write_skew_rejected_in_serializable_mode(self, env):
        seed(env, k(pk=1), 0)
        seed(env, k(pk=2), 0)
        t1 = env.manager.begin(serializable=True)
        t2 = env.manager.begin(serializable=True)
        t1.get(k(pk=1))
        t2.get(k(pk=2))
        t1.put(k(pk=2), {"v": 1})
        t2.put(k(pk=1), {"v": 2})
        t1.commit()
        with pytest.raises(ConflictAbort):
            t2.commit()

    def test_write_skew_allowed_without_serializable_mode(self, env):
        seed(env, k(pk=1), 0)
        seed(env, k(pk=2), 0)
        t1 = env.manager.begin()
        t2 = env.manager.begin()
        t1.get(k(pk=1))
        t2.get(k(pk=2))
        t1.put(k(pk=2), {"v": 1})
        t2.put(k(pk=1), {"v": 2})
        t1.commit()
        t2.commit()  # no lost update: disjoint writes both apply

    @pytest.mark.parametrize("seeded", [False, True], ids=["created", "deleted"])
    def test_a_serializable_read_whose_key_appears_or_vanishes_aborts(self, env, seeded):
        if seeded:
            seed(env, k(pk=1), 0)
        reader = env.manager.begin(serializable=True)
        assert (reader.get(k(pk=1)) is None) is not seeded
        reader.put(k(pk=2), {"v": 1})
        other = env.manager.begin()
        if seeded:
            other.delete(k(pk=1))
        else:
            other.put(k(pk=1), {"v": 5})
        other.commit()
        with pytest.raises(ConflictAbort, match=re.escape(f"presence of {k(pk=1).render()} changed")):
            reader.commit()
        assert committed_value(env, k(pk=2)) is None

    def test_stale_read_only_transaction_aborts_when_serializable(self, env):
        seed(env, k(), 0)
        reader = env.manager.begin(serializable=True)
        reader.get(k())
        writer = env.manager.begin()
        writer.put(k(), {"v": 9})
        writer.commit()
        with pytest.raises(ConflictAbort):
            reader.commit()


class _OneShotHook:
    """Fires a one-shot callback at the first call matching the predicate.

    Subclasses override a method on the store instance itself, so the
    registry keeps routing to the same store.
    """

    def __init__(self):
        self.armed = None

    def arm(self, predicate, callback):
        self.armed = (predicate, callback)

    def _fire(self, argument):
        if self.armed is not None and self.armed[0](argument):
            _, callback = self.armed
            self.armed = None
            callback()


class ReadHook(_OneShotHook):
    """Fires right after a read of a key matching the predicate."""

    def __init__(self, store):
        super().__init__()
        self._read = store.read
        store.read = self.read

    def read(self, key):
        result = self._read(key)
        self._fire(key)
        return result


class WriteHook(_OneShotHook):
    """Fires right before a batch matching the predicate."""

    def __init__(self, store):
        super().__init__()
        self._atomic_write = store.atomic_write
        store.atomic_write = self.atomic_write

    def atomic_write(self, writes):
        self._fire(writes)
        return self._atomic_write(writes)


def hooked_env(**kwargs):
    env = build_env(**kwargs)
    return env, ReadHook(env.adapters["s1"])


class TestTornReads:
    def test_writer_between_split_reads_forces_abort(self):
        env, hook = hooked_env(decoupled=True)
        seed(env, k(), 0)

        def interpose():
            writer = env.manager.begin()
            writer.put(k(), {"v": 999})
            writer.commit()

        reader = env.manager.begin()
        hook.arm(lambda key: key.table == "t", interpose)
        value = reader.get(k())
        assert value == {"v": 0}  # stale application row joined with new metadata
        with pytest.raises(ConflictAbort):
            reader.commit()

    def test_quiet_split_read_commits(self):
        env, hook = hooked_env(decoupled=True)
        seed(env, k(), 0)
        reader = env.manager.begin()
        reader.get(k())
        reader.commit()

    @staticmethod
    def deleter(env, key):
        def interpose():
            writer = env.manager.begin()
            writer.delete(key)
            writer.commit()

        return interpose

    def test_a_delete_between_split_reads_reads_the_record_again(self):
        """The pair torn by a delete fails its join; the second read finds nothing."""
        env, hook = hooked_env(decoupled=True)
        seed(env, k(), 0)
        hook.arm(lambda key: key.table == "t", self.deleter(env, k()))
        reader = env.manager.begin()
        assert reader.get(k()) is None
        assert hook.armed is None
        assert reader.read_set[k()].present is False
        reader.commit()

    @staticmethod
    def route_reads(monkeypatch):
        """The key of every route read ``fedtx.transaction`` makes from now on."""
        reads = []
        dispatch = fedtx.transaction.read_dispatch

        def counted(*args):
            reads.append(args[2])
            return dispatch(*args)

        monkeypatch.setattr(fedtx.transaction, "read_dispatch", counted)
        return reads

    def test_an_insert_between_split_reads_reads_the_record_again(self, monkeypatch):
        """The first pair joins an absent application row to a new metadata row; the second read returns the record."""
        env, hook = hooked_env(decoupled=True)
        hook.arm(lambda key: key.table == "t", lambda: seed(env, k(), 5))
        reads = self.route_reads(monkeypatch)
        reader = env.manager.begin()
        assert reader.get(k()) == {"v": 5}
        assert hook.armed is None
        # The writer's blind insert reads nothing: only the reader's two reads count.
        assert reads == [k()] * 2
        reader.commit()
        assert reader.status is TxStatus.COMMITTED

    @pytest.mark.parametrize("mode", ["split_reads", "snapshot", "view"])
    def test_a_pair_that_stays_torn_raises_after_every_attempt(self, mode, monkeypatch):
        """Every route read counts, the fast first one too, and the error names the torn pair."""
        env = build_env(**mode_env_args(mode))
        env.adapter("s1").atomic_write([ConditionalWrite(k(), {"v": 1})])  # no metadata row
        reads = self.route_reads(monkeypatch)
        tx = env.manager.begin()
        with pytest.raises(RecoveryFailed, match=f"{re.escape(k().render())} kept reading as a torn"):
            tx.get(k())
        assert reads == [k()] * fedtx.transaction._RECOVERY_ATTEMPTS
        assert tx.status is TxStatus.ACTIVE and tx.read_set == {}

    def test_a_delete_during_validation_aborts(self):
        env, hook = hooked_env(decoupled=True)
        seed(env, k(pk=1), 0)
        reader = env.manager.begin()
        assert reader.get(k(pk=1)) == {"v": 0}
        reader.put(k(pk=2), {"v": 1})
        # k(pk=2) is read first, as the blind write's base; validation reads k(pk=1)
        hook.arm(lambda key: key == k(pk=1), self.deleter(env, k(pk=1)))
        with pytest.raises(ConflictAbort, match=re.escape(f"{k(pk=1).render()} was mid-removal")):
            reader.commit()
        assert hook.armed is None
        assert committed_value(env, k(pk=1)) is None
        assert committed_value(env, k(pk=2)) is None


class _WalkCountingDict(dict):
    walks = 0

    def items(self):
        self.walks += 1
        return super().items()


class TestValidationPlan:
    @staticmethod
    def walked_plan(manager, tx, written_keys):
        """The plan a walk of the whole read set gives, in every mode."""
        return [
            (key, obs)
            for key, obs in tx.read_set.items()
            if key not in written_keys
            and (
                tx.serializable
                or (manager.decoupling is not None and obs.path is ReadPath.SPLIT_READS)
            )
        ]

    @pytest.mark.parametrize("serializable", [False, True], ids=["plain", "serializable"])
    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_plan_matches_the_full_walk(self, mode, serializable):
        env = build_env(**mode_env_args(mode))
        for pk in range(6):
            seed(env, k(pk=pk), pk)
        tx = env.manager.begin(serializable=serializable)
        for pk in list(range(6)) + [99]:  # pk 99 is absent
            tx.get(k(pk=pk))
        tx.put(k(pk=0), {"v": 10})
        written = {k(pk=0)}
        expected = self.walked_plan(env.manager, tx, written)
        tx.read_set = _WalkCountingDict(tx.read_set)
        plan = env.manager._validation_plan(tx, written)
        assert plan == expected
        revalidated = serializable or mode == "split_reads"
        assert [key for key, _ in plan] == ([k(pk=pk) for pk in (1, 2, 3, 4, 5, 99)] if revalidated else [])
        # Without metadata tables or serializability nothing can need a re-read.
        skips = mode == "colocated" and not serializable
        assert tx.read_set.walks == (0 if skips else 1)
        tx.commit()
        assert tx.status is TxStatus.COMMITTED


class TestRecovery:
    def crash_env(self, mode="colocated"):
        env = build_env(**mode_env_args(mode, storages=("s1", "s2")))
        seed(env, k("s1"), 1)
        seed(env, k("s2"), 2)
        return env

    def crashed_commit(self, env, coordinator_fault, new_value=10, kind="put"):
        victim = env.manager.begin()
        if kind == "put":
            victim.put(k("s1"), {"v": new_value})
        else:
            victim.delete(k("s1"))
        victim.put(k("s2"), {"v": new_value})
        env.adapter("coord").inject_faults([(0, coordinator_fault)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter("coord").clear_faults()
        return victim

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_crash_before_outcome_rolls_back_on_read(self, mode):
        env = self.crash_env(mode)
        victim = self.crashed_commit(env, FaultKind.CRASH_BEFORE_BATCH)
        assert committed_value(env, k("s1")) == {"v": 1}  # never the prepared value
        coord_rows = {r.key.partition_key[0]: r.columns for r in env.adapter("coord").dump()}
        assert coord_rows[victim.tx_id]["tx_state"] == TxStatus.ABORTED.value

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_crash_after_outcome_rolls_forward_on_read(self, mode):
        env = self.crash_env(mode)
        self.crashed_commit(env, FaultKind.CRASH_AFTER_BATCH)
        assert committed_value(env, k("s1")) == {"v": 10}
        assert committed_value(env, k("s2")) == {"v": 10}
        # rolled-forward records are settled, with the rollback image cleared
        (row,) = [r.columns for r in env.adapter("s1").dump() if COL_STATE in r.columns]
        assert row[COL_STATE] == TxState.COMMITTED.value
        assert {name for name in row if name.startswith("_tx_")} == set(SETTLED_METADATA_COLUMNS)

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_roll_forward_of_prepared_delete_removes_record(self, mode):
        env = self.crash_env(mode)
        self.crashed_commit(env, FaultKind.CRASH_AFTER_BATCH, kind="delete")
        assert committed_value(env, k("s1")) is None
        assert not [r for r in env.adapter("s1").dump()]

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_prepared_re_create_rolls_back_to_a_delete_then_takes_a_fresh_put(self, mode):
        env = self.crash_env(mode)
        tx = env.manager.begin()
        tx.delete(k("s1"))
        tx.commit()
        assert not env.adapter("s1").dump()
        self.crashed_commit(env, FaultKind.CRASH_BEFORE_BATCH)
        prepared = [r.columns for r in env.adapter("s1").dump() if COL_STATE in r.columns]
        assert [(row[COL_STATE], COL_BEFORE in row) for row in prepared] == [("PREPARED", False)]
        assert committed_value(env, k("s1")) is None  # the re-create rolls back to a delete
        assert not env.adapter("s1").dump()  # of both halves, when split
        tx = env.manager.begin()
        tx.put(k("s1"), {"v": 5})
        tx.commit()
        (row,) = [r.columns for r in env.adapter("s1").dump() if COL_STATE in r.columns]
        assert (committed_value(env, k("s1")), row[COL_VERSION]) == ({"v": 5}, 1)
        assert committed_value(env, k("s2")) == {"v": 2}

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_crash_between_prepare_groups_sweep_restores(self, mode):
        env = self.crash_env(mode)
        victim = env.manager.begin()
        victim.put(k("s1"), {"v": 10})
        victim.put(k("s2"), {"v": 20})
        env.adapter("s2").inject_faults([(0, FaultKind.CRASH_BEFORE_BATCH)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter("s2").clear_faults()
        assert env.manager.recover_all_prepared() == 1  # only s1 was prepared
        assert committed_value(env, k("s1")) == {"v": 1}
        assert committed_value(env, k("s2")) == {"v": 2}

    def test_sweep_refuses_a_store_that_cannot_list_its_rows(self):
        """A sweep that skipped such a store would report every record settled."""
        env = build_env()
        env.registry.register(MinimalAdapter())
        with pytest.raises(CapabilityUnsupported, match="'bare' cannot list its rows"):
            env.manager.recover_all_prepared()

    def test_sweep_reads_again_after_a_torn_roll_forward(self):
        """A sweep's roll-forward built from a torn split read fails, and the record is read again."""
        env = build_env(decoupled=True, one_phase=False)
        seed(env, k(), 0)
        hook = ReadHook(env.adapters["s1"])

        def commit_then_die(value):
            writer = env.manager.begin()
            writer.put(k(), {"v": value})
            env.adapter("coord").inject_faults([(0, FaultKind.CRASH_AFTER_BATCH)])
            with pytest.raises(InjectedCrash):
                writer.commit()  # dies past its commit point, records still PREPARED
            env.adapter("coord").clear_faults()

        commit_then_die(10)
        # Between the sweep's two reads, a second writer settles the first
        # and dies past its own commit point: the sweep joins the first
        # writer's value with the second writer's metadata.
        hook.arm(lambda key: key.table == "t", lambda: commit_then_die(20))
        assert env.manager.recover_all_prepared() == 1
        assert hook.armed is None
        assert not [r for r in env.dump_all() if r.columns.get(COL_STATE) == "PREPARED"]
        assert committed_value(env, k()) == {"v": 20}

    def test_recovery_that_runs_out_of_attempts_leaves_the_transaction_active(self):
        env = build_env()
        seed(env, k(), 0)
        store = env.adapter("s1")
        # A row that stays PREPARED however often it is settled: its rollback's
        # tx-id condition never holds against the stored row.
        ghost = TransactionMetadata("ghost", 2, TxState.PREPARED)
        stuck = MappingProxyType(stored_row({"v": 5}, ghost))
        reads = []

        def stuck_read(key):
            reads.append(key)
            return stuck

        store.read = stuck_read
        tx = env.manager.begin()
        with pytest.raises(RecoveryFailed, match=re.escape(k().render())):
            tx.get(k())
        assert reads == [k()] * fedtx.transaction._RECOVERY_ATTEMPTS
        assert tx.status is TxStatus.ACTIVE
        tx.abort()
        assert tx.status is TxStatus.ABORTED
        del store.read
        assert committed_value(env, k()) == {"v": 0}

    def test_crash_during_commit_record_phase_rolls_forward(self):
        env = self.crash_env()
        victim = env.manager.begin()
        victim.put(k("s1"), {"v": 10})
        victim.put(k("s2"), {"v": 20})
        env.adapter("s2").inject_faults([(1, FaultKind.CRASH_BEFORE_BATCH)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter("s2").clear_faults()
        assert committed_value(env, k("s2")) == {"v": 20}

    def test_sweep_settles_tables_outside_split_namespaces(self):
        env = build_env({"s1": make_caps(), "s2": make_caps()})
        manager = TransactionManager(
            env.registry,
            env.manager.coordinator,
            decoupling=DecoupleConfig(namespaces=frozenset({"app"})),
        )
        orders = k("s1", namespace="other", table="orders")  # colocated there
        with pytest.raises(ValueError, match="metadata table"):
            manager.begin().put(k("s1", namespace="other", table="orders_meta"), {"v": 1})
        victim = manager.begin()
        victim.put(orders, {"v": 1})
        victim.put(k("s2"), {"v": 2})
        env.adapter("coord").inject_faults([(0, FaultKind.CRASH_BEFORE_BATCH)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter("coord").clear_faults()
        assert manager.recover_all_prepared() == 2
        assert [r for r in env.dump_all() if r.columns.get(COL_STATE) == "PREPARED"] == []

    @pytest.mark.parametrize("stored", ["ACTIVE", "MAYBE"])
    def test_a_coordinator_row_without_an_outcome_raises_on_read(self, stored):
        recorder = HistoryRecorder()
        env = build_env({"s1": make_caps(), "s2": make_caps()}, history=recorder)
        seed(env, k("s1"), 1)
        seed(env, k("s2"), 2)
        victim = self.crashed_commit(env, FaultKind.CRASH_BEFORE_BATCH)
        row = {"tx_state": stored}
        write = ConditionalWrite(env.manager.coordinator.key_for(victim.tx_id), row)
        assert env.adapter("coord").atomic_write([write]) is None
        with pytest.raises(ValueError, match="no outcome"):
            env.manager.begin().get(k("s1"))  # never read as "not committed"
        with pytest.raises(ValueError, match="no outcome"):
            victim.abort()  # the claim loses and adopts no outcome either
        assert victim.status is TxStatus.ACTIVE
        assert read_dispatch(env.registry, None, k("s1")).prepared
        with pytest.raises(ValueError, match="no outcome"):
            audit_atomicity(env.dump_all(), recorder.history(), ("coord", "coordinator", "state"))

    def test_background_commit_record_failure_is_reported(self):
        env = build_env({"s1": make_caps(), "s2": make_caps()}, async_commit=True)
        tx = env.manager.begin()
        tx.put(k("s1"), {"v": 1})
        tx.put(k("s2"), {"v": 2})
        env.adapter("s1").inject_faults([(1, FaultKind.CRASH_BEFORE_BATCH)])  # 0 is the prepare
        tx.commit()
        assert env.manager.drain_commit_records() == [tx.tx_id]
        (row,) = env.adapter("s1").dump()
        assert row.columns[COL_STATE] == "PREPARED"
        assert env.manager.recover_all_prepared() == 2
        assert env.manager.drain_commit_records() == []
        states = {r.key.storage: r.columns[COL_STATE] for r in env.dump_all() if COL_STATE in r.columns}
        assert states == {"s1": "COMMITTED", "s2": "COMMITTED"}
        assert committed_value(env, k("s1")) == {"v": 1}

    def test_recovery_abort_write_can_lose_to_committer(self):
        env = build_env({"s1": make_caps(), "s2": make_caps()})
        seed(env, k("s1"), 1)
        seed(env, k("s2"), 2)
        victim = env.manager.begin()
        victim.put(k("s1"), {"v": 10})
        victim.put(k("s2"), {"v": 20})
        env.adapter("coord").inject_faults([(0, FaultKind.CRASH_BEFORE_BATCH)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter("coord").clear_faults()

        hook = ReadHook(env.adapters["coord"])

        def late_commit():  # the "dead" committer's outcome lands mid-recovery
            env.adapter("coord").atomic_write(
                [
                    ConditionalWrite(
                        env.manager.coordinator.key_for(victim.tx_id),
                        {"tx_state": "COMMITTED"},
                    )
                ]
            )

        hook.arm(lambda key: key.table == "state", late_commit)
        assert committed_value(env, k("s1")) == {"v": 10}  # rolled forward

    MIXED_ROW = {"b": b"\x00\xff", "s": "text", "i": -(2**63), "t": True, "n": None}

    @pytest.mark.parametrize(
        "route",
        [ReadPath.COLOCATED, ReadPath.VIEW, ReadPath.SPLIT_READS],
        ids=lambda path: path.name.lower(),
    )
    @pytest.mark.parametrize(
        "store, outcome",
        [("s1", TxStatus.ABORTED), ("s2", TxStatus.ABORTED), ("coord", TxStatus.COMMITTED)],
        ids=["after-s1-prepare", "after-s2-prepare", "after-outcome"],
    )
    def test_lazy_recovery_of_a_mixed_type_before_image(self, route, store, outcome):
        view = route is ReadPath.VIEW
        caps = make_caps(consistent=view, view=view)
        recorder = HistoryRecorder()
        env = build_env(
            {"s1": caps, "s2": caps},
            decoupled=route is not ReadPath.COLOCATED,
            register_views=view,
            history=recorder,
        )
        keys = (k("s1"), k("s2"))
        for key in keys:
            tx = env.manager.begin()
            tx.put(key, self.MIXED_ROW)
            tx.commit()

        def rows():
            records = env.dump_all()
            return {(r.key.storage, r.key.table): r.columns for r in records if r.key.storage != "coord"}

        def read(key):
            return read_dispatch(env.registry, env.manager.decoupling, key)

        seeded_rows = rows()
        prior_meta = decode_metadata(read(k("s1")).meta)
        writes = {k("s1"): {"v": 10}, k("s2"): {"v": 20}}
        victim = env.manager.begin()
        for key, columns in writes.items():
            victim.put(key, columns)
        env.adapter(store).inject_faults([(0, FaultKind.CRASH_AFTER_BATCH)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter(store).clear_faults()

        prepared = read(k("s1"))
        assert prepared.path is route
        prepared_meta = decode_metadata(prepared.meta)
        assert prepared_meta.tx_state is TxState.PREPARED
        assert prepared_meta.before_image == BeforeImage(
            self.MIXED_ROW, prior_meta.tx_id, prior_meta.version
        )
        for columns in rows().values():  # the image rides with the state columns (_meta when split)
            image = [name for name in columns if name.startswith(COL_BEFORE)]
            if columns.get(COL_STATE) == "PREPARED":
                before_columns = [BEFORE_COLUMN_PREFIX + name for name in self.MIXED_ROW]
                assert image == [COL_BEFORE, COL_BEFORE_VERSION, *before_columns]
            else:  # neither a settled row nor a split application row has any
                assert image == []

        committed = outcome is TxStatus.COMMITTED
        for key in keys:  # each reader settles the record lazily
            assert committed_value(env, key) == (writes[key] if committed else self.MIXED_ROW)
        if committed:
            for columns in rows().values():
                meta = {name for name in columns if name.startswith("_tx_")}
                assert meta in (set(), set(SETTLED_METADATA_COLUMNS))
        else:
            assert rows() == seeded_rows  # prior columns, tx id, version and state
            assert decode_metadata(read(k("s1")).meta) == prior_meta
        assert env.manager.recover_all_prepared() == 0

        if committed:
            with pytest.raises(TransactionFinished):
                victim.abort()
        else:
            victim.abort()
        coord = ("coord", "coordinator", "state")
        assert audit_atomicity(env.dump_all(), recorder.history(), coord) == []


class TestLostRaceLeavesNoResidue:
    """A group's batch that loses one record's tx-id condition settles the rest.

    T writes two records on s1 (one group) and one on s2, so it commits in two
    phases. Just before one of T's s1 batches, a second transaction settles
    one of T's records through lazy recovery and overwrites it.
    """

    def race_env(self, decoupled, store):
        env = build_env({"s1": make_caps(), "s2": make_caps()}, decoupled=decoupled)
        for key in (k("s1", pk=1), k("s1", pk=2), k("s2", pk=9)):
            seed(env, key, 0)
        return env, WriteHook(env.adapters[store])

    def overwrite(self, env, key):
        def interpose():
            other = env.manager.begin()
            assert other.get(key) is not None  # settles T's record first
            other.put(key, {"v": 100})
            other.commit()

        return interpose

    def begin_t(self, env):
        tx = env.manager.begin()
        for key in (k("s1", pk=1), k("s1", pk=2), k("s2", pk=9)):
            tx.put(key, {"v": 7})
        return tx

    def commit_record_of(self, tx):
        def matches(writes):
            return any(
                w.columns.get(COL_TX_ID) == tx.tx_id
                and w.columns.get(COL_STATE) == TxState.COMMITTED.value
                for w in writes
            )

        return matches

    def assert_no_prepared(self, env):
        prepared = [
            r.key.render()
            for r in env.dump_all()
            if r.columns.get(COL_STATE) == TxState.PREPARED.value
        ]
        assert prepared == []

    @pytest.mark.parametrize("decoupled", [False, True], ids=["colocated", "split"])
    @pytest.mark.parametrize("lost_pk", [1, 2])
    def test_commit_record_batch_flips_the_rest(self, decoupled, lost_pk):
        env, hook = self.race_env(decoupled, "s1")
        tx = self.begin_t(env)
        hook.arm(self.commit_record_of(tx), self.overwrite(env, k("s1", pk=lost_pk)))
        tx.commit()
        assert hook.armed is None
        self.assert_no_prepared(env)
        kept_pk = 3 - lost_pk
        assert committed_value(env, k("s1", pk=lost_pk)) == {"v": 100}
        assert committed_value(env, k("s1", pk=kept_pk)) == {"v": 7}
        assert committed_value(env, k("s2", pk=9)) == {"v": 7}

    @pytest.mark.parametrize("lost", ["split", "colocated"])
    def test_a_mixed_commit_record_batch_flips_the_rest(self, lost):
        """One batch settles a split record (two rows) and a colocated one (one row)."""
        env = build_env()
        env.manager = TransactionManager(
            env.registry,
            env.manager.coordinator,
            decoupling=DecoupleConfig(namespaces=frozenset({"app"})),
            one_phase_enabled=False,
        )
        keys = {"split": k(), "colocated": k(namespace="other", table="u")}
        for key in keys.values():
            seed(env, key, 0)
        stored = {(r.key.namespace, r.key.table) for r in env.adapter("s1").dump()}
        assert stored == {("app", "t"), ("app", "t_meta"), ("other", "u")}
        hook = WriteHook(env.adapters["s1"])
        tx = env.manager.begin()
        for key in keys.values():
            tx.put(key, {"v": 7})
        hook.arm(self.commit_record_of(tx), self.overwrite(env, keys[lost]))
        tx.commit()
        assert hook.armed is None
        self.assert_no_prepared(env)
        (kept,) = set(keys) - {lost}
        assert committed_value(env, keys[lost]) == {"v": 100}
        assert committed_value(env, keys[kept]) == {"v": 7}

    @pytest.mark.parametrize("decoupled", [False, True], ids=["colocated", "split"])
    @pytest.mark.parametrize("lost_pk", [1, 2])
    def test_rollback_batch_restores_the_rest(self, decoupled, lost_pk):
        env, hook = self.race_env(decoupled, "coord")
        tx = self.begin_t(env)

        def outcome_of_t(writes):
            return writes[0].key == env.manager.coordinator.key_for(tx.tx_id)

        # the interposed read finds no outcome yet, so it records T's abort
        hook.arm(outcome_of_t, self.overwrite(env, k("s1", pk=lost_pk)))
        with pytest.raises(ConflictAbort):
            tx.commit()
        self.assert_no_prepared(env)
        kept_pk = 3 - lost_pk
        assert committed_value(env, k("s1", pk=lost_pk)) == {"v": 100}
        assert committed_value(env, k("s1", pk=kept_pk)) == {"v": 0}
        assert committed_value(env, k("s2", pk=9)) == {"v": 0}

    def test_lost_commit_point_writes_no_second_outcome(self):
        env, hook = self.race_env(False, "coord")
        tx = self.begin_t(env)
        hook.arm(
            lambda writes: writes[0].key == env.manager.coordinator.key_for(tx.tx_id),
            self.overwrite(env, k("s1", pk=1)),
        )
        with pytest.raises(ConflictAbort):
            tx.commit()
        # only the COMMITTED claim lost; the abort is adopted, not re-written
        assert env.counters("coord").condition_failures == 1
        self.assert_no_prepared(env)


class TestScan:
    def test_scan_merges_buffered_writes_in_order(self, env):
        for ck in (1, 3):
            tx = env.manager.begin()
            tx.put(k(pk=1, ck=ck), {"v": ck})
            tx.commit()
        tx = env.manager.begin()
        tx.put(k(pk=1, ck=2), {"v": 2})
        tx.delete(k(pk=1, ck=3))
        rows = tx.scan(GroupKey("s1", "app", "t", (1,)))
        assert [(key.clustering_key[0], cols["v"]) for key, cols in rows] == [(1, 1), (2, 2)]
        assert k(pk=1, ck=1) in tx.read_set

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_a_buffered_insert_comes_back_in_clustering_order(self, mode):
        env = build_env(**mode_env_args(mode))
        for ck in (0, 2, 4, 6):
            seed(env, k(pk=1, ck=ck), ck)
        tx = env.manager.begin()
        tx.put(k(pk=1, ck=3), {"v": 3})  # lands mid-partition
        tx.put(k(pk=1, ck=4), {"v": 40})  # overwrites in place
        tx.put(k(pk=2, ck=1), {"v": 1})  # another partition
        rows = tx.scan(GroupKey("s1", "app", "t", (1,)))
        assert [(key.clustering_key[0], cols["v"]) for key, cols in rows] == [
            (0, 0), (2, 2), (3, 3), (4, 40), (6, 6)
        ]

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_a_scan_reads_no_row_the_transaction_already_read(self, mode):
        env = build_env(**mode_env_args(mode))
        keys = [k(pk=1, ck=ck) for ck in range(16)]
        for key in keys:
            seed(env, key, key.clustering_key[0])
        tx = env.manager.begin()
        got = [tx.get(key) for key in keys]
        reads = dict(tx.read_set)
        env.adapter("s1").reset_counters()
        rows = tx.scan(GroupKey("s1", "app", "t", (1,)))
        assert env.counters("s1") == OpCounters(scans=1)
        assert [columns for _, columns in rows] == got
        assert all(tx.read_set[key] is reads[key] for key in keys)

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_a_scan_after_a_committed_delete_and_a_re_put(self, mode):
        """Deletes take rows out of a scan, down to an empty partition, and a re-put brings them back.

        A colocated table sits on a PARTITION-unit store. A split table's
        metadata row must share its record's scope, so it sits on a
        NAMESPACE-unit store, the narrowest that allows it.
        """
        decoupled, consistent, view = METADATA_MODES[mode]
        unit = AtomicityUnit.NAMESPACE if decoupled else AtomicityUnit.PARTITION
        recorder = HistoryRecorder()
        env = build_env(
            {"s1": make_caps(unit, consistent, view)},
            decoupled=decoupled,
            register_views=view,
            history=recorder,
        )
        prefix = GroupKey("s1", "app", "t", (1,))
        keys = [k(pk=1, ck=ck) for ck in range(3)]
        coord = ("coord", "coordinator", "state")

        def commit(puts=(), deletes=()):
            tx = env.manager.begin()
            for key, value in puts:
                tx.put(key, {"v": value})
            for key in deletes:
                tx.delete(key)
            tx.commit()

        def scanned():
            tx = env.manager.begin(serializable=True)
            rows = tx.scan(prefix)
            tx.commit()
            return [(key.clustering_key[0], columns["v"]) for key, columns in rows]

        commit(puts=[(key, key.clustering_key[0]) for key in keys])
        commit(deletes=[keys[1]])
        assert scanned() == [(0, 0), (2, 2)]
        commit(deletes=[keys[0], keys[2]])
        assert scanned() == []
        assert env.dump_all() == []
        assert audit_atomicity(env.dump_all(), recorder.history(), coord) == []
        # A re-put restarts its key's version lineage at 1, so it is audited
        # on the history that follows the deletes.
        after_deletes = len(recorder.history().entries)
        commit(puts=[(keys[2], 20), (keys[1], 10)])
        assert scanned() == [(1, 10), (2, 20)]
        settled = [r.columns for r in env.dump_all() if COL_STATE in r.columns]
        assert [decode_metadata(columns).version for columns in settled] == [1, 1]
        history = History(entries=recorder.history().entries[after_deletes:])
        assert audit_atomicity(env.dump_all(), history, coord) == []

    def test_scan_recovers_prepared_records(self):
        env = build_env({"s1": make_caps(), "s2": make_caps()})
        tx = env.manager.begin()
        tx.put(k("s1", pk=1, ck=1), {"v": 1})
        tx.commit()
        victim = env.manager.begin()
        victim.put(k("s1", pk=1, ck=2), {"v": 2})
        victim.put(k("s2", pk=9), {"v": 9})
        env.adapter("coord").inject_faults([(0, FaultKind.CRASH_AFTER_BATCH)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter("coord").clear_faults()
        env.adapter("s1").reset_counters()
        tx = env.manager.begin()
        rows = tx.scan(GroupKey("s1", "app", "t", (1,)))
        assert [cols["v"] for _, cols in rows] == [1, 2]
        # the scanned PREPARED row is settled as scanned, then read once more
        assert env.counters("s1") == OpCounters(
            reads=1, scans=1, atomic_write_batches=1, written_records=1, db_transactions=1
        )

    @pytest.mark.parametrize("partition_key", [(True,), (None,), ()], ids=["bool", "null", "empty"])
    def test_a_prefix_that_is_no_partition_is_refused(self, env, partition_key):
        """A bool partition key would alias the int one: (True,) read partition (1,)."""
        for ck in (1, 2):
            seed(env, k(pk=1, ck=ck), ck)
        tx = env.manager.begin()
        tx.put(k(pk=1, ck=1), {"v": 100})
        tx.delete(k(pk=1, ck=2))
        with pytest.raises(ValueError, match="partition key"):
            tx.scan(GroupKey("s1", "app", "t", partition_key))
        assert list(tx.read_set) == []
        rows = tx.scan(GroupKey("s1", "app", "t", (1,)))
        assert [(key.clustering_key, cols) for key, cols in rows] == [((1,), {"v": 100})]
        tx.commit()
        assert committed_value(env, k(pk=1, ck=1)) == {"v": 100}


class TestMetadataTables:
    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_a_metadata_table_is_out_of_reach(self, mode):
        """A ``_meta`` table holds metadata under any config, colocated included."""
        env = build_env(**mode_env_args(mode))
        seed(env, k(), 1)
        meta_key = k(table="t_meta")
        tx = env.manager.begin()
        attempts = [
            lambda: tx.get(meta_key),
            lambda: tx.put(meta_key, {"v": 666}),
            lambda: tx.delete(meta_key),
            lambda: tx.scan(GroupKey("s1", "app", "t_meta", (1,))),
        ]
        for attempt in attempts:
            with pytest.raises(ValueError, match="metadata table"):
                attempt()
        tx.commit()
        assert tx.read_set == {} and tx.write_set == {}
        obs = read_dispatch(env.registry, env.manager.decoupling, k())
        meta = decode_metadata(obs.meta)
        assert (obs.app_columns, meta.version) == ({"v": 1}, 1)
        if METADATA_MODES[mode][0]:  # every route still agrees on the key
            split = fedtx.decoupling.read_split(env.registry, env.manager.decoupling, k())
            assert (split.app_columns, decode_metadata(split.meta)) == (obs.app_columns, meta)

    @pytest.mark.parametrize(
        "config",
        [None, DecoupleConfig(namespaces=frozenset({"other"}))],
        ids=["no-config", "other-namespace"],
    )
    @pytest.mark.parametrize("op", ["get", "put", "delete", "scan"])
    def test_a_manager_that_splits_nothing_cannot_reach_a_split_record(self, config, op):
        """A manager over the same registry that does not split ``app`` still sees ``t_meta`` as metadata."""
        env = build_env(decoupled=True)
        seed(env, k(), 1)
        meta_key = k(table="t_meta")
        tx = TransactionManager(env.registry, env.manager.coordinator, decoupling=config).begin()
        attempt = {
            "get": lambda: tx.get(meta_key),
            "put": lambda: tx.put(meta_key, {"x": 2}),
            "delete": lambda: tx.delete(meta_key),
            "scan": lambda: tx.scan(GroupKey("s1", "app", "t_meta", (1,))),
        }[op]
        with pytest.raises(ValueError, match="metadata table"):
            attempt()
        tx.commit()
        assert tx.read_set == {} and tx.write_set == {}
        obs = read_dispatch(env.registry, env.manager.decoupling, k())
        assert (obs.app_columns, decode_metadata(obs.meta).version) == ({"v": 1}, 1)
        assert "x" not in env.registry.read(DecoupleConfig.metadata_key(k()))

    @pytest.mark.parametrize("op", ["get", "put", "scan"])
    def test_a_manager_that_does_not_split_a_split_record_gets_a_clear_error(self, op):
        """A split record's application row, read as a colocated record, carries no metadata."""
        env = build_env(decoupled=True)
        seed(env, k(), 1)
        tx = TransactionManager(env.registry, env.manager.coordinator).begin()
        with pytest.raises(MissingMetadata, match="carries no fedtx metadata"):
            if op == "get":
                tx.get(k())
            elif op == "scan":
                tx.scan(GroupKey("s1", "app", "t", (1,)))
            else:
                tx.put(k(), {"v": 2})
                tx.commit()
        assert tx.status is TxStatus.ACTIVE and tx.read_set == {}
        obs = read_dispatch(env.registry, env.manager.decoupling, k())
        assert (obs.app_columns, decode_metadata(obs.meta).version) == ({"v": 1}, 1)

    @pytest.mark.parametrize("op", ["get", "put", "delete", "scan"])
    def test_the_coordinator_table_is_out_of_reach(self, op):
        env = build_env({"s1": make_caps(), "s2": make_caps()})
        done = env.manager.begin()
        done.put(k("s1"), {"v": 1})
        done.put(k("s2"), {"v": 2})
        done.commit()
        other = env.manager.begin()
        other.put(k("s1"), {"v": 10})
        other.put(k("s2"), {"v": 20})
        done_key = env.manager.coordinator.key_for(done.tx_id)
        forged = {COORD_STATE_COLUMN: "ABORTED"}
        partition = GroupKey("coord", "coordinator", "state", (done.tx_id,))
        attempt = {
            "get": lambda: tx.get(done_key),
            "put": lambda: tx.put(env.manager.coordinator.key_for(other.tx_id), forged),
            "delete": lambda: tx.delete(done_key),
            "scan": lambda: tx.scan(partition),
        }[op]
        tx = env.manager.begin()
        with pytest.raises(ValueError, match="coordinator table"):
            attempt()
        assert tx.read_set == {} and tx.write_set == {}
        tx.put(k("s1", pk=2), {"v": 3})  # the refusal leaves the transaction usable
        tx.commit()
        other.commit()  # no forged outcome aborts it
        assert committed_value(env, k("s1")) == {"v": 10}
        assert outcome_committed(env.registry.read(done_key))


class TestHistoryRecording:
    def test_committed_history_carries_reads_and_writes(self):
        recorder = HistoryRecorder()
        env = build_env(history=recorder)
        seed(env, k(), 0)
        tx = env.manager.begin()
        tx.get(k())
        tx.put(k(), {"v": 1})
        tx.commit()
        entries = recorder.history().entries
        committed = [e for e in entries if e.outcome is TxStatus.COMMITTED]
        assert committed[-1].reads == ((k().render(), 1),)
        assert committed[-1].writes == ((k().render(), 2),)
        assert committed[-1].begin_at < committed[-1].commit_at


class TestScopeCost:
    """Reads and batches compare scope tuples; validated key objects stay off the hot path."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Keys built through their checking constructor, and ``Record``s built at all."""
        counts = {GroupKey: 0, FullKey: 0, Record: 0}
        new_group_key = GroupKey.__new__

        def counting_group_key(cls, *parts, **named):
            counts[GroupKey] += 1
            return new_group_key(cls, *parts, **named)

        monkeypatch.setattr(GroupKey, "__new__", counting_group_key)
        new_key = FullKey.__new__  # the checking constructor; FullKey._unchecked bypasses it

        def counting_key(cls, *parts, **named):
            counts[FullKey] += 1
            return new_key(cls, *parts, **named)

        monkeypatch.setattr(FullKey, "__new__", counting_key)
        new_record = Record.__new__

        def counting_record(cls, *fields):
            counts[Record] += 1
            return new_record(cls, *fields)

        monkeypatch.setattr(Record, "__new__", counting_record)
        return counts

    def test_split_metadata_view_get(self, built):
        caps = make_caps(AtomicityUnit.STORAGE, consistent=True, view=True)
        env = build_env({"s1": caps}, decoupled=True, register_views=True)
        seed(env, k(), 1)
        key = k()
        tx = env.manager.begin()
        built[GroupKey] = built[FullKey] = built[Record] = 0
        assert tx.get(key) == {"v": 1}
        assert tx.read_set[key].path is ReadPath.VIEW
        assert built[GroupKey] == 0
        assert built[FullKey] == 0  # the view joins by the key the transaction holds
        assert built[Record] == 0

    def test_partition_scan_checks_no_returned_row(self, built, monkeypatch):
        env = build_env({"s1": make_caps(AtomicityUnit.PARTITION)})
        tx = env.manager.begin()
        for ck in range(16):
            tx.put(k(ck=ck), {"v": ck})
        tx.commit()
        prefix = GroupKey("s1", "app", "t", (1,))
        unchecked = []
        build_unchecked = FullKey._unchecked.__func__

        def counting(cls, *parts):
            unchecked.append(parts)
            return build_unchecked(cls, *parts)

        monkeypatch.setattr(FullKey, "_unchecked", classmethod(counting))
        built[FullKey] = built[Record] = 0
        rows = env.adapter("s1").scan(prefix)
        assert [(ck, row["v"]) for ck, row in rows] == [((ck,), ck) for ck in range(16)]
        assert built[Record] == 0
        assert built[FullKey] == 0  # neither one per row nor one for the partition
        assert unchecked == []
        # A transaction's scan addresses each row once: one unchecked key, the
        # tuple of the prefix and the row's clustering key.
        made = []
        new_tuple = fedtx.transaction._new_tuple

        def counting_tuple(cls, parts):
            made.append((cls, parts))
            return new_tuple(cls, parts)

        monkeypatch.setattr(fedtx.transaction, "_new_tuple", counting_tuple)
        tx = env.manager.begin()
        expected = [(k(ck=ck), {"v": ck}) for ck in range(16)]
        built[FullKey] = 0
        assert tx.scan(prefix) == expected
        assert made == [(FullKey, ("s1", "app", "t", (1,), (ck,))) for ck in range(16)]
        assert all(type(parts) is tuple for _, parts in made)
        assert unchecked == []
        assert built[FullKey] == built[Record] == 0
        assert list(tx.read_set) == [key for key, _ in expected]
        assert all(type(key) is FullKey for key in tx.read_set)

    def test_store_reads_check_no_returned_row(self, built):
        caps = make_caps(AtomicityUnit.STORAGE, consistent=True)
        env = build_env({"s1": caps})
        key, absent = k(), k(pk=2)
        seed(env, key, 1)
        store = env.adapter("s1")
        built[FullKey] = built[Record] = 0
        assert store.read(key) is not None
        assert store.snapshot_read([key, absent])[0] is not None
        assert built[Record] == 0
        assert len(store.dump()) == 1
        assert built[FullKey] == 0
        assert built[Record] == 1  # the dump pairs each row with its key, and checks neither

    def test_a_partition_scan_filters_each_row_once(self, monkeypatch):
        env = build_env({"s1": make_caps(AtomicityUnit.PARTITION)})
        tx = env.manager.begin()
        for ck in range(16):
            tx.put(k(ck=ck), {"v": ck})
        tx.commit()
        calls = {"application_columns": 0, "parse_metadata": 0}
        for module in (fedtx.records, fedtx.decoupling, fedtx.transaction):
            for name in calls:
                original = getattr(module, name, None)
                if original is None:
                    continue  # the module does not call it

                def counting(*args, _name=name, _original=original):
                    calls[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counting)
        prefix = GroupKey("s1", "app", "t", (1,))
        tx = env.manager.begin()
        assert tx.scan(prefix) == [(k(ck=ck), {"v": ck}) for ck in range(16)]
        assert calls == {"application_columns": 16, "parse_metadata": 0}
        # Buffered writes in the partition are merged in, in clustering order.
        tx.put(k(ck=-1), {"v": -1})
        tx.put(k(ck=3), {"v": -3})
        tx.delete(k(ck=5))
        expected = [(k(ck=-1), {"v": -1})] + [
            (k(ck=ck), {"v": -3 if ck == 3 else ck}) for ck in range(16) if ck != 5
        ]
        assert tx.scan(prefix) == expected

    def test_reads_decode_each_row_once(self, monkeypatch):
        calls = {"parse_metadata": 0, "TxState": 0}
        for module in (fedtx.records, fedtx.decoupling, fedtx.transaction):
            original = module.parse_metadata

            def counting(*args, _original=original):
                calls["parse_metadata"] += 1
                return _original(*args)

            monkeypatch.setattr(module, "parse_metadata", counting)
        enum_call = type(TxState).__call__

        def counting_call(cls, *args, **kwargs):
            if cls is TxState:
                calls["TxState"] += 1
            return enum_call(cls, *args, **kwargs)

        monkeypatch.setattr(type(TxState), "__call__", counting_call)

        def decoded_by(read):
            calls.update(dict.fromkeys(calls, 0))
            read()
            return calls.copy()

        def decodes(count):
            return {"parse_metadata": count, "TxState": 0}

        # A read-only get decodes no metadata at all.
        colocated = build_env()
        seed(colocated, k(), 1)
        tx = colocated.manager.begin()
        assert decoded_by(lambda: tx.get(k())) == decodes(0)
        assert tx.read_set[k()].path is ReadPath.COLOCATED

        caps = make_caps(AtomicityUnit.STORAGE, consistent=True, view=True)
        view = build_env({"s1": caps}, decoupled=True, register_views=True)
        seed(view, k(), 1)
        tx = view.manager.begin()
        assert decoded_by(lambda: tx.get(k())) == decodes(0)
        assert tx.read_set[k()].path is ReadPath.VIEW

        # A scan decodes only the rows the transaction then rewrites.
        partition = build_env({"s1": make_caps(AtomicityUnit.PARTITION)})
        tx = partition.manager.begin()
        for ck in range(16):
            tx.put(k(ck=ck), {"v": ck})
        tx.commit()
        tx = partition.manager.begin()
        rows = []

        def scan_and_rewrite():
            rows.extend(tx.scan(GroupKey("s1", "app", "t", (1,))))
            for ck in range(0, 16, 4):
                tx.put(k(ck=ck), {"v": -ck})
            tx.commit()

        assert decoded_by(scan_and_rewrite) == decodes(4)
        assert [columns for _, columns in rows] == [{"v": ck} for ck in range(16)]

        # A read-modify-write decodes each key once: the metadata the commit
        # needs for its condition is reused by the before-image.
        cross = build_env({"s1": make_caps(), "s2": make_caps()})
        keys = [k(store, pk) for store in ("s1", "s2") for pk in range(4)]
        for key in keys:
            seed(cross, key, 1)
        tx = cross.manager.begin()

        def read_modify_write():
            for key in keys:
                tx.put(key, {"v": tx.get(key)["v"] + 1})
            tx.commit()

        assert decoded_by(read_modify_write) == decodes(8)
        assert [cross.manager.begin().get(key) for key in keys] == [{"v": 2}] * 8

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_a_settled_get_is_one_store_call_and_one_filter(self, mode, monkeypatch):
        """A first ``get`` makes its route's one store call and filters once; a repeat makes neither."""
        env = build_env(**mode_env_args(mode))
        seed(env, k(), 1)
        store = env.adapter("s1")
        calls = []
        for op in ("read", "snapshot_read", "view_read"):

            def counted(*args, _op=op, _method=getattr(store, op)):
                calls.append(_op)
                return _method(*args)

            monkeypatch.setattr(store, op, counted)
        filtered = []
        application_columns = fedtx.decoupling.application_columns

        def counting_filter(row):
            filtered.append(row)
            return application_columns(row)

        monkeypatch.setattr(fedtx.decoupling, "application_columns", counting_filter)
        expected = {
            "colocated": ["read"],
            "split_reads": ["read", "read"],
            "snapshot": ["snapshot_read"],
            "view": ["view_read"],
        }[mode]
        tx = env.manager.begin()
        assert tx.get(k()) == {"v": 1}
        assert (calls, len(filtered)) == (expected, 1)
        assert tx.get(k()) == {"v": 1}
        assert (calls, len(filtered)) == (expected, 1)

    def test_each_put_is_checked_once_per_batch(self, monkeypatch):
        checked = []
        check = fedtx.memstore.check_columns

        def counting(columns):
            checked.append(dict(columns))
            check(columns)

        monkeypatch.setattr(fedtx.memstore, "check_columns", counting)
        store = build_env().adapter("s1")
        batch = [
            ConditionalWrite(k(pk=1), {"v": 1}),
            ConditionalWrite(k(pk=2), {"v": 2}),
            ConditionalWrite(k(pk=3), {}, kind=WriteKind.DELETE),
        ]
        assert store.atomic_write(batch) is None
        assert checked == [{"v": 1}, {"v": 2}]

    def test_two_group_commit_builds_no_group_key(self, built, monkeypatch):
        env = build_env({"s1": make_caps(), "s2": make_caps()})
        keys = [k(storage, pk=pk) for storage in ("s1", "s2") for pk in range(4)]
        in_grouping = []
        grouping = fedtx.transaction.group_by_atomicity_unit

        def counted_grouping(*args):
            before = built[GroupKey]
            groups = grouping(*args)
            in_grouping.append(built[GroupKey] - before)
            return groups

        monkeypatch.setattr(fedtx.transaction, "group_by_atomicity_unit", counted_grouping)
        tx = env.manager.begin()
        for key in keys:
            tx.put(key, {"v": 1})
        built[GroupKey] = 0
        tx.commit()
        assert tx.status is TxStatus.COMMITTED
        assert in_grouping == [0]  # groups are bucketed by scope tuple
        assert built[GroupKey] == 0  # none in MemStore or anywhere else

    def test_commit_builds_each_row_once(self, monkeypatch):
        """No written row, the coordinator's included, goes through the copying constructor.

        Nor does any write take a per-access condition.

        Each row is encoded by one ``combined_columns`` call from plain
        fields, and the only metadata checked is that of the rows the commit
        observed. Both functions are counted under the names ``perfbench``
        traces, so the counts match its ``records.combined_columns`` and
        ``records.parse_metadata`` ``calls_per_tx``.
        """
        counts = {"copied": [], "conditions": 0, "combined": 0, "checked": []}
        copying = ConditionalWrite.__new__  # ConditionalWrite._owning bypasses it
        checking = WriteCondition.__new__  # storage.if_tx_id_equals bypasses it
        combine = fedtx.transaction.combined_columns

        def counted_copy(cls, key, *fields):
            counts["copied"].append(key)
            return copying(cls, key, *fields)

        def counted_condition(cls, *fields, **named):
            counts["conditions"] += 1
            return checking(cls, *fields, **named)

        def counted_combine(*args, **kwargs):
            counts["combined"] += 1
            return combine(*args, **kwargs)

        monkeypatch.setattr(ConditionalWrite, "__new__", counted_copy)
        monkeypatch.setattr(WriteCondition, "__new__", counted_condition)
        monkeypatch.setattr(fedtx.transaction, "combined_columns", counted_combine)
        for module in (fedtx.decoupling, fedtx.transaction):
            parse = module.parse_metadata

            def counted_parse(row, _parse=parse):
                counts["checked"].append(row[COL_TX_ID])
                return _parse(row)

            monkeypatch.setattr(module, "parse_metadata", counted_parse)

        def commit_cost(env, keys):
            for key in keys:
                seed(env, key, 1)
            tx = env.manager.begin()
            for key in keys:
                tx.put(key, {"v": tx.get(key)["v"] + 1})
            counts.update(copied=[], conditions=0, combined=0, checked=[])
            tx.commit()
            assert tx.status is TxStatus.COMMITTED
            assert {key: committed_value(env, key) for key in keys} == dict.fromkeys(keys, {"v": 2})
            # every check is of an observed row: none of this commit's own metadata
            assert tx.tx_id not in counts["checked"]
            return counts["copied"], counts["conditions"], counts["combined"], len(counts["checked"])

        two_phase = build_env({"s1": make_caps(), "s2": make_caps()})
        keys = [k(storage, pk=pk) for storage in ("s1", "s2") for pk in range(4)]
        copied, conditions, combined, checked = commit_cost(two_phase, keys)
        assert two_phase.counters("coord").atomic_write_batches > 0
        assert copied == []  # the coordinator row is built fresh and handed over
        assert combined == 16  # 8 prepared rows and 8 committed rows
        assert conditions <= 8 + 1  # one per logical write, one for the commit records
        assert checked == 8  # the 8 observed rows, in _materialize_writes

        one_phase = build_env({"s1": make_caps(AtomicityUnit.PARTITION)})
        keys = [k(ck=ck) for ck in range(4)]
        copied, conditions, combined, checked = commit_cost(one_phase, keys)
        assert one_phase.counters("coord").atomic_write_batches == 0
        assert copied == []
        assert combined == 4
        assert conditions <= 4
        assert checked == 4

    @pytest.mark.parametrize("mode", ["split_reads", "snapshot", "view"])
    @pytest.mark.parametrize("path", ["one_phase", "two_phase", "restore"])
    def test_a_split_commit_builds_each_physical_row_once(self, mode, path, monkeypatch):
        """Each batch builds a split key's two rows with two ``_owning`` calls, and nothing else.

        ``combined_columns`` encodes the key's ``_tx_*`` columns once per
        batch, straight into a fresh, empty metadata row: no image is merged
        and then split again. Covers a one-phase commit, a two-phase commit
        (prepare and settle) and an abort's restore.
        """
        stores = ("s1",) if path == "one_phase" else ("s1", "s2")
        env = build_env(**mode_env_args(mode, storages=stores))
        keys = [k(store, pk=pk) for store in stores for pk in range(2)]
        for key in keys:
            seed(env, key, 1)
        built = {"rows": Counter(), "encoded_into": [], "copied": 0}
        owning = ConditionalWrite._owning.__func__
        copying = ConditionalWrite.__new__

        def counted_owning(cls, key, columns, *rest):
            if key.table != env.manager.coordinator.table:
                built["rows"][key.table] += 1
            return owning(cls, key, columns, *rest)

        def counted_copy(cls, *fields):
            built["copied"] += 1
            return copying(cls, *fields)

        monkeypatch.setattr(ConditionalWrite, "_owning", classmethod(counted_owning))
        monkeypatch.setattr(ConditionalWrite, "__new__", counted_copy)
        for module in (fedtx.transaction, fedtx.records):  # records: the restore's prior_image
            encode = module.combined_columns

            def counted_encode(row, *fields, _encode=encode):
                built["encoded_into"].append(dict(row))
                return _encode(row, *fields)

            monkeypatch.setattr(module, "combined_columns", counted_encode)

        tx = env.manager.begin()
        for key in keys:
            tx.put(key, {"v": tx.get(key)["v"] + 1})
        if path == "restore":
            env.adapter("coord").inject_faults([(0, FaultKind.CRASH_BEFORE_BATCH)])
            with pytest.raises(InjectedCrash):
                tx.commit()
            env.adapter("coord").clear_faults()
            tx.abort()
            assert tx.status is TxStatus.ABORTED
        else:
            tx.commit()
            assert tx.status is TxStatus.COMMITTED
        batches = 1 if path == "one_phase" else 2
        assert built["rows"] == Counter({"t": batches * len(keys), "t_meta": batches * len(keys)})
        assert built["encoded_into"] == [{}] * (batches * len(keys))
        assert built["copied"] == 0
        expected = 1 if path == "restore" else 2
        assert [committed_value(env, key) for key in keys] == [{"v": expected}] * len(keys)


class TestBlindWrites:
    """A blind write (a put or delete of a key never read) is observed at commit.

    A blind put that may commit in one phase is guessed absent, and its
    batch's ``IF_NOT_EXISTS`` checks the guess; a batch that refutes it is
    issued once more after the guessed keys are read. Every other blind
    write is read before the first batch. The blind writes read, of one
    scope of a consistent-readable store, two or more, share one
    ``snapshot_read``; every other one costs the read a ``get`` of it costs.
    """

    # (decoupled, consistent_readable, view_joinable) per mode, as METADATA_MODES
    MODES = {**METADATA_MODES, "colocated_consistent": (False, True, False)}

    def env(self, mode, storages=("s1",), **kwargs):
        decoupled, consistent, view = self.MODES[mode]
        caps = make_caps(consistent=consistent, view=view)
        return build_env(
            dict.fromkeys(storages, caps), decoupled=decoupled, register_views=view, **kwargs
        )

    @staticmethod
    def count_reads(env, monkeypatch, storages=("s1",), batches=False):
        """Every read call into ``storages``, as (store, op, number of keys), in order.

        With ``batches``, every ``atomic_write`` too, as (store, "atomic_write", applied).
        """
        calls = []
        for name in storages:
            store = env.adapter(name)
            for op in ("read", "snapshot_read", "view_read"):

                def counted(*args, _op=op, _name=name, _method=getattr(store, op)):
                    keys = args[0] if _op == "snapshot_read" else [args[-1]]
                    calls.append((_name, _op, len(keys)))
                    return _method(*args)

                monkeypatch.setattr(store, op, counted)
            if batches:

                def batch(writes, _name=name, _method=store.atomic_write):
                    failed = _method(writes)
                    calls.append((_name, "atomic_write", failed is None))
                    return failed

                monkeypatch.setattr(store, "atomic_write", batch)
        return calls

    @staticmethod
    def blind_commit(env, keys, columns=None):
        tx = env.manager.begin()
        for i, key in enumerate(keys):
            if columns is False:
                tx.delete(key)
            else:
                tx.put(key, {"v": 10 + i})
        tx.commit()
        return tx

    # Each mode's cost for one blind key: what a ``get`` of it costs.
    ONE_KEY = {
        "colocated": [("read", 1)],
        "colocated_consistent": [("read", 1)],
        "split_reads": [("read", 1), ("read", 1)],
        "snapshot": [("snapshot_read", 2)],
        "view": [("view_read", 1)],
    }

    def blind_reads(self, mode, count):
        """The reads of ``count`` blind writes of one scope: one snapshot, or a get's each."""
        decoupled, consistent, _ = self.MODES[mode]
        if count == 1 or not consistent:
            return self.ONE_KEY[mode] * count
        return [("snapshot_read", count * (2 if decoupled else 1))]

    @pytest.mark.parametrize("count", [1, 3, 100])  # 100: a load transaction of the benchmark's
    @pytest.mark.parametrize("mode", list(MODES))
    def test_a_one_phase_insert_is_one_batch_and_no_read(self, mode, count, monkeypatch):
        env = self.env(mode)
        keys = [k(pk=pk) for pk in range(count)]
        calls = self.count_reads(env, monkeypatch, batches=True)
        tx = self.blind_commit(env, keys)
        assert tx.status is TxStatus.COMMITTED
        assert calls == [("s1", "atomic_write", True)]
        # Each guess is what a read of the absent key gives, on the same route.
        path = read_dispatch(env.registry, env.manager.decoupling, k(pk=1000)).path
        assert list(tx.read_set) == keys
        assert [(obs.present, obs.path) for obs in tx.read_set.values()] == [(False, path)] * count
        assert [committed_value(env, key) for key in keys] == [{"v": 10 + i} for i in range(count)]
        metas = [read_dispatch(env.registry, env.manager.decoupling, key).meta for key in keys]
        assert [meta[COL_VERSION] for meta in metas] == [1] * count

    @pytest.mark.parametrize("count", [1, 2, 5])
    @pytest.mark.parametrize("mode", list(MODES))
    def test_blind_writes_cost_one_snapshot_read_per_scope(self, mode, count, monkeypatch):
        """A one-phase blind overwrite: the refuted batch, then the reads, then the batch again."""
        env = self.env(mode)
        keys = [k(pk=pk) for pk in range(count)]
        for key in keys[::2]:
            seed(env, key, 1)  # every other key exists already
        calls = self.count_reads(env, monkeypatch, batches=True)
        failures = env.counters("s1").condition_failures
        tx = self.blind_commit(env, keys)
        assert tx.status is TxStatus.COMMITTED
        expected = [("atomic_write", False), *self.blind_reads(mode, count), ("atomic_write", True)]
        assert [(op, n) for _, op, n in calls] == expected
        assert env.counters("s1").condition_failures == failures + 1
        assert list(tx.read_set) == keys  # entered in write order
        assert [tx.read_set[key].present for key in keys] == [pk % 2 == 0 for pk in range(count)]
        assert [committed_value(env, key) for key in keys] == [{"v": 10 + i} for i in range(count)]
        metas = [read_dispatch(env.registry, env.manager.decoupling, key).meta for key in keys]
        assert [meta[COL_VERSION] for meta in metas] == [2 - pk % 2 for pk in range(count)]

    @pytest.mark.parametrize("mode", list(MODES))
    def test_a_lone_blind_write_beside_read_ones_costs_what_a_get_costs(self, mode, monkeypatch):
        env = self.env(mode)
        keys = [k(pk=pk) for pk in range(3)]
        for key in keys:
            seed(env, key, 1)
        tx = env.manager.begin()
        for key in keys[:2]:
            tx.put(key, {"v": tx.get(key)["v"] + 1})
        tx.put(keys[2], {"v": 5})
        calls = self.count_reads(env, monkeypatch)
        tx.commit()
        assert [(op, n) for _, op, n in calls] == self.ONE_KEY[mode]
        assert [committed_value(env, key) for key in keys] == [{"v": 2}, {"v": 2}, {"v": 5}]

    @pytest.mark.parametrize("mode", ["colocated_consistent", "snapshot", "view"])
    def test_each_scope_takes_one_snapshot_read(self, mode, monkeypatch):
        env = self.env(mode, storages=("s1", "s2"))
        keys = [k(store, pk=pk) for pk in range(3) for store in ("s1", "s2")]
        calls = self.count_reads(env, monkeypatch, storages=("s1", "s2"))
        self.blind_commit(env, keys)
        per_key = 2 if self.MODES[mode][0] else 1
        assert calls == [("s1", "snapshot_read", 3 * per_key), ("s2", "snapshot_read", 3 * per_key)]
        assert [committed_value(env, key) for key in keys] == [{"v": 10 + i} for i in range(6)]

    @pytest.mark.parametrize("mode", ["colocated_consistent", "snapshot", "view"])
    def test_blind_deletes_share_the_read_and_deleting_nothing_is_dropped(self, mode, monkeypatch):
        env = self.env(mode)
        keys = [k(pk=pk) for pk in range(3)]
        seed(env, keys[0], 1)
        calls = self.count_reads(env, monkeypatch)
        batches = env.counters("s1").atomic_write_batches
        tx = self.blind_commit(env, keys, columns=False)
        assert tx.status is TxStatus.COMMITTED
        assert [op for _, op, _ in calls] == ["snapshot_read"]
        # one batch, of the one real delete
        assert env.counters("s1").atomic_write_batches == batches + 1
        assert [committed_value(env, key) for key in keys] == [None] * 3
        assert env.dump_all() == [r for r in env.dump_all() if r.key.storage == "coord"]

    @pytest.mark.parametrize(
        "crash",
        [FaultKind.CRASH_BEFORE_BATCH, FaultKind.CRASH_AFTER_BATCH],
        ids=["rolled-back", "rolled-forward"],
    )
    @pytest.mark.parametrize("mode", ["colocated_consistent", "snapshot", "view"])
    def test_a_blind_key_left_prepared_is_settled_by_lazy_recovery(self, mode, crash):
        env = self.env(mode, storages=("s1", "s2"))
        keys = [k("s1", pk=1), k("s1", pk=2)]
        for key in keys + [k("s2")]:
            seed(env, key, 1)
        victim = env.manager.begin()
        for key in (keys[0], k("s2")):
            victim.put(key, {"v": victim.get(key)["v"] + 1})
        env.adapter("coord").inject_faults([(0, crash)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter("coord").clear_faults()
        assert read_dispatch(env.registry, env.manager.decoupling, keys[0]).prepared

        tx = self.blind_commit(env, keys)
        assert tx.status is TxStatus.COMMITTED
        # the victim's version, or the seed's
        settled = 2 if crash is FaultKind.CRASH_AFTER_BATCH else 1
        assert decode_metadata(tx.read_set[keys[0]].meta).version == settled
        assert [committed_value(env, key) for key in keys] == [{"v": 10}, {"v": 11}]
        assert committed_value(env, k("s2")) == {"v": settled}
        outcome = env.registry.read(env.manager.coordinator.key_for(victim.tx_id))
        assert outcome[COORD_STATE_COLUMN] == ("COMMITTED" if settled == 2 else "ABORTED")

    @pytest.mark.parametrize("why", ["two-stores", "serializable", "one-phase-off"])
    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_two_phase_blind_puts_are_read_before_the_first_prepare(self, mode, why, monkeypatch):
        stores = ("s1", "s2") if why == "two-stores" else ("s1",)
        env = self.env(mode, storages=stores, one_phase=why != "one-phase-off")
        keys = [k(store, pk=pk) for store in stores for pk in range(3)]
        for key in keys[::2]:
            seed(env, key, 1)
        calls = self.count_reads(env, monkeypatch, storages=stores, batches=True)
        tx = env.manager.begin(serializable=why == "serializable")
        for i, key in enumerate(keys):
            tx.put(key, {"v": 10 + i})
        tx.commit()
        assert tx.status is TxStatus.COMMITTED
        reads = [(store, op, n) for store in stores for op, n in self.blind_reads(mode, 3)]
        prepares = [(store, "atomic_write", True) for store in stores]
        assert calls[: len(reads) + len(prepares)] == reads + prepares
        values = [committed_value(env, key) for key in keys]
        assert values == [{"v": 10 + i} for i in range(len(keys))]

    def test_a_guess_in_a_commit_that_must_validate_is_read_before_the_prepare(self, monkeypatch):
        """A split read of another key of the scope needs a re-read: the commit takes two phases."""
        env = self.env("split_reads")
        seed(env, k(pk=1), 1)
        tx = env.manager.begin()
        assert tx.get(k(pk=1)) == {"v": 1}
        tx.put(k(pk=2), {"v": 2})
        calls = self.count_reads(env, monkeypatch, batches=True)
        tx.commit()
        assert calls[:5] == [
            ("s1", "read", 1),  # the blind put, as a get reads it
            ("s1", "read", 1),
            ("s1", "atomic_write", True),  # prepare
            ("s1", "read", 1),  # validation of k(pk=1)
            ("s1", "read", 1),
        ]
        assert tx.read_set[k(pk=2)].path is ReadPath.SPLIT_READS
        assert committed_value(env, k(pk=2)) == {"v": 2}

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_an_insert_over_a_row_without_metadata_raises_as_a_get_and_leaves_it(self, mode):
        """An application row alone, written outside the protocol: the insert's batch refuses it."""
        recorder = HistoryRecorder()
        env = self.env(mode, history=recorder)
        env.adapter("s1").atomic_write([ConditionalWrite(k(), {"v": 1})])
        rows = [(r.key, repr(dict(r.columns))) for r in env.dump_all()]
        with pytest.raises((MissingMetadata, RecoveryFailed)) as raised:
            env.manager.begin().get(k())
        tx = env.manager.begin()
        tx.put(k(), {"v": 2})
        tx.put(k(pk=2), {"v": 3})
        with pytest.raises(type(raised.value), match=re.escape(str(raised.value))):
            tx.commit()
        assert [(r.key, repr(dict(r.columns))) for r in env.dump_all()] == rows
        assert tx.status is TxStatus.ACTIVE and tx.read_set == {}
        assert (tx.attempt, tx._one_phase_batch) == (None, None)
        tx.abort()
        assert recorder.history().entries[-1].reads == ()

    @pytest.mark.parametrize(
        "seeded, batch", [(False, 0), (True, 0), (True, 1)], ids=["insert", "guessed", "retry"]
    )
    @pytest.mark.parametrize("fault", list(FaultKind), ids=lambda f: f.name.lower())
    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_a_crash_on_a_guessed_batch_or_its_retry_aborts_clean(self, mode, fault, seeded, batch):
        recorder = HistoryRecorder()
        env = self.env(mode, history=recorder)
        keys = [k(pk=1), k(pk=2)]
        if seeded:
            seed(env, keys[0], 1)  # refutes the guess: batch #0 fails, #1 is its retry
        victim = env.manager.begin()
        for key in keys:
            victim.put(key, {"v": 10})
        env.adapter("s1").inject_faults([(batch, fault)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter("s1").clear_faults()
        landed = fault is FaultKind.CRASH_AFTER_BATCH and batch == seeded
        if landed:
            with pytest.raises(TransactionFinished):
                victim.abort()
        else:
            victim.abort()
        assert victim.status is (TxStatus.COMMITTED if landed else TxStatus.ABORTED)
        assert [r.key for r in env.dump_all() if r.columns.get(COL_STATE) == "PREPARED"] == []
        assert recorder.history().entries[-1].outcome is victim.status
        coord = ("coord", "coordinator", "state")
        assert audit_atomicity(env.dump_all(), recorder.history(), coord) == []
        before = [{"v": 1} if seeded else None, None]
        expected = [{"v": 10}] * 2 if landed else before
        assert [committed_value(env, key) for key in keys] == expected

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_a_batch_that_fails_on_a_read_key_aborts_without_a_retry(self, mode, monkeypatch):
        env = self.env(mode)
        keys = [k(pk=1), k(pk=2)]
        seed(env, keys[0], 1)
        tx = env.manager.begin()
        tx.put(keys[0], {"v": tx.get(keys[0])["v"] + 1})
        tx.put(keys[1], {"v": 5})  # a blind insert, guessed right
        seed(env, keys[0], 7)  # a concurrent writer
        calls = self.count_reads(env, monkeypatch, batches=True)
        with pytest.raises(ConflictAbort, match="single-batch commit lost a conflict"):
            tx.commit()
        assert calls == [("s1", "atomic_write", False)]
        assert [committed_value(env, key) for key in keys] == [{"v": 7}, None]

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_a_retry_that_fails_again_aborts(self, mode):
        env = self.env(mode)
        seed(env, k(), 1)
        hook = WriteHook(env.adapter("s1"))
        batches = iter(range(2))

        def rewrite():
            writer = env.manager.begin()
            writer.put(k(), {"v": writer.get(k())["v"] + 100})
            writer.commit()

        hook.arm(lambda writes: next(batches) == 1, rewrite)  # right before the retry
        tx = env.manager.begin()
        tx.put(k(), {"v": 5})
        with pytest.raises(ConflictAbort, match="single-batch commit lost a conflict"):
            tx.commit()
        assert hook.armed is None and tx.status is TxStatus.ABORTED
        assert decode_metadata(tx.read_set[k()].meta).version == 1  # the retry's read
        assert committed_value(env, k()) == {"v": 101}

    @pytest.mark.parametrize("count", [1, 2])
    def test_a_torn_pair_raises_recovery_failed(self, count):
        env = self.env("snapshot")
        keys = [k(pk=pk) for pk in range(count)]
        # the application row alone: what a half-written pair looks like
        env.adapter("s1").atomic_write([ConditionalWrite(keys[0], {"v": 1})])
        with pytest.raises(RecoveryFailed, match="torn split pair"):
            self.blind_commit(env, keys)
        assert [r.key for r in env.dump_all()] == [keys[0]]

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("mode", ["colocated_consistent", "snapshot", "view"])
    def test_a_row_without_metadata_raises_missing_metadata(self, mode, count):
        env = self.env(mode)
        keys = [k(pk=pk) for pk in range(count)]
        rows = [ConditionalWrite(keys[0], {"v": 1})]
        if self.MODES[mode][0]:
            rows.append(ConditionalWrite(DecoupleConfig.metadata_key(keys[0]), {"note": "x"}))
        env.adapter("s1").atomic_write(rows)
        with pytest.raises(MissingMetadata, match="carries no fedtx metadata"):
            self.blind_commit(env, keys)
        assert len(env.dump_all()) == len(rows)


class TestRowAliasing:
    """Rows built without a copy stay out of reach of the caller's dicts."""

    @pytest.mark.parametrize("decoupled", [False, True], ids=["colocated", "split"])
    def test_abort_after_crash_restores_rows_the_caller_mutated(self, decoupled):
        env = build_env({"s1": make_caps(), "s2": make_caps()}, decoupled=decoupled)
        keys = [k("s1"), k("s2")]
        for key in keys:
            tx = env.manager.begin()
            tx.put(key, {"v": 1, "name": "old"})
            tx.commit()
        stored = {name: [dict(r.columns) for r in env.adapter(name).dump()] for name in ("s1", "s2")}

        victim = env.manager.begin()
        got, given = {}, {}
        for key in keys:
            got[key] = victim.get(key)
            given[key] = {"v": 10, "name": "new"}
            victim.put(key, given[key])
        for key in keys:
            got[key]["v"] = given[key]["v"] = -1
            got[key]["extra"] = given[key]["extra"] = 0
        env.adapter("coord").inject_faults([(0, FaultKind.CRASH_BEFORE_BATCH)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter("coord").clear_faults()
        for key in keys:
            got[key]["name"] = given[key]["name"] = "mutated"

        prepared = [r.columns for r in env.dump_all() if r.columns.get(COL_STATE) == "PREPARED"]
        assert len(prepared) == 2
        app = [r.columns for r in env.dump_all() if r.columns.get("v") is not None]
        assert sorted(row["v"] for row in app) == [10, 10]
        victim.abort()
        assert victim.status is TxStatus.ABORTED
        assert {name: [dict(r.columns) for r in env.adapter(name).dump()] for name in ("s1", "s2")} == stored

    @pytest.mark.parametrize("decoupled", [False, True], ids=["colocated", "split"])
    def test_mutating_read_results_changes_no_later_read_or_before_image(self, decoupled):
        env = build_env({"s1": make_caps(), "s2": make_caps()}, decoupled=decoupled)
        scanned_keys = [k("s1", ck=ck) for ck in range(3)]
        for key in scanned_keys + [k("s2")]:
            seed(env, key, 1)
        tx = env.manager.begin()
        for columns in [tx.get(k("s1", ck=0))] + [c for _, c in tx.scan(GroupKey("s1", "app", "t", (1,)))]:
            columns["v"] = -1
            columns["extra"] = 0
        assert tx.get(k("s1", ck=0)) == {"v": 1}
        assert [c for _, c in tx.scan(GroupKey("s1", "app", "t", (1,)))] == [{"v": 1}] * 3

        for key in scanned_keys + [k("s2")]:
            tx.put(key, {"v": 10})
        env.adapter("coord").inject_faults([(0, FaultKind.CRASH_BEFORE_BATCH)])
        with pytest.raises(InjectedCrash):
            tx.commit()
        env.adapter("coord").clear_faults()
        prepared = [r.columns for r in env.dump_all() if r.columns.get(COL_STATE) == "PREPARED"]
        assert len(prepared) == 4
        for columns in prepared:
            assert decode_metadata(columns).before_image.columns == {"v": 1}
        tx.abort()
        assert [committed_value(env, key) for key in scanned_keys] == [{"v": 1}] * 3

    def test_public_write_copies_the_callers_columns(self):
        store = build_env().adapter("s1")
        columns = {"v": 1}
        write = ConditionalWrite(k(), columns)
        columns["v"] = 2
        columns["x"] = 3
        assert store.atomic_write([write]) is None
        columns["v"] = 4
        assert store.read(k()) == {"v": 1}


class TestReadDecoding:
    """A read decodes its stored row on demand, and still rejects what it cannot decode."""

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_an_unknown_state_still_raises_on_read(self, mode):
        env = build_env(**mode_env_args(mode))
        columns = stored_row({"v": 1}, TransactionMetadata("t0", 1, TxState.COMMITTED))
        columns[COL_STATE] = "LIMBO"
        if env.manager.decoupling is None:
            rows = [ConditionalWrite(k(), columns)]
        else:
            app, meta = split_columns(columns)
            meta_key = DecoupleConfig.metadata_key(k())
            rows = [ConditionalWrite(k(), app), ConditionalWrite(meta_key, meta)]
        env.registry.atomic_write(rows)
        with pytest.raises(ValueError, match="LIMBO"):
            env.manager.begin().get(k())
        with pytest.raises(ValueError, match="LIMBO"):
            env.manager.begin().scan(GroupKey("s1", "app", "t", (1,)))


class TestStoredImages:
    """Every row the protocol stores is the object oracle's image of what happened.

    The metadata of each expected row is built as objects from the handles'
    own tx ids, then rendered by the oracle and, in a split mode, cut into its
    two physical rows.
    """

    COLUMNS = {"v": 1, "flag": True, "name": "a", "blob": b"\x00", "none": None}

    @staticmethod
    def dump(env):
        return {
            record.key.render(): [(name, value_tag(v), v) for name, v in record.columns.items()]
            for name in ("s1", "s2")
            for record in env.adapter(name).dump()
        }

    @staticmethod
    def expected(env, rows):
        physical = {}
        for key, row in rows.items():
            if env.manager.decoupling is None:
                physical[key] = row
            else:
                physical[key], physical[DecoupleConfig.metadata_key(key)] = split_columns(row)
        return {
            key.render(): [(name, value_tag(v), v) for name, v in row.items()]
            for key, row in physical.items()
        }

    def prepare_and_crash(self, env, crash, tx=None):
        """Rewrite s1 and delete s2 in ``tx`` (or a new one), which dies at the coordinator write."""
        tx = tx or env.manager.begin()
        assert tx.get(k("s1")) is not None and tx.get(k("s2")) is not None
        tx.put(k("s1"), dict(self.COLUMNS, v=tx.get(k("s1"))["v"] + 1))
        tx.delete(k("s2"))
        env.adapter("coord").inject_faults([(0, crash)])
        with pytest.raises(InjectedCrash):
            tx.commit()
        env.adapter("coord").clear_faults()
        return tx

    def prepared_rows(self, tx, before):
        image = BeforeImage(self.COLUMNS, before.tx_id, before.version)
        return {
            k("s1"): reference_columns(
                dict(self.COLUMNS, v=2),
                TransactionMetadata(tx.tx_id, 2, TxState.PREPARED, image),
            ),
            k("s2"): reference_columns(
                {},
                TransactionMetadata(tx.tx_id, 2, TxState.PREPARED, image, delete_marker=True),
            ),
        }

    def rolled_rows(self, env, winner):
        """s1 rewritten and s2 deleted by ``winner``, settled COMMITTED."""
        rolled = TransactionMetadata(winner.tx_id, 2, TxState.COMMITTED)
        return self.expected(env, {k("s1"): reference_columns(dict(self.COLUMNS, v=2), rolled)})

    def seeded(self, mode):
        """An env whose s1 and s2 hold COLUMNS from one two-phase commit.

        Returns it with that version's metadata and the dump it leaves.
        """
        env = build_env(**mode_env_args(mode, storages=("s1", "s2")))
        keys = [k("s1"), k("s2")]
        first = env.manager.begin()
        for key in keys:
            first.put(key, self.COLUMNS)
        first.commit()
        settled = TransactionMetadata(first.tx_id, 1, TxState.COMMITTED)
        committed = self.expected(env, dict.fromkeys(keys, reference_columns(self.COLUMNS, settled)))
        return env, settled, committed

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_each_kind_of_row_stores_only_the_metadata_it_asserts(self, mode):
        """Column names, in order, of settled and PREPARED rows: the oracle's, none at a default."""
        env, settled, _ = self.seeded(mode)
        settled_names = list(SETTLED_METADATA_COLUMNS)
        assert list(reference_metadata_columns(settled)) == settled_names
        app = list(self.COLUMNS)
        tx = env.manager.begin()
        tx.put(k("s1", pk=2), self.COLUMNS)  # an insert
        colocated = env.manager.decoupling is None

        def names(expected, outcomes):
            """Each record's stored column names: its one row, or its application and metadata rows.

            Each outcome row holds its outcome alone.
            """
            rows = {record.key: record.columns for record in env.dump_all()}
            assert len(rows) == len(expected) * (1 if colocated else 2) + outcomes
            coordinator = [list(record.columns) for record in env.adapter("coord").dump()]
            assert coordinator == [[COORD_STATE_COLUMN]] * outcomes
            for key, (app_names, meta_names) in expected.items():
                if colocated:
                    assert list(rows[key]) == app_names + meta_names
                else:
                    assert list(rows[key]) == app_names
                    assert list(rows[DecoupleConfig.metadata_key(key)]) == meta_names
            return rows

        names({k("s1"): (app, settled_names), k("s2"): (app, settled_names)}, outcomes=1)
        self.prepare_and_crash(env, FaultKind.CRASH_BEFORE_BATCH, tx)  # an overwrite, a delete
        insert = TransactionMetadata(tx.tx_id, 1, TxState.PREPARED)
        image = BeforeImage(self.COLUMNS, settled.tx_id, settled.version)
        overwrite = replace(insert, version=2, before_image=image)
        delete = replace(overwrite, delete_marker=True)
        before = ["_tx_before", "_tx_before_version"] + ["_tx_before_col_" + n for n in self.COLUMNS]
        expected = {
            k("s1"): (app, settled_names + before),
            k("s1", pk=2): (app, settled_names),
            k("s2"): ([], settled_names + ["_tx_deleted"] + before),
        }
        for key, meta in [(k("s1"), overwrite), (k("s1", pk=2), insert), (k("s2"), delete)]:
            assert list(reference_metadata_columns(meta)) == expected[key][1]
        rows = names(expected, outcomes=1)  # the seeding commit's outcome
        delete_meta = rows[k("s2") if colocated else DecoupleConfig.metadata_key(k("s2"))]
        assert delete_meta[COL_DELETED] is True
        assert decode_metadata(delete_meta) == delete
        tx.abort()  # restores both settled rows, and removes the insert
        names({k("s1"): (app, settled_names), k("s2"): (app, settled_names)}, outcomes=2)

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_commit_restore_and_roll_forward_store_the_oracles_rows(self, mode):
        env, settled, committed = self.seeded(mode)
        keys = [k("s1"), k("s2")]
        assert self.dump(env) == committed

        # Abort after prepare: both prepared rows, then both settled rows restored.
        aborted = self.prepare_and_crash(env, FaultKind.CRASH_BEFORE_BATCH)
        assert self.dump(env) == self.expected(env, self.prepared_rows(aborted, settled))
        aborted.abort()
        assert aborted.status is TxStatus.ABORTED
        assert self.dump(env) == committed

        # Past the commit point: a reader rolls both records forward.
        winner = self.prepare_and_crash(env, FaultKind.CRASH_AFTER_BATCH)
        assert self.dump(env) == self.expected(env, self.prepared_rows(winner, settled))
        reader = env.manager.begin()
        assert [reader.get(key) for key in keys] == [dict(self.COLUMNS, v=2), None]
        assert self.dump(env) == self.rolled_rows(env, winner)

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_a_readers_roll_back_stores_the_oracles_rows(self, mode):
        """A crash before the outcome record: a reader claims the abort and restores both rows."""
        env, settled, committed = self.seeded(mode)
        victim = self.prepare_and_crash(env, FaultKind.CRASH_BEFORE_BATCH)
        assert self.dump(env) == self.expected(env, self.prepared_rows(victim, settled))
        reader = env.manager.begin()
        assert [reader.get(key) for key in (k("s1"), k("s2"))] == [self.COLUMNS, self.COLUMNS]
        assert self.dump(env) == committed

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    @pytest.mark.parametrize(
        "crash",
        [FaultKind.CRASH_BEFORE_BATCH, FaultKind.CRASH_AFTER_BATCH],
        ids=["before-outcome", "after-outcome"],
    )
    def test_the_sweep_stores_the_oracles_rows(self, mode, crash):
        env, settled, committed = self.seeded(mode)
        victim = self.prepare_and_crash(env, crash)
        assert self.dump(env) == self.expected(env, self.prepared_rows(victim, settled))
        assert env.manager.recover_all_prepared() == 2
        if crash is FaultKind.CRASH_BEFORE_BATCH:
            assert self.dump(env) == committed
        else:
            assert self.dump(env) == self.rolled_rows(env, victim)

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_an_abort_after_a_partial_prepare_stores_the_oracles_rows(self, mode):
        """s1's group prepares, s2's loses to a rival delete; the owner restores s1's prior row."""
        env, settled, _ = self.seeded(mode)
        tx = env.manager.begin()
        for key in (k("s1"), k("s2")):
            tx.put(key, dict(self.COLUMNS, v=tx.get(key)["v"] + 1))
        rival = env.manager.begin()
        rival.delete(k("s2"))
        rival.commit()
        batches = env.counters("s1").atomic_write_batches
        with pytest.raises(ConflictAbort):
            tx.commit()
        assert tx.status is TxStatus.ABORTED
        assert env.counters("s1").atomic_write_batches == batches + 2  # prepared, then restored
        expected = {k("s1"): reference_columns(self.COLUMNS, settled)}
        assert self.dump(env) == self.expected(env, expected)
