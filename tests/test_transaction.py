"""Transaction lifecycle, the commit pipeline, conflicts, and lazy recovery."""

import re
from dataclasses import replace

import pytest

import fedtx.decoupling
import fedtx.memstore
import fedtx.records
import fedtx.transaction
from fedtx import (
    AtomicityUnit,
    ConditionalWrite,
    ConflictAbort,
    DecoupleConfig,
    FaultKind,
    GroupKey,
    InjectedCrash,
    RecoveryFailed,
    TransactionFinished,
    TransactionManager,
    TxState,
    TxStatus,
    WriteKind,
)
from fedtx.decoupling import ReadPath, read_dispatch
from fedtx.model import BeforeImage, FullKey, Record, TransactionMetadata
from fedtx.records import COL_BEFORE, COL_STATE, COL_TX_ID, COL_VERSION, combined_columns
from fedtx.storage import WriteCondition
from fedtx.verifier import HistoryRecorder, audit_atomicity
from conftest import METADATA_MODES, SEVEN_METADATA_COLUMNS, build_env, k, make_caps, mode_env_args


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
        obs = tx.read_set[k()]
        assert obs.meta.version == 1 and obs.meta.tx_state is TxState.COMMITTED

    def test_repeated_get_reads_storage_once(self, env):
        seed(env, k(), 5)
        env.adapter("s1").reset_counters()
        tx = env.manager.begin()
        tx.get(k())
        tx.get(k())
        assert env.counters("s1").reads == 1

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
            (True, "s1", (0, FaultKind.CRASH_BEFORE_BATCH), TxStatus.ABORTED),
            (True, "s1", (0, FaultKind.CRASH_AFTER_BATCH), TxStatus.COMMITTED),
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
        env = build_env({"s1": make_caps(), "s2": make_caps()}, tx_ids="tx")
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
        env = build_env({"s1": make_caps(), "s2": make_caps()}, tx_ids="tx")
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
    def crash_env(self, decoupled=False):
        env = build_env({"s1": make_caps(), "s2": make_caps()}, decoupled=decoupled, tx_ids="vic")
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

    def test_crash_before_outcome_rolls_back_on_read(self):
        env = self.crash_env()
        victim = self.crashed_commit(env, FaultKind.CRASH_BEFORE_BATCH)
        assert committed_value(env, k("s1")) == {"v": 1}  # never the prepared value
        coord_rows = {r.key.partition_key[0]: r.columns for r in env.adapter("coord").dump()}
        assert coord_rows[victim.tx_id]["tx_state"] == TxStatus.ABORTED.value

    def test_crash_after_outcome_rolls_forward_on_read(self):
        env = self.crash_env()
        self.crashed_commit(env, FaultKind.CRASH_AFTER_BATCH)
        assert committed_value(env, k("s1")) == {"v": 10}
        assert committed_value(env, k("s2")) == {"v": 10}
        # rolled-forward records are settled, with the rollback image cleared
        row = {r.key.storage: r for r in env.adapter("s1").dump()}["s1"]
        assert row.columns[COL_STATE] == TxState.COMMITTED.value
        assert row.columns["_tx_before"] is None

    def test_roll_forward_of_prepared_delete_removes_record(self):
        env = self.crash_env()
        self.crashed_commit(env, FaultKind.CRASH_AFTER_BATCH, kind="delete")
        assert committed_value(env, k("s1")) is None
        assert not [r for r in env.adapter("s1").dump()]

    def test_crash_between_prepare_groups_sweep_restores(self):
        env = self.crash_env()
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
        ghost = TransactionMetadata("ghost", 2, TxState.PREPARED, prepared_at=1)
        stuck = Record(k(), combined_columns({"v": 5}, ghost))
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

    def test_sweep_settles_meta_named_tables_outside_split_namespaces(self):
        env = build_env({"s1": make_caps(), "s2": make_caps()})
        manager = TransactionManager(
            env.registry,
            env.manager.coordinator,
            decoupling=DecoupleConfig(namespaces=frozenset({"app"})),
        )
        orders = k("s1", namespace="other", table="orders_meta")  # an ordinary table there
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
        env = self.crash_env()
        victim = self.crashed_commit(env, FaultKind.CRASH_BEFORE_BATCH)
        row = {"tx_state": stored, "created_at": 99}
        write = ConditionalWrite(env.manager.coordinator.key_for(victim.tx_id), row)
        assert env.adapter("coord").atomic_write([write]) is None
        with pytest.raises(ValueError):
            env.manager.begin().get(k("s1"))  # never read as "not committed"
        assert read_dispatch(env.registry, None, k("s1")).prepared

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

    def test_recovery_works_on_split_tables(self):
        env = self.crash_env(decoupled=True)
        self.crashed_commit(env, FaultKind.CRASH_AFTER_BATCH)
        assert committed_value(env, k("s1")) == {"v": 10}

    def test_recovery_abort_write_can_lose_to_committer(self):
        env = build_env({"s1": make_caps(), "s2": make_caps()}, tx_ids="vic")
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
                        {"tx_state": "COMMITTED", "created_at": 999},
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
        prior_meta = read(k("s1")).meta
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
        assert prepared.meta.tx_state is TxState.PREPARED
        assert prepared.meta.before_image == BeforeImage(self.MIXED_ROW, prior_meta)
        for columns in rows().values():  # the image rides with the state columns (_meta when split)
            image = [name for name in columns if name.startswith(COL_BEFORE)]
            if columns.get(COL_STATE) == "PREPARED":
                assert len(image) == 5 + len(self.MIXED_ROW)
            else:  # a settled row has only _tx_before; a split application row has none
                assert image == ([COL_BEFORE] if COL_STATE in columns else [])

        committed = outcome is TxStatus.COMMITTED
        for key in keys:  # each reader settles the record lazily
            assert committed_value(env, key) == (writes[key] if committed else self.MIXED_ROW)
        if committed:
            for columns in rows().values():
                meta = {name for name in columns if name.startswith("_tx_")}
                assert meta in (set(), SEVEN_METADATA_COLUMNS)
                assert columns.get(COL_BEFORE) is None
        else:
            assert rows() == seeded_rows  # prior columns and tx id, version, timestamps
            assert read(k("s1")).meta == prior_meta
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

        def commit_record_of_t(writes):
            return any(
                w.columns.get(COL_TX_ID) == tx.tx_id
                and w.columns.get(COL_STATE) == TxState.COMMITTED.value
                for w in writes
            )

        hook.arm(commit_record_of_t, self.overwrite(env, k("s1", pk=lost_pk)))
        tx.commit()
        assert hook.armed is None
        self.assert_no_prepared(env)
        kept_pk = 3 - lost_pk
        assert committed_value(env, k("s1", pk=lost_pk)) == {"v": 100}
        assert committed_value(env, k("s1", pk=kept_pk)) == {"v": 7}
        assert committed_value(env, k("s2", pk=9)) == {"v": 7}

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
        tx = env.manager.begin()
        rows = tx.scan(GroupKey("s1", "app", "t", (1,)))
        assert [cols["v"] for _, cols in rows] == [1, 2]

    @pytest.mark.parametrize(
        "prefix",
        [GroupKey("s1", "app", "t", (1,), (1,)), GroupKey("s1", "app", "t"), GroupKey("s1")],
        ids=["clustering-key", "table", "storage"],
    )
    def test_a_prefix_other_than_one_partition_is_refused(self, env, prefix):
        for ck in (1, 2):
            seed(env, k(pk=1, ck=ck), ck)
        tx = env.manager.begin()
        tx.put(k(pk=1, ck=1), {"v": 100})
        tx.delete(k(pk=1, ck=2))
        with pytest.raises(ValueError):
            tx.scan(prefix)
        rows = tx.scan(GroupKey("s1", "app", "t", (1,)))
        assert [(key.clustering_key, cols) for key, cols in rows] == [((1,), {"v": 100})]


class TestMetadataTables:
    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_a_split_namespace_metadata_table_is_out_of_reach(self, mode):
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
        decoupled = METADATA_MODES[mode][0]
        for attempt in attempts:
            if decoupled:
                with pytest.raises(ValueError, match="metadata table"):
                    attempt()
            else:
                attempt()  # colocated, t_meta is an ordinary table
        tx.commit()
        assert tx.write_set == ({} if decoupled else {meta_key: None})
        obs = read_dispatch(env.registry, env.manager.decoupling, k())
        assert (obs.app_columns, obs.meta.version) == ({"v": 1}, 1)
        if decoupled:  # every route still agrees on the key
            split = fedtx.decoupling.read_split(env.registry, env.manager.decoupling, k())
            assert (split.app_columns, split.meta) == (obs.app_columns, obs.meta)


class TestHistoryRecording:
    def test_committed_history_carries_reads_and_writes(self):
        recorder = HistoryRecorder()
        env = build_env(history=recorder, tx_ids="tx")
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
        counts = {GroupKey: 0, FullKey: 0, Record: 0}
        for cls in counts:
            original = cls.__post_init__

            def counting(self, _original=original, _cls=cls):
                counts[_cls] += 1
                _original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
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
        assert built[FullKey] <= 1  # the metadata row's key
        assert built[Record] == 0

    def test_partition_scan_checks_no_returned_row(self, built):
        env = build_env({"s1": make_caps(AtomicityUnit.PARTITION)})
        tx = env.manager.begin()
        for ck in range(16):
            tx.put(k(ck=ck), {"v": ck})
        tx.commit()
        prefix = GroupKey("s1", "app", "t", (1,))
        built[FullKey] = built[Record] = 0
        records = env.adapter("s1").scan(prefix)
        assert [r.columns["v"] for r in records] == list(range(16))
        assert built[Record] == 0
        assert built[FullKey] == 0  # neither one per row nor one for the partition

    def test_store_reads_check_no_returned_row(self, built):
        caps = make_caps(AtomicityUnit.STORAGE, consistent=True)
        env = build_env({"s1": caps})
        key, absent = k(), k(pk=2)
        seed(env, key, 1)
        store = env.adapter("s1")
        built[FullKey] = built[Record] = 0
        assert store.read(key) is not None
        assert store.snapshot_read([key, absent])[0] is not None
        assert len(store.dump()) == 1
        assert built[FullKey] == built[Record] == 0

    def test_reads_decode_each_row_once(self, monkeypatch):
        calls = {"split_columns": 0, "parse_metadata": 0, "TxState": 0}
        for module in (fedtx.records, fedtx.decoupling, fedtx.transaction):
            for name in ("split_columns", "parse_metadata"):
                original = getattr(module, name, None)
                if original is None:
                    continue  # the module does not call it

                def counting(*args, _name=name, _original=original):
                    calls[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counting)
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
            return {"split_columns": 0, "parse_metadata": count, "TxState": 0}

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
        """No written data row goes through the copying constructor or a per-access condition.

        ``combined_columns`` is counted under the name ``perfbench`` traces,
        so the counts match its ``records.combined_columns.calls_per_tx``.
        """
        counts = {"copied": [], "conditions": 0, "combined": 0}
        copying = ConditionalWrite.__post_init__
        checking = WriteCondition.__post_init__
        combine = fedtx.transaction.combined_columns

        def counted_copy(write):
            counts["copied"].append(write.key)
            copying(write)

        def counted_condition(condition):
            counts["conditions"] += 1
            checking(condition)

        def counted_combine(*args):
            counts["combined"] += 1
            return combine(*args)

        monkeypatch.setattr(ConditionalWrite, "__post_init__", counted_copy)
        monkeypatch.setattr(WriteCondition, "__post_init__", counted_condition)
        monkeypatch.setattr(fedtx.transaction, "combined_columns", counted_combine)

        def commit_cost(env, keys):
            for key in keys:
                seed(env, key, 1)
            tx = env.manager.begin()
            for key in keys:
                tx.put(key, {"v": tx.get(key)["v"] + 1})
            counts.update(copied=[], conditions=0, combined=0)
            tx.commit()
            assert tx.status is TxStatus.COMMITTED
            assert {key: committed_value(env, key) for key in keys} == dict.fromkeys(keys, {"v": 2})
            data_rows = [key for key in counts["copied"] if key.storage != "coord"]
            return data_rows, counts["conditions"], counts["combined"]

        two_phase = build_env({"s1": make_caps(), "s2": make_caps()})
        keys = [k(storage, pk=pk) for storage in ("s1", "s2") for pk in range(4)]
        data_rows, conditions, combined = commit_cost(two_phase, keys)
        assert two_phase.counters("coord").atomic_write_batches > 0
        assert data_rows == []
        assert combined == 16  # 8 prepared rows and 8 committed rows
        assert conditions <= 8 + 1  # one per logical write, one for the commit records

        one_phase = build_env({"s1": make_caps(AtomicityUnit.PARTITION)})
        keys = [k(ck=ck) for ck in range(4)]
        data_rows, conditions, combined = commit_cost(one_phase, keys)
        assert one_phase.counters("coord").atomic_write_batches == 0
        assert data_rows == []
        assert combined == 4
        assert conditions <= 4


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
            assert fedtx.records.parse_metadata(columns).before_image.columns == {"v": 1}
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
        assert dict(store.read(k()).columns) == {"v": 1}


class TestReadDecoding:
    """A read decodes its stored row on demand, and still rejects what it cannot decode."""

    @pytest.mark.parametrize("mode", list(METADATA_MODES))
    def test_an_unknown_state_still_raises_on_read(self, mode):
        env = build_env(**mode_env_args(mode))
        columns = combined_columns({"v": 1}, TransactionMetadata("t0", 1, TxState.COMMITTED, 1, 2))
        columns[COL_STATE] = "LIMBO"
        logical = ConditionalWrite(k(), columns)
        env.registry.atomic_write(
            fedtx.decoupling.expand_writes(env.registry, env.manager.decoupling, [logical])
        )
        with pytest.raises(ValueError, match="LIMBO"):
            env.manager.begin().get(k())
        with pytest.raises(ValueError, match="LIMBO"):
            env.manager.begin().scan(GroupKey("s1", "app", "t", (1,)))
