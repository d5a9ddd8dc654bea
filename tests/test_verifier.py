"""Serializability checking and crash-atomicity auditing."""

import itertools
import random
from dataclasses import replace

import pytest

from fedtx import FaultKind, InjectedCrash, TxStatus
from fedtx.records import COORD_STATE_COLUMN
from fedtx.verifier import (
    History,
    HistoryRecorder,
    LineageAnomaly,
    PartialWrite,
    PreparedResidue,
    TxSummary,
    Violation,
    audit_atomicity,
    check_serializable,
)
from conftest import build_env, k, make_caps

COORD = ("coord", "coordinator", "state")


def tx(
    tx_id, reads=(), writes=(), begin=0, commit=None, outcome=TxStatus.COMMITTED, one_phase=False
):
    return TxSummary(
        tx_id=tx_id,
        outcome=outcome,
        begin_at=begin,
        commit_at=commit,
        reads=tuple(reads),
        writes=tuple(writes),
        one_phase=one_phase,
    )


class TestCheckSerializable:
    def test_empty_history(self):
        assert check_serializable(History()) is None

    def test_disjoint_transactions_commute(self):
        history = History(
            entries=[
                tx("a", reads=[("x", 0)], writes=[("x", 1)]),
                tx("b", reads=[("y", 0)], writes=[("y", 1)]),
            ]
        )
        assert check_serializable(history) is None

    def test_write_skew_is_a_violation(self):
        history = History(
            entries=[
                tx("c", reads=[("x", 0)]),  # precedes the cycle, not on it
                tx("a", reads=[("x", 0)], writes=[("y", 1)]),
                tx("b", reads=[("y", 0)], writes=[("x", 1)]),
            ],
            final={"x": 1, "y": 1},
        )
        violation = check_serializable(history)
        assert isinstance(violation, Violation)
        assert set(violation.tx_ids) == {"a", "b"}

    def test_lost_update_is_a_violation(self):
        history = History(
            entries=[
                tx("a", reads=[("x", 0)], writes=[("x", 1)]),
                tx("b", reads=[("x", 0)], writes=[("x", 1)]),
            ]
        )
        assert check_serializable(history) is not None

    def test_initial_versions_are_respected(self):
        history = History(
            initial={"x": 3},
            entries=[tx("a", reads=[("x", 3)], writes=[("x", 4)])],
            final={"x": 4},
        )
        assert check_serializable(history) is None

    def test_final_versions_constrain_the_order(self):
        history = History(
            entries=[tx("a", writes=[("x", 1)])],
            final={"x": 2},
        )
        assert check_serializable(history) is not None

    def test_a_written_version_needs_its_predecessor(self):
        history = History(
            initial={"x": 3},
            entries=[tx("a", reads=[("x", 3)], writes=[("x", 5)])],
        )
        violation = check_serializable(history)
        assert isinstance(violation, Violation)
        assert "no predecessor" in violation.message
        assert violation.tx_ids == ("a",)

    def test_a_read_version_needs_a_committed_writer(self):
        history = History(
            entries=[
                tx("a", writes=[("x", 1)]),
                tx("w", reads=[("x", 1)], writes=[("x", 2)], outcome=TxStatus.ABORTED),
                tx("b", reads=[("x", 2)]),  # a dirty read of the aborted write
            ]
        )
        violation = check_serializable(history)
        assert isinstance(violation, Violation)
        assert "never written" in violation.message
        assert violation.tx_ids == ("b",)

    def test_a_final_version_behind_the_latest_write_names_its_writer(self):
        history = History(
            entries=[
                tx("a", reads=[("x", 0)], writes=[("x", 1)]),
                tx("b", reads=[("x", 1)], writes=[("x", 2)]),
            ],
            final={"x": 1},
        )
        violation = check_serializable(history)
        assert isinstance(violation, Violation)
        assert "not its latest written version 2" in violation.message
        assert violation.tx_ids == ("b",)

    def test_real_time_precedence_makes_stale_reads_violations(self):
        stale_read = tx("b", reads=[("x", 0)], writes=[("y", 1)], begin=10, commit=12)
        earlier_writer = tx("a", reads=[("x", 0)], writes=[("x", 1)], begin=1, commit=5)
        violation = check_serializable(History(entries=[earlier_writer, stale_read]))
        assert violation is not None
        # the same observations overlapping in time are fine: b may serialize first
        overlapping = History(
            entries=[
                tx("a", reads=[("x", 0)], writes=[("x", 1)], begin=1, commit=12),
                tx("b", reads=[("x", 0)], writes=[("y", 1)], begin=10, commit=11),
            ]
        )
        assert check_serializable(overlapping) is None

    def test_a_commit_stamp_equal_to_a_begin_stamp_adds_no_precedence(self):
        history = History(
            entries=[
                tx("a", reads=[("x", 0)], writes=[("x", 1)], begin=1, commit=5),
                tx("b", reads=[("x", 0)], writes=[("y", 1)], begin=5, commit=6),
            ]
        )
        assert check_serializable(history) is None

    def test_serial_chain_of_twenty_thousand(self):
        n = 20_000
        entries = [
            tx(f"t{i}", reads=[("x", i)], writes=[("x", i + 1)], begin=2 * i + 1, commit=2 * i + 2)
            for i in range(n)
        ]
        assert check_serializable(History(entries=entries, final={"x": n})) is None

    def test_ring_of_twenty_thousand_names_every_member(self):
        n = 20_000
        entries = [
            tx(f"t{i}", reads=[(f"k{i}", 0)], writes=[(f"k{(i + 1) % n}", 1)]) for i in range(n)
        ]
        violation = check_serializable(History(entries=entries))
        assert isinstance(violation, Violation)
        assert set(violation.tx_ids) == {entry.tx_id for entry in entries}


# --- agreement with a brute-force serial-order reference ----------------------


def serial_order_exists(history: History) -> bool:
    """Reference: try every order of the committed transactions (at most six).

    An order must put a transaction after every one that committed before it
    began, replay each read and write against the versions so far, and end
    at the final versions.
    """
    txs = history.committed()
    assert len(txs) <= 6
    initial = history.initial

    def explains(order) -> bool:
        for i, earlier in enumerate(order):
            for later in order[i + 1 :]:
                if None in (later.commit_at, earlier.begin_at):
                    continue
                if later.commit_at < earlier.begin_at:
                    return False
        versions = {}

        def current(key):
            return versions.get(key, initial.get(key, 0))

        for t in order:
            if any(current(key) != version for key, version in t.reads):
                return False
            if any(current(key) + 1 != version for key, version in t.writes):
                return False
            versions.update(t.writes)
        if history.final is None:
            return True
        return all(
            history.final.get(key, initial.get(key, 0)) == versions.get(key, initial.get(key, 0))
            for key in versions.keys() | history.final.keys()
        )

    return any(explains(order) for order in itertools.permutations(txs))


def random_history(rng: random.Random) -> History:
    """Interleave read-then-write transactions with no concurrency control.

    Reads observe the latest committed version, then some are made stale,
    dirty or skipped ahead; some stamps are dropped, and the final versions
    are sometimes left out or off by one. Keys may start above version 0.
    """
    keys = ["x", "y", "z"]
    initial = {key: rng.choice([0, 0, 2]) for key in keys}
    versions = dict(initial)
    specs = {}
    for i in range(rng.randint(1, 6)):
        read_keys = rng.sample(keys, rng.randint(1, len(keys)))
        specs[f"t{i}"] = (read_keys, [key for key in read_keys if rng.random() < 0.7])
    events = [(name, phase) for name in specs for phase in ("begin", "commit")]
    rng.shuffle(events)
    clock = itertools.count(1)
    begun = {}
    entries = []
    for name, phase in events:
        read_keys, write_keys = specs[name]
        if name not in begun:  # the first event of a transaction reads
            begun[name] = (next(clock), [(key, versions[key]) for key in read_keys])
        if phase == "begin":
            continue
        begin_at, observed = begun[name]
        reads = [(key, v + rng.choice([-1, 1]) if rng.random() < 0.1 else v) for key, v in observed]
        writes = []
        for key in write_keys:
            versions[key] += 1
            writes.append((key, versions[key] + (rng.random() < 0.05)))  # maybe skip one
        commit_at = next(clock)
        entry = tx(
            name,
            reads,
            writes,
            begin=None if rng.random() < 0.2 else begin_at,
            commit=None if rng.random() < 0.2 else commit_at,
            outcome=TxStatus.ABORTED if rng.random() < 0.1 else TxStatus.COMMITTED,
        )
        entries.append(entry)
    final = None
    if rng.random() < 0.8:
        final = dict(versions)
        if rng.random() < 0.2:
            final[rng.choice(keys)] += rng.choice([-1, 1])
    return History(initial=initial, entries=entries, final=final)


def test_agrees_with_brute_force_reference():
    rng = random.Random(20405)
    disagreements = []
    outcomes = {True: 0, False: 0}
    for _ in range(2_000):
        history = random_history(rng)
        ours = check_serializable(history) is None
        reference = serial_order_exists(history)
        outcomes[reference] += 1
        if ours != reference:
            disagreements.append(history)
    assert not disagreements
    assert min(outcomes.values()) > 200  # both verdicts exercised


# --- crash-atomicity auditing -------------------------------------------------


def run_clean_workload(env, recorder):
    for i in range(4):
        txn = env.manager.begin()
        txn.put(k(pk=i % 2), {"v": i})
        txn.put(k("s2", pk=i % 2), {"v": i})
        txn.commit()


class TestAuditAtomicity:
    def two_store_env(self, recorder):
        return build_env({"s1": make_caps(), "s2": make_caps()}, history=recorder)

    def test_clean_run_audits_ok(self):
        recorder = HistoryRecorder()
        env = self.two_store_env(recorder)
        run_clean_workload(env, recorder)
        findings = audit_atomicity(env.dump_all(), recorder.history(), COORD)
        assert findings == []

    def test_unrecovered_crash_reports_prepared_residue(self):
        recorder = HistoryRecorder()
        env = self.two_store_env(recorder)
        victim = env.manager.begin()
        victim.put(k("s1"), {"v": 1})
        victim.put(k("s2"), {"v": 2})
        env.adapter("s2").inject_faults([(0, FaultKind.CRASH_BEFORE_BATCH)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        recorder.record(victim.attempt)
        findings = audit_atomicity(env.dump_all(), recorder.history(), COORD)
        assert any(isinstance(f, PreparedResidue) for f in findings)

    def test_crash_then_recovery_audits_ok(self):
        recorder = HistoryRecorder()
        env = self.two_store_env(recorder)
        run_clean_workload(env, recorder)
        victim = env.manager.begin()
        victim.put(k("s1"), {"v": 9})
        victim.put(k("s2"), {"v": 9})
        env.adapter("coord").inject_faults([(0, FaultKind.CRASH_AFTER_BATCH)])
        with pytest.raises(InjectedCrash):
            victim.commit()
        env.adapter("coord").clear_faults()
        recorder.record(victim.attempt)
        env.manager.recover_all_prepared()
        findings = audit_atomicity(env.dump_all(), recorder.history(), COORD)
        assert findings == []

    def test_fabricated_partial_write_is_found(self):
        recorder = HistoryRecorder()
        env = self.two_store_env(recorder)
        txn = env.manager.begin()
        txn.put(k("s1"), {"v": 1})
        txn.commit()
        history = recorder.history()
        entry = history.entries[-1]
        # claim a second write that never reached the store
        history.entries[-1] = TxSummary(
            entry.tx_id,
            entry.outcome,
            entry.begin_at,
            entry.commit_at,
            entry.reads,
            entry.writes + ((k("s2").render(), 1),),
            entry.one_phase,
        )
        findings = audit_atomicity(env.dump_all(), history, COORD)
        assert any(isinstance(f, PartialWrite) for f in findings)

    def test_unexplained_version_is_an_anomaly(self):
        recorder = HistoryRecorder()
        env = self.two_store_env(recorder)
        txn = env.manager.begin()
        txn.put(k("s1"), {"v": 1})
        txn.commit()
        history = recorder.history()
        history.entries.clear()  # dump now shows a version nobody admits writing
        findings = audit_atomicity(env.dump_all(), history, COORD)
        assert any(isinstance(f, LineageAnomaly) for f in findings)

    def test_a_version_claimed_by_two_committed_transactions_is_an_anomaly(self):
        recorder = HistoryRecorder()
        env = build_env(history=recorder)
        txn = env.manager.begin()
        txn.put(k(), {"v": 1})
        txn.commit()
        history = recorder.history()
        writer = history.entries[-1]
        history.entries.append(replace(writer, tx_id="tx-9"))  # claims the same version
        key = k().render()
        assert audit_atomicity(env.dump_all(), history, COORD) == [
            LineageAnomaly(key, "version 1 claimed by two transactions"),
            LineageAnomaly(key, f"final version 1 not owned by {writer.tx_id}"),
        ]

    def test_a_one_phase_batch_found_in_part_is_a_partial_write(self):
        """An attempt left ACTIVE with one write in the dump and one missing."""
        recorder = HistoryRecorder()
        env = build_env(history=recorder)
        txn = env.manager.begin()
        txn.put(k(pk=1), {"v": 1})
        txn.commit()
        history = recorder.history()
        entry = history.entries[-1]
        assert entry.one_phase
        landed, missing = k(pk=1).render(), k(pk=2).render()
        history.entries[-1] = replace(
            entry, outcome=TxStatus.ACTIVE, commit_at=None, writes=((landed, 1), (missing, 1))
        )
        assert audit_atomicity(env.dump_all(), history, COORD) == [
            PartialWrite(entry.tx_id, (landed, missing), "single-batch commit applied partially"),
            LineageAnomaly(landed, "version 1 has no recorded writer"),
            LineageAnomaly(landed, f"final version 1 not owned by {entry.tx_id}"),
        ]

    def test_committed_delete_audits_ok(self):
        recorder = HistoryRecorder()
        env = build_env(history=recorder)
        txn = env.manager.begin()
        txn.put(k(), {"v": 1})
        txn.commit()
        txn = env.manager.begin()
        txn.delete(k())
        txn.commit()
        history = recorder.history()
        assert history.entries[-1].deletes == (k().render(),)
        assert audit_atomicity(env.dump_all(), history, COORD) == []

    def test_two_phase_delete_audits_ok(self):
        recorder = HistoryRecorder()
        env = self.two_store_env(recorder)
        run_clean_workload(env, recorder)
        txn = env.manager.begin()
        txn.delete(k(pk=0))
        txn.delete(k("s2", pk=0))
        txn.put(k(pk=1), {"v": 9})
        txn.commit()
        assert not recorder.history().entries[-1].one_phase
        assert audit_atomicity(env.dump_all(), recorder.history(), COORD) == []

    def test_missing_durable_delete_is_found(self):
        recorder = HistoryRecorder()
        env = build_env(history=recorder)
        txn = env.manager.begin()
        txn.put(k(), {"v": 1})
        txn.commit()
        history = recorder.history()
        # claim a delete of the key the dump still holds
        history.entries.append(
            TxSummary(
                "tx-9",
                TxStatus.COMMITTED,
                8,
                9,
                writes=((k().render(), 2),),
                deletes=(k().render(),),
            )
        )
        findings = audit_atomicity(env.dump_all(), history, COORD)
        assert [type(f) for f in findings] == [PartialWrite]

    @pytest.mark.parametrize("fault", [FaultKind.CRASH_BEFORE_BATCH, FaultKind.CRASH_AFTER_BATCH])
    def test_crashed_one_phase_delete_resolved_from_dump(self, fault):
        """The lone batch deletes one key and creates another; the dump decides both."""
        recorder = HistoryRecorder()
        env = build_env(history=recorder)
        txn = env.manager.begin()
        txn.put(k(pk=1), {"v": 1})
        txn.commit()
        txn = env.manager.begin()
        txn.delete(k(pk=1))
        txn.put(k(pk=2), {"v": 2})
        env.adapter("s1").inject_faults([(0, fault)])
        with pytest.raises(InjectedCrash):
            txn.commit()
        env.adapter("s1").clear_faults()
        recorder.record(txn.attempt)
        applied = fault is FaultKind.CRASH_AFTER_BATCH
        assert (env.adapter("s1").read(k(pk=1)) is None) is applied
        assert audit_atomicity(env.dump_all(), recorder.history(), COORD) == []

    def test_the_coordinator_row_decides_an_attempt_left_active(self):
        """The audit reads a two-phase outcome from the row the commit wrote."""
        recorder = HistoryRecorder()
        env = self.two_store_env(recorder)
        txn = env.manager.begin()
        txn.put(k("s1"), {"v": 1})
        txn.put(k("s2"), {"v": 2})
        txn.commit()
        history = recorder.history()
        entry = history.entries[-1]
        assert not entry.one_phase
        history.entries[-1] = replace(entry, outcome=TxStatus.ACTIVE, commit_at=None)
        dump = env.dump_all()
        rows = [r for r in dump if (r.key.storage, r.key.namespace, r.key.table) == COORD]
        assert [r.columns[COORD_STATE_COLUMN] for r in rows] == ["COMMITTED"]
        assert audit_atomicity(dump, history, COORD) == []
        # Without its outcome row the attempt counts as aborted, yet its writes are durable.
        without_outcome = [r for r in dump if r not in rows]
        assert audit_atomicity(without_outcome, history, COORD) != []

    def test_unknown_one_phase_outcome_resolved_from_dump(self):
        recorder = HistoryRecorder()
        env = build_env(history=recorder)
        txn = env.manager.begin()
        txn.put(k(), {"v": 1})
        env.adapter("s1").inject_faults([(0, FaultKind.CRASH_AFTER_BATCH)])
        with pytest.raises(InjectedCrash):
            txn.commit()
        env.adapter("s1").clear_faults()
        recorder.record(txn.attempt)
        history = recorder.history()
        assert history.entries[-1].one_phase
        findings = audit_atomicity(env.dump_all(), history, COORD)
        assert findings == []
