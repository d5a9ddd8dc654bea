"""Serializability checking and crash-atomicity auditing."""

import random

import pytest

from fedtx import (
    FaultKind,
    InjectedCrash,
    SearchBoundExceeded,
)
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


def tx(tx_id, reads=(), writes=(), begin=0, commit=None, outcome="COMMITTED", one_phase=False):
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

    def test_search_bound(self):
        entries = [tx(f"t{i}", writes=[(f"k{i}", 1)]) for i in range(9)]
        with pytest.raises(SearchBoundExceeded):
            check_serializable(History(entries=entries))


# --- agreement with a conflict-graph cycle test on read-latest histories -----


def conflict_graph_serializable(entries) -> bool:
    """Independent oracle: cycle test over wr/ww/rw conflict edges."""
    writer_of = {}
    for entry in entries:
        for key, version in entry.writes:
            writer_of[(key, version)] = entry.tx_id
    edges = {e.tx_id: set() for e in entries}
    for entry in entries:
        for key, version in entry.reads:
            writer = writer_of.get((key, version))
            if writer and writer != entry.tx_id:
                edges[writer].add(entry.tx_id)  # wr
            later = writer_of.get((key, version + 1))
            if later and later != entry.tx_id:
                edges[entry.tx_id].add(later)  # rw
        for key, version in entry.writes:
            later = writer_of.get((key, version + 1))
            if later and later != entry.tx_id:
                edges[entry.tx_id].add(later)  # ww

    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in edges}

    def has_cycle(node):
        color[node] = GREY
        for nxt in edges[node]:
            if color[nxt] is GREY:
                return True
            if color[nxt] is WHITE and has_cycle(nxt):
                return True
        color[node] = BLACK
        return False

    return not any(color[node] is WHITE and has_cycle(node) for node in edges)


def simulate_read_latest_history(rng: random.Random) -> History:
    """Interleave read-then-write transactions with no concurrency control.

    Reads always observe the latest committed version, which is the regime
    where the permutation search and the conflict-graph test must agree.
    """
    keys = ["x", "y", "z"]
    versions = {key: 0 for key in keys}
    n_txs = rng.randint(2, 5)
    pending = []
    for i in range(n_txs):
        read_keys = rng.sample(keys, rng.randint(1, len(keys)))
        write_keys = [key for key in read_keys if rng.random() < 0.7]
        pending.append((f"t{i}", read_keys, write_keys))
    events = [(name, "read") for name, _, _ in pending] + [
        (name, "write") for name, _, w in pending if w
    ]
    rng.shuffle(events)
    seen_read = set()
    observed = {}
    entries = {}
    for name, phase in events:
        spec = next(p for p in pending if p[0] == name)
        if phase == "read":
            seen_read.add(name)
            observed[name] = [(key, versions[key]) for key in spec[1]]
        else:
            if name not in seen_read:
                observed[name] = [(key, versions[key]) for key in spec[1]]
                seen_read.add(name)
            writes = []
            for key in spec[2]:
                versions[key] += 1
                writes.append((key, versions[key]))
            entries[name] = tx(name, reads=observed[name], writes=writes)
    for name, _, write_keys in pending:
        if name not in entries:
            entries[name] = tx(name, reads=observed.get(name, []))
    return History(entries=list(entries.values()), final=dict(versions))


def test_agrees_with_conflict_graph_oracle():
    rng = random.Random(20405)
    disagreements = []
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        history = simulate_read_latest_history(rng)
        ours = check_serializable(history) is None
        oracle = conflict_graph_serializable(history.committed())
        outcomes[oracle] += 1
        if ours != oracle:
            disagreements.append(history)
    assert not disagreements
    assert outcomes[True] and outcomes[False]  # both regimes exercised


# --- crash-atomicity auditing -------------------------------------------------


def run_clean_workload(env, recorder):
    for i in range(4):
        txn = env.manager.begin()
        txn.put(k(pk=i % 2), {"v": i})
        txn.put(k("s2", pk=i % 2), {"v": i})
        txn.commit()


class TestAuditAtomicity:
    def two_store_env(self, recorder):
        return build_env({"s1": make_caps(), "s2": make_caps()}, history=recorder, tx_ids="tx")

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
        recorder.record_crashed(victim.tx_id, victim.attempt.writes, victim.attempt.one_phase)
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
        recorder.record_crashed(victim.tx_id, victim.attempt.writes, victim.attempt.one_phase)
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

    def test_committed_delete_audits_ok(self):
        recorder = HistoryRecorder()
        env = build_env(history=recorder, tx_ids="tx")
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
        env = build_env(history=recorder, tx_ids="tx")
        txn = env.manager.begin()
        txn.put(k(), {"v": 1})
        txn.commit()
        history = recorder.history()
        # claim a delete of the key the dump still holds
        history.entries.append(
            TxSummary("tx-9", "COMMITTED", 8, 9, writes=((k().render(), 2),), deletes=(k().render(),))
        )
        findings = audit_atomicity(env.dump_all(), history, COORD)
        assert [type(f) for f in findings] == [PartialWrite]

    @pytest.mark.parametrize("fault", [FaultKind.CRASH_BEFORE_BATCH, FaultKind.CRASH_AFTER_BATCH])
    def test_crashed_one_phase_delete_resolved_from_dump(self, fault):
        """The lone batch deletes one key and creates another; the dump decides both."""
        recorder = HistoryRecorder()
        env = build_env(history=recorder, tx_ids="tx")
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
        attempt = txn.attempt
        recorder.record_crashed(txn.tx_id, attempt.writes, attempt.one_phase, attempt.deletes)
        applied = fault is FaultKind.CRASH_AFTER_BATCH
        assert (env.adapter("s1").read(k(pk=1)) is None) is applied
        assert audit_atomicity(env.dump_all(), recorder.history(), COORD) == []

    def test_unknown_one_phase_outcome_resolved_from_dump(self):
        recorder = HistoryRecorder()
        env = build_env(history=recorder, tx_ids="tx")
        txn = env.manager.begin()
        txn.put(k(), {"v": 1})
        env.adapter("s1").inject_faults([(0, FaultKind.CRASH_AFTER_BATCH)])
        with pytest.raises(InjectedCrash):
            txn.commit()
        env.adapter("s1").clear_faults()
        recorder.record_crashed(txn.tx_id, txn.attempt.writes, txn.attempt.one_phase)
        history = recorder.history()
        assert history.entries[-1].one_phase
        findings = audit_atomicity(env.dump_all(), history, COORD)
        assert findings == []
