"""Correctness oracles over recorded transaction histories.

``check_serializable`` decides whether some serial order of the committed
transactions reproduces every observed read version and the final store
versions, additionally respecting real-time precedence (a transaction that
committed before another began must come first). It is Adya's
serialization-graph test (*Weak Consistency*, 1999): a version-lineage check
and then a cycle search over dependency edges, linear in the history's size.
It needs stamps from one manager's clock and no committed deletes; its
docstring says why.

``audit_atomicity`` cross-checks a store dump against the attempt log: after
recovery has settled every in-doubt record, each attempted transaction must
have either all of its writes in the committed lineage or none of them. An
attempt logged while still ACTIVE died mid-commit; the coordinator record
decides its outcome, or for a one-phase attempt the dump does.

Record keys appear in their canonical text rendering and act as opaque
identities here.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .decoupling import logical_key
from .model import Record, TxState, TxStatus
from .records import COL_STATE, COL_TX_ID, COL_VERSION, outcome_committed


@dataclass(frozen=True)
class TxSummary:
    """One commit attempt, as the manager reported it.

    ``outcome`` is the transaction's status: COMMITTED, ABORTED, or ACTIVE for
    an attempt whose process died mid-commit.
    """

    tx_id: str
    outcome: TxStatus
    begin_at: int | None
    commit_at: int | None
    reads: tuple[tuple[str, int], ...] = ()
    writes: tuple[tuple[str, int], ...] = ()
    one_phase: bool = False
    deletes: tuple[str, ...] = ()  # the keys among ``writes`` that were deleted


@dataclass
class History:
    """Initial versions, finished attempts, and (optionally) final versions."""

    initial: dict[str, int] = field(default_factory=dict)
    entries: list[TxSummary] = field(default_factory=list)
    final: dict[str, int] | None = None

    def committed(self) -> list[TxSummary]:
        return [e for e in self.entries if e.outcome is TxStatus.COMMITTED]


class HistoryRecorder:
    """Thread-safe sink the transaction manager reports finished attempts to."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: list[TxSummary] = []

    def record(self, entry: TxSummary) -> None:
        """Log one attempt; an entry still ACTIVE is one whose process died mid-commit."""
        with self._lock:
            self._entries.append(entry)

    def history(self, initial: Mapping[str, int] | None = None) -> History:
        with self._lock:
            return History(initial=dict(initial or {}), entries=list(self._entries))


@dataclass(frozen=True)
class Violation:
    """No serial order explains the committed history."""

    message: str
    tx_ids: tuple[str, ...]


def check_serializable(history: History) -> Violation | None:
    """Decide whether a serial order explains the committed history; None means one does.

    Every version has one writer, so the check first maps ``(key, version)``
    to its writer. A version written twice (a lost update), a written version
    with no predecessor, a read of a version nobody committed, or a final
    version that is not the key's latest written one is a violation naming
    the transactions involved. Then a cycle over these edges is a violation
    naming the transactions on it:

    * write-read: the writer of a version precedes its readers;
    * read-write: a reader of a version precedes the writer of the next one;
    * write-write: the writer of a version precedes the writer of the next;
    * real time: a transaction that committed before another began precedes
      it. Commit stamps are chained in sorted order, so this adds a linear
      number of edges; a missing stamp adds none.

    Two limits hold. Begin and commit stamps come from one manager's clock,
    so a history recorded by several managers has no meaningful real-time
    edges. A read of an absent key records version 0, so histories with
    committed deletes are out of scope.
    """
    txs = history.committed()
    initial = history.initial
    writer: dict[tuple[str, int], int] = {}  # (key, version) -> index in txs
    latest: dict[str, int] = {}
    for i, t in enumerate(txs):
        for key, version in t.writes:
            other = writer.setdefault((key, version), i)
            if other != i:
                return Violation(
                    f"{key} version {version} written twice (lost update)",
                    (txs[other].tx_id, t.tx_id),
                )
            latest[key] = max(version, latest.get(key, version))
    for (key, version), i in writer.items():
        if version != initial.get(key, 0) + 1 and (key, version - 1) not in writer:
            return Violation(f"{key} version {version} has no predecessor", (txs[i].tx_id,))
    for t in txs:
        for key, version in t.reads:
            if version != initial.get(key, 0) and (key, version) not in writer:
                return Violation(f"{key} version {version} read but never written", (t.tx_id,))
    if history.final is not None:
        for key in latest.keys() | history.final.keys():
            base = initial.get(key, 0)
            last, final = latest.get(key, base), history.final.get(key, base)
            if final != last:
                wrote = writer.get((key, last))
                return Violation(
                    f"{key} ends at version {final}, not its latest written version {last}",
                    () if wrote is None else (txs[wrote].tx_id,),
                )

    # Nodes 0..n-1 are the transactions; n.. chain their commit stamps in order.
    n = len(txs)
    succ: list[list[int]] = [[] for _ in txs]
    for i, t in enumerate(txs):
        for key, version in t.reads:
            wrote = writer.get((key, version))
            if wrote is not None:
                succ[wrote].append(i)  # wr
            later = writer.get((key, version + 1))
            if later is not None and later != i:
                succ[i].append(later)  # rw
        for key, version in t.writes:
            later = writer.get((key, version + 1))
            if later is not None:
                succ[i].append(later)  # ww
    commits = sorted((t.commit_at, i) for i, t in enumerate(txs) if t.commit_at is not None)
    stamps = [stamp for stamp, _ in commits]
    for rank, (_, i) in enumerate(commits):
        succ[i].append(n + rank)
        succ.append([n + rank + 1] if rank + 1 < len(commits) else [])
    for i, t in enumerate(txs):
        if t.begin_at is not None:
            before = bisect_left(stamps, t.begin_at)
            if before:
                succ[n + before - 1].append(i)  # committed before t began

    cycle = _find_cycle(succ)
    if cycle is None:
        return None
    return Violation(
        "dependency cycle: no serial order reproduces the observed reads",
        tuple(txs[node].tx_id for node in cycle if node < n),
    )


def _find_cycle(succ: list[list[int]]) -> list[int] | None:
    """Iterative depth-first search; returns the nodes of one cycle, if any."""
    state = [0] * len(succ)  # 0 unvisited, 1 on the current path, 2 finished
    for root in range(len(succ)):
        if state[root]:
            continue
        state[root] = 1
        path = [root]
        pending = [iter(succ[root])]
        while pending:
            for node in pending[-1]:
                if state[node] == 1:
                    return path[path.index(node) :]
                if state[node] == 0:
                    state[node] = 1
                    path.append(node)
                    pending.append(iter(succ[node]))
                    break
            else:
                state[path.pop()] = 2
                pending.pop()
    return None


@dataclass(frozen=True)
class PartialWrite:
    """A transaction's writes are only partially reflected in the store."""

    tx_id: str
    keys: tuple[str, ...]
    detail: str = ""


@dataclass(frozen=True)
class PreparedResidue:
    """In-doubt records remain; recovery has not run to quiescence."""

    tx_id: str
    keys: tuple[str, ...]


@dataclass(frozen=True)
class LineageAnomaly:
    """Version chains in the dump cannot be attributed consistently."""

    key: str
    detail: str


def _coordinator_states(records: Iterable[Record], coordinator_table: tuple[str, str, str]):
    storage, namespace, table = coordinator_table
    states: dict[str, TxStatus] = {}
    for record in records:
        key = record.key
        if (key.storage, key.namespace, key.table) == (storage, namespace, table):
            committed = outcome_committed(record.columns)
            states[key.partition_key[0]] = TxStatus.COMMITTED if committed else TxStatus.ABORTED
    return states


def audit_atomicity(
    dump: Sequence[Record],
    history: History,
    coordinator_table: tuple[str, str, str],
) -> list:
    """All-or-nothing check of every attempted transaction against a store dump.

    The dump must cover every storage, including the coordinator table, taken
    after recovery settled all in-doubt records. Returns a list of findings;
    empty means the store is clean.

    A durable delete holds when its key is absent from the dump, and so does
    every earlier durable write of that key. Re-creating a key after its
    delete restarts its version lineage at 1; such histories are out of
    scope, and give lineage findings.
    """
    findings: list = []
    states = _coordinator_states(dump, coordinator_table)

    # Final per-key (version, tx_id) from state-bearing rows, each under the
    # record ``logical_key`` maps it to.
    final: dict[str, tuple[int, str]] = {}
    prepared: dict[str, list[str]] = {}
    for record in dump:
        columns = record.columns
        if COL_STATE not in columns:
            continue
        rendered = logical_key(record.key).render()
        if columns[COL_STATE] == TxState.PREPARED.value:
            prepared.setdefault(columns[COL_TX_ID], []).append(rendered)
            continue
        final[rendered] = (columns[COL_VERSION], columns[COL_TX_ID])

    for tx_id, keys in sorted(prepared.items()):
        findings.append(PreparedResidue(tx_id, tuple(sorted(keys))))

    # Resolve which attempts are durable.
    claimed: dict[tuple[str, int], str] = {}  # (key, version) -> tx_id
    durable: list[TxSummary] = []
    aborted: list[TxSummary] = []
    unresolved: list[TxSummary] = []
    for entry in history.entries:
        outcome = states.get(entry.tx_id, entry.outcome)
        if outcome is TxStatus.COMMITTED:
            durable.append(entry)
        elif outcome is TxStatus.ABORTED:
            aborted.append(entry)
        elif entry.one_phase:
            # No coordinator record by design: the single batch either
            # applied in full or not at all; the dump decides which, once
            # the coordinator-resolved transactions have claimed their slots.
            unresolved.append(entry)
        else:
            # Crashed before any outcome record existed. After recovery, any
            # prepared residue would have forced an ABORTED record, so none
            # of its writes may be durable; verify below via the final state.
            aborted.append(entry)

    def claim(entry: TxSummary) -> None:
        for key, version in entry.writes:
            slot = (key, version)
            if slot in claimed and claimed[slot] != entry.tx_id:
                findings.append(
                    LineageAnomaly(key, f"version {version} claimed by two transactions")
                )
            claimed[slot] = entry.tx_id

    for entry in durable:
        claim(entry)

    for entry in unresolved:
        marks = []
        for key, version in entry.writes:
            final_version, final_tx = final.get(key, (0, ""))
            if key in entry.deletes:
                marks.append(key not in final)
            elif version > final_version:
                marks.append(False)
            elif version == final_version:
                marks.append(final_tx == entry.tx_id)
            else:
                # overwritten slot: the writer is attributable only by
                # elimination against coordinator-resolved claims
                marks.append((key, version) not in claimed)
        if marks and all(marks):
            durable.append(entry)
            claim(entry)
        elif any(marks):
            findings.append(
                PartialWrite(
                    entry.tx_id,
                    tuple(sorted(key for key, _ in entry.writes)),
                    "single-batch commit applied partially",
                )
            )
        else:
            aborted.append(entry)

    # Every durable write must show in the dump: a delete as an absent key,
    # anything else at its version or later, or absent by a later delete.
    deleted: dict[str, int] = {}  # key -> version of its last durable delete
    for entry in durable:
        for key, version in entry.writes:
            if key in entry.deletes and version > deleted.get(key, 0):
                deleted[key] = version
    for entry in durable:
        for key, version in entry.writes:
            is_delete = key in entry.deletes
            if is_delete:
                missing = key in final
            elif key in final:
                missing = version > final[key][0]
            else:
                missing = version > deleted.get(key, 0)
            if missing:
                what = "delete" if is_delete else "write"
                findings.append(
                    PartialWrite(
                        entry.tx_id, (key,), f"durable {what} at version {version} missing"
                    )
                )

    # Aborted or unresolved attempts must leave no visible trace.
    for entry in aborted:
        visible = [
            key
            for key, version in entry.writes
            if final.get(key, (0, ""))[1] == entry.tx_id
        ]
        if visible:
            findings.append(
                PartialWrite(entry.tx_id, tuple(sorted(visible)), "aborted write is visible")
            )

    # Version lineages must be contiguous and fully attributed.
    for key, (version, tx_id) in sorted(final.items()):
        base = history.initial.get(key, 0)
        for v in range(base + 1, version + 1):
            if (key, v) not in claimed:
                findings.append(LineageAnomaly(key, f"version {v} has no recorded writer"))
        if version > base and claimed.get((key, version)) != tx_id:
            findings.append(
                LineageAnomaly(key, f"final version {version} not owned by {tx_id}")
            )
    return findings
