"""Correctness oracles over recorded transaction histories.

``check_serializable`` searches for a serial order of the committed
transactions that reproduces every observed read version and the final store
versions, additionally respecting real-time precedence (a transaction that
committed before another began must come first). The search is exhaustive, so
histories are capped at eight committed transactions.

``audit_atomicity`` cross-checks a store dump against the attempt log: after
recovery has settled every in-doubt record, each attempted transaction must
have either all of its writes in the committed lineage or none of them.

Record keys appear in their canonical text rendering and act as opaque
identities here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import SearchBoundExceeded
from .model import FullKey, Record, TxOutcome, TxState
from .records import COL_STATE, COL_TX_ID, COL_VERSION

_SEARCH_BOUND = 8


@dataclass(frozen=True)
class TxSummary:
    """One finished commit attempt, as the manager reported it."""

    tx_id: str
    outcome: str  # COMMITTED | ABORTED | UNKNOWN (crashed mid-commit)
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
        return [e for e in self.entries if e.outcome == "COMMITTED"]


class HistoryRecorder:
    """Thread-safe sink the transaction manager reports finished attempts to."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: list[TxSummary] = []

    def record(self, tx_id, outcome, begin_at, commit_at, reads, writes, one_phase, deletes=()):
        entry = TxSummary(
            tx_id=tx_id,
            outcome=outcome,
            begin_at=begin_at,
            commit_at=commit_at,
            reads=tuple(reads),
            writes=tuple(writes),
            one_phase=one_phase,
            deletes=tuple(deletes),
        )
        with self._lock:
            self._entries.append(entry)

    def record_crashed(
        self,
        tx_id: str,
        writes: Mapping[str, int],
        one_phase: bool,
        deletes: Iterable[str] = (),
    ):
        """Log an attempt whose process died mid-commit; outcome unknown."""
        with self._lock:
            self._entries.append(
                TxSummary(
                    tx_id=tx_id,
                    outcome="UNKNOWN",
                    begin_at=None,
                    commit_at=None,
                    writes=tuple(writes.items()),
                    one_phase=one_phase,
                    deletes=tuple(deletes),
                )
            )

    def history(self, initial: Mapping[str, int] | None = None) -> History:
        with self._lock:
            return History(initial=dict(initial or {}), entries=list(self._entries))


@dataclass(frozen=True)
class Violation:
    """No serial order explains the committed history."""

    message: str
    tx_ids: tuple[str, ...]


def _replayable(tx: TxSummary, versions: dict[str, int], initial: Mapping[str, int]) -> bool:
    for key, version in tx.reads:
        if versions.get(key, initial.get(key, 0)) != version:
            return False
    for key, version in tx.writes:
        if versions.get(key, initial.get(key, 0)) + 1 != version:
            return False
    return True


def check_serializable(history: History) -> Violation | None:
    """Exhaustively search for an explaining serial order; None means one exists.

    The order must respect real-time precedence: whenever one transaction
    committed before another began, it must be serialized first.
    """
    txs = history.committed()
    if len(txs) > _SEARCH_BOUND:
        raise SearchBoundExceeded(f"{len(txs)} committed transactions exceed the bound")

    must_precede: list[set[int]] = []
    for i, ti in enumerate(txs):
        before = set()
        for j, tj in enumerate(txs):
            if i == j:
                continue
            if (
                tj.commit_at is not None
                and ti.begin_at is not None
                and tj.commit_at < ti.begin_at
            ):
                before.add(j)
        must_precede.append(before)

    initial = history.initial

    def matches_final(versions: dict[str, int]) -> bool:
        if history.final is None:
            return True
        for key, version in versions.items():
            if history.final.get(key, initial.get(key, 0)) != version:
                return False
        for key, version in history.final.items():
            if versions.get(key, initial.get(key, 0)) != version:
                return False
        return True

    n = len(txs)

    def search(chosen: set[int], versions: dict[str, int]) -> bool:
        if len(chosen) == n:
            return matches_final(versions)
        for i in range(n):
            if i in chosen or not must_precede[i] <= chosen:
                continue
            if not _replayable(txs[i], versions, initial):
                continue
            updated = dict(versions)
            for key, version in txs[i].writes:
                updated[key] = version
            if search(chosen | {i}, updated):
                return True
        return False

    if search(set(), {}):
        return None
    return Violation(
        "no serial order reproduces the observed reads and final versions",
        tuple(t.tx_id for t in txs),
    )


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
    states: dict[str, str] = {}
    for record in records:
        key = record.key
        if (key.storage, key.namespace, key.table) == (storage, namespace, table):
            states[key.partition_key[0]] = record.columns["tx_state"]
    return states


def audit_atomicity(
    dump: Sequence[Record],
    history: History,
    coordinator_table: tuple[str, str, str],
    meta_table_suffix: str = "_meta",
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

    # Final per-key (version, tx_id) from state-bearing rows; metadata rows
    # represent their application row.
    final: dict[str, tuple[int, str]] = {}
    prepared: dict[str, list[str]] = {}
    for record in dump:
        columns = record.columns
        if COL_STATE not in columns:
            continue
        key = record.key
        if key.table.endswith(meta_table_suffix):
            key = FullKey(
                key.storage,
                key.namespace,
                key.table[: -len(meta_table_suffix)],
                key.partition_key,
                key.clustering_key,
            )
        rendered = key.render()
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
        if outcome == TxOutcome.COMMITTED.value:
            durable.append(entry)
        elif outcome == TxOutcome.ABORTED.value:
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
