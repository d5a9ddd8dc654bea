"""Deterministic in-memory storage adapter that counts its calls and can crash.

The store keeps a flat hash map from (namespace, table, partition key,
clustering key) to columns, so a point read is one dict lookup. That row key is
the record's ``FullKey`` less its storage name, the plain tuple ``key[1:]``.
Beside it a clustering-key index maps each (namespace, table, partition key) to
the partition's rows by non-empty clustering key, each the very dict ``_rows``
holds. A scan names one partition (a ``GroupKey`` cannot name anything else),
sorts that index's clustering keys and hands out each indexed row, then adds
the partition's empty-clustering-key row, so it costs the size of the
partition rather than the size of the store, and builds no row key.

One mutex per store serializes every call: each read, scan, view join, batch
and dump is one critical section, so a batch is one linearization point, the
index changes with the rows it indexes, and a multi-record read never observes
half a batch. That is all the adapter contract asks (calls on one adapter are
linearizable). Finer latches would only let calls on different scopes overlap;
those calls commute, so they allow no history this mutex forbids, and under
the interpreter lock they buy no parallelism either. The atomic-write unit
still bounds what one call may touch: ``atomic_write`` and ``snapshot_read``
raise ``AtomicityScopeViolation`` for keys that span scopes of
``model.scope_of``, the single unit-to-prefix map, exactly as a real store
would refuse them.

Two invariants keep reads cheap:

* A row is checked once, when ``atomic_write`` applies it. The batch's
  scope is tested first; then one staging pass, before the batch takes the
  mutex, runs ``model.check_columns`` on every PUT's columns (a DELETE's are
  never checked), refuses a write whose kind is neither, and slices each row
  key, so a bad batch raises with nothing applied. The condition loop and
  the apply loop inside the mutex both read the staged entries.
* A stored row is never mutated in place; a write replaces the whole dict.
  So ``read``, ``snapshot_read``, ``scan`` and ``dump`` share the stored dict
  read-only behind a ``MappingProxyType``, with no copy and no re-check
  (``view_read`` wraps its freshly joined dict the same way), and a row
  handed out never changes after the read, whatever is written later.
  ``dump`` pairs each shared row with its key in a plain ``model.Record``,
  the only place one is built.

Beside the data, the same mutex guards a test and benchmark surface, so a
count changes in the same critical section as the rows it counts:

* ``counters`` tallies the operations that completed: a call that raises is
  not counted, and a batch whose condition failed counts only under
  ``condition_failures``.
* ``inject_faults`` plans crashes of chosen ``atomic_write`` calls, either
  before the batch applies (nothing applied, nothing counted) or after it
  (applied and counted), simulating a process dying mid-commit.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import (
    AtomicityScopeViolation,
    CapabilityUnsupported,
    InjectedCrash,
    JoinIntegrityError,
    UnknownView,
)
from .model import FullKey, GroupKey, Record, check_columns, render_key, scope_of, value_tag
from .records import COL_TX_ID
from .storage import (
    AdapterCapabilities,
    ConditionalWrite,
    ConditionKind,
    StorageAdapter,
    WriteCondition,
    WriteKind,
)


class FaultKind(enum.Enum):
    CRASH_BEFORE_BATCH = "CRASH_BEFORE_BATCH"
    CRASH_AFTER_BATCH = "CRASH_AFTER_BATCH"


@dataclass(frozen=True)
class MemStoreConfig:
    """Construction-time knobs for one in-memory store."""

    capabilities: AdapterCapabilities


@dataclass
class OpCounters:
    """Tally of operations that reached (and were applied by) a store.

    Each applied batch and each multi-record consistent read counts one
    ``db_transactions``. Batches whose condition failed apply nothing and are
    tracked only under ``condition_failures``.
    """

    reads: int = 0
    scans: int = 0
    atomic_write_batches: int = 0
    written_records: int = 0
    db_transactions: int = 0
    view_reads: int = 0
    condition_failures: int = 0

    def copy(self) -> "OpCounters":
        return replace(self)


_RowKey = tuple  # key[1:]: (namespace, table, partition_key, clustering_key)
# Bound once: reading an enum member through its class costs about 0.1 µs on
# Python 3.11, and ``_apply`` and ``_condition_holds`` read these per written row.
_PUT, _DELETE = WriteKind.PUT, WriteKind.DELETE
_IF_NOT_EXISTS, _UNCONDITIONAL = ConditionKind.IF_NOT_EXISTS, ConditionKind.UNCONDITIONAL
_IF_TX_ID_EQUALS = ConditionKind.IF_TX_ID_EQUALS


class MemStore(StorageAdapter):
    """Thread-safe in-memory store with a configurable atomic-write scope."""

    def __init__(self, name: str, config: MemStoreConfig):
        self._name = name
        self._caps = config.capabilities
        self._rows: dict[_RowKey, dict] = {}
        # (namespace, table, partition key) -> {non-empty clustering key: the
        # row _rows holds}; a partition's row with the empty clustering key stays out.
        self._clustered: dict[tuple, dict[tuple, dict]] = {}
        self._views: dict[str, tuple[str, str, str]] = {}
        self._view_by_table: dict[tuple[str, str], str] = {}
        # Guards the rows, the index, the counters and the fault plan.
        self._lock = threading.Lock()
        self._counters = OpCounters()
        self._attempts = 0  # atomic_write calls since the last inject_faults
        self._plan: list[tuple[int, FaultKind]] = []

    @property
    def name(self) -> str:
        return self._name

    @property
    def capabilities(self) -> AdapterCapabilities:
        return self._caps

    # -- reads ------------------------------------------------------------

    def read(self, key: FullKey) -> Mapping | None:
        with self._lock:
            columns = self._rows.get(key[1:])
            self._counters.reads += 1
        return MappingProxyType(columns) if columns is not None else None

    def scan(self, prefix: GroupKey) -> list[tuple[tuple, Mapping]]:
        partition = prefix[1:]  # (namespace, table, partition key)
        with self._lock:
            index = self._clustered.get(partition, ())
            hits = [(ck, MappingProxyType(index[ck])) for ck in sorted(index)]
            bare = self._rows.get(partition + ((),))
            self._counters.scans += 1
        if bare is not None:
            hits.insert(0, ((), MappingProxyType(bare)))  # the empty clustering key sorts first
        return hits

    def snapshot_read(self, keys: Sequence[FullKey]) -> list[Mapping | None]:
        if not self._caps.consistent_readable:
            raise CapabilityUnsupported(f"storage {self._name!r} is not consistent-readable")
        if not keys:
            return []
        depth = len(scope_of(keys[0], self._caps.atomicity_unit))
        if len({key[:depth] for key in keys}) > 1:
            raise AtomicityScopeViolation("snapshot read spans atomic-write scopes")
        with self._lock:
            rows = [self._rows.get(key[1:]) for key in keys]
            self._counters.reads += len(keys)
            self._counters.db_transactions += 1
        return [MappingProxyType(columns) if columns is not None else None for columns in rows]

    # -- views -------------------------------------------------------------

    def register_join_view(
        self, view_name: str, namespace: str, app_table: str, meta_table: str
    ) -> None:
        """Expose a primary-key join of an application table and its metadata table.

        The read route asks for a table's view once and keeps the answer, so
        register every view before the store serves reads.
        """
        self._views[view_name] = (namespace, app_table, meta_table)
        self._view_by_table[(namespace, app_table)] = view_name

    def view_for(self, key: FullKey) -> str | None:
        return self._view_by_table.get((key.namespace, key.table))

    def view_read(self, view_name: str, key: FullKey) -> Mapping | None:
        if not self._caps.view_joinable:
            raise CapabilityUnsupported(f"storage {self._name!r} is not view-joinable")
        try:
            namespace, app_table, meta_table = self._views[view_name]
        except KeyError:
            raise UnknownView(f"no view named {view_name!r}") from None
        pk, ck = key.partition_key, key.clustering_key
        with self._lock:
            app = self._rows.get((namespace, app_table, pk, ck))
            meta = self._rows.get((namespace, meta_table, pk, ck))
            if (app is None) != (meta is None):
                missing = "application" if app is None else "metadata"
                raise JoinIntegrityError(f"{missing} row missing for {key.render()}")
            self._counters.reads += 1
            self._counters.view_reads += 1
        if app is None:
            return None
        return MappingProxyType(app | meta)

    # -- writes -------------------------------------------------------------

    def _condition_holds(self, condition: WriteCondition, current: dict | None) -> bool:
        """Whether ``condition`` holds on ``current``, the stored row or None.

        ``_apply`` tests the commit path's IF_TX_ID_EQUALS itself, so every
        other kind comes here. IF_COLUMNS_EQUAL fails on an absent record,
        for deletes as well.
        """
        kind = condition.kind
        if kind is _IF_NOT_EXISTS:
            return current is None
        if kind is _UNCONDITIONAL:
            return True
        expected = condition.expected_columns  # IF_COLUMNS_EQUAL
        return current == expected and all(
            value_tag(value) is value_tag(expected[name]) for name, value in current.items()
        )

    def atomic_write(self, writes: Sequence[ConditionalWrite]) -> int | None:
        with self._lock:
            index = self._attempts
            self._attempts += 1
            fault = self._plan.pop(0)[1] if self._plan and self._plan[0][0] == index else None
        if fault is FaultKind.CRASH_BEFORE_BATCH:
            raise InjectedCrash(f"before batch #{index} on {self._name!r}")
        failed_at = self._apply(writes)
        if fault is FaultKind.CRASH_AFTER_BATCH:
            raise InjectedCrash(f"after batch #{index} on {self._name!r}")
        return failed_at

    def _apply(self, writes: Sequence[ConditionalWrite]) -> int | None:
        """The batch contract itself: apply all of ``writes`` or report the first failure.

        Its checks run in a fixed order: an empty batch, then the scope (one
        depth from ``scope_of``, one slice per key), then each write's kind
        and each PUT's columns, then the conditions. The batch, or its
        failed condition, is counted under the same lock.
        """
        if not writes:
            raise ValueError("empty batch")
        depth = len(scope_of(writes[0].key, self._caps.atomicity_unit))
        scopes = {write.key[:depth] for write in writes}
        if len(scopes) > 1:
            raise AtomicityScopeViolation(
                f"batch spans {len(scopes)} atomic-write scopes on {self._name!r}"
            )
        # The staging pass: check each PUT's columns and slice its row key.
        staged = []
        for key, columns, condition, kind in writes:
            if kind is _PUT:
                check_columns(columns)
            elif kind is not _DELETE:
                raise TypeError(f"write kind {kind!r} is not a WriteKind")
            staged.append((key[1:], columns, condition, kind))
        with self._lock:
            counters = self._counters
            rows = self._rows
            for i, (rk, _, condition, _) in enumerate(staged):
                current = rows.get(rk)
                if condition.kind is _IF_TX_ID_EQUALS:  # the commit path's; fails if absent
                    tx_id = condition.expected_tx_id
                    holds = current is not None and current.get(COL_TX_ID) == tx_id
                else:
                    holds = self._condition_holds(condition, current)
                if not holds:
                    counters.condition_failures += 1
                    return i
            clustered = self._clustered
            for rk, columns, _, kind in staged:
                ck = rk[3]
                if kind is _DELETE:
                    if rows.pop(rk, None) is not None and ck:
                        index = clustered[rk[:3]]
                        del index[ck]
                        if not index:
                            del clustered[rk[:3]]
                    continue
                # .copy(): dict() of the write's MappingProxyType misses the fast merge
                row = rows[rk] = columns.copy()
                if ck:
                    index = clustered.get(rk[:3])
                    if index is None:
                        clustered[rk[:3]] = {ck: row}
                    else:
                        index[ck] = row
            counters.atomic_write_batches += 1
            counters.written_records += len(writes)
            counters.db_transactions += 1
        return None

    # -- test and tooling surface -------------------------------------------

    def counters(self) -> OpCounters:
        with self._lock:
            return self._counters.copy()

    def reset_counters(self) -> None:
        with self._lock:
            self._counters = OpCounters()

    def inject_faults(self, plan: Sequence[tuple[int, FaultKind]]) -> None:
        """Crash the ``atomic_write`` calls at the planned indices.

        Indices count ``atomic_write`` calls from this one on, each taken as
        the call arrives, before any check: a batch that fails its condition
        or raises takes one too. A BEFORE crash leaves the batch unapplied;
        an AFTER crash lets it apply first. Either way the error propagates so
        the caller dies exactly as a real process would.
        """
        indices = [index for index, _ in plan]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("fault plan indices must be strictly increasing")
        with self._lock:
            self._plan = [(index, FaultKind(kind)) for index, kind in plan]
            self._attempts = 0

    def clear_faults(self) -> None:
        with self._lock:
            self._plan = []

    def dump(self) -> list[Record]:
        """Every stored record, deterministically ordered."""
        with self._lock:
            items = list(self._rows.items())
        items.sort(key=lambda item: render_key(self._name, *item[0]))
        return [
            Record(FullKey._unchecked(self._name, *rk), MappingProxyType(columns))
            for rk, columns in items
        ]


def build_memstore(name: str, config: MemStoreConfig) -> MemStore:
    """The store every environment registers: a ``MemStore`` named ``name``.

    It counts its own applied operations and holds its own fault plan, so
    there is nothing to compose around it.
    """
    return MemStore(name, config)
