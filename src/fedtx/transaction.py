"""Optimistic transactions across heterogeneous stores.

Every transaction buffers its writes locally and commits through a pipeline
that leans on each store's atomic-write scope:

1. group the write set by atomicity-unit scope, so each group fits one
   atomic batch (``grouping``);
2. prepare each group in one conditional batch: records carry the new values
   in PREPARED state plus a before-image, and apply only if the record is
   still at the version this transaction observed (and, for a split read,
   still holds the application columns it read);
3. re-read whatever observations conditional writes cannot cover (serializable
   mode, or split-table reads that may have been torn);
4. write one COMMITTED outcome record to the coordinator table; this write
   is the commit point and the single source of truth;
5. flip each group's records to COMMITTED in one batch per group, optionally
   from a background queue.

A transaction whose writes all land in one group and that needs no validation
skips all of this and writes COMMITTED records directly in a single batch,
touching neither the coordinator nor a second phase.

A transaction's status is a ``TxStatus``: ACTIVE, then its one outcome,
COMMITTED or ABORTED. Every two-phase transaction ends the same way: it claims
an outcome with the write-once coordinator record (adopting the stored one if
the claim loses), then settles each group it may have prepared to match:
COMMITTED records, or before-images restored. Conflicts surface as
``ConflictAbort`` after that settling. ``abort()`` after a commit that crashed
mid-pipeline claims ABORTED the same way: if the commit point had already
passed, the records are rolled forward instead and ``abort()`` raises
``TransactionFinished``. A crashed one-phase commit has no outcome record:
``abort()`` reads one written key to learn whether the lone batch landed, and
finishes to match. A record left PREPARED by a dead transaction is resolved
lazily at read time from the coordinator: roll forward when the writer
committed, roll back (claiming the abort first when there is no record yet)
when it did not.
"""

from __future__ import annotations

import logging
import queue
import threading
import uuid
from dataclasses import dataclass, replace
from typing import Callable, Mapping

from .decoupling import (
    DecoupleConfig,
    ReadPath,
    ReadResult,
    expand_writes,
    logical_index,
    read_dispatch,
)
from .errors import (
    ConflictAbort,
    JoinIntegrityError,
    RecoveryFailed,
    TransactionFinished,
)
from .grouping import group_by_atomicity_unit, group_per_record, one_phase_eligible
from .model import (
    AtomicityUnit,
    BeforeImage,
    CoordinatorState,
    FullKey,
    GroupKey,
    TransactionMetadata,
    TxState,
    TxStatus,
    check_columns,
    scope_of,
)
from .records import (
    COL_STATE,
    COORD_CREATED_COLUMN,
    COORD_STATE_COLUMN,
    check_application_columns,
    combined_columns,
    parse_metadata,  # noqa: F401 - perfbench/tracing.py rebinds this name here
)
from .storage import (
    ConditionalWrite,
    IF_NOT_EXISTS,
    StorageRegistry,
    WriteCondition,
    WriteKind,
    if_tx_id_equals,
)
from .verifier import TxSummary

_RECOVERY_ATTEMPTS = 10
_COMMIT_QUEUE_SIZE = 64

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CoordinatorLocation:
    """Which table holds transaction outcome records."""

    storage: str
    namespace: str = "coordinator"
    table: str = "state"

    def key_for(self, tx_id: str) -> FullKey:
        return FullKey(self.storage, self.namespace, self.table, (tx_id,))


@dataclass(slots=True, eq=False)
class _LogicalWrite:
    """A write-set entry resolved against its observed base version.

    ``columns`` is None for a delete. Its version and its ``condition`` are
    fixed when ``_materialize_writes`` builds it: the observed tx id, or
    absence when nothing was observed.
    """

    key: FullKey
    columns: Mapping[str, object] | None
    observed: ReadResult
    version: int
    condition: WriteCondition

    def before_image(self) -> BeforeImage | None:
        prior = self.observed.meta  # settled, so it has no image of its own
        if prior is None:
            return None
        if prior.before_image is not None:
            prior = replace(prior, before_image=None)
        # the read's own app_columns: filtered once, and nothing changes them
        return BeforeImage._sharing(self.observed.app_columns, prior)

    def prepared_write(self, tx_id: str, prepared_at: int) -> ConditionalWrite:
        meta = TransactionMetadata._decoded(
            tx_id=tx_id,
            version=self.version,
            tx_state=TxState.PREPARED,
            prepared_at=prepared_at,
            committed_at=None,
            before_image=self.before_image(),
            delete_marker=self.columns is None,
        )
        columns = {} if self.columns is None else self.columns
        return ConditionalWrite._owning(self.key, combined_columns(columns, meta), self.condition)

    def committed_write(
        self, tx_id: str, prepared_at: int, committed_at: int, condition
    ) -> ConditionalWrite:
        meta = TransactionMetadata._decoded(
            tx_id=tx_id,
            version=self.version,
            tx_state=TxState.COMMITTED,
            prepared_at=prepared_at,
            committed_at=committed_at,
            before_image=None,
            delete_marker=False,
        )
        return _committed_write(self.key, self.columns, meta, condition)


def _committed_write(
    key: FullKey, columns: Mapping[str, object] | None, meta: TransactionMetadata, condition
) -> ConditionalWrite:
    """Settled image of a write: ``columns`` under COMMITTED ``meta``, or a delete when None."""
    if columns is None:
        return ConditionalWrite._owning(key, {}, condition, WriteKind.DELETE)
    return ConditionalWrite._owning(key, combined_columns(columns, meta), condition)


def _restore_write(key: FullKey, before: BeforeImage | None, condition) -> ConditionalWrite:
    """Undo of a prepared write: its before-image back, or a delete if it created the record."""
    if before is None:
        return ConditionalWrite._owning(key, {}, condition, WriteKind.DELETE)
    return ConditionalWrite._owning(
        key, combined_columns(before.columns, before.metadata), condition
    )


def _attempt(tx: TxHandle, logicals=(), one_phase: bool = False) -> TxSummary:
    """``tx``'s history entry before it has an outcome: what it read and means to write."""
    return TxSummary(
        tx.tx_id,
        TxStatus.ACTIVE,
        tx.begin_at,
        None,
        reads=tuple(
            (key.render(), obs.meta.version if obs.present else 0)
            for key, obs in tx.read_set.items()
        ),
        writes=tuple((logical.key.render(), logical.version) for logical in logicals),
        one_phase=one_phase,
        deletes=tuple(logical.key.render() for logical in logicals if logical.columns is None),
    )


class TxHandle:
    """One transaction. Use from a single thread; the manager may be shared."""

    def __init__(self, manager: "TransactionManager", tx_id: str, serializable: bool, begin_at: int):
        self._manager = manager
        self.tx_id = tx_id
        self.serializable = serializable
        self.begin_at = begin_at
        self.status = TxStatus.ACTIVE
        self.read_set: dict[FullKey, ReadResult] = {}
        self.write_set: dict[FullKey, dict | None] = {}  # None deletes the key
        self.attempt: TxSummary | None = None  # built at commit for a history sink
        self.prepared_at: int | None = None
        self._prepared_groups: list[list[_LogicalWrite]] = []  # may hold PREPARED records
        self._one_phase_batch: list[_LogicalWrite] | None = None  # issued; may have applied

    def _check_active(self):
        if self.status is not TxStatus.ACTIVE:
            raise TransactionFinished(f"transaction {self.tx_id} is {self.status.value}")

    def _check_access(self, key: FullKey | GroupKey) -> None:
        """Refuse a finished transaction, and a key in a split namespace's metadata table."""
        self._check_active()
        config = self._manager.decoupling
        if config is not None and config.holds_metadata(key):
            raise ValueError(f"{key.render()} is in a metadata table")

    def get(self, key: FullKey) -> dict | None:
        self._check_access(key)
        return self._manager._get(self, key)

    def put(self, key: FullKey, columns: Mapping[str, object]) -> None:
        self._check_access(key)
        check_columns(columns)  # first: the prefix check needs str names
        check_application_columns(columns)
        self.write_set[key] = dict(columns)

    def delete(self, key: FullKey) -> None:
        self._check_access(key)
        self.write_set[key] = None

    def scan(self, prefix: GroupKey) -> list[tuple[FullKey, dict]]:
        self._check_access(prefix)
        return self._manager._scan(self, prefix)

    def commit(self) -> None:
        self._check_active()
        self._manager._commit_pipeline(self)

    def abort(self) -> None:
        self._manager._abort(self)


class TransactionManager:
    """Shared entry point: hands out transactions and runs their pipelines."""

    def __init__(
        self,
        registry: StorageRegistry,
        coordinator: CoordinatorLocation,
        decoupling: DecoupleConfig | None = None,
        pushdown_enabled: bool = True,
        one_phase_enabled: bool = True,
        async_commit_records: bool = False,
        tx_id_factory: Callable[[], str] | None = None,
        history=None,
    ):
        registry.get_database(coordinator.storage)  # fail fast on bad location
        self.registry = registry
        self.coordinator = coordinator
        self.decoupling = decoupling
        self.pushdown_enabled = pushdown_enabled
        self.one_phase_enabled = one_phase_enabled
        self.history = history
        self._tx_id_factory = tx_id_factory or (lambda: str(uuid.uuid4()))
        self._clock = 0
        self._clock_lock = threading.Lock()
        self._queue: queue.Queue | None = None
        self._failed_lock = threading.Lock()
        self._failed_tx_ids: list[str] = []
        if async_commit_records:
            self._queue = queue.Queue(maxsize=_COMMIT_QUEUE_SIZE)
            worker = threading.Thread(target=self._commit_record_worker, daemon=True)
            worker.start()

    def _tick(self) -> int:
        with self._clock_lock:
            self._clock += 1
            return self._clock

    # -- transaction surface -------------------------------------------------

    def begin(self, serializable: bool = False) -> TxHandle:
        return TxHandle(self, self._tx_id_factory(), serializable, self._tick())

    def _get(self, tx: TxHandle, key: FullKey) -> dict | None:
        if key in tx.write_set:
            columns = tx.write_set[key]
            return None if columns is None else dict(columns)
        cached = tx.read_set.get(key)
        if cached is None:
            cached = self._observe(key)
            tx.read_set[key] = cached
        return cached.app_columns.copy() if cached.present else None

    def _scan(self, tx: TxHandle, prefix: GroupKey) -> list[tuple[FullKey, dict]]:
        """Partition scan; every returned record lands in the read set individually."""
        merged: dict[FullKey, dict] = {}
        for record in self.registry.scan(prefix):
            key = record.key
            if self.decoupling is not None and self.decoupling.applies_to(key):
                obs = self._observe(key)  # the scanned row lacks its metadata
            else:
                columns = record.columns
                obs = ReadResult(columns, columns, ReadPath.COLOCATED)
                if obs.prepared:
                    obs = self._observe(key)
            obs = tx.read_set.setdefault(key, obs)
            if obs.present:
                merged[key] = obs.app_columns.copy()
        # overlay this transaction's own buffered writes
        scope = prefix.scope()
        for key, columns in tx.write_set.items():
            if scope_of(key, AtomicityUnit.PARTITION) != scope:
                continue
            if columns is None:
                merged.pop(key, None)
            else:
                merged[key] = dict(columns)
        return sorted(merged.items(), key=lambda item: item[0].clustering_key)

    # -- reads and recovery ----------------------------------------------------

    def _observe(self, key: FullKey, obs: ReadResult | None = None) -> ReadResult:
        """Read a record, resolving any in-doubt state before returning it.

        ``obs``, when given, is a read already made and stands for the first
        one. A record is read again after each resolution, so a settle that
        lost its condition is retried on what the store now holds.
        """
        for _ in range(_RECOVERY_ATTEMPTS):
            if obs is None:
                try:
                    obs = read_dispatch(self.registry, self.decoupling, key)
                except JoinIntegrityError:
                    # Transient under a concurrent split-row delete; read again.
                    continue
            if not obs.prepared:
                return obs
            self._resolve_prepared(key, obs)
            obs = None
        raise RecoveryFailed(f"record {key.render()} kept reverting to in-doubt state")

    def _read_coordinator(self, tx_id: str) -> CoordinatorState | None:
        record = self.registry.read(self.coordinator.key_for(tx_id))
        if record is None:
            return None
        return CoordinatorState(
            tx_id,
            TxStatus(record.columns[COORD_STATE_COLUMN]),
            record.columns[COORD_CREATED_COLUMN],
        )

    def _claim_outcome(self, tx_id: str, proposed: TxStatus) -> CoordinatorState:
        """Write-once outcome record: create it with ``proposed``, or adopt the stored one."""
        created_at = self._tick()
        write = ConditionalWrite(
            self.coordinator.key_for(tx_id),
            {COORD_STATE_COLUMN: proposed.value, COORD_CREATED_COLUMN: created_at},
            IF_NOT_EXISTS,
        )
        if self.registry.atomic_write([write]) is None:
            return CoordinatorState(tx_id, proposed, created_at)
        return self._read_coordinator(tx_id)

    def _resolve_prepared(self, key: FullKey, obs: ReadResult) -> None:
        """Settle a record left PREPARED by another transaction."""
        meta = obs.meta
        # No outcome yet: claim the abort; the writer's own claim may still win.
        state = self._read_coordinator(meta.tx_id) or self._claim_outcome(
            meta.tx_id, TxStatus.ABORTED
        )
        if state.state is TxStatus.COMMITTED:
            self._roll_forward(key, obs, state.created_at)
        else:
            self._roll_back(key, obs)

    def _roll_forward(self, key: FullKey, obs: ReadResult, committed_at: int) -> None:
        meta = obs.meta
        settled = replace(
            meta, tx_state=TxState.COMMITTED, committed_at=committed_at, before_image=None
        )
        columns = None if meta.delete_marker else obs.app_columns
        # A racing recovery may have settled it first; that is fine. A split
        # read may also be torn; then the write fails and the caller reads again.
        write = _committed_write(key, columns, settled, if_tx_id_equals(meta.tx_id))
        self._write([write], {key: obs})

    def _roll_back(self, key: FullKey, obs: ReadResult) -> None:
        condition = if_tx_id_equals(obs.meta.tx_id)
        self._write([_restore_write(key, obs.meta.before_image, condition)])

    def recover_all_prepared(self) -> int:
        """Sweep every dumpable storage and settle all in-doubt records."""
        if self._queue is not None:
            self._queue.join()  # failures stay listed for drain_commit_records
        recovered = 0
        for adapter in self.registry.storages():
            dump = getattr(adapter, "dump", None)
            if dump is None:
                continue
            for record in dump():
                if record.columns.get(COL_STATE) != TxState.PREPARED.value:
                    continue
                key = record.key
                if self.decoupling is not None and self.decoupling.holds_metadata(key):
                    key = self.decoupling.application_key(key)
                obs = read_dispatch(self.registry, self.decoupling, key)
                if obs.prepared:
                    self._observe(key, obs)
                    recovered += 1
        return recovered

    # -- commit pipeline -------------------------------------------------------

    def _materialize_writes(self, tx: TxHandle) -> list[_LogicalWrite]:
        logicals = []
        for key, columns in tx.write_set.items():
            observed = tx.read_set.get(key)
            if observed is None:
                # Blind write: settle the base version now so the conditional
                # write and the before-image are well-defined.
                observed = self._observe(key)
                tx.read_set[key] = observed
            if columns is None and not observed.present:
                continue  # deleting nothing is a no-op
            meta = observed.meta
            if meta is not None:
                version = meta.version + 1
                condition = if_tx_id_equals(meta.tx_id)
            else:
                version, condition = 1, IF_NOT_EXISTS
            logicals.append(_LogicalWrite(key, columns, observed, version, condition))
        return logicals

    def _validation_plan(
        self, tx: TxHandle, written_keys: set[FullKey]
    ) -> list[tuple[FullKey, ReadResult]]:
        """Which observations a re-read must still cover.

        Keys this transaction writes are validated by their conditional writes,
        which also check a split read's application columns.
        Serializable transactions re-read everything else; otherwise only
        split-table reads that were not self-consistent need a second look.
        """
        if not tx.serializable and self.decoupling is None:
            return []
        plan = []
        for key, obs in tx.read_set.items():
            if key in written_keys:
                continue
            if tx.serializable:
                plan.append((key, obs))
            elif obs.path is ReadPath.SPLIT_READS:
                plan.append((key, obs))
        return plan

    def _validate(self, plan: list[tuple[FullKey, ReadResult]]) -> str | None:
        """Re-read observations; returns a mismatch description or None."""
        for key, obs in plan:
            try:
                current = read_dispatch(self.registry, self.decoupling, key)
            except JoinIntegrityError:
                return f"{key.render()} was mid-removal during validation"
            if current.present != obs.present:
                return f"presence of {key.render()} changed"
            if not obs.present:
                continue
            if (current.meta.tx_id, current.meta.version) != (obs.meta.tx_id, obs.meta.version):
                return f"{key.render()} advanced past the observed version"
            split = obs.path is ReadPath.SPLIT_READS or current.path is ReadPath.SPLIT_READS
            if split and current.app_columns != obs.app_columns:
                return f"{key.render()} was read torn"
        return None

    def _write(
        self, writes: list[ConditionalWrite], observed: Mapping[FullKey, ReadResult] | None = None
    ) -> int | None:
        """Apply one logical batch; returns ``atomic_write``'s physical failure index.

        ``observed`` holds the reads the writes were derived from; a split read
        among them conditions its application row (``expand_writes``).
        """
        expanded = expand_writes(self.registry, self.decoupling, writes, observed)
        return self.registry.atomic_write(expanded)

    def _settle_groups(self, batches: list[list[ConditionalWrite]]) -> None:
        """Issue tx-id-conditioned batches, one per group, in order.

        A record whose condition fails was settled by a recovery, and perhaps
        overwritten since; that write is dropped and the rest of its group is
        reissued, so one lost race never strands the group's other records.
        """
        for batch in batches:
            writes = list(batch)
            while writes:
                failed = self._write(writes)
                if failed is None:
                    break
                del writes[logical_index(self.decoupling, writes, failed)]

    def _end(self, tx: TxHandle, state: CoordinatorState) -> None:
        """Settle every group ``tx`` may have prepared to its claimed outcome, then finish it.

        COMMITTED flips each group's records (perhaps behind the queue);
        ABORTED restores their before-images. A record that lost the tx-id
        condition was settled by a recovery, and maybe overwritten since.
        """
        condition = if_tx_id_equals(tx.tx_id)
        committed = state.state is TxStatus.COMMITTED
        commit_at = self._tick() if committed else None
        batches = [
            [
                logical.committed_write(tx.tx_id, tx.prepared_at, state.created_at, condition)
                if committed
                else _restore_write(logical.key, logical.before_image(), condition)
                for logical in group
            ]
            for group in tx._prepared_groups
        ]
        if committed and self._queue is not None:
            self._queue.put((tx.tx_id, batches))
        else:
            self._settle_groups(batches)
        tx._prepared_groups = []
        self._finish(tx, TxStatus.COMMITTED if committed else TxStatus.ABORTED, commit_at)

    def _finish(self, tx: TxHandle, status: TxStatus, commit_at: int | None = None):
        tx.status = status
        if self.history is not None:
            attempt = tx.attempt or _attempt(tx)
            self.history.record(replace(attempt, outcome=status, commit_at=commit_at))

    def _commit_pipeline(self, tx: TxHandle) -> None:
        logicals = self._materialize_writes(tx)
        written_keys = {logical.key for logical in logicals}
        plan = self._validation_plan(tx, written_keys)

        if not logicals:
            # Read-only: nothing to arbitrate, so no coordinator record.
            mismatch = self._validate(plan)
            if mismatch is not None:
                self._finish(tx, TxStatus.ABORTED)
                raise ConflictAbort(mismatch)
            self._finish(tx, TxStatus.COMMITTED, self._tick())
            return

        if self.pushdown_enabled:
            groups = group_by_atomicity_unit(self.registry, logicals)
        else:
            groups = group_per_record(logicals)
        one_phase = self.one_phase_enabled and one_phase_eligible(
            groups, tx.serializable, bool(plan)
        )
        if self.history is not None:
            tx.attempt = _attempt(tx, logicals, one_phase)

        if one_phase:
            ts = self._tick()
            tx._one_phase_batch = groups[0]  # a crash may still land the batch
            batch = [
                logical.committed_write(tx.tx_id, ts, ts, logical.condition)
                for logical in groups[0]
            ]
            if self._write(batch, tx.read_set) is not None:
                self._finish(tx, TxStatus.ABORTED)
                raise ConflictAbort("single-batch commit lost a conflict")
            self._finish(tx, TxStatus.COMMITTED, self._tick())
            return

        # Prepare phase: one conditional batch per group, stopping at the
        # first conflict. A group is listed before its batch is issued, since
        # a crash may still land the batch.
        tx.prepared_at = self._tick()
        for group in groups:
            tx._prepared_groups.append(group)
            batch = [logical.prepared_write(tx.tx_id, tx.prepared_at) for logical in group]
            if self._write(batch, tx.read_set) is not None:
                tx._prepared_groups.pop()
                self._end(tx, self._claim_outcome(tx.tx_id, TxStatus.ABORTED))
                raise ConflictAbort("prepare lost a conflict")

        # Validate phase: re-read whatever the conditions above cannot cover.
        if plan:
            mismatch = self._validate(plan)
            if mismatch is not None:
                self._end(tx, self._claim_outcome(tx.tx_id, TxStatus.ABORTED))
                raise ConflictAbort(mismatch)

        # Commit point: the write-once outcome record; a lazy recovery may
        # have claimed the abort first.
        state = self._claim_outcome(tx.tx_id, TxStatus.COMMITTED)
        self._end(tx, state)
        if state.state is TxStatus.ABORTED:
            raise ConflictAbort("aborted by a lazy recovery")

    def _commit_record_worker(self):
        while True:
            tx_id, batches = self._queue.get()
            try:
                self._settle_groups(batches)
            except Exception:  # noqa: BLE001 - the worker must outlive any one batch
                # The transaction is committed; its records stay PREPARED
                # until a reader or recover_all_prepared rolls them forward.
                _log.exception("commit records of %s failed", tx_id)
                with self._failed_lock:
                    self._failed_tx_ids.append(tx_id)
            finally:
                self._queue.task_done()

    def drain_commit_records(self) -> list[str]:
        """Block until every queued commit-record batch has been tried.

        Returns the ids of transactions whose background batch raised since
        the last drain; their records stay PREPARED until recovered.
        """
        if self._queue is not None:
            self._queue.join()
        with self._failed_lock:
            failed, self._failed_tx_ids = self._failed_tx_ids, []
        return failed

    def _one_phase_applied(self, tx: TxHandle) -> bool:
        """Whether a crashed one-phase batch landed; it is atomic, so one key decides."""
        first = tx._one_phase_batch[0]
        obs = self._observe(first.key)
        if first.columns is None:
            return not obs.present
        return obs.present and obs.meta.tx_id == tx.tx_id

    def _abort(self, tx: TxHandle) -> None:
        if tx.status is TxStatus.ACTIVE:
            if tx._prepared_groups:
                # A crashed commit may have passed its commit point; if so the
                # claim adopts COMMITTED and the records are rolled forward.
                self._end(tx, self._claim_outcome(tx.tx_id, TxStatus.ABORTED))
            elif tx._one_phase_batch is not None and self._one_phase_applied(tx):
                self._finish(tx, TxStatus.COMMITTED, self._tick())
            else:
                self._finish(tx, TxStatus.ABORTED)
        if tx.status is TxStatus.COMMITTED:
            raise TransactionFinished(f"transaction {tx.tx_id} already committed")
