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

A write needs the record's version and before-image, so a blind write (of a
key the transaction never read) is read at commit. A blind put that may
commit in one batch is not: it is guessed absent, and that batch's
``IF_NOT_EXISTS`` checks the guess, so an insert costs the batch alone. A
batch that fails on a guessed key reads the guessed keys and is issued once
more; a blind overwrite thus costs one refused batch beyond the reads. A
two-phase commit reads its blind writes before its first prepare.

A transaction's status is a ``TxStatus``: ACTIVE, then its one outcome,
COMMITTED or ABORTED. Every two-phase transaction ends the same way: it claims
an outcome with the write-once coordinator record (adopting the stored one if
the claim loses), then settles each group it may have prepared to match:
COMMITTED records, or before-images restored. The owner and a lazy recovery
settle a record the same way, from its PREPARED row alone. Conflicts surface as
``ConflictAbort`` after that settling. ``abort()`` after a commit that crashed
mid-pipeline claims ABORTED the same way: if the commit point had already
passed, the records are rolled forward instead and ``abort()`` raises
``TransactionFinished``. A crashed one-phase commit has no outcome record:
``abort()`` reads the written keys until one still holds either this
transaction's write or the version it observed, learns from it whether the
lone batch landed, and finishes to match. ``commit()`` called again after
such a crash finishes the same way, then returns if the transaction
committed and raises ``ConflictAbort`` if it aborted. A record left PREPARED
by a dead transaction is resolved lazily at read time from the coordinator:
roll forward when the writer committed, roll back (claiming the abort first
when there is no record yet) when it did not.
"""

from __future__ import annotations

import base64
import logging
import queue
import threading
import uuid
from dataclasses import dataclass, replace
from typing import Mapping

from .decoupling import (
    DecoupleConfig,
    ReadPath,
    ReadResult,
    SplitWrite,
    expand_writes,
    logical_key,
    read_dispatch,
    read_snapshot,
    route_of,
    splits,
)
from .errors import (
    ConflictAbort,
    JoinIntegrityError,
    RecoveryFailed,
    TransactionFinished,
)
from .grouping import group_by_atomicity_unit
from .model import (
    AtomicityUnit,
    FullKey,
    GroupKey,
    TxState,
    TxStatus,
    check_columns,
    scope_of,
)
from .records import (
    COL_DELETED,
    COL_PREPARED_AT,
    COL_STATE,
    COL_TX_ID,
    COL_VERSION,
    COORD_CREATED_COLUMN,
    COORD_STATE_COLUMN,
    application_columns,
    check_application_columns,
    combined_columns,
    outcome_committed_at,
    parse_metadata,  # noqa: F401 - perfbench/tracing.py rebinds this name here
    prior_image,
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
# Bound once: reading an enum member through its class costs about 0.1 µs on
# Python 3.11; the row builders below run once per written row, and the scan
# and validation paths once per record.
_PREPARED, _COMMITTED = TxState.PREPARED, TxState.COMMITTED
_PUT, _DELETE = WriteKind.PUT, WriteKind.DELETE
_COLOCATED, _SPLIT_READS = ReadPath.COLOCATED, ReadPath.SPLIT_READS

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

    ``columns`` is None for a delete. ``_materialize_writes`` builds it from
    the write set with the transaction's earlier read of the key, if any,
    then observes a blind write, or guesses a blind put absent, and
    ``resolve`` fixes its version and its ``condition`` (the observed tx id,
    or absence when nothing was observed), once for every row it writes;
    whether those rows split is ``observed.split``. A guess that the store
    refutes is read and resolved again (``_observe_guesses``). Its prepared
    row is encoded in one ``combined_columns`` call from these fields and the
    observed row: the before-image is that settled row's ``_tx_*`` columns
    and the read's own ``app_columns`` (filtered once, and nothing changes
    them). The prepared row is then all a settle needs (``_settle_write``).
    """

    key: FullKey
    columns: Mapping[str, object] | None
    observed: ReadResult | None
    version: int = 0
    condition: WriteCondition | None = None

    def resolve(self) -> None:
        """Base the write on ``observed``: its next version, or version 1 over nothing."""
        meta = self.observed.meta
        if meta is not None:
            self.version = meta[COL_VERSION] + 1
            self.condition = if_tx_id_equals(meta[COL_TX_ID])
        else:
            self.version, self.condition = 1, IF_NOT_EXISTS

    def prepared_write(self, tx_id: str, prepared_at: int) -> ConditionalWrite | SplitWrite:
        obs = self.observed
        columns = self.columns
        app = {} if columns is None else columns.copy()
        split = obs.split
        row = {} if split else app
        combined_columns(
            row,
            tx_id,
            self.version,
            _PREPARED,
            prepared_at,
            None,
            columns is None,
            obs.meta_row,
            obs.app_columns,
        )
        if split:
            return SplitWrite(self.key, row, self.condition, _PUT, app)
        return ConditionalWrite._owning(self.key, row, self.condition)


def _delete_write(key: FullKey, condition, split: bool) -> ConditionalWrite | SplitWrite:
    """A delete of the record at ``key``: of both its rows when ``split``."""
    if split:
        return SplitWrite(key, {}, condition, _DELETE, {})
    return ConditionalWrite._owning(key, {}, condition, _DELETE)


def _committed_write(
    key: FullKey,
    columns: Mapping[str, object] | None,
    tx_id: str,
    version: int,
    prepared_at: int,
    committed_at: int,
    condition,
    split: bool,
) -> ConditionalWrite | SplitWrite:
    """Settled image of a write: ``columns`` COMMITTED at ``version``, or a delete when None."""
    if columns is None:
        return _delete_write(key, condition, split)
    app = columns.copy()
    row = {} if split else app
    combined_columns(row, tx_id, version, _COMMITTED, prepared_at, committed_at)
    if split:
        return SplitWrite(key, row, condition, _PUT, app)
    return ConditionalWrite._owning(key, row, condition)


def _settle_write(
    key: FullKey,
    prepared: Mapping[str, object],
    app_columns: Mapping[str, object] | None,
    committed_at: int | None,
    condition,
    split: bool,
) -> ConditionalWrite | SplitWrite:
    """Settle of a PREPARED row, from the row alone: ``prepared`` holds its ``_tx_*`` columns.

    With ``committed_at`` it rolls forward: ``app_columns`` COMMITTED at the
    prepared version, or a delete of a prepared delete. Without, it rolls
    back to the before-image the row carries, or deletes the key that the
    prepared write created. ``split`` says whether the record's metadata
    lives in its own row.
    """
    if committed_at is not None:
        columns = None if prepared.get(COL_DELETED) else app_columns
        tx_id, version = prepared[COL_TX_ID], prepared[COL_VERSION]
        prepared_at = prepared[COL_PREPARED_AT]
        return _committed_write(
            key, columns, tx_id, version, prepared_at, committed_at, condition, split
        )
    image = prior_image(prepared, split)
    if image is None:
        return _delete_write(key, condition, split)
    app, row = image
    if split:
        return SplitWrite(key, row, condition, _PUT, app)
    return ConditionalWrite._owning(key, row, condition)


def _attempt(tx: TxHandle, logicals=(), one_phase: bool = False) -> TxSummary:
    """``tx``'s history entry before it has an outcome: what it read and means to write."""
    return TxSummary(
        tx.tx_id,
        TxStatus.ACTIVE,
        tx.begin_at,
        None,
        reads=tuple(
            (key.render(), obs.meta[COL_VERSION] if obs.present else 0)
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
        # Each group beside its issued prepare batch; these may hold PREPARED records.
        self._prepared_groups: list[tuple[list[_LogicalWrite], list]] = []
        self._one_phase_batch: list[_LogicalWrite] | None = None  # issued; may have applied

    def _check_active(self):
        if self.status is not TxStatus.ACTIVE:
            raise TransactionFinished(f"transaction {self.tx_id} is {self.status.value}")

    def _check_access(self, key: FullKey | GroupKey) -> None:
        """Refuse a finished transaction, and a key of the coordinator or a metadata table.

        The coordinator table is compared field by field, the table first:
        it is the field an application key most often differs in.
        """
        if self.status is not TxStatus.ACTIVE:
            self._check_active()  # raises
        coordinator = self._manager.coordinator
        if (
            key.table == coordinator.table
            and key.namespace == coordinator.namespace
            and key.storage == coordinator.storage
        ):
            raise ValueError(f"{key.render()} is in the coordinator table")
        if DecoupleConfig.holds_metadata(key):
            raise ValueError(f"{key.render()} is in a metadata table")

    def _check_write(self, key: FullKey) -> None:
        """``_check_access``, then ``splits``: refuse an unknown storage, or a split it cannot batch."""
        self._check_access(key)
        splits(self._manager.registry, self._manager.decoupling, key)

    def get(self, key: FullKey) -> dict | None:
        self._check_access(key)
        return self._manager._get(self, key)

    def put(self, key: FullKey, columns: Mapping[str, object]) -> None:
        self._check_write(key)
        check_columns(columns)  # first: the prefix check needs str names
        check_application_columns(columns)
        self.write_set[key] = dict(columns)

    def delete(self, key: FullKey) -> None:
        self._check_write(key)
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
        one_phase_enabled: bool = True,
        async_commit_records: bool = False,
        history=None,
    ):
        registry.get_database(coordinator.storage)  # fail fast on bad location
        self.registry = registry
        self.coordinator = coordinator
        self.decoupling = decoupling
        self.one_phase_enabled = one_phase_enabled
        self.history = history
        # A tx id is this prefix plus the begin tick in hex: the tick
        # never repeats within a manager, the random 128 bits across managers.
        prefix = base64.urlsafe_b64encode(uuid.uuid4().bytes).rstrip(b"=").decode()
        self._tx_id_prefix = prefix + "."
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
        begin_at = self._tick()
        return TxHandle(self, f"{self._tx_id_prefix}{begin_at:x}", serializable, begin_at)

    def _get(self, tx: TxHandle, key: FullKey) -> dict | None:
        """A buffered write, else the read set's read, else a first read (``_observe``), as a copy.

        The read's application columns are filtered once (``ReadResult.app_columns``),
        so a repeat ``get`` makes neither a store call nor a filter.
        """
        write_set = tx.write_set
        if write_set and key in write_set:  # an empty write set needs no key hash
            columns = write_set[key]
            return None if columns is None else dict(columns)
        obs = tx.read_set.get(key)
        if obs is None:
            obs = tx.read_set[key] = self._observe(key)
        columns = obs.app_columns  # None exactly when the record is absent
        return None if columns is None else columns.copy()

    def _scan(self, tx: TxHandle, prefix: GroupKey) -> list[tuple[FullKey, dict]]:
        """Partition scan; every returned record lands in the read set individually.

        A key already in the read set keeps that read and is not read again.
        The partition lies in one table, so whether its rows are split is
        decided once. The store returns each row with its clustering key, in
        clustering order; ``prefix`` is the partition's scope, so each key is
        ``prefix`` joined to its clustering key, and each row present is
        handed out in one pass as a freshly filtered dict of its application
        columns. Only a buffered write in the partition calls for a merge and
        a sort.
        """
        rows = self.registry.scan(prefix)
        split = self.decoupling is not None and self.decoupling.applies_to(prefix)
        read_set = tx.read_set
        unchecked_key = FullKey._unchecked
        items = []
        for ck, row in rows:
            key = unchecked_key(*prefix, ck)
            obs = read_set.get(key)
            if obs is None:
                # A split row lacks its metadata; a colocated one is read again only in doubt.
                obs = None if split else ReadResult(row, row, _COLOCATED)
                if obs is None or obs.prepared:
                    obs = self._observe(key, obs)
                read_set[key] = obs
            if obs.present:
                items.append((key, application_columns(obs.app_row)))
        own = [
            (key, columns)
            for key, columns in tx.write_set.items()
            if scope_of(key, AtomicityUnit.PARTITION) == prefix
        ]
        if not own:
            return items
        # overlay this transaction's own buffered writes
        merged = dict(items)
        for key, columns in own:
            if columns is None:
                merged.pop(key, None)
            else:
                merged[key] = dict(columns)
        return sorted(merged.items(), key=lambda item: item[0].clustering_key)

    # -- reads and recovery ----------------------------------------------------

    def _observe(self, key: FullKey, obs: ReadResult | None = None) -> ReadResult:
        """Read a record, resolving any in-doubt state before returning it.

        A settled first read returns at once: one route read and one state
        check. ``obs``, when given, is a PREPARED first read the caller
        already made. A PREPARED row is settled and the record read again, so
        a settle that lost its condition is retried on what the store now
        holds; a split pair torn by a concurrent delete (``JoinIntegrityError``)
        is read again too. Every read counts toward ``_RECOVERY_ATTEMPTS``,
        the first one included.
        """
        reads = 0 if obs is None else 1
        while True:
            if obs is None:
                reads += 1
                try:
                    obs = read_dispatch(self.registry, self.decoupling, key)
                except JoinIntegrityError:
                    pass  # torn by a concurrent split-row delete: obs stays None
            if obs is not None:
                if not obs.prepared:
                    return obs
                self._resolve_prepared(key, obs)
            if reads == _RECOVERY_ATTEMPTS:
                why = "reverting to in-doubt state" if obs else "reading as a torn split pair"
                raise RecoveryFailed(f"record {key.render()} kept {why} after {reads} reads")
            obs = None

    def _claim_outcome(self, tx_id: str, proposed: TxStatus) -> int | None:
        """Claim the write-once outcome ``proposed`` or adopt the stored one, as its commit time."""
        key = self.coordinator.key_for(tx_id)
        row = {COORD_STATE_COLUMN: proposed.value, COORD_CREATED_COLUMN: self._tick()}
        claim = ConditionalWrite._owning(key, row, IF_NOT_EXISTS)  # row: fresh, held by no one
        if self.registry.atomic_write([claim]) is not None:
            row = self.registry.read(key)
        return outcome_committed_at(row)

    def _resolve_prepared(self, key: FullKey, obs: ReadResult) -> None:
        """Settle a record left PREPARED by another transaction, from the row read.

        A racing recovery may have settled it first; that is fine. A
        roll-forward passes the read on, so a split read that was torn fails
        its application-row condition and the caller reads again.
        """
        tx_id = obs.meta[COL_TX_ID]
        row = self.registry.read(self.coordinator.key_for(tx_id))
        if row is not None:
            committed_at = outcome_committed_at(row)
        else:  # no outcome yet: claim the abort; the writer's own claim may still win
            committed_at = self._claim_outcome(tx_id, TxStatus.ABORTED)
        condition = if_tx_id_equals(tx_id)
        write = _settle_write(key, obs.meta, obs.app_columns, committed_at, condition, obs.split)
        self._write([write], None if committed_at is None else {key: obs})

    def recover_all_prepared(self) -> int:
        """Sweep every storage and settle all in-doubt records.

        A PREPARED row, a split record's metadata row too, stands for the
        record ``logical_key`` maps it to. A store that cannot list its rows
        (``StorageAdapter.dump``) raises ``CapabilityUnsupported``.
        """
        if self._queue is not None:
            self._queue.join()  # failures stay listed for drain_commit_records
        recovered = 0
        for adapter in self.registry.storages():
            for record in adapter.dump():
                if record.columns.get(COL_STATE) != TxState.PREPARED.value:
                    continue
                key = logical_key(record.key)
                obs = read_dispatch(self.registry, self.decoupling, key)
                if obs.prepared:
                    self._observe(key, obs)
                    recovered += 1
        return recovered

    # -- commit pipeline -------------------------------------------------------

    def _materialize_writes(
        self, tx: TxHandle
    ) -> tuple[list[_LogicalWrite], list[list[_LogicalWrite]], list[_LogicalWrite]]:
        """The write set resolved against observed versions: in write order, by scope, and guessed.

        The write set is grouped by atomicity-unit scope first
        (``group_by_atomicity_unit``). A blind write is a key this
        transaction never read. When the write set is one group and the
        transaction is not serializable, its commit may be one batch, whose
        conditions read the store anyway: then a blind put is guessed absent,
        with no store call, on the route a read of it would take
        (``route_of``), so its layout is a real read's. ``IF_NOT_EXISTS``
        checks the guess inside that batch; the guessed writes come back third,
        for ``_commit_pipeline`` to read if the batch refutes them or the
        commit takes two phases. Every other blind write, each blind delete
        too, is observed here (``_observe_blind``) so that its condition and
        before-image are well-defined. Deleting an absent key is a no-op; it
        is dropped, with any group it empties.
        """
        read_set = tx.read_set
        logicals = [
            _LogicalWrite(key, columns, read_set.get(key)) for key, columns in tx.write_set.items()
        ]
        groups = group_by_atomicity_unit(self.registry, logicals)
        guessed = []
        if self.one_phase_enabled and len(groups) == 1 and not tx.serializable:
            registry, config = self.registry, self.decoupling
            for logical in logicals:
                if logical.observed is None and logical.columns is not None:
                    path = route_of(registry, config, logical.key)[0]
                    logical.observed = ReadResult(None, None, path)
                    guessed.append(logical)
        self._observe_blind(tx, logicals, groups)
        for logical in guessed:  # entered only now: a blind read that raised leaves no guess
            read_set[logical.key] = logical.observed
        noops = False
        for logical in logicals:
            if logical.columns is None and not logical.observed.present:
                noops = True  # deleting nothing: left without a condition, and dropped below
                continue
            logical.resolve()
        if noops:
            logicals = [logical for logical in logicals if logical.condition is not None]
            kept = ([write for write in group if write.condition is not None] for group in groups)
            groups = [group for group in kept if group]
        return logicals, groups, guessed

    def _observe_blind(
        self, tx: TxHandle, logicals: list[_LogicalWrite], groups: list[list[_LogicalWrite]]
    ) -> None:
        """Observe each of ``logicals`` not yet observed, and enter it in the read set, in order.

        Two or more such writes of one group on a consistent-readable store
        are read in one ``read_snapshot``. A settled record is observed as
        read; a PREPARED or metadata-free one goes through ``_observe``, as a
        read of its own would, with the same errors; so does each such write
        of a scope whose read met a torn pair, and each one elsewhere. A
        group on any other store costs one capability lookup and no read.
        """
        blind = [logical for logical in logicals if logical.observed is None]
        if not blind:
            return
        scoped: dict[FullKey, ReadResult] = {}
        for group in groups:
            if len(group) > 1 and self.registry.capabilities(group[0].key).consistent_readable:
                keys = [logical.key for logical in group if logical.observed is None]
                if len(keys) < 2:
                    continue
                try:
                    results = read_snapshot(self.registry, self.decoupling, keys)
                except JoinIntegrityError:
                    continue
                for key, obs in zip(keys, results):
                    scoped[key] = self._observe(key, obs) if obs.prepared else obs
        read_set = tx.read_set
        for logical in blind:
            key = logical.key
            observed = scoped.get(key)
            if observed is None:
                observed = self._observe(key)
            logical.observed = read_set[key] = observed

    def _observe_guesses(
        self, tx: TxHandle, guessed: list[_LogicalWrite], groups: list[list[_LogicalWrite]]
    ) -> None:
        """Read the keys guessed absent, as blind writes are read, and resolve each write again.

        Nothing of the commit has landed yet. So if a read raises, the
        guesses leave the read set, the commit leaves no batch or attempt
        behind, and the handle stays ACTIVE.
        """
        for logical in guessed:
            logical.observed = None
        try:
            self._observe_blind(tx, guessed, groups)
        except BaseException:
            for logical in guessed:
                tx.read_set.pop(logical.key, None)
            tx._one_phase_batch = tx.attempt = None
            raise
        for logical in guessed:
            logical.resolve()

    def _validation_plan(
        self, tx: TxHandle, written_keys: set[FullKey]
    ) -> list[tuple[FullKey, ReadResult]]:
        """Which observations a re-read must still cover.

        Keys this transaction writes are validated by their conditional writes,
        which also check a split read's application columns.
        Serializable transactions re-read everything else; otherwise only
        split-table reads that were not self-consistent need a second look.
        """
        if tx.serializable:
            return [(key, obs) for key, obs in tx.read_set.items() if key not in written_keys]
        if self.decoupling is None:
            return []
        # The route first: it spares every other read a key hash.
        return [
            (key, obs)
            for key, obs in tx.read_set.items()
            if obs.path is _SPLIT_READS and key not in written_keys
        ]

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
            now, then = current.meta, obs.meta
            if (now[COL_TX_ID], now[COL_VERSION]) != (then[COL_TX_ID], then[COL_VERSION]):
                return f"{key.render()} advanced past the observed version"
            split = obs.path is _SPLIT_READS or current.path is _SPLIT_READS
            if split and current.app_columns != obs.app_columns:
                return f"{key.render()} was read torn"
        return None

    def _write(
        self,
        writes: list[ConditionalWrite | SplitWrite],
        observed: Mapping[FullKey, ReadResult] | None = None,
    ) -> FullKey | None:
        """Apply one batch of record writes; returns the key of the one that failed, or None.

        ``observed`` holds the reads the writes were derived from; a split read
        among them conditions its application row (``expand_writes``). The
        store names the physical row whose condition failed, and
        ``logical_key`` maps it back to its write.
        """
        expanded = expand_writes(self.decoupling, writes, observed)
        failed = self.registry.atomic_write(expanded)
        return None if failed is None else logical_key(expanded[failed].key)

    def _settle_groups(self, batches: list[list[ConditionalWrite]]) -> None:
        """Issue tx-id-conditioned batches, one per group, in order.

        A record whose condition fails was settled by a recovery, and perhaps
        overwritten since; the write ``_write`` names is dropped and the rest
        of its group is reissued, so one lost race never strands the others.
        """
        for writes in batches:
            while writes:
                failed = self._write(writes)
                if failed is None:
                    break
                writes = [write for write in writes if write.key != failed]

    def _end(self, tx: TxHandle, committed_at: int | None) -> None:
        """Settle every group ``tx`` may have prepared to its claimed outcome, then finish it.

        ``committed_at`` is the outcome ``_claim_outcome`` returns. A commit
        flips each group's records (perhaps behind the queue); an abort (None)
        restores their before-images. Each settle is built from the prepared
        row this transaction issued, as a recovery builds it from the row it
        read. A record that lost the tx-id condition was settled by a
        recovery, and maybe overwritten since.
        """
        condition = if_tx_id_equals(tx.tx_id)
        committed = committed_at is not None
        commit_at = self._tick() if committed else None
        batches = [
            [
                _settle_write(
                    logical.key,
                    write.columns,
                    logical.columns,
                    committed_at,
                    condition,
                    logical.observed.split,
                )
                for logical, write in zip(group, batch)
            ]
            for group, batch in tx._prepared_groups
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

    def _write_one_phase(self, tx: TxHandle, group: list[_LogicalWrite]) -> FullKey | None:
        """Write ``group`` as COMMITTED records in one batch: a one-phase commit's only write."""
        ts = self._tick()
        batch = [
            _committed_write(
                logical.key, logical.columns, tx.tx_id, logical.version, ts, ts,
                logical.condition, logical.observed.split,
            )
            for logical in group
        ]
        return self._write(batch, tx.read_set)

    def _commit_pipeline(self, tx: TxHandle) -> None:
        if tx._prepared_groups or tx._one_phase_batch is not None:
            # An earlier commit crashed mid-pipeline: finish as ``abort()`` would.
            self._finish_crashed(tx)
            if tx.status is TxStatus.ABORTED:
                raise ConflictAbort("the crashed commit did not reach its commit point")
            return
        logicals, groups, guessed = self._materialize_writes(tx) if tx.write_set else ((), (), ())
        written_keys = {logical.key for logical in logicals}
        plan = self._validation_plan(tx, written_keys)

        if not groups:
            # Read-only: nothing to arbitrate, so no coordinator record.
            mismatch = self._validate(plan)
            if mismatch is not None:
                self._finish(tx, TxStatus.ABORTED)
                raise ConflictAbort(mismatch)
            self._finish(tx, TxStatus.COMMITTED, self._tick())
            return

        # One phase: a lone group that no re-read has to cover.
        one_phase = self.one_phase_enabled and len(groups) == 1 and not (tx.serializable or plan)
        if guessed and not one_phase:
            self._observe_guesses(tx, guessed, groups)  # only a one-phase batch checks a guess
        if self.history is not None:
            tx.attempt = _attempt(tx, logicals, one_phase)

        if one_phase:
            tx._one_phase_batch = groups[0]  # a crash may still land the batch
            failed = self._write_one_phase(tx, groups[0])
            if failed is not None and any(logical.key == failed for logical in guessed):
                # A guessed key exists: read the guesses, then issue the batch once more.
                self._observe_guesses(tx, guessed, groups)
                if self.history is not None:
                    tx.attempt = _attempt(tx, logicals, one_phase)
                failed = self._write_one_phase(tx, groups[0])
            if failed is not None:
                self._finish(tx, TxStatus.ABORTED)
                raise ConflictAbort("single-batch commit lost a conflict")
            self._finish(tx, TxStatus.COMMITTED, self._tick())
            return

        # Prepare phase: one conditional batch per group, stopping at the
        # first conflict. A group is listed before its batch is issued, since
        # a crash may still land the batch.
        tx.prepared_at = self._tick()
        for group in groups:
            batch = [logical.prepared_write(tx.tx_id, tx.prepared_at) for logical in group]
            tx._prepared_groups.append((group, batch))
            if self._write(batch, tx.read_set) is not None:
                tx._prepared_groups.pop()
                return self._conclude(tx, TxStatus.ABORTED, "prepare lost a conflict")

        # Validate phase: re-read whatever the conditions above cannot cover.
        if plan:
            mismatch = self._validate(plan)
            if mismatch is not None:
                return self._conclude(tx, TxStatus.ABORTED, mismatch)

        # Commit point: the write-once outcome record; a lazy recovery may
        # have claimed the abort first.
        self._conclude(tx, TxStatus.COMMITTED, "aborted by a lazy recovery")

    def _conclude(self, tx: TxHandle, proposed: TxStatus, why: str) -> None:
        """Claim ``proposed`` or adopt the stored outcome, settle to it; if ABORTED, raise ``why``."""
        committed_at = self._claim_outcome(tx.tx_id, proposed)
        self._end(tx, committed_at)
        if committed_at is None:
            raise ConflictAbort(why)

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
        """Whether a crashed one-phase batch landed.

        The batch is atomic, so the first key that still holds this
        transaction's write (landed) or the version it observed (did not)
        decides. Later writers may have replaced every key; then the first
        key decides as best it can: a delete landed when the key is gone.
        """
        batch = tx._one_phase_batch
        first = None
        for logical in batch:
            obs = self._observe(logical.key)
            if first is None:
                first = obs
            if not obs.present:
                continue
            tx_id = obs.meta[COL_TX_ID]
            if tx_id == tx.tx_id:
                return True
            observed = logical.observed
            if observed.present and tx_id == observed.meta[COL_TX_ID]:
                return False
        return batch[0].columns is None and not first.present

    def _finish_crashed(self, tx: TxHandle) -> None:
        """Finish an ACTIVE ``tx`` to match whatever a crashed commit of it left stored.

        A crashed commit may have passed its commit point; if so the claim
        of ABORTED adopts COMMITTED and the records are rolled forward. A
        one-phase batch that landed commits. Anything else aborts.
        """
        if tx._prepared_groups:
            self._end(tx, self._claim_outcome(tx.tx_id, TxStatus.ABORTED))
        elif tx._one_phase_batch is not None and self._one_phase_applied(tx):
            self._finish(tx, TxStatus.COMMITTED, self._tick())
        else:
            self._finish(tx, TxStatus.ABORTED)

    def _abort(self, tx: TxHandle) -> None:
        if tx.status is TxStatus.ACTIVE:
            self._finish_crashed(tx)
        if tx.status is TxStatus.COMMITTED:
            raise TransactionFinished(f"transaction {tx.tx_id} already committed")
