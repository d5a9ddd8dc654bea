"""Keeping record metadata in a separate table without giving up atomic writes.

With a ``DecoupleConfig`` in force, every logical record it applies to splits
into an application row and a metadata row in a sibling table (same primary
key, table name suffixed). Both rows always travel in the same atomic batch,
which stays legal as long as the sibling table falls inside the same
atomic-write scope of the storage (``metadata_in_scope`` compares the two
rows' addresses cut to the depth of the key's ``model.scope_of`` tuple, the
single unit-to-prefix map).

Reading takes one of three routes, picked per key from the adapter's declared
capabilities and from whether the metadata row shares the key's scope:

* a registered database view joins the two rows inside the store;
* a multi-record consistent read fetches both rows at one point;
* two independent reads, joined here. This last route can observe a torn
  pair when a writer lands between the two reads, so the transaction layer
  must re-validate such reads before committing.

Each result is tagged with the route that produced it so the commit pipeline
knows which reads still need validation. A write derived from a split read
also conditions the application row on the columns it read
(``expand_writes``), so a torn pair can never be written back.

A read itself decodes nothing: its ``ReadResult`` keeps the stored row(s) the store
handed out, which never change afterwards, and decodes from them only what
the transaction asks for. A read-only transaction checks the row's state and
copies its application columns; only a key it writes decodes the full
metadata.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import AtomicityScopeViolation, JoinIntegrityError
from .model import AtomicityUnit, FullKey, GroupKey, TransactionMetadata, TxState, scope_of
from .records import (
    COL_STATE,
    _state,
    application_columns,
    parse_metadata,
    split_columns,
)
from .storage import (
    ConditionalWrite,
    StorageAdapter,
    StorageRegistry,
    UNCONDITIONAL,
    if_columns_equal,
)


META_TABLE_SUFFIX = "_meta"


@dataclass(frozen=True)
class DecoupleConfig:
    """Where metadata rows live relative to their application rows.

    ``namespaces`` limits the split to the given namespaces; None means every
    namespace. A metadata table is its application table's name plus
    ``META_TABLE_SUFFIX``. The locator is injective: application table names
    may not end with the suffix.
    """

    namespaces: frozenset[str] | None = None

    def applies_to(self, key: FullKey) -> bool:
        if self.namespaces is not None and key.namespace not in self.namespaces:
            return False
        return not key.table.endswith(META_TABLE_SUFFIX)

    def holds_metadata(self, key: FullKey | GroupKey) -> bool:
        """Whether ``key`` (a record or a scan prefix) is in a split namespace's metadata table."""
        table = key.table
        if table is None or not table.endswith(META_TABLE_SUFFIX):
            return False
        return self.namespaces is None or key.namespace in self.namespaces

    @staticmethod
    def metadata_key(key: FullKey) -> FullKey:
        if key.table.endswith(META_TABLE_SUFFIX):
            raise ValueError(f"{key.table!r} is already a metadata table")
        return FullKey(
            key.storage,
            key.namespace,
            key.table + META_TABLE_SUFFIX,
            key.partition_key,
            key.clustering_key,
        )

    @staticmethod
    def application_key(meta_key: FullKey) -> FullKey:
        if not meta_key.table.endswith(META_TABLE_SUFFIX):
            raise ValueError(f"{meta_key.table!r} is not a metadata table")
        return FullKey(
            meta_key.storage,
            meta_key.namespace,
            meta_key.table[: -len(META_TABLE_SUFFIX)],
            meta_key.partition_key,
            meta_key.clustering_key,
        )


class ReadPath(enum.Enum):
    """How a logical record was fetched; decides later validation."""

    COLOCATED = "COLOCATED"
    SPLIT_READS = "SPLIT_READS"
    SNAPSHOT = "SNAPSHOT"
    VIEW = "VIEW"


class ReadResult:
    """A logical record (or its absence) as one route read it, decoded on demand.

    ``app_row`` and ``meta_row`` are the read-only mappings the store handed
    out: the application row and the row holding the ``_tx_*`` columns. The
    colocated and view routes read one row and hold it as both; an absent
    record holds None for both. The accessors decode only what they return:

    * ``present``: whether the record exists; decodes nothing.
    * ``prepared``: whether it is in doubt; decodes only ``_tx_state``, and an
      unknown state raises as ``parse_metadata`` does.
    * ``meta``: the full ``TransactionMetadata``, decoded at most once.
    * ``app_columns``: the application columns as a dict, filtered at most
      once and shared (by the before-image too), so nobody may change it;
      a caller gets a copy.
    """

    __slots__ = ("app_row", "meta_row", "path", "_meta", "_app_columns")

    def __init__(self, app_row: Mapping | None, meta_row: Mapping | None, path: ReadPath):
        self.app_row = app_row
        self.meta_row = meta_row
        self.path = path
        self._meta = None
        self._app_columns = None

    @property
    def present(self) -> bool:
        return self.meta_row is not None

    @property
    def prepared(self) -> bool:
        row = self.meta_row
        return row is not None and _state(row[COL_STATE]) is TxState.PREPARED

    @property
    def meta(self) -> TransactionMetadata | None:
        meta = self._meta
        if meta is None and self.meta_row is not None:
            meta = self._meta = parse_metadata(self.meta_row)
        return meta

    @property
    def app_columns(self) -> dict | None:
        columns = self._app_columns
        if columns is None and self.app_row is not None:
            columns = self._app_columns = application_columns(self.app_row)
        return columns


def metadata_in_scope(key: FullKey, unit: AtomicityUnit) -> bool:
    """Whether the metadata row of ``key`` shares its atomic-write scope under ``unit``.

    The metadata row's components are cut to the depth of ``key``'s own
    scope, so no metadata key is built just to compare scopes.
    """
    scope = scope_of(key, unit)
    table = key.table + META_TABLE_SUFFIX
    meta = (key.storage, key.namespace, table, key.partition_key, key.clustering_key)
    return meta[: len(scope)] == scope


def expand_writes(
    registry: StorageRegistry,
    config: DecoupleConfig | None,
    writes: Sequence[ConditionalWrite],
    observed: Mapping[FullKey, ReadResult] | None = None,
) -> list[ConditionalWrite]:
    """Rewrite a logical batch into the physical one the store will apply.

    Split keys contribute two writes: the application row, and the metadata
    row carrying the original condition (tx-id checks live in the metadata
    columns). Application rows come first, metadata rows after. The metadata
    row must stay inside the batch's atomic scope.

    The application row is unconditional unless ``observed`` holds a present
    ``SPLIT_READS`` result for the key. Then the write was derived from two
    reads that a writer may have torn apart, and the row must still hold the
    columns that were read. With the tx id equal too, the pair read was one
    version, value for value.
    """
    if config is None:
        return list(writes)
    apps: list[ConditionalWrite] = []
    metas: list[ConditionalWrite] = []
    for write in writes:
        if not config.applies_to(write.key):
            apps.append(write)
            continue
        if not metadata_in_scope(write.key, registry.get_atomicity_unit(write.key)):
            raise AtomicityScopeViolation(
                f"metadata row for {write.key.render()} falls outside the atomic scope"
            )
        meta_key = config.metadata_key(write.key)
        app_columns, meta_columns = split_columns(write.columns)
        obs = observed.get(write.key) if observed is not None else None
        if obs is not None and obs.path is ReadPath.SPLIT_READS and obs.present:
            app_condition = if_columns_equal(obs.app_columns)
        else:
            app_condition = UNCONDITIONAL
        apps.append(ConditionalWrite._owning(write.key, app_columns, app_condition, write.kind))
        metas.append(ConditionalWrite._owning(meta_key, meta_columns, write.condition, write.kind))
    return apps + metas


def logical_index(config: DecoupleConfig | None, writes: Sequence[ConditionalWrite], i: int) -> int:
    """Map index ``i`` of ``expand_writes(..., writes)`` back to its write in ``writes``."""
    if i < len(writes):
        return i
    split = [j for j, write in enumerate(writes) if config.applies_to(write.key)]
    return split[i - len(writes)]


def _join(key: FullKey, app, meta, path: ReadPath) -> ReadResult:
    if app is None and meta is None:
        return ReadResult(None, None, path)
    if app is None or meta is None:
        missing = "application" if app is None else "metadata"
        raise JoinIntegrityError(f"{missing} row missing for {key.render()}")
    return ReadResult(app.columns, meta.columns, path)


def read_split(
    registry: StorageRegistry, config: DecoupleConfig, key: FullKey
) -> ReadResult:
    """Two independent reads joined here; the pair may be torn under writers."""
    app = registry.read(key)
    meta = registry.read(config.metadata_key(key))
    return _join(key, app, meta, ReadPath.SPLIT_READS)


def read_split_snapshot(
    registry: StorageRegistry, config: DecoupleConfig, key: FullKey
) -> ReadResult:
    """Both rows fetched at one consistent point via the store's own transaction."""
    app, meta = registry.snapshot_read([key, config.metadata_key(key)])
    return _join(key, app, meta, ReadPath.SNAPSHOT)


def _read_view(adapter: StorageAdapter, view_name: str, key: FullKey) -> ReadResult:
    record = adapter.view_read(view_name, key)
    if record is None:
        return ReadResult(None, None, ReadPath.VIEW)
    columns = record.columns
    return ReadResult(columns, columns, ReadPath.VIEW)


def read_dispatch(
    registry: StorageRegistry, config: DecoupleConfig | None, key: FullKey
) -> ReadResult:
    """Fetch a logical record by the best route the storage supports.

    A consistent route (view or snapshot) also needs the metadata row inside
    the key's atomic-write scope; otherwise the rows are read separately. A
    view is used when the store declares views and has one for the key's table.
    """
    adapter = registry.get_database(key)
    if config is None or not config.applies_to(key):
        record = adapter.read(key)
        if record is None:
            return ReadResult(None, None, ReadPath.COLOCATED)
        columns = record.columns
        return ReadResult(columns, columns, ReadPath.COLOCATED)
    caps = adapter.capabilities
    if not (caps.consistent_readable and metadata_in_scope(key, caps.atomicity_unit)):
        return read_split(registry, config, key)
    if caps.view_joinable:
        view_name = adapter.view_for(key)
        if view_name is not None:
            return _read_view(adapter, view_name, key)
    return read_split_snapshot(registry, config, key)
