"""Keeping record metadata in a separate table without giving up atomic writes.

With a ``DecoupleConfig`` in force, every logical record it applies to splits
into an application row and a metadata row in a sibling table (same primary
key, table name suffixed). Two rules place metadata rows, whatever the config:

* a table whose name ends in ``META_TABLE_SUFFIX`` is a metadata table in
  every namespace (``holds_metadata``); no transaction touches one, and
  ``logical_key`` maps any stored row to the record it belongs to;
* both rows always travel in the same atomic batch, which is legal exactly
  when the store's atomicity unit stops above the table, since the two rows
  differ only in their table (``metadata_in_scope``).

Reading takes one of three routes, picked from the capabilities the adapter
declared at registration, from its views, and from whether the metadata row
shares the key's scope. All of that is fixed per table, so the route is
resolved on a table's first read under a config and kept in the registry
(``StorageRegistry.routes``); every later read of the table finds it with one
dict lookup:

* a registered database view joins the two rows inside the store;
* a multi-record consistent read fetches both rows at one point
  (``read_snapshot``, which reads any number of records of one scope in one
  call: the commit pipeline reads all the blind writes of a scope at once);
* two independent reads, joined here. This last route can observe a torn
  pair when a writer lands between the two reads, so the transaction layer
  must re-validate such reads before committing.

A pair with one row missing raises ``JoinIntegrityError``, worded alike on
every route (``_join``, and a view's join in the store). Each result is
tagged with the route that produced it so the commit pipeline knows which
reads still need validation, and whether the record splits
(``ReadResult.split``): it splits exactly when its read did not come by the
colocated route, and every write derived from the read takes that layout.

Writing builds each physical row once. A colocated record's write is its
one row, a ``ConditionalWrite`` already; a split record's is a
``SplitWrite``: its application row beside the fresh metadata row its
``_tx_*`` columns were encoded into. ``expand_writes`` turns a batch of them
into the rows the store applies; a write derived from a split read also
conditions the application row on the columns it read, so a torn pair can
never be written back.

A read itself decodes nothing: its ``ReadResult`` keeps the stored row(s)
the store handed out, which never change afterwards, and that row is the
metadata. A settled ``get`` costs one route lookup, one store call and one
filter: the transaction checks the row's state and filters out its
application columns once. Only a key it writes has its metadata row checked
(``records.parse_metadata``) before its columns are read by name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .errors import AtomicityScopeViolation, JoinIntegrityError, MissingMetadata
from .model import AtomicityUnit, FullKey, GroupKey, TxState
from .records import COL_STATE, _state, application_columns, parse_metadata
from .storage import (
    ConditionalWrite,
    StorageAdapter,
    StorageRegistry,
    UNCONDITIONAL,
    WriteCondition,
    WriteKind,
    if_columns_equal,
)


META_TABLE_SUFFIX = "_meta"

_new_tuple = tuple.__new__


@dataclass(frozen=True, eq=False)
class DecoupleConfig:
    """Which records split their metadata into a sibling table.

    ``namespaces`` limits the split to the given namespaces; None means every
    namespace. A metadata table is its application table's name plus
    ``META_TABLE_SUFFIX``. The locator is injective: in every namespace and
    under any config, a table whose name ends with the suffix is a metadata
    table (``holds_metadata``), never an application table.

    A config is equal only to itself, and hashes by identity: the read-route
    memo (``StorageRegistry.routes``) keeps one entry per table and config
    object, and finds it without calling back into Python.
    """

    namespaces: frozenset[str] | None = None

    def applies_to(self, key: FullKey | GroupKey) -> bool:
        """Whether ``key`` (a record or a scan prefix) is split."""
        return self.namespaces is None or key.namespace in self.namespaces

    @staticmethod
    def holds_metadata(key: FullKey | GroupKey) -> bool:
        """Whether ``key`` (a record or a scan prefix) is in a metadata table."""
        return key.table.endswith(META_TABLE_SUFFIX)

    @staticmethod
    def metadata_key(key: FullKey) -> FullKey:
        """The metadata row's key: one tuple built from ``key``'s components."""
        storage, namespace, table, partition_key, clustering_key = key
        if table.endswith(META_TABLE_SUFFIX):
            raise ValueError(f"{table!r} is already a metadata table")
        table += META_TABLE_SUFFIX
        return _new_tuple(FullKey, (storage, namespace, table, partition_key, clustering_key))


class ReadPath(enum.Enum):
    """How a logical record was fetched; decides later validation."""

    COLOCATED = "COLOCATED"
    SPLIT_READS = "SPLIT_READS"
    SNAPSHOT = "SNAPSHOT"
    VIEW = "VIEW"


# Bound once: reading an enum member through its class costs about 0.1 µs on
# Python 3.11, and these are read per record.
_COLOCATED, _SNAPSHOT, _SPLIT_READS = ReadPath.COLOCATED, ReadPath.SNAPSHOT, ReadPath.SPLIT_READS


class ReadResult:
    """A logical record (or its absence) as one route read it, checked on demand.

    ``app_row`` and ``meta_row`` are the read-only mappings the store handed
    out: the application row and the row holding the ``_tx_*`` columns. The
    colocated and view routes read one row and hold it as both; an absent
    record holds None for both. The accessors look at only what they return:

    * ``present``: whether the record exists; looks at nothing.
    * ``split``: whether the record's metadata lives in its own row, which
      is exactly when the read did not come by the colocated route.
    * ``prepared``: whether it is in doubt; parses only ``_tx_state``, and an
      unknown state raises as ``parse_metadata`` does. Every read passes
      this check first, so a row with no ``_tx_state`` at all raises
      ``MissingMetadata`` here.
    * ``meta``: ``meta_row`` once ``parse_metadata`` has checked it, at most
      once. A view's is the whole joined row, a split route's holds only the
      ``_tx_*`` columns; read it through the ``records.COL_*`` names.
    * ``app_columns``: the application columns as a dict, filtered at most
      once and shared (a prepared write's before-image is encoded from it),
      so nobody may change it; it is None exactly when the record is absent.
      ``get`` hands out a copy of it; a scan does not use it, and hands out
      a freshly filtered dict of ``app_row``.
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
    def split(self) -> bool:
        return self.path is not _COLOCATED

    @property
    def prepared(self) -> bool:
        row = self.meta_row
        if row is None:
            return False
        try:
            state = row[COL_STATE]
        except KeyError:
            raise MissingMetadata(
                f"the row read carries no fedtx metadata (no {COL_STATE!r} column)"
            ) from None
        return _state(state) is TxState.PREPARED

    @property
    def meta(self) -> Mapping | None:
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


def metadata_in_scope(unit: AtomicityUnit) -> bool:
    """Whether a metadata row shares its record's atomic-write scope under ``unit``.

    The two rows differ only in their table, so they share a scope exactly
    when the scope stops above the table.
    """
    return unit >= AtomicityUnit.NAMESPACE


def splits(registry: StorageRegistry, config: DecoupleConfig | None, key: FullKey) -> bool:
    """Whether ``config`` splits ``key``; raises if its metadata row would leave the key's scope."""
    unit = registry.capabilities(key).atomicity_unit  # first: an unknown storage always raises
    if config is None or not config.applies_to(key):
        return False
    if not metadata_in_scope(unit):
        raise AtomicityScopeViolation(f"metadata row for {key.render()} leaves its atomic scope")
    return True


class SplitWrite(NamedTuple):
    """A split record's write, before ``expand_writes`` cuts it into its two rows.

    Its first four fields line up with ``ConditionalWrite``'s: ``columns`` is
    the metadata row, the record's ``_tx_*`` columns, which carries
    ``condition`` to the metadata table; ``app_row`` is the application row.
    Both are fresh dicts that the physical writes take over.
    """

    key: FullKey
    columns: dict
    condition: WriteCondition
    kind: WriteKind
    app_row: dict


def expand_writes(
    config: DecoupleConfig | None,
    writes: Sequence[ConditionalWrite | SplitWrite],
    observed: Mapping[FullKey, ReadResult] | None = None,
) -> Sequence[ConditionalWrite]:
    """Rewrite a batch of record writes into the physical one the store applies.

    Without a config nothing splits, and the batch is handed back as it is.
    A split record contributes two writes: the application row, and the
    metadata row carrying the original condition (tx-id checks live in the
    metadata columns). Application rows (and colocated records) come first,
    metadata rows after; ``logical_key`` maps a failed row back to its record.

    The application row is unconditional unless ``observed`` holds a present
    ``SPLIT_READS`` result for the key. Then the write was derived from two
    reads that a writer may have torn apart, and the row must still hold the
    columns that were read. With the tx id equal too, the pair read was one
    version, value for value.
    """
    if config is None:
        return writes
    apps: list[ConditionalWrite] = []
    metas: list[ConditionalWrite] = []
    for write in writes:
        if write.__class__ is not SplitWrite:
            apps.append(write)
            continue
        key, meta_row, condition, kind, app_row = write
        obs = observed.get(key) if observed is not None else None
        if obs is not None and obs.path is _SPLIT_READS and obs.present:
            app_condition = if_columns_equal(obs.app_columns)
        else:
            app_condition = UNCONDITIONAL
        apps.append(ConditionalWrite._owning(key, app_row, app_condition, kind))
        meta_key = DecoupleConfig.metadata_key(key)
        metas.append(ConditionalWrite._owning(meta_key, meta_row, condition, kind))
    return apps + metas


def logical_key(key: FullKey) -> FullKey:
    """The record a row stored at ``key`` belongs to; a metadata row's is its application row."""
    if not DecoupleConfig.holds_metadata(key):
        return key
    storage, namespace, table, partition_key, clustering_key = key
    table = table[: -len(META_TABLE_SUFFIX)]
    return _new_tuple(FullKey, (storage, namespace, table, partition_key, clustering_key))


def _join(key: FullKey, app: Mapping | None, meta: Mapping | None, path: ReadPath) -> ReadResult:
    if (app is None) != (meta is None):
        missing = "application" if app is None else "metadata"
        raise JoinIntegrityError(f"{missing} row missing for {key.render()}")
    return ReadResult(app, meta, path)


def read_split(
    registry: StorageRegistry, config: DecoupleConfig, key: FullKey
) -> ReadResult:
    """Two independent reads joined here; the pair may be torn under writers."""
    app = registry.read(key)
    meta = registry.read(config.metadata_key(key))
    return _join(key, app, meta, ReadPath.SPLIT_READS)


def read_snapshot(
    registry: StorageRegistry, config: DecoupleConfig | None, keys: Sequence[FullKey]
) -> list[ReadResult]:
    """Records of one scope of a consistent-readable store, all read in one ``snapshot_read``.

    A record ``config`` splits is fetched as both its rows (a ``SNAPSHOT``
    result); any other as its one row (``COLOCATED``). Each is joined by
    ``_join``, so a torn pair raises ``JoinIntegrityError`` as on every route:
    a consistent read meets one only where a row was written outside the protocol.
    """
    physical = []
    split = []
    for key in keys:
        physical.append(key)
        splits_key = config is not None and config.applies_to(key)
        if splits_key:
            physical.append(DecoupleConfig.metadata_key(key))
        split.append(splits_key)
    rows = iter(registry.snapshot_read(physical))
    results: list[ReadResult] = []
    for key, splits_key in zip(keys, split):
        app = next(rows)
        meta = next(rows) if splits_key else app
        results.append(_join(key, app, meta, _SNAPSHOT if splits_key else _COLOCATED))
    return results


def _route(
    registry: StorageRegistry, config: DecoupleConfig | None, key: FullKey
) -> tuple[ReadPath, StorageAdapter, str | None]:
    """The best route for ``key``'s table: (path, adapter, view name or None).

    A table ``config`` does not split (every table without a config) is
    colocated. A consistent route (view or snapshot) also needs the metadata
    row inside the key's atomic-write scope; otherwise the rows are read
    separately. A view is used when the store declares views and has one for
    the table.
    """
    adapter = registry.get_database(key)
    if config is None or not config.applies_to(key):
        return ReadPath.COLOCATED, adapter, None
    caps = registry.capabilities(key)
    if not (caps.consistent_readable and metadata_in_scope(caps.atomicity_unit)):
        return ReadPath.SPLIT_READS, adapter, None
    if caps.view_joinable:
        view_name = adapter.view_for(key)
        if view_name is not None:
            return ReadPath.VIEW, adapter, view_name
    return ReadPath.SNAPSHOT, adapter, None


def read_dispatch(
    registry: StorageRegistry, config: DecoupleConfig | None, key: FullKey
) -> ReadResult:
    """Fetch a logical record by the best route the storage supports (see ``_route``).

    The route is one lookup in ``registry.routes``, keyed by ``config``
    (None too) and the key's table; a table's first read resolves it.
    """
    slot = (config, key.storage, key.namespace, key.table)
    route = registry.routes.get(slot)
    if route is None:
        route = registry.routes[slot] = _route(registry, config, key)
    path, adapter, view_name = route
    if path is ReadPath.VIEW:
        row = adapter.view_read(view_name, key)
        return ReadResult(row, row, path)
    if path is ReadPath.COLOCATED:
        row = adapter.read(key)
        return ReadResult(row, row, path)
    if path is ReadPath.SNAPSHOT:
        return read_snapshot(registry, config, [key])[0]  # both rows at one consistent point
    return read_split(registry, config, key)
