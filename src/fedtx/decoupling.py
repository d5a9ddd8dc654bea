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
knows which reads still need validation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import CapabilityUnsupported, AtomicityScopeViolation, JoinIntegrityError
from .model import AtomicityUnit, FullKey, TransactionMetadata, scope_of
from .records import parse_metadata, split_columns
from .storage import ConditionalWrite, StorageAdapter, StorageRegistry, UNCONDITIONAL


@dataclass(frozen=True)
class DecoupleConfig:
    """Where metadata rows live relative to their application rows.

    ``namespaces`` limits the split to the given namespaces; None means every
    namespace. The locator is injective: application table names may not end
    with the metadata suffix.
    """

    namespaces: frozenset[str] | None = None
    meta_table_suffix: str = "_meta"

    def applies_to(self, key: FullKey) -> bool:
        if self.namespaces is not None and key.namespace not in self.namespaces:
            return False
        return not key.table.endswith(self.meta_table_suffix)

    def metadata_key(self, key: FullKey) -> FullKey:
        if key.table.endswith(self.meta_table_suffix):
            raise ValueError(f"{key.table!r} is already a metadata table")
        return FullKey(
            key.storage,
            key.namespace,
            key.table + self.meta_table_suffix,
            key.partition_key,
            key.clustering_key,
        )

    def application_key(self, meta_key: FullKey) -> FullKey:
        if not meta_key.table.endswith(self.meta_table_suffix):
            raise ValueError(f"{meta_key.table!r} is not a metadata table")
        return FullKey(
            meta_key.storage,
            meta_key.namespace,
            meta_key.table[: -len(self.meta_table_suffix)],
            meta_key.partition_key,
            meta_key.clustering_key,
        )


class ReadPath(enum.Enum):
    """How a logical record was fetched; decides later validation."""

    COLOCATED = "COLOCATED"
    SPLIT_READS = "SPLIT_READS"
    SNAPSHOT = "SNAPSHOT"
    VIEW = "VIEW"


@dataclass(frozen=True)
class ReadResult:
    """A joined logical record (or its absence) plus the route that read it."""

    app_columns: Mapping[str, object] | None
    meta: TransactionMetadata | None
    path: ReadPath

    @property
    def present(self) -> bool:
        return self.meta is not None


def metadata_in_scope(config: DecoupleConfig, key: FullKey, unit: AtomicityUnit) -> bool:
    """Whether the metadata row of ``key`` shares its atomic-write scope under ``unit``.

    The metadata row's components are cut to the depth of ``key``'s own
    scope, so no metadata key is built just to compare scopes.
    """
    scope = scope_of(key, unit)
    table = key.table + config.meta_table_suffix
    meta = (key.storage, key.namespace, table, key.partition_key, key.clustering_key)
    return meta[: len(scope)] == scope


def expand_writes(
    registry: StorageRegistry,
    config: DecoupleConfig | None,
    writes: Sequence[ConditionalWrite],
) -> list[ConditionalWrite]:
    """Rewrite a logical batch into the physical one the store will apply.

    Split keys contribute two writes: the application row unconditionally, and
    the metadata row carrying the original condition (tx-id checks live in the
    metadata columns). Application rows come first, metadata rows after. The
    metadata row must stay inside the batch's atomic scope.
    """
    if config is None:
        return list(writes)
    apps: list[ConditionalWrite] = []
    metas: list[ConditionalWrite] = []
    for write in writes:
        if not config.applies_to(write.key):
            apps.append(write)
            continue
        if not metadata_in_scope(config, write.key, registry.get_atomicity_unit(write.key)):
            raise AtomicityScopeViolation(
                f"metadata row for {write.key.render()} falls outside the atomic scope"
            )
        meta_key = config.metadata_key(write.key)
        app_columns, meta_columns = split_columns(write.columns)
        apps.append(
            ConditionalWrite(write.key, app_columns, UNCONDITIONAL, write.kind)
        )
        metas.append(ConditionalWrite(meta_key, meta_columns, write.condition, write.kind))
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
    # Record.columns is a MappingProxyType, which dict() copies slowly
    return ReadResult(app.columns.copy(), parse_metadata(meta.columns), path)


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
    app_columns, meta_columns = split_columns(record.columns)
    return ReadResult(app_columns, parse_metadata(meta_columns), ReadPath.VIEW)


def read_split_view(
    registry: StorageRegistry, config: DecoupleConfig, key: FullKey
) -> ReadResult:
    """One read of the store-side join view; the join is pushed down."""
    adapter = registry.get_database(key)
    view_name = adapter.view_for(key)
    if view_name is None:
        raise CapabilityUnsupported(f"no join view registered for {key.render()}")
    return _read_view(adapter, view_name, key)


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
        app_columns, meta_columns = split_columns(record.columns)
        return ReadResult(app_columns, parse_metadata(meta_columns), ReadPath.COLOCATED)
    caps = adapter.capabilities
    if not (caps.consistent_readable and metadata_in_scope(config, key, caps.atomicity_unit)):
        return read_split(registry, config, key)
    if caps.view_joinable:
        view_name = adapter.view_for(key)
        if view_name is not None:
            return _read_view(adapter, view_name, key)
    return read_split_snapshot(registry, config, key)
