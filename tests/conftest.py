"""Shared builders for registry/manager test environments."""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import pytest

from fedtx import (
    AdapterCapabilities,
    AtomicityUnit,
    DecoupleConfig,
    FullKey,
    MemStoreConfig,
    StorageAdapter,
    StorageRegistry,
    TransactionManager,
    build_memstore,
)
from fedtx.model import TxState, ValueTag, value_tag
from fedtx.records import (
    BEFORE_COLUMN_PREFIX,
    COL_BEFORE,
    COL_BEFORE_COMMITTED_AT,
    COL_BEFORE_PREPARED_AT,
    COL_BEFORE_STATE,
    COL_BEFORE_VERSION,
    COL_COMMITTED_AT,
    COL_DELETED,
    COL_PREPARED_AT,
    COL_STATE,
    COL_TX_ID,
    COL_VERSION,
    combined_columns,
)
from fedtx.transaction import CoordinatorLocation


# Every settled record carries exactly these; a before-image adds its own.
SETTLED_METADATA_COLUMNS = {
    "_tx_id",
    "_tx_version",
    "_tx_state",
    "_tx_prepared_at",
    "_tx_committed_at",
}


def compare_values(a, b) -> int:
    """Oracle: three-way comparison of two scalars of the same tag.

    Raises TypeError when the tags differ; there is no cross-tag order.
    """
    ta, tb = value_tag(a), value_tag(b)
    if ta is not tb:
        raise TypeError(f"cannot compare {ta.value} with {tb.value}")
    if ta is ValueTag.NULL:
        return 0
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


@dataclass(frozen=True)
class BeforeImage:
    """Oracle: the previous version of a record, kept by a PREPARED row for rollback.

    Holds the prior application columns and the prior metadata; the nested
    metadata never carries its own before-image (depth is exactly one).
    """

    columns: Mapping[str, object]
    metadata: "TransactionMetadata"

    def __post_init__(self):
        object.__setattr__(self, "columns", MappingProxyType(dict(self.columns)))
        if self.metadata.before_image is not None:
            raise ValueError("a before-image's metadata may not nest another before-image")


@dataclass(frozen=True)
class TransactionMetadata:
    """Oracle: a record's metadata as an object, checked on construction.

    ``delete_marker`` is only meaningful while PREPARED: roll-forward then
    deletes instead of committing the columns.
    """

    tx_id: str
    version: int
    tx_state: TxState
    prepared_at: int
    committed_at: int | None = None
    before_image: BeforeImage | None = None
    delete_marker: bool = False

    def __post_init__(self):
        if not self.tx_id:
            raise ValueError("tx_id must be non-empty")
        if self.version < 1:
            raise ValueError("version starts at 1")
        if self.tx_state is TxState.COMMITTED and self.committed_at is None:
            raise ValueError("a COMMITTED record must carry committed_at")


def decode_metadata(row: Mapping[str, object] | None) -> TransactionMetadata | None:
    """Oracle: a stored row's ``_tx_*`` columns decoded field by field into objects.

    Columns without the prefix are ignored, and an absent row (None) has no
    metadata. ``fedtx.records.parse_metadata`` must accept exactly the rows
    this accepts.
    """
    if row is None:
        return None
    prior_tx_id = row.get(COL_BEFORE)
    before = None
    if prior_tx_id is not None:
        start = len(BEFORE_COLUMN_PREFIX)
        before = BeforeImage(
            {name[start:]: v for name, v in row.items() if name.startswith(BEFORE_COLUMN_PREFIX)},
            TransactionMetadata(
                prior_tx_id,
                row[COL_BEFORE_VERSION],
                TxState(row[COL_BEFORE_STATE]),
                row[COL_BEFORE_PREPARED_AT],
                row[COL_BEFORE_COMMITTED_AT],
            ),
        )
    return TransactionMetadata(
        row[COL_TX_ID],
        row[COL_VERSION],
        TxState(row[COL_STATE]),
        row[COL_PREPARED_AT],
        row.get(COL_COMMITTED_AT),
        before,
        bool(row.get(COL_DELETED, False)),
    )


def reference_metadata_columns(meta: TransactionMetadata) -> dict:
    """Oracle: a metadata object rendered as its reserved columns, field by field.

    A column at its default is left out: ``_tx_committed_at`` when None,
    ``_tx_deleted`` unless True. A before-image adds ``_tx_before`` and its
    other ``_tx_before_*`` columns. ``fedtx.records.combined_columns`` must
    write exactly these from plain fields.
    """
    columns = {
        COL_TX_ID: meta.tx_id,
        COL_VERSION: meta.version,
        COL_STATE: meta.tx_state.value,
        COL_PREPARED_AT: meta.prepared_at,
    }
    if meta.committed_at is not None:
        columns[COL_COMMITTED_AT] = meta.committed_at
    if meta.delete_marker:
        columns[COL_DELETED] = True
    before = meta.before_image
    if before is not None:
        prior = before.metadata
        columns[COL_BEFORE] = prior.tx_id
        columns[COL_BEFORE_VERSION] = prior.version
        columns[COL_BEFORE_STATE] = prior.tx_state.value
        columns[COL_BEFORE_PREPARED_AT] = prior.prepared_at
        columns[COL_BEFORE_COMMITTED_AT] = prior.committed_at
        for name, value in before.columns.items():
            value_tag(value)
            columns[BEFORE_COLUMN_PREFIX + name] = value
    return columns


def reference_columns(app_columns, meta: TransactionMetadata) -> dict:
    """Oracle: the full stored image of ``app_columns`` under the metadata object ``meta``."""
    out = dict(app_columns)
    out.update(reference_metadata_columns(meta))
    return out


def split_columns(columns: Mapping[str, object]) -> tuple[dict, dict]:
    """Oracle: stored columns cut by the reserved prefix into (application row, metadata row).

    The two physical rows a split record's colocated image becomes, each in
    the image's column order.
    """
    app: dict = {}
    meta: dict = {}
    for name, value in columns.items():
        (meta if name.startswith("_tx_") else app)[name] = value
    return app, meta


def stored_row(app_columns, meta: TransactionMetadata) -> dict:
    """The colocated image ``fedtx.records.combined_columns`` encodes from ``meta``'s fields."""
    before = meta.before_image
    prior_row = prior_app = None
    if before is not None:
        prior_row, prior_app = reference_metadata_columns(before.metadata), before.columns
    return combined_columns(
        dict(app_columns),
        meta.tx_id,
        meta.version,
        meta.tx_state,
        meta.prepared_at,
        meta.committed_at,
        meta.delete_marker,
        prior_row,
        prior_app,
    )


def make_caps(unit=AtomicityUnit.STORAGE, consistent=False, view=False):
    return AdapterCapabilities(unit, consistent_readable=consistent, view_joinable=view)


class MinimalAdapter(StorageAdapter):
    """An adapter of the abstract methods alone, over no rows: every other call is the default."""

    def __init__(self, name="bare", caps=None):
        self._name = name
        self._caps = caps or make_caps()

    @property
    def name(self):
        return self._name

    @property
    def capabilities(self):
        return self._caps

    def read(self, key):
        return None

    def scan(self, prefix):
        return []

    def atomic_write(self, writes):
        return None


class Env:
    """A registry of named memstores, a coordinator, and one manager."""

    def __init__(self, manager, registry, adapters, coordinator):
        self.manager = manager
        self.registry = registry
        self.adapters = adapters
        self.coordinator = coordinator

    def adapter(self, name):
        return self.adapters[name]

    def counters(self, name):
        return self.adapters[name].counters()

    def dump_all(self):
        records = []
        for adapter in self.adapters.values():
            records.extend(adapter.dump())
        return records


def build_env(
    storages=None,
    decoupled=False,
    register_views=False,
    one_phase=True,
    history=None,
    async_commit=False,
):
    """storages: mapping name -> AdapterCapabilities (default one STORAGE-unit store)."""
    storages = storages or {"s1": make_caps()}
    registry = StorageRegistry()
    adapters = {}
    for name, caps in storages.items():
        adapter = build_memstore(name, MemStoreConfig(caps))
        if register_views:
            adapter.register_join_view("app.t_with_meta", "app", "t", "t_meta")
        registry.register(adapter)
        adapters[name] = adapter
    coord = build_memstore("coord", MemStoreConfig(make_caps()))
    registry.register(coord)
    adapters["coord"] = coord
    manager = TransactionManager(
        registry,
        CoordinatorLocation("coord"),
        decoupling=DecoupleConfig() if decoupled else None,
        one_phase_enabled=one_phase,
        async_commit_records=async_commit,
        history=history,
    )
    return Env(manager, registry, adapters, coord)


def k(storage="s1", pk=1, ck=None, table="t", namespace="app"):
    return FullKey(storage, namespace, table, (pk,), (ck,) if ck is not None else ())


# The paper's four metadata modes: (decoupled, consistent_readable, view_joinable).
METADATA_MODES = {
    "colocated": (False, False, False),
    "split_reads": (True, False, False),
    "snapshot": (True, True, False),
    "view": (True, True, True),
}


def mode_env_args(mode, storages=("s1",)):
    """The build_env arguments that put STORAGE-unit ``storages`` in ``mode``."""
    decoupled, consistent, view = METADATA_MODES[mode]
    caps = make_caps(consistent=consistent, view=view)
    return dict(storages=dict.fromkeys(storages, caps), decoupled=decoupled, register_views=view)


def run_workload(env, tx_count, ops_per_tx=8, record_count=1_000, read_only=False, seed=7):
    """Load ``record_count`` rows per storage, then run ``tx_count`` transactions.

    Each transaction gets ``ops_per_tx`` distinct keys, split evenly across the
    application storages (the first ones take the remainder), and reads each
    one, rewriting it too unless ``read_only``. Nothing retries: an abort
    propagates. Returns each store's counters for the transactions alone.
    """
    names = [name for name in env.adapters if name != "coord"]
    rng = random.Random(seed)
    for name in names:
        for start in range(0, record_count, 100):
            tx = env.manager.begin()
            for pk in range(start, min(start + 100, record_count)):
                tx.put(k(name, pk), {"payload": rng.randbytes(32)})
            tx.commit()
    env.manager.drain_commit_records()
    for adapter in env.adapters.values():
        adapter.reset_counters()
    base, extra = divmod(ops_per_tx, len(names))
    for tx_index in range(tx_count):
        rng = random.Random(f"{seed}:{tx_index}")
        tx = env.manager.begin()
        for i, name in enumerate(names):
            for pk in rng.sample(range(record_count), base + (i < extra)):
                tx.get(k(name, pk))
                if not read_only:
                    tx.put(k(name, pk), {"payload": rng.randbytes(32)})
        tx.commit()
    env.manager.drain_commit_records()
    return {name: adapter.counters() for name, adapter in env.adapters.items()}


@pytest.fixture
def env():
    return build_env()
