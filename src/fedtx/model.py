"""Core data model: keys, column values, atomic-write scopes, and record metadata.

Records live in a multi-dimensional map: a record is addressed by
(storage, namespace, table, partition key, clustering key) and carries a flat
mapping of named columns. Records sharing a partition key form a partition and
are ordered by clustering key.

Column values are plain Python scalars (int, str, bool, bytes, or None), each
treated as a distinct tagged type: equality and ordering are defined within a
tag, and comparing values of different tags is an error (bool is NOT an int
here, unlike plain Python).

An atomicity unit maps a key to its scope, the prefix of
(storage, namespace, table, partition key, clustering key) that the unit keeps.
``scope_of`` is the one place that does so; it returns that prefix as a plain
tuple, which is what the hot paths compare and hash. ``derive_group_key``
wraps the same prefix in a validated ``GroupKey`` for callers that hand it on.

Clustering keys are ordered by plain Python tuple comparison. That is the
model's order, because a key component can only be an int, a str or a bytes
(null and bool are rejected): within one type Python's ``<`` is the tag's
order, across types both raise ``TypeError``, and a shorter prefix sorts
first.

All types in this module are immutable value objects and safe to share across
threads.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

ColumnValue = int | str | bool | bytes | None


class ValueTag(enum.Enum):
    NULL = "null"
    BOOL = "bool"
    INT = "int"
    TEXT = "text"
    BLOB = "blob"


_EXACT_TAGS = {
    type(None): ValueTag.NULL,
    bool: ValueTag.BOOL,
    int: ValueTag.INT,
    str: ValueTag.TEXT,
    bytes: ValueTag.BLOB,
}


def value_tag(value) -> ValueTag:
    """Classify a scalar column value.

    Exact types take one dict lookup. Subclasses (an ``IntEnum`` member, a
    ``str`` subclass) fall through to ``isinstance``; ``NoneType`` and
    ``bool`` cannot be subclassed, so neither needs a fallback.
    """
    tag = _EXACT_TAGS.get(type(value))
    if tag is not None:
        return tag
    if isinstance(value, int):
        return ValueTag.INT
    if isinstance(value, str):
        return ValueTag.TEXT
    if isinstance(value, bytes):
        return ValueTag.BLOB
    raise TypeError(f"unsupported column value type: {type(value).__name__}")


def compare_values(a, b) -> int:
    """Three-way comparison of two scalars of the same tag.

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


def _check_key_components(name: str, components: tuple) -> None:
    # bool is rejected too: True == 1 and hash(True) == hash(1), so a bool
    # component would alias an int one in every key-indexed map.
    for v in components:
        tag = value_tag(v)
        if tag is ValueTag.NULL or tag is ValueTag.BOOL:
            raise ValueError(f"{name} component may not be {tag.value}")


@dataclass(frozen=True)
class FullKey:
    """Complete address of one record.

    The partition key must be non-empty; the clustering key may be empty. No
    key component may be null or bool. (partition_key, clustering_key) is
    unique within a table.
    """

    storage: str
    namespace: str
    table: str
    partition_key: tuple
    clustering_key: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "partition_key", tuple(self.partition_key))
        object.__setattr__(self, "clustering_key", tuple(self.clustering_key))
        if not self.partition_key:
            raise ValueError("partition key must be non-empty")
        _check_key_components("partition key", self.partition_key)
        _check_key_components("clustering key", self.clustering_key)

    @classmethod
    def _unchecked(
        cls, storage: str, namespace: str, table: str, partition_key: tuple, clustering_key: tuple
    ) -> "FullKey":
        """A key from components already checked, both key parts tuples.

        For a store rebuilding the address of a row it holds: the row's key
        was checked when the row was written.
        """
        key = object.__new__(cls)
        key.__dict__.update(
            storage=storage,
            namespace=namespace,
            table=table,
            partition_key=partition_key,
            clustering_key=clustering_key,
        )
        return key

    def render(self) -> str:
        return render_key(
            self.storage, self.namespace, self.table, self.partition_key, self.clustering_key
        )


def check_columns(columns: Mapping[str, object]) -> None:
    """The column rule: every value passes ``value_tag``, every name is a non-empty str.

    Raises TypeError for an unsupported value and ValueError for a bad name.
    """
    for name, value in columns.items():
        if type(value) not in _EXACT_TAGS:
            value_tag(value)  # a subclass passes; anything else raises
        if not isinstance(name, str) or not name:
            raise ValueError("column names must be non-empty strings")


@dataclass(frozen=True)
class Record:
    """One stored record: its address plus named columns, read-only.

    The columns never change once the record exists: a store hands out a
    snapshot of the row, and a later write replaces the row instead of
    changing the record a reader holds. So a reader may keep a record and
    decode it whenever it likes.
    """

    key: FullKey
    columns: Mapping[str, object]

    def __post_init__(self):
        object.__setattr__(self, "columns", MappingProxyType(dict(self.columns)))
        check_columns(self.columns)

    @classmethod
    def _unchecked(cls, key: FullKey, columns: MappingProxyType) -> "Record":
        """A record sharing ``columns``, which passed ``check_columns`` and never change.

        For a store handing out a row it checked when it applied the row.
        """
        record = object.__new__(cls)
        record.__dict__.update(key=key, columns=columns)
        return record


class AtomicityUnit(enum.IntEnum):
    """Widest scope within which a storage applies a batch of writes atomically.

    Totally ordered by scope: RECORD < PARTITION < TABLE < NAMESPACE < STORAGE.
    """

    RECORD = 1
    PARTITION = 2
    TABLE = 3
    NAMESPACE = 4
    STORAGE = 5


# Depth of the populated group-key prefix per unit: STORAGE keeps only the
# storage name, RECORD keeps everything down to the clustering key.
_UNIT_DEPTH = {
    AtomicityUnit.STORAGE: 1,
    AtomicityUnit.NAMESPACE: 2,
    AtomicityUnit.TABLE: 3,
    AtomicityUnit.PARTITION: 4,
    AtomicityUnit.RECORD: 5,
}


@dataclass(frozen=True)
class GroupKey:
    """Prefix of a FullKey identifying one atomically-writable scope.

    Populated fields always form a prefix of
    (storage, namespace, table, partition_key, clustering_key); the populated
    depth is set by the atomicity unit the key was derived under. Two writes
    with equal group keys can be applied together in one atomic batch.
    """

    storage: str
    namespace: str | None = None
    table: str | None = None
    partition_key: tuple | None = None
    clustering_key: tuple | None = None

    def __post_init__(self):
        if self.partition_key is not None:
            object.__setattr__(self, "partition_key", tuple(self.partition_key))
        if self.clustering_key is not None:
            object.__setattr__(self, "clustering_key", tuple(self.clustering_key))
        fields = (self.namespace, self.table, self.partition_key, self.clustering_key)
        seen_gap = False
        for value in fields:
            if value is None:
                seen_gap = True
            elif seen_gap:
                raise ValueError("populated group-key fields must form a prefix")

    def render(self) -> str:
        return render_key(
            self.storage, self.namespace, self.table, self.partition_key, self.clustering_key
        )

    def scope(self) -> tuple:
        """The populated fields, in the form ``scope_of`` returns."""
        fields = (self.storage, self.namespace, self.table, self.partition_key, self.clustering_key)
        return tuple(f for f in fields if f is not None)


def scope_of(key: FullKey, unit: AtomicityUnit) -> tuple:
    """The populated prefix of ``key`` that ``unit`` keeps, as a plain tuple.

    Two keys fall in the same atomic-write scope exactly when their scopes
    are equal.
    """
    return (key.storage, key.namespace, key.table, key.partition_key, key.clustering_key)[
        : _UNIT_DEPTH[unit]
    ]


def derive_group_key(key: FullKey, unit: AtomicityUnit) -> GroupKey:
    """``scope_of`` as a validated ``GroupKey``, for scan prefixes and group dicts."""
    return GroupKey(*scope_of(key, unit))


def _render_value(value) -> str:
    if type(value) is int:
        return int.__repr__(value)  # what json.dumps gives an exact int, without the encoder
    tag = value_tag(value)
    if tag is ValueTag.BLOB:
        return "0x" + value.hex()
    return json.dumps(value)


def render_key(
    storage: str,
    namespace: str | None = None,
    table: str | None = None,
    partition_key: Iterable | None = None,
    clustering_key: Iterable | None = None,
) -> str:
    """Canonical text form: storage/namespace/table/pk=[...]/ck=[...].

    Unpopulated trailing components are omitted. Used in logs and fixtures.
    """
    parts = [storage]
    if namespace is not None:
        parts.append(namespace)
    if table is not None:
        parts.append(table)
    if partition_key is not None:
        parts.append("pk=[" + ",".join(_render_value(v) for v in partition_key) + "]")
    if clustering_key is not None:
        parts.append("ck=[" + ",".join(_render_value(v) for v in clustering_key) + "]")
    return "/".join(parts)


class TxState(enum.Enum):
    PREPARED = "PREPARED"
    COMMITTED = "COMMITTED"


@dataclass(frozen=True)
class BeforeImage:
    """Previous version of a record, kept for rollback.

    Holds the prior application columns and the prior metadata; the nested
    metadata never carries its own before-image (depth is exactly one).
    """

    columns: Mapping[str, object]
    metadata: "TransactionMetadata"

    def __post_init__(self):
        object.__setattr__(self, "columns", MappingProxyType(dict(self.columns)))
        self._check_depth()

    def _check_depth(self) -> None:
        if self.metadata.before_image is not None:
            raise ValueError("a before-image's metadata may not nest another before-image")

    @classmethod
    def _sharing(cls, columns: dict, metadata: "TransactionMetadata") -> "BeforeImage":
        """An image sharing ``columns``, a dict that nobody changes from now on, without a copy.

        For columns decoded fresh from a stored row. Runs the same nesting check.
        """
        image = object.__new__(cls)
        image.__dict__.update(columns=MappingProxyType(columns), metadata=metadata)
        image._check_depth()
        return image


@dataclass(frozen=True)
class TransactionMetadata:
    """Per-record write-ahead state: who wrote it last, and at which version.

    ``delete_marker`` is only meaningful while PREPARED: it flags that the
    owning transaction intends to remove the record, so roll-forward deletes
    instead of committing the columns.
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

    @classmethod
    def _decoded(cls, **fields) -> "TransactionMetadata":
        """Metadata from every field at once, not one setattr each.

        For metadata decoded from a stored row or built on the commit path.
        Runs the same invariants as the constructor.
        """
        meta = object.__new__(cls)
        meta.__dict__.update(fields)
        meta.__post_init__()
        return meta


class TxOutcome(enum.Enum):
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


@dataclass(frozen=True)
class CoordinatorState:
    """Write-once outcome record; the single source of truth for a transaction."""

    tx_id: str
    state: TxOutcome
    created_at: int
