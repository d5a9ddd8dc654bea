"""Core data model: keys, column values, atomic-write scopes, and transaction status.

Records live in a multi-dimensional map: a record is addressed by
(storage, namespace, table, partition key, clustering key) and carries a flat
mapping of named columns. Records sharing a partition key form a partition and
are ordered by clustering key.

Column values are plain Python scalars (int, str, bool, bytes, or None), each
treated as a distinct tagged type: equality and ordering are defined within a
tag, and comparing values of different tags is an error (bool is NOT an int
here, unlike plain Python).

A ``FullKey`` is itself the tuple (storage, namespace, table, partition key,
clustering key), so it hashes and compares in C, and an atomicity unit's scope
is a prefix of it: the slice that the unit keeps. ``scope_of`` is the one place
that maps a unit to that slice, a plain tuple, which is what the hot paths
compare and hash. A ``GroupKey`` addresses the one partition a scan reads: it
is the tuple (storage, namespace, table, partition key), its partition key
checked as a ``FullKey``'s is, so it equals the PARTITION scope of every key
in it. Both are ``CheckedTuple``s, as are the batch values of ``storage``.

Clustering keys are ordered by plain Python tuple comparison. That is the
model's order, because a key component can only be an int, a str or a bytes
(null and bool are rejected): within one type Python's ``<`` is the tag's
order, across types both raise ``TypeError``, and a shorter prefix sorts
first.

A record's transaction metadata has no type of its own: it is the reserved
``_tx_*`` columns of the stored row (``records``). ``TxState`` names the
values of its state column.

All types in this module are immutable value objects and safe to share across
threads.
"""

from __future__ import annotations

import enum
import json
from collections import _tuplegetter  # the C field getter of namedtuple's classes
from typing import Iterable, Mapping, NamedTuple

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


def _check_key_components(name: str, components: tuple) -> None:
    # bool is rejected too: True == 1 and hash(True) == hash(1), so a bool
    # component would alias an int one in every key-indexed map.
    for v in components:
        tag = value_tag(v)
        if tag is ValueTag.NULL or tag is ValueTag.BOOL:
            raise ValueError(f"{name} component may not be {tag.value}")


_new_tuple = tuple.__new__


class CheckedTuple(tuple):
    """A value that is the tuple of its fields and holds nothing else, built through checks.

    A subclass names its fields once, in ``_fields``, and checks them in its
    own ``__new__``. This base gives each field the C getter
    ``collections.namedtuple`` uses, a ``Name(field=value, ...)`` repr, and a
    ``__reduce__`` that rebuilds every copy and unpickled value through that
    ``__new__``, a mapping field handed over as a plain dict copy. Unlike a
    namedtuple's, its class has no ``_make`` or ``_replace`` to skip the checks.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        for index, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))
        cls._repr_format = f"{cls.__name__}({', '.join(f'{name}=%r' for name in cls._fields)})"

    def __repr__(self) -> str:
        return self._repr_format % self

    def __reduce__(self):
        fields = tuple(dict(v) if isinstance(v, Mapping) else v for v in self)
        return self.__class__, fields


class FullKey(CheckedTuple):
    """Complete address of one record.

    A key is the tuple (storage, namespace, table, partition key, clustering
    key) and hashes, compares and slices as that tuple, all in C. The
    partition key must be non-empty; the clustering key may be empty; both
    are tuples. No key component may be null or bool. (partition_key,
    clustering_key) is unique within a table.
    """

    __slots__ = ()
    _fields = ("storage", "namespace", "table", "partition_key", "clustering_key")

    def __new__(
        cls,
        storage: str,
        namespace: str,
        table: str,
        partition_key: Iterable,
        clustering_key: Iterable = (),
    ) -> "FullKey":
        partition_key = tuple(partition_key)
        clustering_key = tuple(clustering_key)
        if not partition_key:
            raise ValueError("partition key must be non-empty")
        _check_key_components("partition key", partition_key)
        _check_key_components("clustering key", clustering_key)
        return _new_tuple(cls, (storage, namespace, table, partition_key, clustering_key))

    @classmethod
    def _unchecked(
        cls, storage: str, namespace: str, table: str, partition_key: tuple, clustering_key: tuple
    ) -> "FullKey":
        """A key from components already checked, both key parts tuples.

        For an address built from checked parts, such as a store's dump
        naming each row it holds: the row's key was checked when the row was
        written.
        """
        return _new_tuple(cls, (storage, namespace, table, partition_key, clustering_key))

    def render(self) -> str:
        return render_key(*self)


def check_columns(columns: Mapping[str, object]) -> None:
    """The column rule: every value passes ``value_tag``, every name is a non-empty str.

    Raises TypeError for an unsupported value and ValueError for a bad name.
    """
    for name, value in columns.items():
        if type(value) not in _EXACT_TAGS:
            value_tag(value)  # a subclass passes; anything else raises
        if not isinstance(name, str) or not name:
            raise ValueError("column names must be non-empty strings")


class Record(NamedTuple):
    """One stored record as a store's ``dump`` lists it: its address and its row.

    A read hands out only the row; the dump also names each row's key, for
    the sweeps and audits that walk a whole store. The row is the store's
    read-only mapping and never changes: a later write replaces the stored
    row instead.
    """

    key: FullKey
    columns: Mapping[str, object]


class AtomicityUnit(enum.IntEnum):
    """Widest scope within which a storage applies a batch of writes atomically.

    Totally ordered by scope: RECORD < PARTITION < TABLE < NAMESPACE < STORAGE.
    """

    RECORD = 1
    PARTITION = 2
    TABLE = 3
    NAMESPACE = 4
    STORAGE = 5


# Depth of the scope prefix per unit: STORAGE keeps only the storage name,
# RECORD keeps everything down to the clustering key.
_UNIT_DEPTH = {
    AtomicityUnit.STORAGE: 1,
    AtomicityUnit.NAMESPACE: 2,
    AtomicityUnit.TABLE: 3,
    AtomicityUnit.PARTITION: 4,
    AtomicityUnit.RECORD: 5,
}


class GroupKey(CheckedTuple):
    """Address of one partition: the prefix a scan names.

    A group key is the tuple (storage, namespace, table, partition key), so it
    equals, and hashes like, the PARTITION scope ``scope_of`` gives every key
    of its partition. The partition key is checked as a ``FullKey``'s is:
    non-empty, and no component null or bool.
    """

    __slots__ = ()
    _fields = ("storage", "namespace", "table", "partition_key")

    def __new__(
        cls, storage: str, namespace: str, table: str, partition_key: Iterable
    ) -> "GroupKey":
        partition_key = tuple(partition_key)
        if not partition_key:
            raise ValueError("partition key must be non-empty")
        _check_key_components("partition key", partition_key)
        return _new_tuple(cls, (storage, namespace, table, partition_key))

    def render(self) -> str:
        return render_key(*self)


def scope_of(key: FullKey, unit: AtomicityUnit) -> tuple:
    """The populated prefix of ``key`` that ``unit`` keeps, as a plain tuple.

    A slice of a key is a plain tuple, even one of all five components.

    Two keys fall in the same atomic-write scope exactly when their scopes
    are equal.
    """
    return key[: _UNIT_DEPTH[unit]]


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
    """A stored record's ``_tx_state``: in doubt, or settled."""

    PREPARED = "PREPARED"
    COMMITTED = "COMMITTED"


class TxStatus(enum.Enum):
    """Where a transaction stands: still ACTIVE, or its one outcome.

    A transaction that is still ACTIVE once its process has died never
    reached an outcome of its own.
    """

    ACTIVE = "ACTIVE"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"
