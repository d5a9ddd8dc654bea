"""Storage abstraction: the adapter contract and the registry that routes to it.

An adapter wraps one underlying store and exposes reads, ordered partition
scans, and a linearizable conditional batch write. Each adapter declares its
capabilities up front: the widest scope it can write atomically (its atomicity
unit), whether it can read several records at one consistent point inside that
scope, and whether it can serve a pre-joined view of two tables. Everything
above this layer is store-agnostic.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .errors import CapabilityUnsupported, UnknownStorage
from .model import AtomicityUnit, CheckedTuple, FullKey, GroupKey

_new_tuple = tuple.__new__


class WriteKind(enum.Enum):
    PUT = "PUT"
    DELETE = "DELETE"


class ConditionKind(enum.Enum):
    UNCONDITIONAL = "UNCONDITIONAL"
    IF_NOT_EXISTS = "IF_NOT_EXISTS"
    IF_TX_ID_EQUALS = "IF_TX_ID_EQUALS"
    IF_COLUMNS_EQUAL = "IF_COLUMNS_EQUAL"


class WriteCondition(CheckedTuple):
    """When a write may apply, checked against the stored record at apply time.

    ``IF_COLUMNS_EQUAL`` holds when the record exists and its columns are
    exactly ``expected_columns``: the same names, and each pair of values
    equal within one ``model.ValueTag`` (so ``True`` does not equal ``1``).

    A condition is the ``model.CheckedTuple`` (kind, expected_tx_id,
    expected_columns): the tx id IF_TX_ID_EQUALS expects and the row
    IF_COLUMNS_EQUAL expects, each None for every other kind. The
    constructor refuses a ``kind`` that is not a ``ConditionKind`` member
    and checks that the other fields fit the kind.
    """

    __slots__ = ()
    _fields = ("kind", "expected_tx_id", "expected_columns")

    def __new__(
        cls,
        kind: ConditionKind,
        expected_tx_id: str | None = None,
        expected_columns: Mapping[str, object] | None = None,
    ) -> "WriteCondition":
        if not isinstance(kind, ConditionKind):
            raise TypeError(f"kind must be a ConditionKind, not {kind!r}")
        if kind is ConditionKind.IF_TX_ID_EQUALS:
            if not expected_tx_id:
                raise ValueError("IF_TX_ID_EQUALS requires a non-empty expected tx id")
        elif expected_tx_id is not None:
            raise ValueError("expected_tx_id only applies to IF_TX_ID_EQUALS")
        if (kind is ConditionKind.IF_COLUMNS_EQUAL) != (expected_columns is not None):
            raise ValueError("expected_columns applies to, and is required by, IF_COLUMNS_EQUAL")
        return _new_tuple(cls, (kind, expected_tx_id, expected_columns))


UNCONDITIONAL = WriteCondition(ConditionKind.UNCONDITIONAL)
IF_NOT_EXISTS = WriteCondition(ConditionKind.IF_NOT_EXISTS)


def if_tx_id_equals(tx_id: str) -> WriteCondition:
    """The commit path's condition: one ``tuple.__new__`` call, past ``WriteCondition``'s checks.

    It refuses an empty ``tx_id`` itself, the one check that constructor would make of it.
    """
    if not tx_id:
        raise ValueError("IF_TX_ID_EQUALS requires a non-empty expected tx id")
    return _new_tuple(WriteCondition, (ConditionKind.IF_TX_ID_EQUALS, tx_id, None))


def if_columns_equal(columns: Mapping[str, object]) -> WriteCondition:
    """Apply only while the record holds exactly ``columns``, which must not change afterwards."""
    return WriteCondition(ConditionKind.IF_COLUMNS_EQUAL, expected_columns=columns)


class ConditionalWrite(CheckedTuple):
    """One write in an atomic batch: full post-image plus an apply condition.

    A write is the ``model.CheckedTuple`` (key, columns, condition, kind).
    The constructor refuses a ``key`` that is not a ``FullKey``, a
    ``condition`` that is not a ``WriteCondition`` and a ``kind`` that is not
    a ``WriteKind`` member, and copies ``columns`` into a read-only
    ``MappingProxyType``, so the caller may go on changing the mapping it
    passed. ``_owning`` skips the checks and the copy; its precondition is a
    ``FullKey``, a fresh dict that nobody else holds, and a condition and
    kind of the right types, which is how the commit path builds each
    written row. Neither checks the columns: the store does, for every PUT
    of a batch (``StorageAdapter.atomic_write``).
    """

    __slots__ = ()
    _fields = ("key", "columns", "condition", "kind")

    def __new__(
        cls,
        key: FullKey,
        columns: Mapping[str, object],
        condition: WriteCondition = UNCONDITIONAL,
        kind: WriteKind = WriteKind.PUT,
    ) -> "ConditionalWrite":
        if not isinstance(key, FullKey):
            raise TypeError(f"key must be a FullKey, not {type(key).__name__}")
        if not isinstance(condition, WriteCondition):
            raise TypeError(f"condition must be a WriteCondition, not {type(condition).__name__}")
        if not isinstance(kind, WriteKind):
            raise TypeError(f"kind must be a WriteKind, not {kind!r}")
        return _new_tuple(cls, (key, MappingProxyType(dict(columns)), condition, kind))

    @classmethod
    def _owning(
        cls,
        key: FullKey,
        columns: dict,
        condition: WriteCondition = UNCONDITIONAL,
        kind: WriteKind = WriteKind.PUT,
    ) -> "ConditionalWrite":
        """A write that takes over ``columns``, a fresh dict nobody else holds, without a copy.

        One ``tuple.__new__`` call. The commit path passes each row it has
        just built: a colocated row or a metadata row that
        ``records.combined_columns`` has encoded into, or an application row
        that ``decoupling.expand_writes`` places beside its metadata row.
        """
        return _new_tuple(cls, (key, MappingProxyType(columns), condition, kind))


@dataclass(frozen=True)
class AdapterCapabilities:
    atomicity_unit: AtomicityUnit
    consistent_readable: bool = False
    view_joinable: bool = False

    def __post_init__(self):
        if self.view_joinable and not self.consistent_readable:
            raise ValueError("a view read is a consistent read; view_joinable implies it")


class StorageAdapter(ABC):
    """Contract every store adapter implements.

    ``atomic_write`` is the only write path: the batch either applies in full
    with every condition holding at apply time, or applies nothing and reports
    the index of the first failing condition. All calls are linearizable with
    respect to each other on the same adapter.

    A read hands back the stored row itself: a read-only mapping of column
    names to values, or None for an absent record. That row never changes
    after the read, whatever is written later. Callers rely on that to keep
    the row and decode it later (``decoupling.ReadResult`` does).
    """

    @property
    @abstractmethod
    def name(self) -> str: ...

    @property
    @abstractmethod
    def capabilities(self) -> AdapterCapabilities: ...

    @abstractmethod
    def read(self, key: FullKey) -> Mapping | None: ...

    @abstractmethod
    def scan(self, prefix: GroupKey) -> list[tuple[tuple, Mapping]]:
        """Every row of one partition as a (clustering key, row) pair, in clustering order.

        Each row is read-only and never changes afterwards, as for ``read``.
        A ``GroupKey`` always names exactly one partition, so there is no
        other prefix to refuse.
        """

    @abstractmethod
    def atomic_write(self, writes: Sequence[ConditionalWrite]) -> int | None:
        """Apply a batch atomically.

        Returns None when every write applied; otherwise the index of the
        first write whose condition failed, with nothing applied. Every write
        must fall inside one atomic-write scope of this adapter. A batch with
        a PUT whose columns break ``model.check_columns`` (a non-scalar value
        or a name that is not a non-empty str) raises before anything is
        applied.
        """

    def snapshot_read(self, keys: Sequence[FullKey]) -> list[Mapping | None]:
        """Read the rows of several keys of one scope at a single consistent point."""
        raise CapabilityUnsupported(f"storage {self.name!r} is not consistent-readable")

    def view_read(self, view_name: str, key: FullKey) -> Mapping | None:
        raise CapabilityUnsupported(f"storage {self.name!r} is not view-joinable")

    def view_for(self, key: FullKey) -> str | None:
        """Name of a registered join view covering this key's table, if any.

        The read route asks this once per table and keeps the answer, so an
        adapter registers its views before it serves reads.
        """
        return None


class StorageRegistry:
    """Maps storage names to adapters, routes keyed operations, and keeps per-table read routes.

    ``register`` reads each adapter's ``capabilities`` once and keeps them for
    every later question. ``routes`` is the read route's memo, filled in by
    ``decoupling.read_dispatch``: (config, storage, namespace, table) to the
    route that table's reads take under that config. A route depends only on
    what was registered, so an entry never goes stale.
    """

    def __init__(self):
        self._adapters: dict[str, StorageAdapter] = {}
        self._capabilities: dict[str, AdapterCapabilities] = {}
        self.routes: dict[tuple, tuple] = {}

    def register(self, adapter: StorageAdapter) -> None:
        if adapter.name in self._adapters:
            raise ValueError(f"storage {adapter.name!r} already registered")
        self._adapters[adapter.name] = adapter
        self._capabilities[adapter.name] = adapter.capabilities

    def storages(self) -> Iterator[StorageAdapter]:
        return iter(self._adapters.values())

    def get_database(self, key: FullKey | str) -> StorageAdapter:
        name = key if isinstance(key, str) else key.storage
        try:
            return self._adapters[name]
        except KeyError:
            raise UnknownStorage(f"no storage registered under {name!r}") from None

    def capabilities(self, key: FullKey) -> AdapterCapabilities:
        """What ``key``'s storage declared at ``register``."""
        try:
            return self._capabilities[key.storage]
        except KeyError:
            raise UnknownStorage(f"no storage registered under {key.storage!r}") from None

    def read(self, key: FullKey) -> Mapping | None:
        return self.get_database(key).read(key)

    def scan(self, prefix: GroupKey) -> list[tuple[tuple, Mapping]]:
        return self.get_database(prefix.storage).scan(prefix)

    def atomic_write(self, writes: Sequence[ConditionalWrite]) -> int | None:
        if not writes:
            raise ValueError("empty batch")
        return self.get_database(writes[0].key).atomic_write(writes)

    def snapshot_read(self, keys: Sequence[FullKey]) -> list[Mapping | None]:
        if not keys:
            return []
        return self.get_database(keys[0]).snapshot_read(keys)
