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
from .model import AtomicityUnit, FullKey, GroupKey, Record


class WriteKind(enum.Enum):
    PUT = "PUT"
    DELETE = "DELETE"


class ConditionKind(enum.Enum):
    UNCONDITIONAL = "UNCONDITIONAL"
    IF_NOT_EXISTS = "IF_NOT_EXISTS"
    IF_TX_ID_EQUALS = "IF_TX_ID_EQUALS"
    IF_COLUMNS_EQUAL = "IF_COLUMNS_EQUAL"


@dataclass(frozen=True)
class WriteCondition:
    """When a write may apply, checked against the stored record at apply time.

    ``IF_COLUMNS_EQUAL`` holds when the record exists and its columns are
    exactly ``expected_columns``: the same names, and each pair of values
    equal within one ``model.ValueTag`` (so ``True`` does not equal ``1``).
    """

    kind: ConditionKind
    expected_tx_id: str | None = None
    expected_columns: Mapping[str, object] | None = None

    def __post_init__(self):
        columns = self.expected_columns
        if self.kind is ConditionKind.IF_TX_ID_EQUALS:
            if not self.expected_tx_id:
                raise ValueError("IF_TX_ID_EQUALS requires a non-empty expected tx id")
            if columns is None:
                return  # the commit path's condition, checked in the fewest steps
        elif self.expected_tx_id is not None:
            raise ValueError("expected_tx_id only applies to IF_TX_ID_EQUALS")
        if (self.kind is ConditionKind.IF_COLUMNS_EQUAL) != (columns is not None):
            raise ValueError("expected_columns applies to, and is required by, IF_COLUMNS_EQUAL")


UNCONDITIONAL = WriteCondition(ConditionKind.UNCONDITIONAL)
IF_NOT_EXISTS = WriteCondition(ConditionKind.IF_NOT_EXISTS)


def if_tx_id_equals(tx_id: str) -> WriteCondition:
    return WriteCondition(ConditionKind.IF_TX_ID_EQUALS, tx_id)


def if_columns_equal(columns: Mapping[str, object]) -> WriteCondition:
    """Apply only while the record holds exactly ``columns``, which must not change afterwards."""
    return WriteCondition(ConditionKind.IF_COLUMNS_EQUAL, expected_columns=columns)


@dataclass(frozen=True)
class ConditionalWrite:
    """One write in an atomic batch: full post-image plus an apply condition.

    The constructor copies ``columns``, so the caller may go on changing the
    mapping it passed. ``_owning`` skips that copy; its precondition is a
    fresh dict that nobody else holds, which is how the commit path builds
    each written row.
    """

    key: FullKey
    columns: Mapping[str, object]
    condition: WriteCondition = UNCONDITIONAL
    kind: WriteKind = WriteKind.PUT

    def __post_init__(self):
        object.__setattr__(self, "columns", MappingProxyType(dict(self.columns)))

    @classmethod
    def _owning(
        cls,
        key: FullKey,
        columns: dict,
        condition: WriteCondition = UNCONDITIONAL,
        kind: WriteKind = WriteKind.PUT,
    ) -> "ConditionalWrite":
        """A write that takes over ``columns``, a fresh dict nobody else holds, without a copy."""
        write = object.__new__(cls)
        write.__dict__.update(
            key=key, columns=MappingProxyType(columns), condition=condition, kind=kind
        )
        return write


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

    A ``Record`` a read returns is a snapshot: its columns never change
    afterwards, whatever is written later. Callers rely on that to keep the
    record and decode it later (``decoupling.ReadResult`` does).
    """

    @property
    @abstractmethod
    def name(self) -> str: ...

    @property
    @abstractmethod
    def capabilities(self) -> AdapterCapabilities: ...

    @abstractmethod
    def read(self, key: FullKey) -> Record | None: ...

    @abstractmethod
    def scan(self, prefix: GroupKey) -> list[Record]:
        """All records of one partition, ordered by clustering key."""

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

    def snapshot_read(self, keys: Sequence[FullKey]) -> list[Record | None]:
        """Read several records of one scope at a single consistent point."""
        raise CapabilityUnsupported(f"storage {self.name!r} is not consistent-readable")

    def view_read(self, view_name: str, key: FullKey) -> Record | None:
        raise CapabilityUnsupported(f"storage {self.name!r} is not view-joinable")

    def view_for(self, key: FullKey) -> str | None:
        """Name of a registered join view covering this key's table, if any."""
        return None


class StorageRegistry:
    """Maps storage names to adapters and routes keyed operations."""

    def __init__(self):
        self._adapters: dict[str, StorageAdapter] = {}

    def register(self, adapter: StorageAdapter) -> None:
        if adapter.name in self._adapters:
            raise ValueError(f"storage {adapter.name!r} already registered")
        self._adapters[adapter.name] = adapter

    def storages(self) -> Iterator[StorageAdapter]:
        return iter(self._adapters.values())

    def get_database(self, key: FullKey | str) -> StorageAdapter:
        name = key if isinstance(key, str) else key.storage
        try:
            return self._adapters[name]
        except KeyError:
            raise UnknownStorage(f"no storage registered under {name!r}") from None

    def get_atomicity_unit(self, key: FullKey) -> AtomicityUnit:
        return self.get_database(key).capabilities.atomicity_unit

    def read(self, key: FullKey) -> Record | None:
        return self.get_database(key).read(key)

    def scan(self, prefix: GroupKey) -> list[Record]:
        return self.get_database(prefix.storage).scan(prefix)

    def atomic_write(self, writes: Sequence[ConditionalWrite]) -> int | None:
        if not writes:
            raise ValueError("empty batch")
        return self.get_database(writes[0].key).atomic_write(writes)

    def snapshot_read(self, keys: Sequence[FullKey]) -> list[Record | None]:
        if not keys:
            return []
        return self.get_database(keys[0]).snapshot_read(keys)
