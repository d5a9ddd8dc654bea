"""Partitioning a write set into atomically-writable groups.

Each write is bucketed under the prefix of its key dictated by the owning
storage's atomicity unit (``model.scope_of``), so every bucket can be handed
to its adapter as one atomic batch. A transaction whose whole write set lands
in a single bucket and that needs no read validation can commit in one phase:
a single batch of already-committed records, with no coordinator involvement.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Protocol, Sequence

from .model import AtomicityUnit, FullKey, GroupKey, derive_group_key, scope_of
from .storage import StorageRegistry


class KeyedWrite(Protocol):
    key: FullKey


def group_by_atomicity_unit(
    registry: StorageRegistry, writes: Iterable[KeyedWrite]
) -> dict[GroupKey, list]:
    """Bucket writes by their storage's atomic-write scope.

    The result is a partition of the input; iteration order is deterministic
    (group keys sorted by their text rendering). Writes are bucketed by scope
    tuple, so only one ``GroupKey`` is built per group.
    """
    buckets: dict[tuple, list] = {}
    for write in writes:
        unit = registry.get_atomicity_unit(write.key)
        buckets.setdefault(scope_of(write.key, unit), []).append(write)
    return _in_render_order({GroupKey(*scope): group for scope, group in buckets.items()})


def group_per_record(writes: Iterable[KeyedWrite]) -> dict[GroupKey, list]:
    """Baseline grouping: every write is its own single-record batch."""
    groups = {derive_group_key(w.key, AtomicityUnit.RECORD): [w] for w in writes}
    return _in_render_order(groups)


def _in_render_order(groups: dict[GroupKey, list]) -> dict[GroupKey, list]:
    """Groups sorted by key rendering; a lone group needs no rendering."""
    if len(groups) < 2:
        return groups
    return {k: groups[k] for k in sorted(groups, key=GroupKey.render)}


def one_phase_eligible(
    groups: Mapping[GroupKey, Sequence], serializable_mode: bool, validation_required: bool
) -> bool:
    """One-phase commit applies to exactly one group with no validation pass."""
    return len(groups) == 1 and not serializable_mode and not validation_required
