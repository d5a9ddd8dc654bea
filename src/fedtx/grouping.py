"""Partitioning a write set into atomically-writable groups.

A write group is an atomicity-unit scope: each write is bucketed under the
prefix of its key that the owning storage's atomicity unit keeps
(``model.scope_of``), so every group can be handed to its adapter as one
atomic batch. A transaction whose whole write set lands in a single group and
that needs no read validation can commit in one phase: a single batch of
already-committed records, with no coordinator involvement.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import AtomicityUnit, render_key, scope_of
from .storage import StorageRegistry


def group_by_atomicity_unit(registry: StorageRegistry, writes: Iterable) -> list[list]:
    """Bucket writes (anything with a ``key``) by their storage's atomic-write scope.

    The result is a partition of the input, ordered by the text rendering of
    each group's scope.
    """
    units: dict[str, AtomicityUnit] = {}  # a storage's unit, asked once per call
    buckets: dict[tuple, list] = {}
    for write in writes:
        key = write.key
        unit = units.get(key.storage)
        if unit is None:
            unit = units[key.storage] = registry.get_atomicity_unit(key)
        buckets.setdefault(scope_of(key, unit), []).append(write)
    return _in_render_order(buckets)


def group_per_record(writes: Iterable) -> list[list]:
    """Baseline grouping: every write is its own single-record batch."""
    return _in_render_order({scope_of(w.key, AtomicityUnit.RECORD): [w] for w in writes})


def _in_render_order(buckets: dict[tuple, list]) -> list[list]:
    """Groups sorted by their scope's rendering; a lone group needs no rendering."""
    if len(buckets) < 2:
        return list(buckets.values())
    return [buckets[scope] for scope in sorted(buckets, key=lambda scope: render_key(*scope))]


def one_phase_eligible(
    groups: Sequence[Sequence], serializable_mode: bool, validation_required: bool
) -> bool:
    """One-phase commit applies to exactly one group with no validation pass."""
    return len(groups) == 1 and not serializable_mode and not validation_required
