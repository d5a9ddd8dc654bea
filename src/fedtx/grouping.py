"""Partitioning a write set into atomically-writable groups.

A write group is an atomicity-unit scope: each write is bucketed under the
prefix of its key that its storage's atomicity unit keeps (``model.scope_of``),
so every group fits one atomic batch. The unit is the one the storage declared
at ``StorageRegistry.register``, and nothing else decides the grouping: a
store that declares ``AtomicityUnit.RECORD`` is the pre-AU baseline. A
transaction whose whole write set lands in a single group and that needs no
read validation can commit in one phase: a single batch of already-committed
records, with no coordinator involvement.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import render_key, scope_of
from .storage import StorageRegistry


def group_by_atomicity_unit(registry: StorageRegistry, writes: Iterable) -> list[list]:
    """Bucket writes (anything with a ``key``) by their storage's atomic-write scope.

    The result is a partition of the input, ordered by the text rendering of
    each group's scope; a lone group needs no rendering.
    """
    buckets: dict[tuple, list] = {}
    for write in writes:
        key = write.key
        unit = registry.capabilities(key).atomicity_unit
        buckets.setdefault(scope_of(key, unit), []).append(write)
    if len(buckets) < 2:
        return list(buckets.values())
    return [buckets[scope] for scope in sorted(buckets, key=lambda scope: render_key(*scope))]


def one_phase_eligible(
    groups: Sequence[Sequence], serializable_mode: bool, validation_required: bool
) -> bool:
    """One-phase commit applies to exactly one group with no validation pass."""
    return len(groups) == 1 and not serializable_mode and not validation_required
