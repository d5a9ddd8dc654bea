"""Partitioning a write set into atomically-writable groups.

A write group is an atomicity-unit scope: each write is bucketed under the
prefix of its key that its storage's atomicity unit keeps (``model.scope_of``),
so every group fits one atomic batch. The unit is the one the storage declared
at ``StorageRegistry.register``, and nothing else decides the grouping: a
store that declares ``AtomicityUnit.RECORD`` is the pre-AU baseline. Whether a
lone group commits in one phase is the commit pipeline's decision
(``TransactionManager._commit_pipeline``).
"""

from __future__ import annotations

from typing import Iterable

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
