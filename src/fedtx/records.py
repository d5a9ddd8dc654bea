"""Embedding transaction metadata in record columns, write-ahead-log style.

Every record written through the transaction manager carries its own log
entry: reserved ``_tx_*`` columns holding the writing transaction's id, the
record version, its state, timestamps and a deletion marker. A PREPARED
record also carries its before-image for rollback, as plain columns beside
the rest: ``_tx_before`` (the prior tx id; None when there is no image),
``_tx_before_version``, ``_tx_before_state``, ``_tx_before_prepared_at``,
``_tx_before_committed_at``, and each prior application column ``c`` as
``_tx_before_col_<c>`` holding its raw value. Every name starts with
``_tx_``, so stores that keep metadata in a separate table put the whole set
there; this module only defines the column codec, not the placement.

A read decodes on demand, straight from the stored row it keeps
(``decoupling.ReadResult``): the in-doubt check looks up ``_tx_state`` alone
through ``_state``, ``parse_metadata`` looks up the ``_tx_*`` columns by name
only when the full metadata is wanted (a key the transaction writes), and
``application_columns`` copies out the rest. No read partitions the row
first. Only the write path, which routes the two halves of a row to
different tables, needs ``split_columns``.

The write side encodes each row once: ``combined_columns`` builds the stored
image as one fresh dict, and the commit path hands that dict to its
``ConditionalWrite`` without another copy.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .model import BeforeImage, TransactionMetadata, TxState, value_tag

META_PREFIX = "_tx_"

COL_TX_ID = "_tx_id"
COL_VERSION = "_tx_version"
COL_STATE = "_tx_state"
COL_PREPARED_AT = "_tx_prepared_at"
COL_COMMITTED_AT = "_tx_committed_at"
COL_DELETED = "_tx_deleted"
COL_BEFORE = "_tx_before"  # prior tx id, or None without a before-image
COL_BEFORE_VERSION = "_tx_before_version"
COL_BEFORE_STATE = "_tx_before_state"
COL_BEFORE_PREPARED_AT = "_tx_before_prepared_at"
COL_BEFORE_COMMITTED_AT = "_tx_before_committed_at"
BEFORE_COLUMN_PREFIX = "_tx_before_col_"

# The coordinator table's rows: a transaction's outcome and when it was
# first claimed, as plain columns with no ``_tx_*`` metadata.
COORD_STATE_COLUMN = "tx_state"
COORD_CREATED_COLUMN = "created_at"


def is_metadata_column(name: str) -> bool:
    return name.startswith(META_PREFIX)


def check_application_columns(columns: Mapping[str, object]) -> None:
    """Reject application columns that collide with the reserved prefix."""
    for name in columns:
        if is_metadata_column(name):
            raise ValueError(f"column name {name!r} uses the reserved {META_PREFIX!r} prefix")


def metadata_columns(meta: TransactionMetadata) -> dict:
    """Render metadata as its reserved storage columns.

    Without a before-image these are exactly the seven below, ``_tx_before``
    set to None; a before-image adds its ``_tx_before_*`` columns.
    """
    columns = {
        COL_TX_ID: meta.tx_id,
        COL_VERSION: meta.version,
        COL_STATE: meta.tx_state.value,
        COL_PREPARED_AT: meta.prepared_at,
        COL_COMMITTED_AT: meta.committed_at,
        COL_DELETED: meta.delete_marker,
        COL_BEFORE: None,
    }
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


_STATES = {state.value: state for state in TxState}


def _state(value) -> TxState:
    try:
        return _STATES[value]
    except (KeyError, TypeError):
        return TxState(value)  # raises the enum's ValueError


def _parse_before(prior_tx_id: str, columns: Mapping[str, object]) -> BeforeImage:
    start = len(BEFORE_COLUMN_PREFIX)
    return BeforeImage._sharing(
        {
            name[start:]: value
            for name, value in columns.items()
            if name.startswith(BEFORE_COLUMN_PREFIX)
        },
        TransactionMetadata._decoded(
            tx_id=prior_tx_id,
            version=columns[COL_BEFORE_VERSION],
            tx_state=_state(columns[COL_BEFORE_STATE]),
            prepared_at=columns[COL_BEFORE_PREPARED_AT],
            committed_at=columns[COL_BEFORE_COMMITTED_AT],
            before_image=None,
            delete_marker=False,
        ),
    )


def parse_metadata(columns: Mapping[str, object]) -> TransactionMetadata:
    """Decode metadata straight from a stored row; columns without the prefix are ignored."""
    prior_tx_id = columns.get(COL_BEFORE)
    return TransactionMetadata._decoded(
        tx_id=columns[COL_TX_ID],
        version=columns[COL_VERSION],
        tx_state=_state(columns[COL_STATE]),
        prepared_at=columns[COL_PREPARED_AT],
        committed_at=columns.get(COL_COMMITTED_AT),
        before_image=None if prior_tx_id is None else _parse_before(prior_tx_id, columns),
        delete_marker=bool(columns.get(COL_DELETED, False)),
    )


def application_columns(columns: Mapping[str, object]) -> dict:
    """A stored row's application columns (every name without the prefix), as a fresh dict."""
    return {name: value for name, value in columns.items() if not name.startswith(META_PREFIX)}


def split_columns(columns: Mapping[str, object]) -> tuple[dict, dict]:
    """Partition stored columns into (application columns, metadata columns)."""
    app: dict = {}
    meta: dict = {}
    for name, value in columns.items():
        (meta if name.startswith(META_PREFIX) else app)[name] = value
    return app, meta


def combined_columns(app_columns: dict | MappingProxyType, meta: TransactionMetadata) -> dict:
    """Full stored image of a record whose metadata rides in the same row."""
    check_application_columns(app_columns)
    out = app_columns.copy()  # dict() of a MappingProxyType misses the fast merge
    out.update(metadata_columns(meta))
    return out
