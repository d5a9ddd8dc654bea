"""Embedding transaction metadata in record columns, write-ahead-log style.

Every record written through the transaction manager carries its own log
entry: reserved ``_tx_*`` columns holding the writing transaction's id, the
record version and its state. A stored row keeps only the metadata it
asserts: every row carries those three columns, and only a PREPARED delete
adds the marker ``_tx_deleted``. A PREPARED record that replaces one also
carries its before-image for rollback, as plain columns beside the rest:
``_tx_before`` (the prior tx id), ``_tx_before_version``, and each prior
application column ``c`` as ``_tx_before_col_<c>`` holding its raw value.
A before-image is always of a settled row, so it needs no state. Every
reader takes an absent column as its default (None, False, no image) and
ignores the timestamps that older rows also carried, so a row in an older
format reads the same. Every name starts with ``_tx_``, so stores that keep
metadata in a separate table put the whole set there; this module only
defines the column codec, not the placement.

The stored row is the one form of a record's metadata; nothing decodes it
into objects. A read keeps the row the store handed out
(``decoupling.ReadResult``): the in-doubt check looks up ``_tx_state``
alone through ``_state``, ``parse_metadata`` checks the ``_tx_*`` columns of
a key the transaction writes and hands the row back to be read by name, and
``application_columns`` copies out the rest: a set lookup drops the three
``_tx_*`` names a settled row carries, and only other names meet the prefix
test.

``combined_columns`` is the one encoder of every stored image (prepared,
committed, rolled forward or restored), in one step from plain fields. It
writes the ``_tx_*`` columns into the row it is handed: a copy of the
application columns for a colocated record, or a fresh metadata row for a
record whose metadata lives in a sibling table. So each physical row is
built once, and nothing is merged only to be split again. A PREPARED row's
before-image is copied straight from the settled row it replaces; a restore
encodes that settled row again from the prepared row's ``_tx_before*``
columns (``prior_image``), so the PREPARED row alone is the undo log,
whichever client settles it.

The coordinator table's rows are the other stored form the protocol reads:
a transaction's write-once outcome, decoded by ``outcome_committed``.
"""

from __future__ import annotations

from typing import Mapping

from .model import TxState, TxStatus

META_PREFIX = "_tx_"

COL_TX_ID = "_tx_id"
COL_VERSION = "_tx_version"
COL_STATE = "_tx_state"
COL_DELETED = "_tx_deleted"  # a PREPARED delete only
COL_BEFORE = "_tx_before"  # prior tx id; absent (None in older rows) without a before-image
COL_BEFORE_VERSION = "_tx_before_version"
BEFORE_COLUMN_PREFIX = "_tx_before_col_"

# The coordinator table's rows: a transaction's outcome alone, as a plain
# column with no ``_tx_*`` metadata.
COORD_STATE_COLUMN = "tx_state"


def outcome_committed(row: Mapping[str, object]) -> bool:
    """A coordinator row's outcome: True if COMMITTED, False if ABORTED; else raises."""
    state = row[COORD_STATE_COLUMN]
    if state == TxStatus.COMMITTED._value_:  # ``.value`` is a slower property
        return True
    if state != TxStatus.ABORTED._value_:
        raise ValueError(f"coordinator row holds no outcome: {state!r}")
    return False


def check_application_columns(columns: Mapping[str, object]) -> None:
    """Reject application columns that collide with the reserved prefix: every ``put`` runs it."""
    for name in columns:
        if name.startswith(META_PREFIX):
            raise ValueError(f"column name {name!r} uses the reserved {META_PREFIX!r} prefix")


_STATES = {state.value: state for state in TxState}


def _state(value) -> TxState:
    try:
        return _STATES[value]
    except (KeyError, TypeError):
        return TxState(value)  # raises the enum's ValueError


def _check(tx_id, version) -> None:
    """One version's two invariants; the caller looks both fields up, so a missing one raises."""
    if not tx_id:
        raise ValueError("tx_id must be non-empty")
    if version < 1:
        raise ValueError("version starts at 1")


def parse_metadata(row: Mapping[str, object]) -> Mapping[str, object]:
    """Check a stored row's metadata, and its before-image's when ``_tx_before`` is set.

    An unknown state raises. Returns ``row`` itself, whose ``COL_*`` columns
    the caller then reads by name.
    """
    _check(row[COL_TX_ID], row[COL_VERSION])
    _state(row[COL_STATE])
    prior = row.get(COL_BEFORE)
    if prior is not None:
        _check(prior, row[COL_BEFORE_VERSION])
    return row


# The ``_tx_*`` columns a settled row carries; an older row's others meet the prefix test.
_SETTLED_COLUMNS = frozenset((COL_TX_ID, COL_VERSION, COL_STATE))


def application_columns(columns: Mapping[str, object]) -> dict:
    """A stored row's application columns (every name without the prefix), as a fresh dict."""
    return {
        name: value
        for name, value in columns.items()
        if name not in _SETTLED_COLUMNS and not name.startswith(META_PREFIX)
    }


def combined_columns(
    row: dict,
    tx_id: str,
    version: int,
    state: TxState,
    deleted: bool = False,
    before: Mapping[str, object] | None = None,
    before_app: Mapping[str, object] | None = None,
) -> dict:
    """Write a record's metadata columns into ``row``, a fresh dict, and return it.

    ``row`` is the record's colocated row (a copy of its application
    columns, which keep their place in front) or its empty metadata row. The
    metadata columns follow, none at its default: ``_tx_deleted`` only when
    True, ``_tx_before*`` only with a before-image. For a PREPARED row,
    ``before`` is the settled row this write replaces (or, with split
    metadata, the row holding its ``_tx_*`` columns) and ``before_app`` its
    application columns: its tx id and version become ``_tx_before`` and
    ``_tx_before_version``, and ``before_app`` the ``_tx_before_col_*``
    columns. A before-image never nests, so ``before``'s own ``_tx_before*``
    columns are left behind.

    No application column holds a ``_tx_*`` name: ``tx.put`` refuses one, and
    every other caller copies the application columns of a stored row. The
    store checks the values (``model.check_columns``) when it applies the write.
    """
    row[COL_TX_ID] = tx_id
    row[COL_VERSION] = version
    row[COL_STATE] = state._value_  # the enum's stored value; ``.value`` is a slower property
    if deleted:
        row[COL_DELETED] = True
    if before is None:
        return row
    row[COL_BEFORE] = before[COL_TX_ID]
    row[COL_BEFORE_VERSION] = before[COL_VERSION]
    for name, value in before_app.items():
        row[BEFORE_COLUMN_PREFIX + name] = value
    return row


def prior_image(meta: Mapping[str, object], split: bool) -> tuple[dict, dict] | None:
    """The settled image a PREPARED row (its ``_tx_*`` columns ``meta``) replaced, or None.

    It is the pair (application columns, the row holding the ``_tx_*``
    columns): one colocated row twice, or, when ``split``, the application
    row and a fresh metadata row.
    """
    prior = meta.get(COL_BEFORE)
    if prior is None:
        return None  # the prepared write created the record
    start = len(BEFORE_COLUMN_PREFIX)
    app = {name[start:]: v for name, v in meta.items() if name.startswith(BEFORE_COLUMN_PREFIX)}
    row = combined_columns({} if split else app, prior, meta[COL_BEFORE_VERSION], TxState.COMMITTED)
    return app, row
