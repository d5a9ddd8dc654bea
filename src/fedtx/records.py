"""Embedding transaction metadata in record columns, write-ahead-log style.

Every record written through the transaction manager carries its own log
entry: reserved ``_tx_*`` columns holding the writing transaction's id, the
record version, its state and timestamps. A stored row keeps only the
metadata it asserts: a settled row carries those five columns, a PREPARED row
lacks ``_tx_committed_at``, and only a PREPARED delete carries the marker
``_tx_deleted``. A PREPARED record that replaces one also carries its
before-image for rollback, as plain columns beside the rest: ``_tx_before``
(the prior tx id), ``_tx_before_version``, ``_tx_before_state``,
``_tx_before_prepared_at``, ``_tx_before_committed_at``, and each prior
application column ``c`` as ``_tx_before_col_<c>`` holding its raw value.
Every reader takes an absent column as its default (None, False, no image),
so a row that spells the defaults out reads the same. Every name starts with
``_tx_``, so stores that keep metadata in a separate table put the whole set
there; this module only defines the column codec, not the placement.

The stored row is the one form of a record's metadata; nothing decodes it
into objects. A read keeps the row the store handed out
(``decoupling.ReadResult``): the in-doubt check looks up ``_tx_state``
alone through ``_state``, ``parse_metadata`` checks the ``_tx_*`` columns of
a key the transaction writes and hands the row back to be read by name, and
``application_columns`` copies out the rest: a set lookup drops the
``_tx_*`` names a settled row may carry, those an older row spelled out at
their defaults too, and only other names meet the prefix test.

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
a transaction's write-once outcome, decoded by ``outcome_committed_at``.
"""

from __future__ import annotations

from typing import Mapping

from .model import TxState, TxStatus

META_PREFIX = "_tx_"

COL_TX_ID = "_tx_id"
COL_VERSION = "_tx_version"
COL_STATE = "_tx_state"
COL_PREPARED_AT = "_tx_prepared_at"
COL_COMMITTED_AT = "_tx_committed_at"
COL_DELETED = "_tx_deleted"
COL_BEFORE = "_tx_before"  # prior tx id; absent (None in older rows) without a before-image
COL_BEFORE_VERSION = "_tx_before_version"
COL_BEFORE_STATE = "_tx_before_state"
COL_BEFORE_PREPARED_AT = "_tx_before_prepared_at"
COL_BEFORE_COMMITTED_AT = "_tx_before_committed_at"
BEFORE_COLUMN_PREFIX = "_tx_before_col_"

# The coordinator table's rows: a transaction's outcome and when it was
# first claimed, as plain columns with no ``_tx_*`` metadata.
COORD_STATE_COLUMN = "tx_state"
COORD_CREATED_COLUMN = "created_at"


def outcome_committed_at(row: Mapping[str, object]) -> int | None:
    """A coordinator row's outcome: ``created_at`` if COMMITTED, None if ABORTED; else raises."""
    state = row[COORD_STATE_COLUMN]
    if state == TxStatus.COMMITTED._value_:  # ``.value`` is a slower property
        return row[COORD_CREATED_COLUMN]
    if state != TxStatus.ABORTED._value_:
        raise ValueError(f"coordinator row holds no outcome: {state!r}")
    return None


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


def _check(tx_id, version, state, prepared_at, committed_at) -> None:
    """One version's three invariants; an unknown state raises too.

    The caller looks up every field, ``prepared_at`` too, so a missing one raises KeyError.
    """
    if not tx_id:
        raise ValueError("tx_id must be non-empty")
    if version < 1:
        raise ValueError("version starts at 1")
    if _state(state) is TxState.COMMITTED and committed_at is None:
        raise ValueError("a COMMITTED record must carry committed_at")


def parse_metadata(row: Mapping[str, object]) -> Mapping[str, object]:
    """Check a stored row's metadata, and its before-image's when ``_tx_before`` is set.

    Returns ``row`` itself, whose ``COL_*`` columns the caller then reads by name.
    """
    committed_at = row.get(COL_COMMITTED_AT)
    _check(row[COL_TX_ID], row[COL_VERSION], row[COL_STATE], row[COL_PREPARED_AT], committed_at)
    prior = row.get(COL_BEFORE)
    if prior is not None:
        version, state = row[COL_BEFORE_VERSION], row[COL_BEFORE_STATE]
        _check(prior, version, state, row[COL_BEFORE_PREPARED_AT], row[COL_BEFORE_COMMITTED_AT])
    return row


# The ``_tx_*`` columns a settled row may carry, the two that older rows
# held at their defaults included (see the module docstring).
_SETTLED_COLUMNS = frozenset(
    (COL_TX_ID, COL_VERSION, COL_STATE, COL_PREPARED_AT, COL_COMMITTED_AT, COL_DELETED, COL_BEFORE)
)


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
    prepared_at: int,
    committed_at: int | None = None,
    deleted: bool = False,
    before: Mapping[str, object] | None = None,
    before_app: Mapping[str, object] | None = None,
) -> dict:
    """Write a record's metadata columns into ``row``, a fresh dict, and return it.

    ``row`` is the record's colocated row (a copy of its application
    columns, which keep their place in front) or its empty metadata row. The
    metadata columns follow, none at its default: ``_tx_committed_at`` only
    when set, ``_tx_deleted`` only when True, ``_tx_before*`` only with a
    before-image. For a PREPARED row, ``before`` is the settled row this
    write replaces (or, with split metadata, the row holding its ``_tx_*``
    columns) and ``before_app`` its application columns: its tx id, version,
    state and timestamps become the ``_tx_before*`` columns, and
    ``before_app`` the ``_tx_before_col_*`` ones.
    A before-image never nests, so ``before``'s own ``_tx_before*`` columns
    are left behind.

    No application column holds a ``_tx_*`` name: ``tx.put`` refuses one, and
    every other caller copies the application columns of a stored row. The
    store checks the values (``model.check_columns``) when it applies the write.
    """
    row[COL_TX_ID] = tx_id
    row[COL_VERSION] = version
    row[COL_STATE] = state._value_  # the enum's stored value; ``.value`` is a slower property
    row[COL_PREPARED_AT] = prepared_at
    if committed_at is not None:
        row[COL_COMMITTED_AT] = committed_at
    if deleted:
        row[COL_DELETED] = True
    if before is None:
        return row
    row[COL_BEFORE] = before[COL_TX_ID]
    row[COL_BEFORE_VERSION] = before[COL_VERSION]
    row[COL_BEFORE_STATE] = before[COL_STATE]
    row[COL_BEFORE_PREPARED_AT] = before[COL_PREPARED_AT]
    row[COL_BEFORE_COMMITTED_AT] = before.get(COL_COMMITTED_AT)
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
    row = combined_columns(
        {} if split else app,
        prior,
        meta[COL_BEFORE_VERSION],
        _state(meta[COL_BEFORE_STATE]),
        meta[COL_BEFORE_PREPARED_AT],
        meta[COL_BEFORE_COMMITTED_AT],
    )
    return app, row
