"""Embedding transaction metadata in record columns, write-ahead-log style.

Every record written through the transaction manager carries its own log
entry: reserved ``_tx_*`` columns holding the writing transaction's id, the
record version, its state, timestamps, a deletion marker, and a JSON-encoded
before-image for rollback. Stores that keep metadata in a separate table use
the same column set there; this module only defines the column codec, not the
placement.
"""

from __future__ import annotations

import base64
import json
from typing import Mapping

from .model import (
    BeforeImage,
    TransactionMetadata,
    TxState,
    ValueTag,
    value_tag,
)

META_PREFIX = "_tx_"

COL_TX_ID = "_tx_id"
COL_VERSION = "_tx_version"
COL_STATE = "_tx_state"
COL_PREPARED_AT = "_tx_prepared_at"
COL_COMMITTED_AT = "_tx_committed_at"
COL_DELETED = "_tx_deleted"
COL_BEFORE = "_tx_before"


def is_metadata_column(name: str) -> bool:
    return name.startswith(META_PREFIX)


def check_application_columns(columns: Mapping[str, object]) -> None:
    """Reject application columns that collide with the reserved prefix."""
    for name in columns:
        if is_metadata_column(name):
            raise ValueError(f"column name {name!r} uses the reserved {META_PREFIX!r} prefix")


def encode_scalar(value) -> dict:
    tag = value_tag(value)
    if tag is ValueTag.BLOB:
        return {"t": tag.value, "v": base64.b64encode(value).decode("ascii")}
    return {"t": tag.value, "v": value}


def decode_scalar(obj: dict):
    tag = ValueTag(obj["t"])
    if tag is ValueTag.BLOB:
        return base64.b64decode(obj["v"])
    if tag is ValueTag.NULL:
        return None
    return obj["v"]


def _encode_columns(columns: Mapping[str, object]) -> dict:
    return {name: encode_scalar(value) for name, value in columns.items()}


def _decode_columns(obj: dict) -> dict:
    return {name: decode_scalar(value) for name, value in obj.items()}


def _encode_before(before: BeforeImage) -> str:
    meta = before.metadata
    return json.dumps(
        {
            "columns": _encode_columns(before.columns),
            "tx_id": meta.tx_id,
            "version": meta.version,
            "state": meta.tx_state.value,
            "prepared_at": meta.prepared_at,
            "committed_at": meta.committed_at,
        },
        sort_keys=True,
    )


def _decode_before(text: str) -> BeforeImage:
    obj = json.loads(text)
    return BeforeImage(
        columns=_decode_columns(obj["columns"]),
        metadata=TransactionMetadata(
            tx_id=obj["tx_id"],
            version=obj["version"],
            tx_state=TxState(obj["state"]),
            prepared_at=obj["prepared_at"],
            committed_at=obj["committed_at"],
        ),
    )


def metadata_columns(meta: TransactionMetadata) -> dict:
    """Render metadata as its reserved storage columns."""
    return {
        COL_TX_ID: meta.tx_id,
        COL_VERSION: meta.version,
        COL_STATE: meta.tx_state.value,
        COL_PREPARED_AT: meta.prepared_at,
        COL_COMMITTED_AT: meta.committed_at,
        COL_DELETED: meta.delete_marker,
        COL_BEFORE: _encode_before(meta.before_image) if meta.before_image else None,
    }


def parse_metadata(columns: Mapping[str, object]) -> TransactionMetadata:
    """Rebuild metadata from a record's reserved columns."""
    before_text = columns.get(COL_BEFORE)
    return TransactionMetadata(
        tx_id=columns[COL_TX_ID],
        version=columns[COL_VERSION],
        tx_state=TxState(columns[COL_STATE]),
        prepared_at=columns[COL_PREPARED_AT],
        committed_at=columns.get(COL_COMMITTED_AT),
        before_image=_decode_before(before_text) if before_text else None,
        delete_marker=bool(columns.get(COL_DELETED, False)),
    )


def split_columns(columns: Mapping[str, object]) -> tuple[dict, dict]:
    """Partition stored columns into (application columns, metadata columns)."""
    app: dict = {}
    meta: dict = {}
    for name, value in columns.items():
        (meta if name.startswith(META_PREFIX) else app)[name] = value
    return app, meta


def combined_columns(app_columns: Mapping[str, object], meta: TransactionMetadata) -> dict:
    """Full stored image of a record whose metadata rides in the same row."""
    check_application_columns(app_columns)
    out = dict(app_columns)
    out.update(metadata_columns(meta))
    return out
