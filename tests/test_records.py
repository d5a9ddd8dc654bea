"""Round trips of the metadata column codec."""

import pytest
from hypothesis import given, strategies as st

from fedtx.model import BeforeImage, TransactionMetadata, TxState
from fedtx.records import (
    COL_BEFORE,
    check_application_columns,
    combined_columns,
    is_metadata_column,
    metadata_columns,
    parse_metadata,
    split_columns,
)
from conftest import SEVEN_METADATA_COLUMNS

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([-(2**63), 2**63 - 1, 2**63]),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.text(max_size=12),
    st.binary(max_size=12),
)

# Names that echo the before-image's own column names must not collide with them.
column_names = st.one_of(
    st.sampled_from(["version", "state", "col_x", "before", "tx_id", "prepared_at"]),
    st.text(min_size=1, max_size=6).filter(lambda s: not s.startswith("_tx_")),
)

app_columns = st.dictionaries(column_names, scalars, max_size=5)


def committed_meta(tx_id="t0", version=1):
    return TransactionMetadata(
        tx_id, version, TxState.COMMITTED, prepared_at=version, committed_at=version
    )


before_images = st.builds(
    BeforeImage,
    columns=app_columns,
    metadata=st.builds(
        committed_meta, tx_id=st.text(min_size=1, max_size=8), version=st.integers(1, 9)
    ),
)

metadata = st.builds(
    TransactionMetadata,
    tx_id=st.text(min_size=1, max_size=8),
    version=st.integers(1, 9),
    tx_state=st.just(TxState.PREPARED),
    prepared_at=st.integers(1, 99),
    committed_at=st.none(),
    before_image=st.one_of(st.none(), before_images),
    delete_marker=st.booleans(),
)


@given(metadata)
def test_metadata_round_trip(meta):
    assert parse_metadata(metadata_columns(meta)) == meta


@given(app_columns, metadata)
def test_split_inverts_combine(columns, meta):
    app, raw_meta = split_columns(combined_columns(columns, meta))
    assert app == dict(columns)
    assert parse_metadata(raw_meta) == meta


@given(app_columns, before_images)
def test_before_image_columns_all_land_on_the_metadata_side(columns, before):
    meta = TransactionMetadata("t1", 2, TxState.PREPARED, prepared_at=5, before_image=before)
    stored = combined_columns(columns, meta)
    app, raw_meta = split_columns(stored)
    before_columns = {name for name in stored if name.startswith(COL_BEFORE)}
    assert before_columns <= set(raw_meta)
    assert len(before_columns) == 5 + len(before.columns)
    assert parse_metadata(raw_meta).before_image == before


def test_before_image_without_application_columns_is_kept():
    before = BeforeImage({}, committed_meta())
    meta = TransactionMetadata("t1", 2, TxState.PREPARED, prepared_at=5, before_image=before)
    assert parse_metadata(metadata_columns(meta)).before_image == BeforeImage({}, committed_meta())


def test_committed_image_has_exactly_the_seven_metadata_columns():
    stored = combined_columns({"v": 1, "before": b"x"}, committed_meta(version=3))
    app, raw_meta = split_columns(stored)
    assert app == {"v": 1, "before": b"x"}
    assert set(raw_meta) == SEVEN_METADATA_COLUMNS
    assert raw_meta[COL_BEFORE] is None
    assert parse_metadata(raw_meta) == committed_meta(version=3)


def test_reserved_prefix_is_rejected():
    with pytest.raises(ValueError):
        check_application_columns({"_tx_id": "boom"})


def test_metadata_columns_are_recognized():
    for name in metadata_columns(committed_meta()):
        assert is_metadata_column(name)
    assert not is_metadata_column("payload")
