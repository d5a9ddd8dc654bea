"""Round trips of the metadata column codec, and its row check against the object oracle."""

from dataclasses import replace
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from fedtx.decoupling import DecoupleConfig, ReadPath, ReadResult, SplitWrite, read_dispatch
from fedtx.model import FullKey, TxState, value_tag
from fedtx.records import (
    BEFORE_COLUMN_PREFIX,
    COL_BEFORE,
    COL_BEFORE_VERSION,
    COL_DELETED,
    COL_STATE,
    COL_TX_ID,
    COL_VERSION,
    COORD_STATE_COLUMN,
    application_columns,
    META_PREFIX,
    check_application_columns,
    outcome_committed,
    parse_metadata,
    prior_image,
)
from fedtx.storage import IF_NOT_EXISTS, ConditionalWrite, WriteKind, if_tx_id_equals
from fedtx.transaction import _LogicalWrite, _settle_write
from conftest import (
    METADATA_MODES,
    SETTLED_METADATA_COLUMNS,
    BeforeImage,
    TransactionMetadata,
    build_env,
    decode_metadata,
    k,
    mode_env_args,
    reference_columns,
    reference_metadata_columns,
    split_columns,
    stored_row,
)

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
    return TransactionMetadata(tx_id, version, TxState.COMMITTED)


before_images = st.builds(
    BeforeImage,
    columns=app_columns,
    tx_id=st.text(min_size=1, max_size=8),
    version=st.integers(1, 9),
)

metadata = st.builds(
    TransactionMetadata,
    tx_id=st.text(min_size=1, max_size=8),
    version=st.integers(1, 9),
    tx_state=st.just(TxState.PREPARED),
    before_image=st.one_of(st.none(), before_images),
    delete_marker=st.booleans(),
)


@given(metadata)
def test_metadata_round_trip(meta):
    row = stored_row({}, meta)
    assert parse_metadata(row) is row
    assert decode_metadata(row) == meta


@given(app_columns, metadata)
def test_split_inverts_combine(columns, meta):
    app, raw_meta = split_columns(stored_row(columns, meta))
    assert app == dict(columns)
    assert decode_metadata(parse_metadata(raw_meta)) == meta


@given(app_columns, before_images)
def test_before_image_columns_all_land_on_the_metadata_side(columns, before):
    meta = TransactionMetadata("t1", 2, TxState.PREPARED, before_image=before)
    stored = stored_row(columns, meta)
    app, raw_meta = split_columns(stored)
    before_columns = {name for name in stored if name.startswith(COL_BEFORE)}
    assert before_columns <= set(raw_meta)
    oracle = reference_metadata_columns(meta)
    assert before_columns == {name for name in oracle if name.startswith(COL_BEFORE)}
    assert decode_metadata(parse_metadata(raw_meta)).before_image == before


def test_before_image_without_application_columns_is_kept():
    before = BeforeImage({}, "t0", 1)
    meta = TransactionMetadata("t1", 2, TxState.PREPARED, before_image=before)
    row = stored_row({}, meta)
    assert decode_metadata(parse_metadata(row)).before_image == BeforeImage({}, "t0", 1)


def test_a_committed_image_has_exactly_the_settled_columns():
    stored = stored_row({"v": 1, "before": b"x"}, committed_meta(version=3))
    app, raw_meta = split_columns(stored)
    assert app == {"v": 1, "before": b"x"}
    assert list(raw_meta) == list(SETTLED_METADATA_COLUMNS)
    assert list(raw_meta) == list(reference_metadata_columns(committed_meta(version=3)))
    assert decode_metadata(parse_metadata(raw_meta)) == committed_meta(version=3)


def test_a_prepared_image_orders_its_metadata_columns():
    before = BeforeImage({"v": 0, "w": 1}, "t0", 1)
    meta = TransactionMetadata("t1", 2, TxState.PREPARED, before, delete_marker=True)
    expected = [
        *SETTLED_METADATA_COLUMNS,
        "_tx_deleted",
        "_tx_before",
        "_tx_before_version",
        "_tx_before_col_v",
        "_tx_before_col_w",
    ]
    assert list(reference_metadata_columns(meta)) == expected
    assert list(split_columns(stored_row({"v": 1}, meta))[1]) == expected


def test_reserved_prefix_is_rejected():
    with pytest.raises(ValueError):
        check_application_columns({"_tx_id": "boom"})


def test_metadata_columns_are_recognized():
    for name in stored_row({}, committed_meta()):
        with pytest.raises(ValueError):
            check_application_columns({name: 1})
    check_application_columns({"payload": 1})


stored_metadata = st.one_of(
    metadata,
    st.builds(committed_meta, tx_id=st.text(min_size=1, max_size=8), version=st.integers(1, 9)),
)


@given(app_columns, stored_metadata)
def test_a_stored_row_decodes_to_its_metadata_and_application_columns(columns, meta):
    stored = stored_row(columns, meta)
    for row in (stored, MappingProxyType(stored)):  # a read hands out the stored dict read-only
        assert decode_metadata(parse_metadata(row)) == meta
        app = application_columns(row)
        assert app == split_columns(row)[0] == dict(columns)
        assert type(app) is dict and app is not row


@given(app_columns, before_images)
def test_a_prepared_row_decodes_its_before_image(columns, before):
    meta = TransactionMetadata("t1", 2, TxState.PREPARED, before_image=before)
    row = stored_row(columns, meta)
    assert decode_metadata(parse_metadata(row)).before_image == before
    assert application_columns(row) == split_columns(row)[0] == dict(columns)


# Names that the application-column filter must tell apart: application names
# close to the prefix, the ``_tx_*`` names of a settled row, the others that
# a prepared or an older row carries, before-image names and an unknown
# ``_tx_*`` name.
mixed_names = st.one_of(
    st.sampled_from(
        [
            "_tx",
            "_t",
            "tx_",
            "_TX_",
            "_TX_id",
            "v",
            *SETTLED_METADATA_COLUMNS,
            "_tx_prepared_at",
            "_tx_committed_at",
            "_tx_deleted",
            "_tx_before",
            "_tx_before_version",
            "_tx_before_state",
            "_tx_before_prepared_at",
            "_tx_before_committed_at",
            "_tx_before_col_v",
            "_tx_before_col__tx",
            "_tx_zz",
        ]
    ),
    st.text(max_size=6),
)


@given(st.lists(st.tuples(mixed_names, scalars), max_size=24))
def test_application_columns_is_the_prefix_filter_in_row_order(pairs):
    row = dict(pairs)
    expected = [(name, value) for name, value in row.items() if not name.startswith("_tx_")]
    for stored in (row, MappingProxyType(row)):
        assert list(application_columns(stored).items()) == expected


MISSING = object()  # a fault that drops the column


def changed(row, change):
    """``row`` with each column of ``change`` set to its value, or deleted for MISSING."""
    for name, value in change.items():
        if value is MISSING:
            del row[name]
        else:
            row[name] = value
    return row


def prepared_row_with_before_image():
    meta = TransactionMetadata("t1", 2, TxState.PREPARED, BeforeImage({"v": 0}, "t0", 1))
    return stored_row({"v": 1}, meta)


@pytest.mark.parametrize("column", [COL_STATE])  # a before-image carries no state
@pytest.mark.parametrize("value", ["ABORTED", "prepared", "", 0, None])
def test_an_unknown_state_raises(column, value):
    row = prepared_row_with_before_image()
    row[column] = value
    with pytest.raises(ValueError):
        parse_metadata(row)


@pytest.mark.parametrize(
    "change",
    [
        {COL_VERSION: 0},
        {COL_TX_ID: ""},
        {COL_BEFORE_VERSION: 0},
        {COL_BEFORE: ""},
    ],
    ids=[
        "version-0",
        "empty-tx-id",
        "before-version-0",
        "before-empty-tx-id",
    ],
)
def test_a_row_breaking_a_metadata_invariant_raises(change):
    row = prepared_row_with_before_image()
    parse_metadata(row)  # valid as it stands
    with pytest.raises(ValueError):
        parse_metadata(changed(row, change))


@pytest.mark.parametrize(
    "change",
    [
        {COL_STATE: "COMMITTED"},
        {"_tx_prepared_at": 5, "_tx_committed_at": None},
        {"_tx_prepared_at": "any value"},
    ],
    ids=["settled", "with-older-timestamps", "older-timestamp-unchecked"],
)
def test_a_row_keeping_every_metadata_invariant_is_accepted(change):
    row = changed(prepared_row_with_before_image(), change)
    assert parse_metadata(row) is row
    before = BeforeImage({"v": 0}, "t0", 1)
    assert decode_metadata(row) == TransactionMetadata("t1", 2, TxState(row[COL_STATE]), before)


# -- the encoder against the object oracle ------------------------------------------

KEY = FullKey("s1", "app", "t", (1,))


@pytest.mark.parametrize(
    "state, expected", [("COMMITTED", True), ("ABORTED", False)], ids=["committed", "aborted"]
)
def test_a_coordinator_row_decodes_to_its_outcome(state, expected):
    assert outcome_committed({COORD_STATE_COLUMN: state}) is expected


@pytest.mark.parametrize("state", ["ACTIVE", "PREPARED", "committed", None, 1])
def test_a_coordinator_row_without_an_outcome_raises(state):
    with pytest.raises(ValueError, match="no outcome"):
        outcome_committed({COORD_STATE_COLUMN: state})


def tagged(columns):
    """A row column for column, in order, each value with its tag: True and 1 differ."""
    return [(name, value_tag(value), value) for name, value in columns.items()]


def observed_row(prior, layout):
    """The ReadResult a read of the settled ``prior`` (app columns, metadata) returns."""
    if prior is None:
        path = ReadPath.COLOCATED if layout == "colocated" else ReadPath.SPLIT_READS
        return ReadResult(None, None, path)
    app, meta = prior
    if layout == "colocated":
        row = MappingProxyType(reference_columns(app, meta))
        return ReadResult(row, row, ReadPath.COLOCATED)
    return ReadResult(
        MappingProxyType(dict(app)),
        MappingProxyType(reference_metadata_columns(meta)),
        ReadPath.SPLIT_READS,
    )


settled = st.builds(
    TransactionMetadata,
    tx_id=st.text(min_size=1, max_size=8),
    version=st.integers(1, 9),
    tx_state=st.just(TxState.COMMITTED),
    delete_marker=st.just(False),
)

# A settled row carries no before-image; one left by a foreign writer is dropped.
settled_with_stray_image = st.one_of(
    settled,
    st.builds(lambda meta, image: replace(meta, before_image=image), settled, before_images),
)


@given(
    columns=st.one_of(st.none(), app_columns),  # None deletes the key
    prior=st.one_of(st.none(), st.tuples(app_columns, settled_with_stray_image)),
    layout=st.sampled_from(["colocated", "split"]),
    tx_id=st.text(min_size=1, max_size=8),
)
def test_every_image_a_write_stores_is_the_object_oracles(columns, prior, layout, tx_id):
    obs = observed_row(prior, layout)
    if prior is None:
        version, condition, image = 1, IF_NOT_EXISTS, None
        prior_meta = None
    else:
        prior_app, prior_meta = prior
        version, condition = prior_meta.version + 1, if_tx_id_equals(prior_meta.tx_id)
        image = BeforeImage(prior_app, prior_meta.tx_id, prior_meta.version)
    deleted = columns is None
    split = layout == "split"
    logical = _LogicalWrite(KEY, columns, obs, version, condition)  # its layout is obs.split

    prepared = logical.prepared_write(tx_id)
    meta = TransactionMetadata(tx_id, version, TxState.PREPARED, image, delete_marker=deleted)
    assert physical_rows(prepared, split) == oracle_rows(columns or {}, meta, split)
    assert (prepared.kind, prepared.condition) == (WriteKind.PUT, condition)

    # The owner settles from the row it issued; a recovery, from its read of
    # that row: the whole row on one-row routes, the two halves on the others.
    if split:
        app_half, meta_half = MappingProxyType(prepared.app_row), MappingProxyType(prepared.columns)
        whole = MappingProxyType(prepared.app_row | prepared.columns)
        reads = [ReadResult(whole, whole, ReadPath.VIEW)] + [
            ReadResult(app_half, meta_half, path)
            for path in (ReadPath.SNAPSHOT, ReadPath.SPLIT_READS)
        ]
    else:
        whole = MappingProxyType(dict(prepared.columns))
        reads = [ReadResult(whole, whole, ReadPath.COLOCATED)]
    sources = [(prepared.columns, columns)] + [(obs.meta, obs.app_columns) for obs in reads]
    for row, app in sources:
        committed = _settle_write(KEY, row, app, True, condition, split)
        assert committed.condition == condition
        if deleted:
            assert committed.kind is WriteKind.DELETE
            assert physical_rows(committed, split) == [[]] * (1 + split)
        else:
            meta = TransactionMetadata(tx_id, version, TxState.COMMITTED)
            assert committed.kind is WriteKind.PUT
            assert physical_rows(committed, split) == oracle_rows(columns, meta, split)

        restore = _settle_write(KEY, row, app, False, condition, split)
        assert restore.condition == condition
        if image is None:
            assert restore.kind is WriteKind.DELETE
            assert physical_rows(restore, split) == [[]] * (1 + split)
        else:
            assert restore.kind is WriteKind.PUT
            expected = oracle_rows(image.columns, image.metadata, split)
            assert physical_rows(restore, split) == expected


def physical_rows(write, split):
    """A record write's rows, tagged: its one row, or its application row and metadata row."""
    if split:
        assert type(write) is SplitWrite
        return [tagged(write.app_row), tagged(write.columns)]
    assert type(write) is ConditionalWrite
    return [tagged(write.columns)]


def oracle_rows(columns, meta, split):
    """The oracle's image of ``columns`` under ``meta``, tagged, cut in two when ``split``."""
    row = reference_columns(columns, meta)
    return [tagged(half) for half in split_columns(row)] if split else [tagged(row)]


# -- the row check against the oracle decode ----------------------------------------

# Values that may break a metadata column: wrong types, unknown states, an
# empty id, versions below 1, and valid ones that change its meaning.
fault_values = st.sampled_from(
    [None, "", "x", b"x", 0, 2, True, False, "PREPARED", "COMMITTED", "ABORTED"]
)

@settings(max_examples=200)
@given(
    columns=app_columns,
    meta=stored_metadata,  # settled, or PREPARED with or without a before-image and delete marker
    mode=st.sampled_from(list(METADATA_MODES)),
    fault=st.one_of(
        st.none(),
        st.tuples(st.integers(0, 99), st.just(MISSING)),
        st.tuples(st.integers(0, 99), fault_values),
    ),
)
def test_the_row_check_accepts_exactly_what_the_oracle_decodes(columns, meta, mode, fault):
    """``parse_metadata`` raises where the oracle decode raises, and ``prior_image`` re-encodes it.

    A colocated or view read checks the whole stored row, a split or
    snapshot read only the ``_tx_*`` half; each row may carry one fault.
    """
    row = stored_row(columns, meta)
    if fault is not None:
        index, value = fault
        names = sorted(name for name in row if name.startswith(META_PREFIX))
        name = names[index % len(names)]
        if value is MISSING:
            del row[name]
        else:
            row[name] = value
    meta_half = split_columns(row)[1]
    decoupled = METADATA_MODES[mode][0]
    row = MappingProxyType(meta_half if decoupled else row)
    try:
        expected = decode_metadata(row)
    except Exception as error:  # noqa: BLE001 - the same error must come from the check
        with pytest.raises(type(error)):
            parse_metadata(row)
        return
    assert parse_metadata(row) is row
    before = expected.before_image
    if before is None:
        assert prior_image(row, decoupled) is None
        return
    prior_row = reference_columns(before.columns, before.metadata)
    app, image = prior_image(row, decoupled)
    if decoupled:
        assert [tagged(app), tagged(image)] == [tagged(half) for half in split_columns(prior_row)]
    else:
        assert app is image and tagged(image) == tagged(prior_row)


# -- rows in the older format ---------------------------------------------------------


# The ``_tx_*`` columns an older row carried and a row in the current format leaves out.
OLDER_ONLY_COLUMNS = {
    "_tx_prepared_at",
    "_tx_committed_at",
    COL_DELETED,
    COL_BEFORE,
    "_tx_before_state",
    "_tx_before_prepared_at",
    "_tx_before_committed_at",
}


def older_format(row, at):
    """``row`` as the encoder wrote it before it left out default-valued columns and timestamps.

    Every row then carried ``_tx_prepared_at``, ``_tx_committed_at`` (None
    while PREPARED), ``_tx_deleted`` (False but on a prepared delete) and
    ``_tx_before`` (None without a before-image), in that order after
    ``_tx_state``. A before-image then also carried its record's state and
    both timestamps after ``_tx_before_version``. ``at`` is every timestamp.
    """
    out = {name: v for name, v in row.items() if not name.startswith(META_PREFIX)}
    out[COL_TX_ID] = row[COL_TX_ID]
    out[COL_VERSION] = row[COL_VERSION]
    out[COL_STATE] = row[COL_STATE]
    out["_tx_prepared_at"] = at
    out["_tx_committed_at"] = None if row[COL_STATE] == TxState.PREPARED.value else at
    out[COL_DELETED] = row.get(COL_DELETED, False)
    out[COL_BEFORE] = row.get(COL_BEFORE)
    if out[COL_BEFORE] is not None:
        out[COL_BEFORE_VERSION] = row[COL_BEFORE_VERSION]
        out["_tx_before_state"] = TxState.COMMITTED.value
        out["_tx_before_prepared_at"] = at
        out["_tx_before_committed_at"] = at
    out.update((name, v) for name, v in row.items() if name.startswith(BEFORE_COLUMN_PREFIX))
    return out


def stored_and_read(row, mode):
    """Store the colocated image ``row`` laid out as ``mode`` lays it, and read it back."""
    env = build_env(**mode_env_args(mode))
    key = k()
    if env.manager.decoupling is None:
        writes = [ConditionalWrite(key, row)]
    else:
        app, meta = split_columns(row)
        writes = [ConditionalWrite(key, app), ConditionalWrite(DecoupleConfig.metadata_key(key), meta)]
    assert env.registry.atomic_write(writes) is None
    return read_dispatch(env.registry, env.manager.decoupling, key)


@settings(max_examples=100)
@given(
    columns=app_columns,
    meta=stored_metadata,
    mode=st.sampled_from(list(METADATA_MODES)),
    at=st.integers(1, 99),
)
def test_a_row_in_the_older_format_reads_and_settles_as_the_trimmed_row(columns, meta, mode, at):
    """Explicit None/False defaults and timestamps change no check, read or settle image."""
    trimmed = stored_row(columns, meta)
    older = older_format(trimmed, at)
    assert trimmed.items() <= older.items()
    extra = {name: v for name, v in older.items() if name not in trimmed}
    assert extra.keys() <= OLDER_ONLY_COLUMNS
    assert (extra.get(COL_DELETED, False), extra.get(COL_BEFORE)) == (False, None)
    condition = if_tx_id_equals(meta.tx_id)
    seen = []
    for row in (trimmed, older):
        assert decode_metadata(parse_metadata(row)) == meta
        obs = stored_and_read(row, mode)
        app = tagged(obs.app_columns)
        read = (obs.path, obs.present, obs.prepared, app, decode_metadata(obs.meta))
        settles = []
        for committed in (True, False):  # roll forward, roll back
            write = _settle_write(KEY, obs.meta, obs.app_columns, committed, condition, obs.split)
            settles.append((write.kind, write.condition, physical_rows(write, obs.split)))
        seen.append((read, settles))
    assert seen[0] == seen[1]
    assert seen[0][0][4] == meta
