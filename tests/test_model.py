"""Keys, values, scope prefixes, and the package surface."""

import copy
import enum
import json
import os
import pickle
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fedtx.model import (
    AtomicityUnit,
    CheckedTuple,
    FullKey,
    GroupKey,
    TxState,
    render_key,
    scope_of,
    value_tag,
    ValueTag,
)
from fedtx.storage import ConditionalWrite, WriteCondition
from conftest import BeforeImage, TransactionMetadata, build_env, compare_values, stored_row

KEY = FullKey("s1", "ns", "t", (5,), (2,))


class TestValues:
    def test_tags(self):
        class Colour(enum.IntEnum):
            RED = 1

        class Name(str):
            pass

        assert value_tag(None) is ValueTag.NULL
        assert value_tag(True) is ValueTag.BOOL
        assert value_tag(3) is ValueTag.INT
        assert value_tag("x") is ValueTag.TEXT
        assert value_tag(b"x") is ValueTag.BLOB
        assert value_tag(Colour.RED) is ValueTag.INT
        assert value_tag(Name("x")) is ValueTag.TEXT

    def test_unsupported_type(self):
        for value in (1.5, [1], {"x": 1}):
            with pytest.raises(TypeError):
                value_tag(value)

    def test_unsupported_values_are_rejected_at_every_edge(self):
        with pytest.raises(TypeError):
            FullKey("s1", "ns", "t", (1.5,))
        prior = TransactionMetadata("t0", 1, TxState.COMMITTED, prepared_at=1, committed_at=1)
        meta = TransactionMetadata(
            "t1", 2, TxState.PREPARED, prepared_at=2, before_image=BeforeImage({"x": 1.5}, prior)
        )
        store = build_env().adapter("s1")
        with pytest.raises(TypeError):  # the store checks every column a PUT writes
            store.atomic_write([ConditionalWrite(KEY, stored_row({}, meta))])
        tx = build_env().manager.begin()
        with pytest.raises(TypeError):
            tx.put(KEY, {"x": 1.5})
        for bad_name in ("", 7):
            with pytest.raises(ValueError):
                tx.put(KEY, {bad_name: 1})
        assert tx.write_set == {}

    def test_cross_tag_comparison_is_an_error(self):
        with pytest.raises(TypeError):
            compare_values(1, "1")
        with pytest.raises(TypeError):
            compare_values(True, 1)  # bool is its own tag
        with pytest.raises(TypeError):
            compare_values(None, 0)

    @given(st.lists(st.integers(), min_size=2, max_size=2))
    def test_int_order_matches_python(self, pair):
        a, b = pair
        assert compare_values(a, b) == (a > b) - (a < b)

    @given(st.lists(st.binary(max_size=6), min_size=3, max_size=3))
    def test_blob_order_is_total(self, triple):
        a, b, c = triple
        if compare_values(a, b) <= 0 and compare_values(b, c) <= 0:
            assert compare_values(a, c) <= 0


class TestFullKey:
    def test_requires_partition_key(self):
        with pytest.raises(ValueError):
            FullKey("s", "ns", "t", ())

    def test_rejects_null_components(self):
        with pytest.raises(ValueError):
            FullKey("s", "ns", "t", (None,))

    def test_rejects_bool_components(self):
        # True == 1 and both hash alike, so (True,) would alias (1,) in a store
        with pytest.raises(ValueError):
            FullKey("s", "ns", "t", (True,))
        with pytest.raises(ValueError):
            FullKey("s", "ns", "t", (1,), (False,))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            KEY.storage = "other"

    def test_components_frozen_as_tuples(self):
        key = FullKey("s", "ns", "t", [1, 2], [3])
        assert key.partition_key == (1, 2)
        assert key.clustering_key == (3,)

    def test_both_constructors_hash_the_five_components(self):
        key = FullKey("s", "ns", "t", [1, "a"], [b"x"])
        rebuilt = FullKey._unchecked("s", "ns", "t", (1, "a"), (b"x",))
        assert key == rebuilt and {key: 1}[rebuilt] == 1
        assert hash(key) == hash(rebuilt) == hash(("s", "ns", "t", (1, "a"), (b"x",)))
        assert not hasattr(key, "__dict__")
        assert "_hash" not in repr(key)

    def test_hash_and_equality_are_the_tuples_own(self):
        assert FullKey.__hash__ is tuple.__hash__
        assert FullKey.__eq__ is tuple.__eq__
        assert KEY == ("s1", "ns", "t", (5,), (2,)) and hash(KEY) == hash(tuple(KEY))

    def test_repr_names_every_field(self):
        assert repr(FullKey("s", "ns", "t", (1, "a"))) == (
            "FullKey(storage='s', namespace='ns', table='t', partition_key=(1, 'a'), "
            "clustering_key=())"
        )

    def test_no_public_path_builds_an_unchecked_key(self):
        public = {name for name in dir(FullKey) if not name.startswith("_")}
        fields = {"storage", "namespace", "table", "partition_key", "clustering_key"}
        # tuple's own count and index, and no namedtuple _make or _replace
        assert public == fields | {"render", "count", "index"}
        assert not hasattr(FullKey, "_make") and not hasattr(FullKey, "_replace")
        for derived in (KEY[:], KEY[:5], KEY + (), KEY * 1, tuple(KEY)):
            assert type(derived) is tuple

    @pytest.mark.parametrize(
        "key, forged",
        [
            (KEY, tuple.__new__(FullKey, ("s", "ns", "t", (True,), ()))),
            (GroupKey("s1", "ns", "t", (5,)), tuple.__new__(GroupKey, ("s", "ns", "t", ()))),
        ],
        ids=["full-key", "group-key"],
    )
    def test_copies_and_pickles_are_rebuilt_through_the_checks(self, monkeypatch, key, forged):
        cls = type(key)
        built = []
        checking = cls.__new__

        def counting(cls, *parts, **named):
            built.append(parts)
            return checking(cls, *parts, **named)

        monkeypatch.setattr(cls, "__new__", counting)
        copies = [copy.copy(key), copy.deepcopy(key)]
        copies += [pickle.loads(pickle.dumps(key, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        assert copies == [key] * len(copies)
        assert all(type(c) is cls for c in copies)
        assert built == [tuple(key)] * len(copies)
        # A key smuggled past the checks does not survive a round trip.
        for p in range(pickle.HIGHEST_PROTOCOL + 1):
            with pytest.raises(ValueError, match="partition key"):
                pickle.loads(pickle.dumps(forged, p))

    def test_a_pickled_key_hashes_anew_in_another_process(self):
        root = Path(__file__).resolve().parent.parent
        child = (
            "import pickle, sys\n"
            "key = pickle.loads(sys.stdin.buffer.read())\n"
            "assert hash(key) == hash(('s', 'ns', 't', (1,), ('a',))), 'stale hash'\n"
            "assert {key: 1}[type(key)('s', 'ns', 't', (1,), ('a',))] == 1\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child],
            input=pickle.dumps(FullKey("s", "ns", "t", (1,), ("a",))),
            env=dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="1"),
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()


class TestRendering:
    def test_full_key(self):
        assert KEY.render() == "s1/ns/t/pk=[5]/ck=[2]"

    def test_prefix_truncation(self):
        assert render_key("s1") == "s1"
        assert render_key("s1", "ns") == "s1/ns"
        assert render_key("s1", "ns", "t", (5,)) == "s1/ns/t/pk=[5]"

    def test_values_rendered_unambiguously(self):
        assert render_key("s", "n", "t", ("a",)) == 's/n/t/pk=["a"]'
        assert render_key("s", "n", "t", (b"\x01",)) == "s/n/t/pk=[0x01]"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rendering_matches_the_json_encoding(self, seed):
        """Every component renders as json.dumps would, bytes as hex."""

        class Colour(enum.IntEnum):
            RED = 7

        rng = random.Random(seed)
        alphabet = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃", "\U0001f600", "a", "/", ","]
        values = [0, 1, -1, 2**63, -(2**63), 2**63 - 1, Colour.RED, "", b"", b"\x00\xff"]
        values += [rng.randint(-(2**63), 2**63) for _ in range(200)]
        values += ["".join(rng.choices(alphabet, k=rng.randint(1, 8))) for _ in range(200)]
        values += [rng.randbytes(rng.randint(1, 8)) for _ in range(50)]
        for value in values:
            expected = "0x" + value.hex() if isinstance(value, bytes) else json.dumps(value)
            assert render_key("s", partition_key=(value,)) == f"s/pk=[{expected}]"


class TestScopeOf:
    def test_storage_unit_keeps_only_storage(self):
        assert scope_of(KEY, AtomicityUnit.STORAGE) == ("s1",)

    def test_record_unit_keeps_everything(self):
        assert scope_of(KEY, AtomicityUnit.RECORD) == ("s1", "ns", "t", (5,), (2,))

    def test_partition_unit_stops_at_partition_key(self):
        assert scope_of(KEY, AtomicityUnit.PARTITION) == ("s1", "ns", "t", (5,))

    def test_namespace_and_table_depths(self):
        assert scope_of(KEY, AtomicityUnit.NAMESPACE) == ("s1", "ns")
        assert scope_of(KEY, AtomicityUnit.TABLE) == ("s1", "ns", "t")


# int, str and bytes components, with look-alikes across types (0, "0", b"0")
components = st.one_of(st.integers(0, 3), st.sampled_from(["0", "a"]), st.sampled_from([b"0", b""]))

full_keys = st.builds(
    FullKey,
    storage=st.sampled_from(["s1", "s2"]),
    namespace=st.sampled_from(["n1", "n2"]),
    table=st.sampled_from(["t1", "t2"]),
    partition_key=st.lists(components, min_size=1, max_size=2).map(tuple),
    clustering_key=st.lists(components, max_size=2).map(tuple),
)

units = st.sampled_from(list(AtomicityUnit))


class TestScopeProperties:
    @given(full_keys, units, units)
    def test_broader_unit_gives_prefix(self, key, u1, u2):
        if u1 >= u2:
            broad = scope_of(key, u1)
            narrow = scope_of(key, u2)
            assert narrow[: len(broad)] == broad

    @given(full_keys, full_keys, units)
    def test_equal_groups_iff_agreement_to_depth(self, k1, k2, unit):
        equal = scope_of(k1, unit) == scope_of(k2, unit)
        components1 = (k1.storage, k1.namespace, k1.table, k1.partition_key, k1.clustering_key)
        components2 = (k2.storage, k2.namespace, k2.table, k2.partition_key, k2.clustering_key)
        depth = len(scope_of(k1, unit))
        assert equal == (components1[:depth] == components2[:depth])

    @given(full_keys)
    def test_the_partition_scope_is_the_group_keys(self, key):
        scope = scope_of(key, AtomicityUnit.PARTITION)
        prefix = GroupKey(*scope)
        assert prefix == scope and scope == prefix and hash(prefix) == hash(scope)

    @given(full_keys, full_keys)
    def test_equal_partition_scopes_iff_equal_group_keys(self, k1, k2):
        partition = AtomicityUnit.PARTITION
        assert (scope_of(k1, partition) == scope_of(k2, partition)) == (
            GroupKey(*scope_of(k1, partition)) == GroupKey(*scope_of(k2, partition))
        )

    @given(full_keys, units)
    def test_scope_is_a_plain_tuple_of_the_fields(self, key, unit):
        fields = (key.storage, key.namespace, key.table, key.partition_key, key.clustering_key)
        scope = scope_of(key, unit)
        assert type(scope) is tuple
        assert scope == fields[: len(scope)]

    @given(full_keys)
    def test_a_key_is_its_unchecked_twin_and_never_a_group_key(self, key):
        twin = FullKey._unchecked(*key)
        assert type(twin) is FullKey and twin == key and hash(twin) == hash(key)
        prefix = GroupKey(*scope_of(key, AtomicityUnit.PARTITION))
        assert key != prefix and prefix != key
        assert {key: 1}.get(prefix) is None and {prefix: 1}.get(key) is None

    @given(full_keys, units)
    def test_depth_matches_unit(self, key, unit):
        expected = {
            AtomicityUnit.STORAGE: 1,
            AtomicityUnit.NAMESPACE: 2,
            AtomicityUnit.TABLE: 3,
            AtomicityUnit.PARTITION: 4,
            AtomicityUnit.RECORD: 5,
        }[unit]
        assert len(scope_of(key, unit)) == expected


class TestGroupKey:
    def test_names_exactly_one_partition(self):
        with pytest.raises(TypeError):
            GroupKey("s", "ns", "t")  # a table
        with pytest.raises(TypeError):
            GroupKey("s", "ns", "t", (1,), (2,))  # a record
        prefix = GroupKey("s", "ns", "t", [1, "a"])
        assert prefix.partition_key == (1, "a")
        assert prefix.render() == 's/ns/t/pk=[1,"a"]'
        assert repr(prefix) == (
            "GroupKey(storage='s', namespace='ns', table='t', partition_key=(1, 'a'))"
        )

    @pytest.mark.parametrize(
        "partition_key", [(), (None,), (True,), (1, False)], ids=["empty", "null", "bool", "last-bool"]
    )
    def test_checks_its_partition_key_as_a_full_key_does(self, partition_key):
        with pytest.raises(ValueError, match="partition key"):
            FullKey("s", "ns", "t", partition_key)
        with pytest.raises(ValueError, match="partition key"):
            GroupKey("s", "ns", "t", partition_key)

    def test_unit_order(self):
        assert (
            AtomicityUnit.RECORD
            < AtomicityUnit.PARTITION
            < AtomicityUnit.TABLE
            < AtomicityUnit.NAMESPACE
            < AtomicityUnit.STORAGE
        )


def test_every_key_and_batch_value_takes_its_repr_and_reduce_from_one_base():
    for cls in (FullKey, GroupKey, WriteCondition, ConditionalWrite):
        assert issubclass(cls, CheckedTuple) and cls.__slots__ == ()
        assert "__repr__" not in vars(cls) and "__reduce__" not in vars(cls)
        assert not hasattr(cls, "_make") and not hasattr(cls, "_replace")


def test_star_import_binds_no_module():
    namespace = {}
    exec("from fedtx import *", namespace)
    modules = [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert modules == []
    assert "TransactionManager" in namespace and "TxStatus" in namespace
    # A record's metadata is its stored row; no object type stands for it.
    assert not {"TransactionMetadata", "BeforeImage"} & set(namespace)
    # Nor for a coordinator row's outcome: records.outcome_committed_at decodes the row.
    assert [name for name in namespace if name.endswith("State")] == ["TxState"]
