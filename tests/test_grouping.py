"""Write-set grouping: hand-enumerated buckets and partition properties."""

from hypothesis import given, strategies as st

from fedtx import AtomicityUnit, ConditionalWrite, render_key
from fedtx.grouping import group_by_atomicity_unit
from fedtx.model import scope_of
from conftest import build_env, k, make_caps


def write(key):
    return ConditionalWrite(key, {"v": 1})


def two_storage_registry():
    env = build_env({"s1": make_caps(), "s2": make_caps()})
    return env.registry


def test_two_storage_unit_stores_give_two_groups_of_four():
    registry = two_storage_registry()
    writes = [write(k(s, pk=i)) for s in ("s1", "s2") for i in range(4)]
    groups = group_by_atomicity_unit(registry, writes)
    assert [[w.key.storage for w in ws] for ws in groups] == [["s1"] * 4, ["s2"] * 4]


def test_partition_unit_buckets_by_partition():
    registry = build_env({"s1": make_caps(AtomicityUnit.PARTITION)}).registry
    writes = [write(k(pk=1, ck=1)), write(k(pk=1, ck=2)), write(k(pk=2, ck=1))]
    groups = group_by_atomicity_unit(registry, writes)
    assert sorted(len(ws) for ws in groups) == [1, 2]


def test_each_storage_unit_is_looked_up_once_per_call(monkeypatch):
    registry = two_storage_registry()
    asked = []
    capabilities = registry.capabilities

    def counted(key):
        asked.append(key.storage)
        return capabilities(key)

    monkeypatch.setattr(registry, "capabilities", counted)
    writes = [write(k(s, pk=i)) for i in range(10) for s in ("s1", "s2")]
    assert [len(ws) for ws in group_by_atomicity_unit(registry, writes)] == [10, 10]
    assert asked == ["s1", "s2"]


def test_empty_write_set():
    assert group_by_atomicity_unit(two_storage_registry(), []) == []


def test_iteration_order_is_sorted_by_rendering():
    registry = two_storage_registry()
    writes = [write(k("s2")), write(k("s1"))]
    groups = group_by_atomicity_unit(registry, writes)
    assert [ws[0].key.storage for ws in groups] == ["s1", "s2"]


def test_per_record_grouping_gives_singletons():
    # The pre-AU baseline is a store that declares record-level atomicity.
    registry = build_env({"s1": make_caps(AtomicityUnit.RECORD)}).registry
    writes = [write(k(pk=i)) for i in range(5)]
    groups = group_by_atomicity_unit(registry, writes)
    assert len(groups) == 5
    assert all(len(ws) == 1 for ws in groups)


keys = st.builds(
    k,
    storage=st.sampled_from(["s1", "s2", "s3"]),
    pk=st.integers(0, 3),
    ck=st.integers(0, 2),
)


# One storage per unit: RECORD, PARTITION and STORAGE.
UNIT_STORAGES = {
    "s1": make_caps(AtomicityUnit.PARTITION),
    "s2": make_caps(AtomicityUnit.STORAGE),
    "s3": make_caps(AtomicityUnit.RECORD),
}


@given(st.lists(keys, max_size=12, unique=True))
def test_grouping_partitions_the_write_set(key_list):
    env = build_env(UNIT_STORAGES)
    writes = [write(key) for key in key_list]
    groups = group_by_atomicity_unit(env.registry, writes)
    assert sum(len(ws) for ws in groups) == len(writes)
    seen = set()
    scopes = set()
    for members in groups:
        unit = env.registry.capabilities(members[0].key).atomicity_unit
        scope = scope_of(members[0].key, unit)
        assert scope not in scopes  # one group per scope
        scopes.add(scope)
        for member in members:
            member_unit = env.registry.capabilities(member.key).atomicity_unit
            assert scope_of(member.key, member_unit) == scope
            assert id(member) not in seen
            seen.add(id(member))


def render_ordered(registry, writes):
    """Reference grouping: buckets sorted by their key rendering, at any size."""
    buckets = {}
    for w in writes:
        scope = scope_of(w.key, registry.capabilities(w.key).atomicity_unit)
        buckets.setdefault(render_key(*scope), []).append(w)
    return [buckets[rendered] for rendered in sorted(buckets)]


@given(st.lists(keys, min_size=1, max_size=12, unique=True))
def test_group_order_is_the_render_order_at_every_size(key_list):
    env = build_env(UNIT_STORAGES)
    writes = [write(key) for key in key_list]
    assert group_by_atomicity_unit(env.registry, writes) == render_ordered(env.registry, writes)

