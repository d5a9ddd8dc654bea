"""The acceptance driver and the four metadata modes it runs under."""

import pytest

from fedtx import AtomicityUnit, ConflictAbort
from fedtx.memstore import OpCounters
from conftest import METADATA_MODES, build_env, k, make_caps, mode_env_args, run_workload

MODES = list(METADATA_MODES)


def versions(env):
    """``_tx_version`` of every committed record image in ``s1``."""
    return {
        (r.key.table, r.key.partition_key): r.columns["_tx_version"]
        for r in env.adapter("s1").dump()
        if "_tx_version" in r.columns
    }


def read_back(env, record_count):
    tx = env.manager.begin()
    values = [tx.get(k("s1", pk)) for pk in range(record_count)]
    tx.commit()
    return values


@pytest.mark.parametrize("mode", MODES)
def test_mode_decides_capabilities_and_view(mode):
    decoupled, consistent, view = METADATA_MODES[mode]
    env = build_env(**mode_env_args(mode))
    caps = env.adapter("s1").capabilities
    assert caps.atomicity_unit is AtomicityUnit.STORAGE
    assert (caps.consistent_readable, caps.view_joinable) == (consistent, view)
    assert (env.adapter("s1").view_for(k()) is not None) == view
    assert (env.manager.decoupling is not None) == decoupled


@pytest.mark.parametrize("mode", MODES)
def test_metadata_table_follows_the_mode(mode):
    env = build_env(**mode_env_args(mode))
    run_workload(env, 0, record_count=10)
    tables = {r.key.table for r in env.adapter("s1").dump()}
    assert tables == ({"t", "t_meta"} if METADATA_MODES[mode][0] else {"t"})


@pytest.mark.parametrize("mode", MODES)
def test_load_commits_every_record_once(mode):
    """250 records: two full load batches and a partial last one."""
    env = build_env(**mode_env_args(mode))
    run_workload(env, 0, record_count=250)
    assert [len(v["payload"]) for v in read_back(env, 250)] == [32] * 250
    assert set(versions(env).values()) == {1}


@pytest.mark.parametrize("mode", MODES)
def test_counters_exclude_the_load(mode):
    """Zero transactions count nothing, though a two-phase load wrote the coordinator."""
    env = build_env(**mode_env_args(mode), one_phase=False)
    counts = run_workload(env, 0, record_count=50)
    assert counts == {"s1": OpCounters(), "coord": OpCounters()}
    assert len(env.coordinator.dump()) == 1


@pytest.mark.parametrize("mode", MODES)
def test_read_only_writes_nothing(mode):
    env = build_env(**mode_env_args(mode), one_phase=False)
    counts = run_workload(env, 10, ops_per_tx=4, record_count=50, read_only=True)
    assert counts["s1"].written_records == counts["s1"].atomic_write_batches == 0
    assert counts["coord"] == OpCounters()
    assert set(versions(env).values()) == {1}


@pytest.mark.parametrize("mode", MODES)
def test_one_phase_rmw_writes_one_batch_per_transaction(mode):
    """Each op writes its record, plus its metadata row when metadata is split."""
    env = build_env(**mode_env_args(mode))
    counts = run_workload(env, 10, ops_per_tx=4, record_count=50)
    images = 2 if METADATA_MODES[mode][0] else 1
    assert counts["s1"].atomic_write_batches == 10
    assert counts["s1"].written_records == 40 * images
    assert counts["coord"] == OpCounters()


@pytest.mark.parametrize("mode", MODES)
def test_two_phase_rmw_writes_the_coordinator(mode):
    env = build_env(**mode_env_args(mode), one_phase=False)
    counts = run_workload(env, 10, ops_per_tx=4, record_count=50)
    assert counts["s1"].atomic_write_batches == 20  # prepare, then commit
    assert counts["coord"].atomic_write_batches == 10
    assert len(env.coordinator.dump()) == 11  # the load's transaction and the 10


@pytest.mark.parametrize("mode", MODES)
def test_keys_within_a_transaction_are_distinct(mode):
    """With as many records as ops, every transaction rewrites each record once."""
    env = build_env(**mode_env_args(mode))
    run_workload(env, 5, ops_per_tx=4, record_count=4)
    assert sorted(versions(env).values()) == [6] * 4


@pytest.mark.parametrize("mode", MODES)
def test_runs_are_deterministic(mode):
    def run():
        env = build_env(**mode_env_args(mode))
        counts = run_workload(env, 15, ops_per_tx=4, record_count=20)
        return counts, versions(env), read_back(env, 20)

    assert run() == run()


def test_seed_decides_the_keys():
    def touched(seed):
        env = build_env()
        run_workload(env, 5, ops_per_tx=2, record_count=50, seed=seed)
        return versions(env)

    assert touched(1) == touched(1)
    assert touched(1) != touched(2)


@pytest.mark.parametrize(
    "ops, reads",
    [(1, (10, 0)), (3, (20, 10)), (2, (10, 10, 0)), (8, (30, 30, 20))],
)
def test_ops_split_across_storages(ops, reads):
    """The first storages take the remainder of ``ops`` over the storages."""
    names = [f"s{i + 1}" for i in range(len(reads))]
    env = build_env(dict.fromkeys(names, make_caps()))
    counts = run_workload(env, 10, ops_per_tx=ops, record_count=50, read_only=True)
    assert tuple(counts[name].reads for name in names) == reads


def test_an_abort_propagates():
    """Nothing retries: the first failed commit ends the run."""
    env = build_env()
    manager = env.manager
    begun = []

    class FailsTheFirstWorkloadCommit:
        def begin(self):
            tx = manager.begin()
            begun.append(tx)
            if len(begun) == 1:  # the load's one transaction
                return tx

            class Tx:
                get = tx.get
                put = tx.put

                def commit(self):
                    tx.abort()
                    raise ConflictAbort("forced")

            return Tx()

        def drain_commit_records(self):
            return manager.drain_commit_records()

    env.manager = FailsTheFirstWorkloadCommit()
    with pytest.raises(ConflictAbort):
        run_workload(env, 10, ops_per_tx=2, record_count=50)
    assert len(begun) == 2
