"""Workload harness: loading, counting, and determinism."""

import pytest

from fedtx import AtomicityUnit, ConflictAbort
from fedtx import bench
from fedtx.bench import (
    COORDINATOR,
    RETRY_LIMIT,
    DecouplingMode,
    StorageSpec,
    WorkloadConfig,
    build_env,
    load_phase,
    record_key,
    run_workload,
)
from fedtx.memstore import OpCounters


def config(**overrides):
    base = dict(
        workload="F",
        ops_per_tx=4,
        record_count=50,
        payload_bytes=16,
        duration_ops=10,
        seed=11,
        storages=(StorageSpec("db1"),),
        label="test",
    )
    base.update(overrides)
    return WorkloadConfig(**base)


class TestConfigValidation:
    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            config(workload="Z")

    def test_record_count_must_cover_ops(self):
        with pytest.raises(ValueError):
            config(record_count=3, ops_per_tx=4)

    def test_record_count_may_equal_ops(self):
        assert config(record_count=4, ops_per_tx=4).record_count == 4

    @pytest.mark.parametrize("ops", [0, -1])
    def test_ops_per_tx_must_be_positive(self, ops):
        with pytest.raises(ValueError):
            config(ops_per_tx=ops)

    def test_at_least_one_storage(self):
        with pytest.raises(ValueError):
            config(storages=())

    def test_defaults_are_valid(self):
        cfg = WorkloadConfig()
        assert cfg.workload == "F" and cfg.storages == (StorageSpec("db1"),)


# mode -> (consistent_readable, view_joinable) the run's storages declare
MODE_CAPABILITIES = {
    DecouplingMode.NONE: (False, False),
    DecouplingMode.UNOPTIMIZED: (False, False),
    DecouplingMode.CONSISTENT_READABLE: (True, False),
    DecouplingMode.VIEW_JOINABLE: (True, True),
}


class TestBuildEnv:
    @pytest.mark.parametrize("mode", list(DecouplingMode))
    def test_mode_decides_capabilities_and_view(self, mode):
        env = build_env(config(decoupling=mode))
        caps = env.adapters["db1"].capabilities
        assert caps.atomicity_unit is AtomicityUnit.STORAGE
        assert (caps.consistent_readable, caps.view_joinable) == MODE_CAPABILITIES[mode]
        view = env.adapters["db1"].view_for(record_key("db1", 0))
        assert (view is not None) == (mode is DecouplingMode.VIEW_JOINABLE)

    @pytest.mark.parametrize("mode", list(DecouplingMode))
    def test_metadata_table_follows_the_mode(self, mode):
        env = build_env(config(decoupling=mode, record_count=10))
        load_phase(env)
        tables = {r.key.table for r in env.adapters["db1"].dump()}
        if mode is DecouplingMode.NONE:
            assert tables == {"usertable"}
        else:
            assert tables == {"usertable", "usertable_meta"}

    def test_coordinator_is_a_separate_storage(self):
        env = build_env(config())
        assert set(env.adapters) == {"db1", COORDINATOR.storage}
        assert env.app_storages() == ["db1"]

    def test_storage_named_like_the_coordinator_is_shared(self):
        env = build_env(config(storages=(StorageSpec(COORDINATOR.storage),)))
        assert set(env.adapters) == {COORDINATOR.storage}
        load_phase(env)
        assert run_workload(env).committed == 10


class TestLoadPhase:
    def test_loads_requested_records(self):
        env = build_env(config(record_count=100))
        loaded = load_phase(env)
        assert loaded == {"db1": 100}
        tx = env.manager.begin()
        assert all(tx.get(record_key("db1", i)) is not None for i in range(100))

    def test_payload_width(self):
        env = build_env(config(payload_bytes=128))
        load_phase(env)
        tx = env.manager.begin()
        assert len(tx.get(record_key("db1", 0))["payload"]) == 128

    def test_reload_is_idempotent(self):
        env = build_env(config(record_count=20))
        load_phase(env)
        load_phase(env)
        dump = env.adapters["db1"].dump()
        assert len(dump) == 20
        assert all(r.columns["_tx_version"] == 1 for r in dump)

    def test_counters_reset_after_load(self):
        env = build_env(config())
        load_phase(env)
        assert env.adapters["db1"].counters().atomic_write_batches == 0

    def test_partial_last_batch(self):
        env = build_env(config(record_count=25))
        assert load_phase(env, batch_size=10) == {"db1": 25}
        assert len(env.adapters["db1"].dump()) == 25

    def test_loads_every_storage(self):
        env = build_env(config(record_count=12, storages=(StorageSpec("db1"), StorageSpec("db2"))))
        assert load_phase(env) == {"db1": 12, "db2": 12}
        assert len(env.adapters["db2"].dump()) == 12

    def test_reload_clears_coordinator_records(self):
        env = build_env(config(one_phase_enabled=False))
        load_phase(env)
        after_load = len(env.adapters[COORDINATOR.storage].dump())
        run_workload(env)
        assert len(env.adapters[COORDINATOR.storage].dump()) > after_load
        load_phase(env)
        assert len(env.adapters[COORDINATOR.storage].dump()) == after_load


class TestRunWorkload:
    def test_rmw_counts(self):
        env = build_env(config(duration_ops=10, ops_per_tx=4))
        load_phase(env)
        report = run_workload(env)
        assert report.committed == 10
        totals = report.totals()
        assert totals.reads == 40
        assert totals.written_records == 40  # one-phase: one committed image each

    def test_read_only_counts(self):
        env = build_env(config(workload="C", duration_ops=10, ops_per_tx=4))
        load_phase(env)
        report = run_workload(env)
        assert report.totals().reads == 40
        assert report.totals().written_records == 0

    def test_conservation_under_contention(self):
        cfg = config(
            duration_ops=30,
            ops_per_tx=2,
            record_count=2,
            threads=4,
        )
        env = build_env(cfg)
        load_phase(env)
        report = run_workload(env)
        assert report.committed + report.gave_up == 30

    def test_single_thread_reports_are_deterministic(self):
        results = []
        for _ in range(2):
            env = build_env(config(duration_ops=15, seed=99))
            load_phase(env)
            report = run_workload(env)
            results.append(
                (report.committed, report.aborted, report.gave_up, report.totals())
            )
        assert results[0] == results[1]

    def test_ops_split_across_storages(self):
        storages = (StorageSpec("db1"), StorageSpec("db2"))
        env = build_env(config(workload="C", ops_per_tx=3, storages=storages))
        load_phase(env)
        report = run_workload(env)
        assert report.per_storage["db1"].reads == 20
        assert report.per_storage["db2"].reads == 10

    def test_keys_within_a_transaction_are_distinct(self):
        cfg = config(ops_per_tx=4, record_count=4)
        for tx_index in range(5):
            keys = bench._tx_keys(cfg, ["db1"], tx_index)
            assert sorted(k.partition_key for k in keys) == [(0,), (1,), (2,), (3,)]

    def test_seed_changes_the_keys(self):
        def keys(seed):
            cfg = config(seed=seed)
            return [bench._tx_keys(cfg, ["db1"], i) for i in range(10)]

        assert keys(1) == keys(1)
        assert keys(1) != keys(2)

    def test_zero_transactions_report_zero_counters(self):
        env = build_env(config(duration_ops=0))
        load_phase(env)
        report = run_workload(env)
        assert (report.committed, report.aborted, report.gave_up) == (0, 0, 0)
        assert report.totals() == OpCounters()

    def test_report_covers_the_coordinator(self):
        env = build_env(config(one_phase_enabled=False))
        load_phase(env)
        report = run_workload(env)
        assert set(report.per_storage) == {"db1", COORDINATOR.storage}
        assert report.per_storage[COORDINATOR.storage].atomic_write_batches > 0

    def test_one_phase_commit_skips_the_coordinator(self):
        env = build_env(config(one_phase_enabled=True))
        load_phase(env)
        report = run_workload(env)
        assert report.committed == 10
        assert report.per_storage[COORDINATOR.storage] == OpCounters()

    def test_gives_up_after_retry_limit(self):
        env = build_env(config(duration_ops=3))
        load_phase(env)
        manager = env.manager

        class LosesEveryConflict:
            def begin(self):
                tx = manager.begin()

                class Tx:
                    get = tx.get
                    put = tx.put

                    def commit(self):
                        tx.abort()
                        raise ConflictAbort("forced")

                return Tx()

            def drain_commit_records(self):
                return manager.drain_commit_records()

        env.manager = LosesEveryConflict()
        report = run_workload(env)
        assert report.committed == 0
        assert report.gave_up == 3
        assert report.aborted == 3 * RETRY_LIMIT
