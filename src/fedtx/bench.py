"""Workload harness: loads records and drives read / read-modify-write mixes.

Two workload shapes are supported, both with uniform key choice:

* ``F``: each transaction performs a fixed number of read-modify-write
  operations, split evenly across the configured storages;
* ``C``: each transaction only reads.

Keys within one transaction are drawn without replacement so per-transaction
operation counts are exact. Reports carry per-storage operation counters,
commit/abort totals, and commit-latency percentiles; with a fixed seed on a
single thread every field except the latencies is deterministic.
"""

from __future__ import annotations

import enum
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from .decoupling import DecoupleConfig
from .errors import ConfigError, ConflictAbort
from .memstore import MemStoreConfig, OpCounters, build_memstore
from .model import AtomicityUnit, FullKey
from .storage import AdapterCapabilities, StorageRegistry
from .transaction import CoordinatorLocation, TransactionManager

NAMESPACE = "app"
TABLE = "usertable"
PAYLOAD_COLUMN = "payload"


class DecouplingMode(enum.Enum):
    """How record metadata is placed and read during a run."""

    NONE = "NONE"
    UNOPTIMIZED = "UNOPTIMIZED"
    CONSISTENT_READABLE = "CONSISTENT_READABLE"
    VIEW_JOINABLE = "VIEW_JOINABLE"


@dataclass(frozen=True)
class StorageSpec:
    name: str
    atomicity_unit: AtomicityUnit = AtomicityUnit.STORAGE
    consistent_readable: bool = True
    view_joinable: bool = True


@dataclass(frozen=True)
class WorkloadConfig:
    workload: str = "F"  # F: read-modify-write, C: read-only
    ops_per_tx: int = 8
    record_count: int = 10_000  # per storage
    payload_bytes: int = 128
    threads: int = 1
    duration_ops: int = 5_000  # transactions per run
    distribution: str = "UNIFORM"
    seed: int = 1
    aup_enabled: bool = True
    one_phase_enabled: bool = True
    decoupling: DecouplingMode = DecouplingMode.NONE
    serializable: bool = False
    storages: tuple[StorageSpec, ...] = (StorageSpec("db1"),)
    coordinator: CoordinatorLocation = CoordinatorLocation("coord")
    retry_limit: int = 100
    label: str = "run"

    def __post_init__(self):
        if self.workload not in ("F", "C"):
            raise ConfigError(f"unknown workload {self.workload!r}")
        if self.distribution != "UNIFORM":
            raise ConfigError(f"unsupported distribution {self.distribution!r}")
        if self.ops_per_tx < 1:
            raise ConfigError("ops_per_tx must be at least 1")
        if self.record_count < self.ops_per_tx:
            raise ConfigError("record_count must be at least ops_per_tx")
        if not self.storages:
            raise ConfigError("at least one storage is required")


def _effective_capabilities(spec: StorageSpec, mode: DecouplingMode) -> AdapterCapabilities:
    """Trim declared capabilities down to what the run is allowed to use."""
    if mode in (DecouplingMode.NONE, DecouplingMode.UNOPTIMIZED):
        return AdapterCapabilities(spec.atomicity_unit, False, False)
    if not spec.consistent_readable:
        raise ConfigError(f"storage {spec.name!r} cannot serve consistent reads")
    if mode is DecouplingMode.CONSISTENT_READABLE:
        return AdapterCapabilities(spec.atomicity_unit, True, False)
    if not spec.view_joinable:
        raise ConfigError(f"storage {spec.name!r} cannot serve join views")
    return AdapterCapabilities(spec.atomicity_unit, True, True)


@dataclass
class BenchEnv:
    """Everything one benchmark run needs, wired together."""

    config: WorkloadConfig
    registry: StorageRegistry
    manager: TransactionManager
    adapters: dict

    def app_storages(self) -> list[str]:
        return [spec.name for spec in self.config.storages]


def build_env(config: WorkloadConfig, history=None) -> BenchEnv:
    registry = StorageRegistry()
    adapters = {}
    for spec in config.storages:
        caps = _effective_capabilities(spec, config.decoupling)
        adapter = build_memstore(spec.name, MemStoreConfig(caps))
        if config.decoupling is DecouplingMode.VIEW_JOINABLE:
            adapter.register_join_view(
                f"{NAMESPACE}.{TABLE}_with_meta", NAMESPACE, TABLE, TABLE + "_meta"
            )
        registry.register(adapter)
        adapters[spec.name] = adapter
    if config.coordinator.storage not in adapters:
        coord = build_memstore(
            config.coordinator.storage,
            MemStoreConfig(AdapterCapabilities(AtomicityUnit.STORAGE)),
        )
        registry.register(coord)
        adapters[config.coordinator.storage] = coord
    decouple = None
    if config.decoupling is not DecouplingMode.NONE:
        decouple = DecoupleConfig(namespaces=frozenset({NAMESPACE}))
    manager = TransactionManager(
        registry,
        config.coordinator,
        decoupling=decouple,
        pushdown_enabled=config.aup_enabled,
        one_phase_enabled=config.one_phase_enabled,
        history=history,
    )
    return BenchEnv(config, registry, manager, adapters)


def record_key(storage: str, index: int) -> FullKey:
    return FullKey(storage, NAMESPACE, TABLE, (index,))


def load_phase(env: BenchEnv, batch_size: int = 100) -> dict[str, int]:
    """Truncate then load ``record_count`` records per storage, transactionally."""
    config = env.config
    rng = random.Random(config.seed)
    for name in env.app_storages():
        env.adapters[name].truncate()
    env.adapters[config.coordinator.storage].truncate()
    loaded = {}
    for name in env.app_storages():
        for start in range(0, config.record_count, batch_size):
            tx = env.manager.begin()
            for index in range(start, min(start + batch_size, config.record_count)):
                payload = rng.randbytes(config.payload_bytes)
                tx.put(record_key(name, index), {PAYLOAD_COLUMN: payload})
            tx.commit()
        loaded[name] = config.record_count
    env.manager.drain_commit_records()
    for adapter in env.adapters.values():
        adapter.reset_counters()
    return loaded


def _split_ops(ops: int, storages: Sequence[str]) -> list[int]:
    base, extra = divmod(ops, len(storages))
    return [base + (1 if i < extra else 0) for i in range(len(storages))]


def _tx_keys(config: WorkloadConfig, storages: Sequence[str], tx_index: int) -> list[FullKey]:
    rng = random.Random(f"{config.seed}:{tx_index}")
    keys = []
    for name, count in zip(storages, _split_ops(config.ops_per_tx, storages)):
        for index in rng.sample(range(config.record_count), count):
            keys.append(record_key(name, index))
    return keys


@dataclass
class Report:
    label: str
    committed: int = 0
    aborted: int = 0
    gave_up: int = 0
    per_storage: dict = field(default_factory=dict)
    latencies_us: list = field(default_factory=list)

    def totals(self) -> OpCounters:
        total = OpCounters()
        for counters in self.per_storage.values():
            total = total + counters
        return total

    def percentile_us(self, pct: float) -> int:
        if not self.latencies_us:
            return 0
        ordered = sorted(self.latencies_us)
        rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered))) - 1))
        return int(ordered[rank])

    def render_text(self) -> str:
        lines = [
            f"config={self.label}",
            f"committed={self.committed}",
            f"aborted={self.aborted}",
            f"gaveUp={self.gave_up}",
        ]
        for name in sorted(self.per_storage):
            for line in self.per_storage[name].as_text().splitlines():
                lines.append(f"{name}.{line}")
        totals = self.totals()
        lines.extend(f"total.{line}" for line in totals.as_text().splitlines())
        lines.append(f"p50us={self.percentile_us(50)}")
        lines.append(f"p99us={self.percentile_us(99)}")
        return "\n".join(lines) + "\n"

    CSV_HEADER = (
        "config,committed,aborted,reads,scans,batches,"
        "writtenRecords,dbTransactions,p50us,p99us"
    )

    def render_csv(self) -> str:
        totals = self.totals()
        row = ",".join(
            str(v)
            for v in (
                self.label,
                self.committed,
                self.aborted,
                totals.reads,
                totals.scans,
                totals.atomic_write_batches,
                totals.written_records,
                totals.db_transactions,
                self.percentile_us(50),
                self.percentile_us(99),
            )
        )
        return self.CSV_HEADER + "\n" + row + "\n"


def run_workload(env: BenchEnv) -> Report:
    """Execute ``duration_ops`` transactions, retrying aborted ones afresh."""
    config = env.config
    storages = env.app_storages()
    report = Report(label=config.label)
    lock = threading.Lock()
    counter = iter(range(config.duration_ops))

    def next_tx_index() -> int | None:
        with lock:
            return next(counter, None)

    def run_one(tx_index: int) -> None:
        rng = random.Random(f"{config.seed}:{tx_index}:payload")
        keys = _tx_keys(config, storages, tx_index)
        for _ in range(config.retry_limit):
            tx = env.manager.begin(serializable=config.serializable)
            try:
                for key in keys:
                    tx.get(key)
                    if config.workload == "F":
                        tx.put(key, {PAYLOAD_COLUMN: rng.randbytes(config.payload_bytes)})
                started = time.monotonic_ns()
                tx.commit()
                elapsed_us = (time.monotonic_ns() - started) // 1000
                with lock:
                    report.committed += 1
                    report.latencies_us.append(elapsed_us)
                return
            except ConflictAbort:
                with lock:
                    report.aborted += 1
        with lock:
            report.gave_up += 1

    def worker():
        while True:
            tx_index = next_tx_index()
            if tx_index is None:
                return
            run_one(tx_index)

    if config.threads <= 1:
        worker()
    else:
        threads = [threading.Thread(target=worker) for _ in range(config.threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    env.manager.drain_commit_records()
    report.per_storage = {
        name: adapter.counters() for name, adapter in env.adapters.items()
    }
    return report
