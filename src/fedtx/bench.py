"""Workload harness behind the acceptance suite's operation counts.

Two workload shapes are supported, both with uniform key choice:

* ``F``: each transaction performs a fixed number of read-modify-write
  operations, split evenly across the configured storages;
* ``C``: each transaction only reads.

Keys within one transaction are drawn without replacement so per-transaction
operation counts are exact. Reports carry per-storage operation counters and
commit/abort totals; with a fixed seed on a single thread every field is
deterministic. Timing is left to ``perfbench/``.
"""

from __future__ import annotations

import enum
import random
import threading
from dataclasses import dataclass, field
from typing import Sequence

from .decoupling import DecoupleConfig
from .errors import ConflictAbort
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


COORDINATOR = CoordinatorLocation("coord")
RETRY_LIMIT = 100  # attempts per transaction before it counts as given up


@dataclass(frozen=True)
class StorageSpec:
    name: str


@dataclass(frozen=True)
class WorkloadConfig:
    workload: str = "F"  # F: read-modify-write, C: read-only
    ops_per_tx: int = 8
    record_count: int = 10_000  # per storage
    payload_bytes: int = 128
    threads: int = 1
    duration_ops: int = 5_000  # transactions per run
    seed: int = 1
    aup_enabled: bool = True
    one_phase_enabled: bool = True
    decoupling: DecouplingMode = DecouplingMode.NONE
    storages: tuple[StorageSpec, ...] = (StorageSpec("db1"),)
    label: str = "run"

    def __post_init__(self):
        if self.workload not in ("F", "C"):
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.ops_per_tx < 1:
            raise ValueError("ops_per_tx must be at least 1")
        if self.record_count < self.ops_per_tx:
            raise ValueError("record_count must be at least ops_per_tx")
        if not self.storages:
            raise ValueError("at least one storage is required")


def _effective_capabilities(mode: DecouplingMode) -> AdapterCapabilities:
    """The capabilities a run in ``mode`` lets its storages use."""
    consistent = mode in (DecouplingMode.CONSISTENT_READABLE, DecouplingMode.VIEW_JOINABLE)
    view = mode is DecouplingMode.VIEW_JOINABLE
    return AdapterCapabilities(AtomicityUnit.STORAGE, consistent, view)


@dataclass
class BenchEnv:
    """Everything one benchmark run needs, wired together."""

    config: WorkloadConfig
    registry: StorageRegistry
    manager: TransactionManager
    adapters: dict

    def app_storages(self) -> list[str]:
        return [spec.name for spec in self.config.storages]


def build_env(config: WorkloadConfig) -> BenchEnv:
    registry = StorageRegistry()
    adapters = {}
    caps = _effective_capabilities(config.decoupling)
    for spec in config.storages:
        adapter = build_memstore(spec.name, MemStoreConfig(caps))
        if config.decoupling is DecouplingMode.VIEW_JOINABLE:
            adapter.register_join_view(
                f"{NAMESPACE}.{TABLE}_with_meta", NAMESPACE, TABLE, TABLE + "_meta"
            )
        registry.register(adapter)
        adapters[spec.name] = adapter
    if COORDINATOR.storage not in adapters:
        coord = build_memstore(
            COORDINATOR.storage, MemStoreConfig(AdapterCapabilities(AtomicityUnit.STORAGE))
        )
        registry.register(coord)
        adapters[COORDINATOR.storage] = coord
    decouple = None
    if config.decoupling is not DecouplingMode.NONE:
        decouple = DecoupleConfig(namespaces=frozenset({NAMESPACE}))
    manager = TransactionManager(
        registry,
        COORDINATOR,
        decoupling=decouple,
        pushdown_enabled=config.aup_enabled,
        one_phase_enabled=config.one_phase_enabled,
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
    env.adapters[COORDINATOR.storage].truncate()
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

    def totals(self) -> OpCounters:
        total = OpCounters()
        for counters in self.per_storage.values():
            total = total + counters
        return total


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
        for _ in range(RETRY_LIMIT):
            tx = env.manager.begin()
            try:
                for key in keys:
                    tx.get(key)
                    if config.workload == "F":
                        tx.put(key, {PAYLOAD_COLUMN: rng.randbytes(config.payload_bytes)})
                tx.commit()
                with lock:
                    report.committed += 1
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
