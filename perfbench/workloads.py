"""The three workloads: their stores, their seeded inputs, one timed client
loop, and the checks against a model kept apart from the program.

Every round builds fresh stores, loads them through the transaction manager,
runs a fixed list of transactions as one closed-loop client, then checks
every get and scan result, a dump of every store, and the paper's per-commit
operation counts. The inputs are generated once per run from the seed, before
anything is timed, so every round of a run repeats the same operations.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from dataclasses import dataclass, field

from fedtx import (
    AdapterCapabilities,
    AtomicityUnit,
    ConflictAbort,
    DecoupleConfig,
    FullKey,
    GroupKey,
    MemStoreConfig,
    StorageAdapter,
    StorageRegistry,
    TransactionManager,
    build_memstore,
)
from fedtx.records import COL_STATE, COL_VERSION
from fedtx.transaction import COORD_STATE_COLUMN, CoordinatorLocation

NAMESPACE = "app"
TABLE = "usertable"
META_TABLE = TABLE + "_meta"
VIEW = f"{NAMESPACE}.{TABLE}_with_meta"
PAYLOAD = "payload"
PAYLOAD_BYTES = 128
COORDINATOR = CoordinatorLocation("coord")
LOAD_BATCH = 100
SMOKE_TX = 40  # transactions per round in a smoke run

# Adapter operations counted by the proxy; ``store_calls_per_tx`` sums these.
ADAPTER_OPS = ("read", "view_read", "snapshot_read", "scan", "atomic_write")


class CheckFailed(AssertionError):
    """The program returned or stored something the model does not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class AdapterProxy(StorageAdapter):
    """Counts, and in traced rounds times, every call into one store.

    ``calls`` is shared by all proxies of a round. ``tracer`` is None while
    loading and in untraced rounds; then each call costs one counter update.
    """

    def __init__(self, inner: StorageAdapter, calls: dict, tracer=None):
        self.inner = inner
        self.calls = calls
        self.tracer = tracer

    @property
    def name(self):
        return self.inner.name

    @property
    def capabilities(self):
        return self.inner.capabilities

    def view_for(self, key):
        return self.inner.view_for(key)

    def _timed(self, op, fn, *args, note=None):
        if self.tracer is None:
            return fn(*args)
        span = self.tracer.open("memstore." + op, note)
        try:
            return fn(*args)
        finally:
            self.tracer.close(span)

    def read(self, key):
        self.calls["read"] += 1
        if _is_coordinator(key):
            self.calls["coordinator_read"] += 1
        return self._timed("read", self.inner.read, key)

    def view_read(self, view_name, key):
        self.calls["view_read"] += 1
        return self._timed("view_read", self.inner.view_read, view_name, key)

    def snapshot_read(self, keys):
        self.calls["snapshot_read"] += 1
        return self._timed("snapshot_read", self.inner.snapshot_read, keys)

    def scan(self, prefix):
        self.calls["scan"] += 1
        rows = self._timed("scan", self.inner.scan, prefix)
        self.calls["scan_rows"] += len(rows)
        return rows

    def atomic_write(self, writes):
        self.calls["atomic_write"] += 1
        self.calls["atomic_write_rows"] += len(writes)
        coordinator = _is_coordinator(writes[0].key)
        if coordinator:
            self.calls["coordinator_write"] += 1
        note = None if self.tracer is None else self.tracer.phase_of(writes, coordinator)
        failed = self._timed("atomic_write", self.inner.atomic_write, writes, note=note)
        if failed is not None:
            self.calls["condition_failure"] += 1
        return failed


def _is_coordinator(key: FullKey) -> bool:
    return (
        key.storage == COORDINATOR.storage
        and key.namespace == COORDINATOR.namespace
        and key.table == COORDINATOR.table
    )


def new_calls() -> dict:
    names = ADAPTER_OPS + (
        "coordinator_read",
        "coordinator_write",
        "scan_rows",
        "atomic_write_rows",
        "condition_failure",
    )
    return dict.fromkeys(names, 0)


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload: its store layout, inputs, transaction body and counts.

    ``per_tx`` holds the adapter calls every committed transaction must make,
    exactly; they are the paper's counts. Each coordinator write must also
    leave one COMMITTED coordinator row behind.
    """

    name: str
    tx_per_round: int
    per_tx: dict

    def storages(self) -> list[tuple[str, AdapterCapabilities]]:
        raise NotImplementedError

    def decoupling(self) -> DecoupleConfig | None:
        return None

    def make_inputs(self, seed: int, tx_count: int) -> "Inputs":
        raise NotImplementedError

    def load(self, manager: TransactionManager, inputs: "Inputs") -> None:
        raise NotImplementedError

    def body(self, tx, tx_input):
        """Issue one transaction's operations; returns what the reads saw."""
        raise NotImplementedError

    def check_and_apply(self, model: dict, tx_input, seen) -> None:
        """Compare what one committed transaction read, then apply its writes."""
        raise NotImplementedError


@dataclass
class Inputs:
    """Everything a run feeds the program, generated from the seed."""

    initial: dict  # FullKey -> payload
    txs: list
    live_bytes: int = field(init=False)

    def __post_init__(self):
        self.live_bytes = sum(len(p) for p in self.initial.values())


def _key(storage: str, partition: int, clustering: tuple = ()) -> FullKey:
    return FullKey(storage, NAMESPACE, TABLE, (partition,), clustering)


@dataclass(frozen=True)
class _CrossStore(Workload):
    """Eight records per transaction, four in each of two STORAGE-unit stores."""

    records_per_store: int = 10_000
    keys_per_store: int = 4
    writes: bool = True
    caps: AdapterCapabilities = AdapterCapabilities(AtomicityUnit.STORAGE)
    split: bool = False

    def storages(self):
        return [("db1", self.caps), ("db2", self.caps)]

    def decoupling(self):
        return DecoupleConfig(namespaces=frozenset({NAMESPACE})) if self.split else None

    def make_inputs(self, seed, tx_count):
        rng = random.Random(f"{self.name}:{seed}")
        stores = [name for name, _ in self.storages()]
        initial = {
            _key(s, i): rng.randbytes(PAYLOAD_BYTES)
            for s in stores
            for i in range(self.records_per_store)
        }
        txs = []
        for _ in range(tx_count):
            keys = [
                _key(s, i)
                for s in stores
                for i in rng.sample(range(self.records_per_store), self.keys_per_store)
            ]
            payloads = [rng.randbytes(PAYLOAD_BYTES) for _ in keys] if self.writes else None
            txs.append((keys, payloads))
        return Inputs(initial, txs)

    def load(self, manager, inputs):
        items = list(inputs.initial.items())
        for start in range(0, len(items), LOAD_BATCH):
            tx = manager.begin()
            for key, payload in items[start : start + LOAD_BATCH]:
                tx.put(key, {PAYLOAD: payload})
            tx.commit()

    def body(self, tx, tx_input):
        keys, payloads = tx_input
        seen = [tx.get(key) for key in keys]
        if payloads is not None:
            for key, payload in zip(keys, payloads):
                tx.put(key, {PAYLOAD: payload})
        return seen

    def check_and_apply(self, model, tx_input, seen):
        keys, payloads = tx_input
        for key, row in zip(keys, seen):
            check(row == {PAYLOAD: model[key][0]}, f"get {key.render()} returned a stale row")
        if payloads is not None:
            for key, payload in zip(keys, payloads):
                model[key] = (payload, model[key][1] + 1)


@dataclass(frozen=True)
class _PartitionScan(Workload):
    """Scan one clustered partition, then rewrite four of its rows."""

    partitions: int = 1024
    rows_per_partition: int = 16
    rewrites: int = 4
    store: str = "parts"

    def storages(self):
        return [(self.store, AdapterCapabilities(AtomicityUnit.PARTITION))]

    def make_inputs(self, seed, tx_count):
        rng = random.Random(f"{self.name}:{seed}")
        initial = {
            _key(self.store, p, (c,)): rng.randbytes(PAYLOAD_BYTES)
            for p in range(self.partitions)
            for c in range(self.rows_per_partition)
        }
        txs = []
        for _ in range(tx_count):
            p = rng.randrange(self.partitions)
            rows = sorted(rng.sample(range(self.rows_per_partition), self.rewrites))
            txs.append((p, [(_key(self.store, p, (c,)), rng.randbytes(PAYLOAD_BYTES)) for c in rows]))
        return Inputs(initial, txs)

    def load(self, manager, inputs):
        # One transaction per partition stays inside one atomic unit, so the
        # load commits in one phase and leaves no coordinator rows.
        for p in range(self.partitions):
            tx = manager.begin()
            for c in range(self.rows_per_partition):
                key = _key(self.store, p, (c,))
                tx.put(key, {PAYLOAD: inputs.initial[key]})
            tx.commit()

    def body(self, tx, tx_input):
        p, writes = tx_input
        seen = tx.scan(GroupKey(self.store, NAMESPACE, TABLE, (p,)))
        for key, payload in writes:
            tx.put(key, {PAYLOAD: payload})
        return seen

    def check_and_apply(self, model, tx_input, seen):
        p, writes = tx_input
        expected = [
            (_key(self.store, p, (c,)), {PAYLOAD: model[_key(self.store, p, (c,))][0]})
            for c in range(self.rows_per_partition)
        ]
        check(seen == expected, f"scan of partition {p} disagrees with the model or its order")
        for key, payload in writes:
            model[key] = (payload, model[key][1] + 1)


WORKLOADS = {
    w.name: w
    for w in (
        _CrossStore(
            name="rmw_cross_store",
            tx_per_round=2500,
            per_tx={"read": 8, "atomic_write": 5, "coordinator_write": 1},
        ),
        _CrossStore(
            name="read_split_view",
            tx_per_round=5000,
            per_tx={"view_read": 8, "read": 0, "atomic_write": 0},
            writes=False,
            caps=AdapterCapabilities(AtomicityUnit.STORAGE, True, True),
            split=True,
        ),
        _PartitionScan(
            name="scan_update_partition",
            tx_per_round=1500,
            per_tx={"scan": 1, "atomic_write": 1, "coordinator_write": 0},
        ),
    )
}


# -- one round ----------------------------------------------------------------------

# The host's speed swings by up to 1.8x over seconds to minutes (a fixed
# pure-Python loop took 26 to 47 ms on one pinned CPU). Every CAL_EVERY
# transactions a fixed loop is timed, and each time is scaled to a reference
# CPU on which that loop takes REF_NS: scaled = measured * REF_NS / loop time,
# with the loop time averaged over the probes before and after.
CAL_EVERY = 25
CAL_ITERS = 4000
REF_NS = 500_000


def probe_ns() -> int:
    """Time of a fixed loop of dict updates, which allocates nothing the GC tracks."""
    d = {}
    start = time.perf_counter_ns()
    for i in range(CAL_ITERS):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return time.perf_counter_ns() - start


@dataclass
class RoundResult:
    """One round's figures; times are scaled to the reference CPU."""

    setup_s: float
    measure_s: float
    attempted: int
    committed: int
    latencies_ns: list  # per committed transaction, scaled
    calls: dict
    stored_bytes: int
    scale: float  # REF_NS over the mean probe time of the timed phase
    raw_setup_s: float
    raw_measure_s: float


class Env:
    """Fresh stores, proxies and a manager for one round."""

    def __init__(self, workload: Workload):
        self.calls = new_calls()
        self.inner: dict[str, StorageAdapter] = {}
        self.proxies: list[AdapterProxy] = []
        registry = StorageRegistry()
        for name, caps in workload.storages() + [
            (COORDINATOR.storage, AdapterCapabilities(AtomicityUnit.STORAGE))
        ]:
            store = build_memstore(name, MemStoreConfig(caps))
            if caps.view_joinable:
                store.register_join_view(VIEW, NAMESPACE, TABLE, META_TABLE)
            proxy = AdapterProxy(store, self.calls)
            registry.register(proxy)
            self.inner[name] = store
            self.proxies.append(proxy)
        self.manager = TransactionManager(registry, COORDINATOR, decoupling=workload.decoupling())

    def attach(self, tracer) -> None:
        for proxy in self.proxies:
            proxy.tracer = tracer


def run_round(workload: Workload, inputs: Inputs, tracer=None) -> RoundResult:
    """Set up, run every transaction of ``inputs`` once, and check the result."""
    before_setup = probe_ns()
    start = time.perf_counter_ns()
    env = Env(workload)
    workload.load(env.manager, inputs)
    raw_setup_ns = time.perf_counter_ns() - start
    setup_scale = 2 * REF_NS / (before_setup + probe_ns())
    check(env.calls["coordinator_write"] == 0, "loading wrote to the coordinator")
    for name in env.calls:
        env.calls[name] = 0

    model = {key: (payload, 1) for key, payload in inputs.initial.items()}
    expected = list(workload.per_tx.items())
    calls = env.calls
    manager = env.manager
    body = workload.body
    latencies: list[int] = []
    chunk_of: list[int] = []  # probe interval each latency falls in
    probes: list[int] = []
    chunk_ns: list[int] = []
    failed = 0
    if tracer is not None:
        env.attach(tracer)
        tracer.install()
    try:
        for i, tx_input in enumerate(inputs.txs):
            if i % CAL_EVERY == 0:
                if probes:
                    chunk_ns.append(time.perf_counter_ns() - chunk_start)
                probes.append(probe_ns())
                chunk_start = time.perf_counter_ns()
            counted = [calls[op] for op, _ in expected]
            start = time.perf_counter_ns()
            tx = manager.begin()
            try:
                seen = body(tx, tx_input)
                tx.commit()
            except ConflictAbort:
                failed += 1
                continue
            latencies.append(time.perf_counter_ns() - start)
            chunk_of.append(len(probes) - 1)
            for (op, n), c in zip(expected, counted):
                check(calls[op] - c == n, f"a {workload.name} commit made {calls[op] - c} {op} calls, not {n}")
            workload.check_and_apply(model, tx_input, seen)
        chunk_ns.append(time.perf_counter_ns() - chunk_start)
        probes.append(probe_ns())
    finally:
        if tracer is not None:
            tracer.uninstall()
            env.attach(None)
    committed = len(inputs.txs) - failed
    stored = check_dump(workload, env, model, committed)
    scales = [2 * REF_NS / (a + b) for a, b in zip(probes, probes[1:])]
    return RoundResult(
        setup_s=raw_setup_ns * setup_scale / 1e9,
        measure_s=sum(ns * f for ns, f in zip(chunk_ns, scales)) / 1e9,
        attempted=len(inputs.txs),
        committed=committed,
        latencies_ns=[ns * scales[j] for ns, j in zip(latencies, chunk_of)],
        calls=dict(calls),
        stored_bytes=stored,
        scale=REF_NS * len(probes) / sum(probes),
        raw_setup_s=raw_setup_ns / 1e9,
        raw_measure_s=sum(chunk_ns) / 1e9,
    )


# -- after-run checks ---------------------------------------------------------------


def value_bytes(value) -> int:
    """Bytes a column value or key component is sized at.

    None 0, bool 1, int 8, str its UTF-8 length, bytes their length.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, str):
        return len(value.encode())
    return len(value)


def row_bytes(record) -> int:
    """Key (namespace, table and key components) plus every column's name and value."""
    key = record.key
    size = len(key.namespace.encode()) + len(key.table.encode())
    size += sum(value_bytes(v) for v in key.partition_key + key.clustering_key)
    return size + sum(len(n.encode()) + value_bytes(v) for n, v in record.columns.items())


def check_dump(workload: Workload, env: Env, model: dict, committed: int) -> int:
    """Check every stored row against the model; return the bytes stored."""
    stored = 0
    logical: dict[FullKey, dict] = {}
    rows: dict[FullKey, int] = {}
    coordinator_rows = 0
    for name, store in env.inner.items():
        for record in store.dump():
            stored += row_bytes(record)
            columns = record.columns
            check(columns.get(COL_STATE) != "PREPARED", f"{record.key.render()} is PREPARED after the run")
            key = record.key
            if _is_coordinator(key):
                check(columns[COORD_STATE_COLUMN] == "COMMITTED", f"{key.render()} is not COMMITTED")
                coordinator_rows += 1
                continue
            check(key.namespace == NAMESPACE and key.table in (TABLE, META_TABLE),
                  f"unexpected row {key.render()}")
            app_key = FullKey(key.storage, NAMESPACE, TABLE, key.partition_key, key.clustering_key)
            logical.setdefault(app_key, {}).update(columns)
            rows[app_key] = rows.get(app_key, 0) + 1
    check(coordinator_rows == committed * workload.per_tx.get("coordinator_write", 0),
          f"{coordinator_rows} coordinator rows after {committed} commits")
    check(logical.keys() == model.keys(), "the stores hold other keys than the model")
    rows_per_key = 1 if workload.decoupling() is None else 2
    for key, (payload, version) in model.items():
        columns = logical[key]
        check(columns.get(PAYLOAD) == payload, f"{key.render()} holds another payload")
        check(columns.get(COL_VERSION) == version, f"{key.render()} is at version "
              f"{columns.get(COL_VERSION)}, not {version}")
        check(columns.get(COL_STATE) == "COMMITTED", f"{key.render()} is not COMMITTED")
        check(rows[key] == rows_per_key, f"{key.render()} is stored in {rows[key]} rows")
        app_columns = {n for n in columns if not n.startswith("_tx_")}
        check(app_columns == {PAYLOAD}, f"{key.render()} holds columns {sorted(app_columns)}")
    return stored


# -- end-to-end metrics -------------------------------------------------------------

# tx_p99_us is left out: its spread between runs was 9-18% of its median,
# more than a third of the widest bound a regression check may use, 0.25
# (see the README). run.py still prints it on standard error.
END_TO_END = {
    "tx_per_s": "1/s",
    "tx_p50_us": "us",
    "store_calls_per_tx": "count",
    "stored_bytes_per_user_byte": "B/B",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def percentile_us(values_ns, pct: float) -> float:
    """Nearest-rank percentile in microseconds; 0.0 for no samples."""
    if not values_ns:
        return 0.0
    ordered = sorted(values_ns)
    rank = -(-len(ordered) * pct // 100) - 1
    return ordered[int(max(0, rank))] / 1e3


def end_to_end(rounds: list[RoundResult], inputs: Inputs) -> dict[str, tuple[float, str]]:
    """Timings pooled or taken as medians over rounds; counts and sizes exact."""
    latencies = [ns for r in rounds for ns in r.latencies_ns]
    committed = sum(r.committed for r in rounds)
    calls = sum(r.calls[op] for r in rounds for op in ADAPTER_OPS)
    stored = {r.stored_bytes for r in rounds}
    check(len(stored) == 1, f"stored bytes differ between rounds of one run: {sorted(stored)}")
    values = {
        "tx_per_s": statistics.median(r.committed / r.measure_s for r in rounds),
        "tx_p50_us": statistics.median(latencies) / 1e3,
        "store_calls_per_tx": calls / committed,
        "stored_bytes_per_user_byte": stored.pop() / inputs.live_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(r.setup_s for r in rounds),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}
