"""Spans recorded from outside the program, and the per-layer metrics they give.

The adapter layer is timed by ``workloads.AdapterProxy``. The ``grouping``,
``decoupling`` and ``records`` layers are timed by rebinding, for the length
of a traced round only, the names through which ``fedtx.transaction`` (and,
for ``parse_metadata``, ``fedtx.decoupling``) call them. The transaction
surface is timed by rebinding ``TxHandle.get``, ``scan`` and ``commit``.

A span is ``[name, start_ns, end_ns, parent, tx_id, note]``. Spans stay in
memory; ``write_spans`` writes one round's spans out as JSON lines, in raw
nanoseconds. The per-layer times are scaled to the reference CPU by the
round's mean speed scale (see ``workloads.REF_NS``).
"""

from __future__ import annotations

import json
import statistics
import threading
import time

import fedtx.decoupling
import fedtx.transaction
from fedtx.records import COL_STATE
from fedtx.transaction import TxHandle
from workloads import ADAPTER_OPS, new_calls, percentile_us

ROUTES = {"COLOCATED": "colocated", "VIEW": "view", "SNAPSHOT": "snapshot", "SPLIT_READS": "split"}
PHASES = ("prepare", "coordinator", "commit_records", "one_phase")


class Tracer:
    """Collects spans of one round from the client thread and the write pool."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = new_counts()
        self.tx_id = None
        self.coordinated = False
        self._client = threading.get_ident()
        self._client_stack: list = []
        self._local = threading.local()
        self._saved: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, note=None) -> list:
        stack = self._stack()
        # A write-pool thread has no open span of its own; its calls belong
        # to whatever the client thread is blocked in.
        parent = stack[-1] if stack else (self._client_stack[-1] if self._client_stack else None)
        span = [name, time.perf_counter_ns(), 0, parent, self.tx_id, note]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack().pop()

    def phase_of(self, writes, coordinator: bool) -> str | None:
        """Commit phase of one batch, from its target and its rows' ``_tx_state``."""
        if coordinator:
            self.coordinated = True
            return "coordinator"
        state = next((w.columns[COL_STATE] for w in writes if COL_STATE in w.columns), None)
        if state == "PREPARED":
            return "prepare"
        if state == "COMMITTED":
            return "commit_records" if self.coordinated else "one_phase"
        return None

    # -- rebinding -----------------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)  # fails loudly when a name moves
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def _span_around(self, name: str, after=None):
        def wrap(fn):
            def traced(*args, **kwargs):
                span = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(span)
                if after is not None:
                    after(result)
                return result

            return traced

        return wrap

    def _tx_method(self, name: str, starts_commit: bool = False):
        def wrap(fn):
            def traced(tx, *args):
                self.tx_id = tx.tx_id
                if starts_commit:
                    self.coordinated = False
                span = self.open(name)
                try:
                    return fn(tx, *args)
                finally:
                    self.close(span)

            return traced

        return wrap

    def _count_route(self, result) -> None:
        self.counts["route." + ROUTES[result.path.value]] += 1

    def _count_groups(self, groups) -> None:
        self.counts["groups"] += len(groups)

    def install(self) -> None:
        tx_module = fedtx.transaction
        self._rebind(tx_module, "read_dispatch", self._span_around("decoupling.read_dispatch", self._count_route))
        self._rebind(tx_module, "expand_writes", self._span_around("decoupling.expand_writes"))
        self._rebind(tx_module, "group_by_atomicity_unit", self._span_around("grouping.group", self._count_groups))
        self._rebind(tx_module, "combined_columns", self._span_around("records.combined_columns"))
        self._rebind(tx_module, "parse_metadata", self._span_around("records.parse_metadata"))
        self._rebind(fedtx.decoupling, "parse_metadata", self._span_around("records.parse_metadata"))
        self._rebind(TxHandle, "get", self._tx_method("transaction.get"))
        self._rebind(TxHandle, "scan", self._tx_method("transaction.scan"))
        self._rebind(TxHandle, "commit", self._tx_method("transaction.commit", starts_commit=True))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def new_counts() -> dict[str, int]:
    return dict.fromkeys(["groups"] + [f"route.{r}" for r in ROUTES.values()], 0)


# -- per-layer metrics ------------------------------------------------------------


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    end = lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


class LayerStats:
    """Accumulates per-layer figures over the traced rounds of one run."""

    def __init__(self):
        self.durations: dict[str, list[int]] = {}
        self.self_ns = {"transaction.commit": 0, "decoupling.read_dispatch": 0}
        self.phase_ns = dict.fromkeys(PHASES, 0)
        self.counts = new_counts()
        self.calls = new_calls()
        self.results: list = []

    def add_round(self, tracer: Tracer, result) -> None:
        """Fold in one traced round; times are scaled by the round's mean speed scale."""
        self.results.append(result)
        scale = result.scale
        for name, n in tracer.counts.items():
            self.counts[name] += n
        for name, n in result.calls.items():
            self.calls[name] += n
        children: dict[int, list] = {}
        phases: dict[tuple, list] = {}
        for name, start, end, parent, tx_id, note in tracer.spans:
            self.durations.setdefault(name, []).append((end - start) * scale)
            if parent is not None:
                children.setdefault(id(parent), []).append((start, end))
            if note in self.phase_ns:
                phases.setdefault((tx_id, note), []).append((start, end))
        for span in tracer.spans:
            if span[0] in self.self_ns:
                start, end = span[1], span[2]
                inner = covered_ns(children.get(id(span), ()), start, end)
                self.self_ns[span[0]] += (end - start - inner) * scale
        for (_, phase), intervals in phases.items():
            self.phase_ns[phase] += covered_ns(intervals, 0, 1 << 62) * scale

    def metrics(self, untraced: list) -> dict[str, tuple[float, str]]:
        """Per-layer figures, then the traced p50 and its overhead over ``untraced`` rounds."""
        per_tx = max(sum(r.committed for r in self.results), 1)
        out: dict[str, tuple[float, str]] = {}

        def durations(name):
            return self.durations.get(name, [])

        def p50_us(name):
            values = durations(name)
            return statistics.median(values) / 1e3 if values else 0.0

        def us_per_tx(name):
            return sum(durations(name)) / 1e3 / per_tx

        for op in ("get", "scan", "commit"):
            out[f"transaction.{op}.p50_us"] = (p50_us(f"transaction.{op}"), "us")
        out["transaction.commit.p99_us"] = (percentile_us(durations("transaction.commit"), 99), "us")
        out["transaction.commit.self_us_per_tx"] = (self.self_ns["transaction.commit"] / 1e3 / per_tx, "us")
        for phase in PHASES:
            out[f"transaction.phase.{phase}_us_per_tx"] = (self.phase_ns[phase] / 1e3 / per_tx, "us")
        out["grouping.groups_per_commit"] = (self.counts["groups"] / per_tx, "count")
        out["grouping.group.us_per_commit"] = (us_per_tx("grouping.group"), "us")
        out["decoupling.read_dispatch.p50_us"] = (p50_us("decoupling.read_dispatch"), "us")
        out["decoupling.read_dispatch.self_us_per_tx"] = (
            self.self_ns["decoupling.read_dispatch"] / 1e3 / per_tx,
            "us",
        )
        for route in ROUTES.values():
            out[f"decoupling.route.{route}_per_tx"] = (self.counts[f"route.{route}"] / per_tx, "count")
        out["decoupling.expand_writes.us_per_tx"] = (us_per_tx("decoupling.expand_writes"), "us")
        for fn in ("parse_metadata", "combined_columns"):
            name = f"records.{fn}"
            out[f"{name}.calls_per_tx"] = (len(durations(name)) / per_tx, "count")
            out[f"{name}.us_per_tx"] = (us_per_tx(name), "us")
        for op in ADAPTER_OPS:
            name = f"memstore.{op}"
            out[f"{name}.calls_per_tx"] = (self.calls[op] / per_tx, "count")
            out[f"{name}.p50_us"] = (p50_us(name), "us")
            out[f"{name}.us_per_tx"] = (us_per_tx(name), "us")
        out["memstore.scan.rows_per_call"] = (self.calls["scan_rows"] / max(self.calls["scan"], 1), "count")
        out["memstore.atomic_write.rows_per_call"] = (
            self.calls["atomic_write_rows"] / max(self.calls["atomic_write"], 1),
            "count",
        )
        out["memstore.atomic_write.condition_failures_per_tx"] = (
            self.calls["condition_failure"] / per_tx,
            "count",
        )
        out["memstore.coordinator.reads_per_tx"] = (self.calls["coordinator_read"] / per_tx, "count")
        out["memstore.coordinator.writes_per_tx"] = (self.calls["coordinator_write"] / per_tx, "count")
        traced_p50, plain_p50 = median_us(self.results), median_us(untraced)
        out["trace.tx_p50_us"] = (traced_p50, "us")
        out["trace.overhead_pct"] = (100 * (traced_p50 / plain_p50 - 1) if plain_p50 else 0.0, "%")
        return out


def median_us(rounds) -> float:
    latencies = [ns for r in rounds for ns in r.latencies_ns]
    return statistics.median(latencies) / 1e3 if latencies else 0.0


def write_spans(tracer: Tracer, path) -> None:
    """One JSON array per line: name, start_ns, end_ns, parent line, tx id, note."""
    index = {id(span): i for i, span in enumerate(tracer.spans)}
    with open(path, "w", encoding="utf-8") as out:
        for name, start, end, parent, tx_id, note in tracer.spans:
            parent_index = index[id(parent)] if parent is not None else None
            out.write(json.dumps([name, start, end, parent_index, tx_id, note]) + "\n")
