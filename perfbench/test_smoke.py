"""Smoke test of the benchmark: every workload, untraced and traced, with all checks.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from fedtx import FaultKind, InjectedCrash  # noqa: E402
from workloads import ADAPTER_OPS, PAYLOAD, SMOKE_TX, WORKLOADS, CheckFailed, Env, check_dump  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PAPER_CALLS = {"rmw_cross_store": 13, "read_split_view": 8, "scan_update_partition": 2}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    rounds = 2 if trace == "1" else 1
    assert result["attempted"] == rounds * SMOKE_TX
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert metrics["store_calls_per_tx"] == PAPER_CALLS[workload]
        assert all(value > 0 for value in metrics.values())
    else:
        calls = sum(metrics[f"memstore.{op}.calls_per_tx"] for op in ADAPTER_OPS)
        assert calls == PAPER_CALLS[workload]


def _loaded_env(name):
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(3, 0)
    env = Env(workload)
    workload.load(env.manager, inputs)
    model = {key: (payload, 1) for key, payload in inputs.initial.items()}
    return workload, env, model


@pytest.mark.parametrize("name", ["rmw_cross_store", "read_split_view"])
def test_dump_check_catches_a_wrong_payload(name):
    workload, env, model = _loaded_env(name)
    assert check_dump(workload, env, model, 0) > 0
    key = next(iter(model))
    model[key] = (b"x" * len(model[key][0]), 1)
    with pytest.raises(CheckFailed, match="another payload"):
        check_dump(workload, env, model, 0)


def test_dump_check_catches_a_prepared_row():
    workload, env, model = _loaded_env("scan_update_partition")
    # Two partitions make two groups, so the commit prepares; the crash
    # after the first prepare batch leaves that batch's row PREPARED.
    keys = [key for key in model if key.clustering_key == (0,)][:2]
    env.inner["parts"].inject_faults([(0, FaultKind.CRASH_AFTER_BATCH)])
    tx = env.manager.begin()
    for key in keys:
        tx.put(key, {PAYLOAD: b"y"})
    with pytest.raises(InjectedCrash):
        tx.commit()
    with pytest.raises(CheckFailed, match="PREPARED"):
        check_dump(workload, env, model, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "--workload", "rmw_cross_store", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
