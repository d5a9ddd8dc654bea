"""Contended read-modify-writes across the four metadata modes, checked at scale.

Six threads run 300 transactions each over 20 keys on two STORAGE-unit
stores, with a forced interleaving. Each run's history of a thousand or more
commits goes through the serialization-graph check and the atomicity audit;
then no record may stay PREPARED and the sum of the values must equal three
times the commits.

The split-reads cases run hotter: twelve threads of 500 transactions over 4
keys. That route reads a key's two rows one after the other, so a writer can
tear the pair, and the hot load makes torn reads common. At 20 keys and six
threads of 300, a run whose threads switched only every few milliseconds (as
on a busy host) could tear no pair at all.
"""

import random
import sys
import threading

import pytest

from fedtx import ConflictAbort, RecoveryFailed, TxState
from fedtx.decoupling import logical_key
from fedtx.records import COL_STATE, COL_VERSION
from fedtx.verifier import HistoryRecorder, audit_atomicity, check_serializable
from conftest import METADATA_MODES, build_env, k, mode_env_args

COORD = ("coord", "coordinator", "state")
STORES = ("s1", "s2")
KEYS = [k(store, pk) for store in STORES for pk in range(10)]
THREADS, TXS_PER_THREAD, KEYS_PER_TX = 6, 300, 3
HOT_KEYS = [k(store, pk) for store in STORES for pk in range(2)]
# mode -> (keys, threads, transactions a thread)
CONTENTION = {"split_reads": (HOT_KEYS, 12, 500)}


def dump_versions(env):
    """Each logical key's stored version; a metadata row stands for its application row."""
    versions = {}
    for name in STORES:
        for record in env.adapter(name).dump():
            if COL_STATE not in record.columns:
                continue
            versions[logical_key(record.key).render()] = record.columns[COL_VERSION]
    return versions


def worker(manager, seed, serializable, commits, keys, txs):
    rng = random.Random(seed)
    for _ in range(txs):
        tx = manager.begin(serializable=serializable)
        try:
            for key in rng.sample(keys, KEYS_PER_TX):
                tx.put(key, {"v": tx.get(key)["v"] + 1})
            tx.commit()
        except (ConflictAbort, RecoveryFailed):
            continue
        commits.append(tx.tx_id)


@pytest.mark.parametrize("serializable", [False, True], ids=["plain", "serializable"])
@pytest.mark.parametrize("mode", list(METADATA_MODES))
def test_contended_read_modify_writes_conserve_the_sum(mode, serializable):
    keys, thread_count, txs = CONTENTION.get(mode, (KEYS, THREADS, TXS_PER_THREAD))
    env = build_env(**mode_env_args(mode, STORES))
    preload = env.manager.begin()
    for key in keys:
        preload.put(key, {"v": 0})
    preload.commit()
    env.manager.drain_commit_records()
    recorder = HistoryRecorder()
    env.manager.history = recorder
    initial = dump_versions(env)

    commits = []
    threads = [
        threading.Thread(
            target=worker, args=(env.manager, seed, serializable, commits, keys, txs)
        )
        for seed in range(thread_count)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "a worker hung"
    env.manager.drain_commit_records()

    history = recorder.history(initial)
    history.final = dump_versions(env)
    violation = check_serializable(history)
    if violation is not None:
        pytest.fail(f"not serializable: {violation.message} {violation.tx_ids[:10]}")
    findings = audit_atomicity(env.dump_all(), history, COORD)
    if findings:
        pytest.fail(f"atomicity audit: {findings[:10]}")
    prepared = [r for r in env.dump_all() if r.columns.get(COL_STATE) == TxState.PREPARED.value]
    if prepared:
        pytest.fail(f"{len(prepared)} records left PREPARED when quiescent")

    reader = env.manager.begin()
    total = sum(reader.get(key)["v"] for key in keys)
    reader.commit()
    assert len(commits) > 0
    assert total == KEYS_PER_TX * len(commits)
