"""The store-call log plugin (``tests/batchlog.py``): its normalising, its comparer, one run."""

import os
import subprocess
import sys
from pathlib import Path

import batchlog
from fedtx.storage import IF_NOT_EXISTS, ConditionalWrite, if_tx_id_equals
from conftest import k

TX_A = "A" * 22 + ".1f"
TX_B = "B" * 22 + ".2"
REPO = Path(__file__).resolve().parent.parent


def test_tx_ids_are_renumbered_in_order_of_first_appearance_and_named_columns_dropped():
    log = batchlog._Log()
    log.start()
    log.drop = frozenset({"_tx_gone"})
    write = ConditionalWrite(
        k(pk=TX_B), {"v": 1, "_tx_id": TX_A, "_tx_gone": 7}, if_tx_id_equals(TX_B)
    )
    assert log.write(write) == (
        "PUT 's1'/'app'/'t'/('tx1',)/() IF_TX_ID_EQUALS('tx1', None) {v=1, _tx_id='tx2'}"
    )
    not_an_id = TX_A + "x"
    assert log.row({"_tx_before": TX_B, "w": not_an_id}) == f"{{_tx_before='tx1', w={not_an_id!r}}}"
    log.start()  # each test numbers its own
    write = ConditionalWrite(k(), {"_tx_id": TX_B}, IF_NOT_EXISTS)
    assert log.write(write).endswith("{_tx_id='tx1'}")


def write_log(path, tests):
    """A log of (header, calls) pairs, as the plugin writes one."""
    lines = (f"== {name}\n" + "".join(f"{call}\n" for call in calls) for name, calls in tests)
    path.write_text("".join(lines))
    return str(path)


def test_the_comparer_sorts_each_test_by_verdict(tmp_path, capsys):
    old = write_log(
        tmp_path / "old.log",
        [("same", ["read s1 x -> None"]), ("differ", ["a"]), ("aside", []), ("gone", [])],
    )
    new = write_log(
        tmp_path / "new.log",
        [
            ("same", ["read s1 x -> None"]),
            ("differ", ["b"]),
            ("aside (set aside: started a thread)", []),
            ("added", []),
        ],
    )
    assert batchlog.compare(batchlog.read_log(old), batchlog.read_log(new)) == {
        "same": ["same"],
        "differ": ["differ"],
        "set aside": ["aside"],
        "old only": ["gone"],
        "new only": ["added"],
    }
    assert batchlog.main([old, new]) == 1
    assert capsys.readouterr().out == (
        "differs: differ\n1 same, 1 differ, 1 set aside, 1 old only, 1 new only\n"
    )
    assert batchlog.main([old, old]) == 0


PROBE = '''
import threading

from conftest import build_env, k


def test_commit_then_read():
    env = build_env()
    tx = env.manager.begin()
    tx.put(k(), {"v": 1})
    tx.commit()
    assert env.manager.begin().get(k()) == {"v": 1}


def test_threaded():
    env = build_env()
    worker = threading.Thread(target=env.manager.begin().get, args=(k(),))
    worker.start()
    worker.join()
'''


def test_a_run_logs_each_store_call_and_sets_a_threaded_test_aside(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    log = tmp_path / "probe.log"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO / "tests")]))
    command = [sys.executable, "-m", "pytest", "-q", "-p", "tests.batchlog", "-p", "no:cacheprovider"]
    options = [f"--batchlog={log}", "--batchlog-drop=_tx_version", f"--rootdir={tmp_path}"]
    run = subprocess.run(
        [*command, *options, str(tmp_path / "test_probe.py")],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert log.read_text().splitlines() == [
        "== test_probe.py::test_commit_then_read",
        "atomic_write s1 [PUT 's1'/'app'/'t'/(1,)/() IF_NOT_EXISTS(None, None)"
        " {v=1, _tx_id='tx1', _tx_state='COMMITTED'}] -> None",
        "read s1 's1'/'app'/'t'/(1,)/() -> {v=1, _tx_id='tx1', _tx_state='COMMITTED'}",
        "== test_probe.py::test_threaded (set aside: started a thread)",
    ]
