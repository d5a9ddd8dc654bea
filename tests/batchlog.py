"""Every ``MemStore`` call, test by test: an opt-in pytest plugin and its comparer.

Load it with ``-p`` from the repository root; a plain test run never loads it::

    PYTHONHASHSEED=0 python -m pytest -p tests.batchlog tests --hypothesis-seed=0 \\
        --batchlog=new.log [--batchlog-drop=NAME,...]
    python tests/batchlog.py old.log new.log

The log holds a header line per test, its node id, then one line per call
that the test made on a ``MemStore``, in order: ``read``, ``scan``,
``snapshot_read``, ``view_read``, ``atomic_write`` or ``dump``, with its keys,
each write's kind and condition, every row in column order, and the result or
the type of the error raised. Each test starts from a ``uuid.uuid4`` seeded
with its node id, so a manager's tx-id prefix is the same in every run.

So that two trees' logs compare although their managers tick their clocks a
different number of times, tx ids (in keys, columns and conditions; a
coordinator key holds one) are renumbered ``tx1``, ``tx2``, ... in the order
they first appear in a test. A dump's records are logged sorted as
normalised, since the store orders them by raw keys. ``--batchlog-drop``
names columns left out of every row and condition: run the tree that stores
more columns with the ones the other leaves out. A test that starts a thread
is set aside: its calls interleave differently from run to run, so its
header says so and no call is logged.

The comparer reads each test's calls as a digest, prints each test whose
calls differ, and counts the tests that match, differ, were set aside, or
ran on one side only. Besides pytest, it uses only the standard library.
"""

from __future__ import annotations

import functools
import hashlib
import random
import re
import sys
import threading
import uuid

import pytest

# A tx id is a manager's 22-character base64 prefix, a dot and a hex tick.
_TX_ID = re.compile(r"[A-Za-z0-9_-]{22}\.[0-9a-f]+")
_ADDRESS = re.compile(r" at 0x[0-9a-f]+")  # an object's repr differs from run to run
_OPERATIONS = ("read", "scan", "snapshot_read", "view_read", "atomic_write", "dump")


class _Log:
    """The calls of the test running now, normalised as they are made."""

    def __init__(self):
        self.drop: frozenset[str] = frozenset()
        self.lines: list[str] | None = None  # None between tests
        self.threaded = False
        self.names: dict[str, str] = {}  # raw tx id -> its number in this test

    def start(self):
        self.lines, self.threaded, self.names = [], False, {}

    def value(self, value):
        if isinstance(value, str) and _TX_ID.fullmatch(value):
            name = self.names.get(value)
            if name is None:
                name = self.names[value] = f"tx{len(self.names) + 1}"
            return name
        if isinstance(value, tuple):
            return tuple(self.value(v) for v in value)
        return value

    def row(self, row) -> str:
        if row is None:
            return "None"
        drop = self.drop
        out = (f"{name}={self.value(value)!r}" for name, value in row.items() if name not in drop)
        return "{" + ", ".join(out) + "}"

    def key(self, key) -> str:
        return "/".join(repr(self.value(part)) for part in key)

    def write(self, write) -> str:
        key, columns, condition, kind = write
        try:
            condition_kind, tx_id, expected = condition
            condition = f"{condition_kind.name}({self.value(tx_id)!r}, {self.row(expected)})"
            return f"{kind.name} {self.key(key)} {condition} {self.row(columns)}"
        except (AttributeError, TypeError, ValueError):  # a forged write the store refuses
            return _ADDRESS.sub("", repr(write))

    def arguments(self, operation: str, args) -> str:
        if operation == "atomic_write":
            return "[" + "; ".join(self.write(write) for write in args[0]) + "]"
        if operation == "snapshot_read":
            return " ".join(self.key(key) for key in args[0])
        if operation == "view_read":
            return f"{args[0]} {self.key(args[1])}"
        return "" if operation == "dump" else self.key(args[0])  # read, scan

    def result(self, operation: str, result) -> str:
        if operation == "atomic_write":
            return repr(result)
        if operation == "scan":
            return " ".join(f"{self.value(ck)!r} {self.row(row)}" for ck, row in result)
        if operation == "snapshot_read":
            return " ".join(self.row(row) for row in result)
        if operation == "dump":  # the store orders it by raw keys, coordinator keys' raw tx ids too
            return " ".join(sorted(f"{self.key(r.key)} {self.row(r.columns)}" for r in result))
        return self.row(result)  # read, view_read


_log = _Log()


def _logged(operation: str, method):
    @functools.wraps(method)
    def logged(self, *args):
        if _log.lines is None or _log.threaded:
            return method(self, *args)
        call = f"{operation} {self.name} {_log.arguments(operation, args)}"
        try:
            result = method(self, *args)
        except BaseException as error:
            _log.lines.append(f"{call} raised {type(error).__name__}")
            raise
        _log.lines.append(f"{call} -> {_log.result(operation, result)}")
        return result

    return logged


def _seeded_uuid4(rng: random.Random):
    return lambda: uuid.UUID(int=rng.getrandbits(128), version=4)


def pytest_addoption(parser):
    group = parser.getgroup("batchlog")
    group.addoption("--batchlog", default="batchlog.txt", help="where to write the store-call log")
    group.addoption(
        "--batchlog-drop",
        default="",
        help="comma-separated column names left out of every logged row and condition",
    )


def pytest_configure(config):
    from fedtx.memstore import MemStore

    for operation in _OPERATIONS:
        setattr(MemStore, operation, _logged(operation, getattr(MemStore, operation)))
    start = threading.Thread.start

    def flagging_start(thread):
        if _log.lines is not None:
            _log.threaded = True
        return start(thread)

    threading.Thread.start = flagging_start
    _log.drop = frozenset(filter(None, config.getoption("batchlog_drop").split(",")))
    config._batchlog = open(config.getoption("batchlog"), "w", encoding="utf-8")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    _log.start()
    original = uuid.uuid4
    uuid.uuid4 = _seeded_uuid4(random.Random(item.nodeid))
    try:
        yield
    finally:
        uuid.uuid4 = original
        out = item.config._batchlog
        if _log.threaded:
            out.write(f"== {item.nodeid} (set aside: started a thread)\n")
        else:
            out.write(f"== {item.nodeid}\n")
            out.writelines(line + "\n" for line in _log.lines)
        _log.lines = None


def pytest_unconfigure(config):
    batchlog = getattr(config, "_batchlog", None)
    if batchlog is not None:
        batchlog.close()


# -- the comparer -------------------------------------------------------------------


def read_log(path: str) -> dict[str, str | None]:
    """A digest of each test's logged calls by node id; None for a test set aside."""
    tests: dict[str, str | None] = {}
    name = digest = None
    with open(path, "rb") as log:
        for line in log:
            if line.startswith(b"== "):
                if digest is not None:
                    tests[name] = digest.hexdigest()
                name, aside, _ = line[3:].rstrip(b"\n").decode().partition(" (set aside")
                digest = None if aside else hashlib.sha256()
                tests[name] = None
            elif digest is not None:
                digest.update(line)
    if digest is not None:
        tests[name] = digest.hexdigest()
    return tests


def compare(old: dict, new: dict) -> dict[str, list[str]]:
    """Node ids by verdict: same, differ, set aside (either side), old only, new only."""
    verdicts: dict[str, list[str]] = {
        "same": [], "differ": [], "set aside": [], "old only": [], "new only": []
    }
    for name in old.keys() | new.keys():
        if name not in new:
            verdict = "old only"
        elif name not in old:
            verdict = "new only"
        elif old[name] is None or new[name] is None:
            verdict = "set aside"
        else:
            verdict = "same" if old[name] == new[name] else "differ"
        verdicts[verdict].append(name)
    return {verdict: sorted(names) for verdict, names in verdicts.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/batchlog.py OLD.log NEW.log", file=sys.stderr)
        return 2
    verdicts = compare(read_log(argv[0]), read_log(argv[1]))
    for name in verdicts["differ"]:
        print(f"differs: {name}")
    print(", ".join(f"{len(names)} {verdict}" for verdict, names in verdicts.items()))
    return 1 if verdicts["differ"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
