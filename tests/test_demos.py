"""Every narrative demo and README example runs to completion against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S
)


def run_python(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    done = run_python([str(demo)])
    assert done.returncode == 0, done.stderr


def test_write_grouping_demo_prints_17_5_and_1_write_transactions():
    done = run_python([str(ROOT / "demos" / "write_grouping.py")])
    assert done.returncode == 0, done.stderr
    counts = re.findall(r"^[a-z -]+: (\d+) write transactions?\b", done.stdout, re.M)
    assert counts == ["17", "5", "1"]


def test_readme_python_blocks_run():
    assert README_BLOCKS, "README.md has no python block"
    for block in README_BLOCKS:
        done = run_python(["-c", block])
        assert done.returncode == 0, done.stderr
