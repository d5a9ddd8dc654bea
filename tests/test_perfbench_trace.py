"""The traced benchmark runs end to end over the commit and scan paths.

``perfbench/run.py --trace 1`` rebinds names inside ``fedtx.transaction`` and
``TxHandle`` at run time, so renaming or reshaping them breaks it. Each case
runs one traced smoke round as a subprocess from the repository root.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["rmw_cross_store", "read_split_view", "scan_update_partition"])
def test_traced_smoke_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
