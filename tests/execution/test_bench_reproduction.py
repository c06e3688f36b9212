"""Committed simulated-clock benchmark files reproduce byte for byte.

``BENCH_adaptive.json``, ``BENCH_data_cache.json`` and
``BENCH_lakehouse_freshness.json`` hold only simulated-clock figures, so
a full-mode rerun at HEAD must write exactly the committed bytes.  A
drift means either a behaviour change that forgot to re-baseline its
file, or nondeterminism.  (The traffic-storm bench is also exact but too
slow for this suite; CI compares it instead.)
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", ["adaptive", "data_cache", "lakehouse_freshness"])
def test_committed_bench_file_reproduces_exactly(tmp_path, name):
    output = tmp_path / f"BENCH_{name}.json"
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    result = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / f"bench_{name}.py"),
            "--output",
            str(output),
        ],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert output.read_bytes() == (REPO_ROOT / f"BENCH_{name}.json").read_bytes()
