"""The benchmark's self-test: its output checks, and every workload once
at a small size, traced and untraced, against this tree's sources."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_quick_passes():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "quick: all checks passed" in done.stdout.splitlines()
