"""The benchmark's own output checks still pass: one smoke pass of each workload."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_bench_smoke_is_correct():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in ("sweep", "series"):
        assert any(
            line.startswith(f"{workload}: correct,") for line in proc.stdout.splitlines()
        ), proc.stdout
