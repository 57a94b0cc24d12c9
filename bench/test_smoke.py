"""The benchmark's own test: a short run of every workload in both modes."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def test_smoke():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == '{"smoke": "ok"}'
