"""Smoke test of the benchmark in perfbench/: every workload once at toy size.

The benchmark drives the program through encode_frame -> WindowState.push,
encode_frame rows -> speed.estimate_speed and encode_sequence, and checks
every output against references computed apart from the program, so an
interface change that breaks it fails here and not first in a benchmark run.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 3, proc.stdout[-2000:]
    assert all(result["correct"] is True for result in results), results
