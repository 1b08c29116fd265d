"""Smoke test of the benchmark in perfbench/: every workload once at toy size.

The benchmark drives the program through encode_frame -> WindowState.push,
encode_frame rows -> speed.estimate_speed and encode_sequence, and checks
every output against references computed apart from the program, so an
interface change that breaks it fails here and not first in a benchmark run.
A traced run wraps functions where the program looks them up, among them
``recognizer.forward``, which a streaming evaluation calls once.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parent.parent


def quick_run(*flags):
    """The three result lines of ``perfbench/run.py --quick``, each checked correct."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--quick", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 3, proc.stdout[-2000:]
    assert all(result["correct"] is True for result in results), results
    return results


def test_quick_run_is_correct():
    quick_run()


def test_quick_traced_run_counts_every_evaluation():
    stream = quick_run("--trace", "1")[0]["metrics"]  # workloads run as stream, train, prep
    evaluations = stream["count.evaluations"]["value"]
    assert evaluations > 0
    assert evaluations == stream["count.windows"]["value"]
