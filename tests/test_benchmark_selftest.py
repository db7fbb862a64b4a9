"""The benchmark's own self-tests, run as one test.

``perfbench/selftest.py`` checks the workload lists, the tracer and the
verdicts against the library (for instance that the tracer sees one
``catalog_stabilizer`` span per ``stabilizer`` command); its file name keeps
it out of pytest's collection, so this runs it in a subprocess.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
