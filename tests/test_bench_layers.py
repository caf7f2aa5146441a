"""The benchmark's tracer wraps library functions by name (``bench/layers.py``),
so a library change that drops or renames one of them breaks every traced
benchmark run.  This runs the tracer's install and restore in a subprocess,
which keeps the benchmark's own modules out of the test process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
from surfsense import classifier
import layers
from tracer import Patches, StepClock, Tracer

original = classifier.batch_tensors
patches = Patches()
layers.install(Tracer(), patches)
# bench/run.py also times each training step through batch_tensors
patches.rebind(classifier, "batch_tensors", StepClock().wrap)
assert classifier.batch_tensors is not original
patches.restore()
assert classifier.batch_tensors is original
"""


def test_benchmark_tracer_installs_and_restores_on_the_library():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT / "bench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
