"""The benchmark tracer in bench/tracing.py still installs over the package.

The tracer wraps names of ``treespec`` by string (private helpers among
them) and reads their arguments, so a rename or a changed signature breaks
only traced benchmark runs.  Here it is installed in a fresh interpreter,
because it patches the modules for good, and a small pass runs through every
layer that it counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PASS = """
import json, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import Tracer
tracer = Tracer()
tracer.install()
import treespec as ts
start = time.perf_counter()
w = ts.OmegaWord.parse(":012")
ts.spectrum_sweep(w, 4)
for n in range(1, 5): ts.markov_eigenvalues_banded(ts.level_path_form(w, n))
ts.verify_covering(ts.level_projection_covering(w, 4, 2))
ball = ts.cayley_ball(w, 6, 1)
ts.spectral_inclusion_report(ball.covering, [3])
ts.enumerate_ball(w, 4)
print(json.dumps(tracer.metrics(time.perf_counter() - start)))
"""


def test_tracer_runs_over_the_package():
    proc = subprocess.run(
        [sys.executable, "-c", PASS, str(ROOT / "src"), str(ROOT / "bench")],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["spectra.eigenvalues"] == 2 + 4 + 8 + 16
    assert metrics["graphs.dense_bytes"] > 0
    assert metrics["covering.bfs.calls"] > 0
    assert metrics["covering.verify_covering.self_s"] > 0
    assert metrics["growth.depths_tried"] > 0
    assert metrics["growth.enumerate_ball.calls"] > 0
    assert metrics["schreier.vertices_built"] > 0
    assert metrics["graphs.neighbors.calls"] > 0
