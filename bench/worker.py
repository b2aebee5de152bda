"""One pass of a workload, in a fresh process; prints one JSON line.

Started by run.py.  ``ready`` is read from the system-wide monotonic clock so
that the parent can measure set-up from the moment it spawned this process:
interpreter start, ``import treespec`` and input generation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import treespec

    if SRC not in Path(treespec.__file__).resolve().parents:
        print(f"error: imported treespec from {treespec.__file__}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    from workloads import WORKLOADS, Certificates, make_inputs

    inputs = make_inputs(args.workload, args.seed)
    ready = time.monotonic()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    certs = Certificates()
    start = time.perf_counter()
    WORKLOADS[args.workload](inputs, args.pass_index, certs)
    solve_s = time.perf_counter() - start

    record = {
        "ready": ready,
        "solve_s": solve_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "certificates": certs.names,
        "failures": certs.failures,
        "inputs": inputs,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(solve_s)
        record["spans"] = tracer.span_table()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
