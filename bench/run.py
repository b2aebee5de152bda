"""treespec benchmark: closed-loop certification workloads.

    python3 bench/run.py --workload {levels,cover,group} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  A run repeats *passes* of the workload for
about ``--seconds``; each pass is a fresh process (one caller, one BLAS
thread), so the cold ``generator_action`` cache and the import are paid as a
command-line user pays them, and a pass starts when the previous one ends.

With ``--trace 0`` the end-to-end metrics are medians over the passes.  With
``--trace 1`` untraced and traced passes alternate; the per-layer metrics are
medians over the traced passes, and ``trace.overhead_ratio`` compares the two
kinds.  Human-readable lines come first; the last line of standard output is
the JSON result.  A copy of everything, with the environment, goes to
``bench/results/``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("levels", "cover", "group")
# levels and cover cycle through their omega words, one per pass, so three
# passes of each kind see every input of the seed
MIN_PASSES = 3
DEADLINE_S = 170.0  # every run must exit within 180 s
BLAS_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB"}


class PassError(RuntimeError):
    pass


def git_revision() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(args, index: int, traced: bool, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--pass-index", str(index),
        "--trace", str(int(traced)),
    ]
    env = dict(os.environ, **BLAS_THREADS)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass {index} exceeded {timeout:.0f} s") from exc
    done = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass {index} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads(lines[-1])
    record.update(
        index=index,
        traced=traced,
        setup_s=record.pop("ready") - spawn,
        wall_s=done - spawn,
    )
    return record


def run_passes(args) -> list[dict]:
    """Passes until about ``args.seconds`` have gone, and at least
    MIN_PASSES of each kind the run needs."""
    begin = time.monotonic()
    passes: list[dict] = []
    kinds = (False, True) if args.trace else (False,)
    index = 0
    while True:
        traced = kinds[index % len(kinds)]
        elapsed = time.monotonic() - begin
        longest = max((p["wall_s"] for p in passes), default=0.0)
        enough = all(
            sum(p["traced"] == k for p in passes) >= MIN_PASSES for k in kinds
        )
        if enough and elapsed + longest > args.seconds:
            break
        if passes and elapsed + longest > DEADLINE_S:
            break
        passes.append(run_pass(args, index, traced, DEADLINE_S - elapsed))
        index += 1
    return passes


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(args, passes: list[dict]) -> tuple[dict, dict]:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    samples = {
        "setup_s": [p["setup_s"] for p in passes],
        "solve_s": [p["solve_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_kib"] / 1024 for p in untraced],
    }
    if not args.trace:
        metrics = {
            name: {"value": statistics.median(vals), "unit": END_TO_END_UNITS[name]}
            for name, vals in samples.items()
        }
    else:
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {}
        for spec in units:
            name = spec["name"]
            if name == "trace.overhead_ratio":
                value = statistics.median(p["solve_s"] for p in traced) / statistics.median(
                    samples["solve_s"]
                )
            else:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "treespec" / "__init__.py").is_file():
        print(f"error: no treespec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        passes = run_passes(args)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # a certificate is one name; it fails if it failed in any pass, and a
    # name whose outcome differs between passes makes the run incorrect
    outcomes: dict[str, set] = {}
    reasons: dict[str, str] = {}
    for p in passes:
        for name in p["certificates"]:
            outcomes.setdefault(name, set()).add(name in p["failures"])
        reasons.update(p["failures"])
    unstable = sorted(name for name, seen in outcomes.items() if len(seen) > 1)
    failed = sorted(name for name, seen in outcomes.items() if True in seen)
    metrics, samples = summarize(args, passes)

    env = {
        **passes[0]["versions"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": passes[0]["inputs"],
    }
    print("env: " + json.dumps(env))
    kinds = "traced and untraced" if args.trace else "untraced"
    print(f"{args.workload}: {len(passes)} passes ({kinds}), seed {args.seed}")
    for name, vals in samples.items():
        q1, med, q3 = quartiles(vals)
        print(
            f"  {name:<12} {med:12.4f} {END_TO_END_UNITS[name]:<5}"
            f" median of {len(vals)}, quartiles {q1:.4f} .. {q3:.4f}"
        )
    print(f"  {'certs':<12} {len(outcomes):12d} count")
    print(f"  {'certs_failed':<12} {len(failed):12d} count")
    for name in failed:
        print(f"    failed {name}: {reasons[name]}")
    for name in unstable:
        print(f"    outcome differs between passes: {name}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:14.6g} {m['unit']}")

    result = {
        "correct": not unstable,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(
        json.dumps(
            {
                "env": env,
                "result": result,
                "failures": {n: reasons[n] for n in failed},
                "passes": [
                    {k: v for k, v in p.items() if k not in ("inputs", "versions", "certificates")}
                    for p in passes
                ],
            },
            indent=1,
        )
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
