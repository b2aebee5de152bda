"""Certify the level-N Schreier graph of every omega at once.

Level N reads only the symbols omega_1 .. omega_(N-1), so the 3^(N-1)
prefixes in {0,1,2}^(N-1) stand for every omega.  Each is certified by the
four permutation checks of ``level_certificate``, which make the level graph
the path with loops and fix its Markov spectrum; a failure prints its witness.
"""
import argparse
import itertools
import sys
import time

from treespec import OmegaWord, RunConfig, level_certificate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--level", type=int, default=8)
    args = ap.parse_args()
    n = args.level
    if n < 1:
        ap.error("--level must be >= 1")
    config = RunConfig(max_vertices=1 << n)

    print(f"omega = every prefix in {{0,1,2}}^{n - 1}, then 0 forever")
    start = time.perf_counter()
    failed = 0
    for prefix in itertools.product(range(3), repeat=n - 1):
        w = OmegaWord(prefix, (0,))
        certificate = level_certificate(w, n, config)
        if not certificate:
            failed += 1
            print(f"  {w}: {certificate.witness}")
    words = 3 ** (n - 1)
    print(
        f"level {n}: {words - failed} of {words} prefixes certified "
        f"in {time.perf_counter() - start:.2f} s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
