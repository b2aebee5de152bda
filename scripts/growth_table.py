"""Growth experiment: Cayley-ball sizes for several symbol words.

Prints |B(r)| for the group generated by a, b, c, d, together with the
r-th root of the ball size (a crude subexponentiality indicator).
"""
import argparse

from treespec import OmegaWord, ball_sizes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omegas", default=":012,:01,0:12")
    ap.add_argument("--radius", type=int, default=10)
    args = ap.parse_args()

    for omega in args.omegas.split(","):
        report = ball_sizes(OmegaWord.parse(omega), args.radius)
        print(f"omega = {omega} (comparison depth = {report.depth})")
        for r, size in enumerate(report.sizes):
            root = size ** (1 / r) if r else float("nan")
            print(f"  r = {r:2d}: |B(r)| = {size:6d}  |B(r)|^(1/r) = {root:.3f}")


if __name__ == "__main__":
    main()
