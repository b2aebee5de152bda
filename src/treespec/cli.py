"""Command-line surface binding the modules into reproducible runs.

Exit status contract: 0 = success, 1 = a verification failed (containment
violated, covering witness found, identity broken) or an input was refused,
2 = a usage error or an output path that cannot be written.  Every run echoes
its resolved configuration so artifacts are self-describing.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import covering as cov
from .config import ResourceLimitError, RunConfig
from .growth import ball_sizes, comparison_depth
from .omega import OmegaWord
from .presentation import abelianization_class, relators_U
from .actions import verify_trivial
from .schreier import (
    UpsilonSpec,
    _check_level,
    _upsilon_span,
    cayley_ball,
    level_projection_covering,
    schreier_graph,
    upsilon_graph,
)
from .serialize import export_dot, export_eigenvalue_csv, serialize_graph
from .spectra import (
    GRIG_TARGET,
    IntervalUnion,
    _certified_level_spectrum,
    dihedral_reduction_check,
    dihedral_weighted_spectrum,
    moments_via_eigendecomposition,
    spectral_moments,
    spectrum_sweep,
)

OK, VERIFY_FAIL, USAGE = 0, 1, 2


def _echo_config(config: RunConfig) -> None:
    print("config: " + json.dumps(config.as_dict(), sort_keys=True))


def _write(path: str | None, data: str | bytes) -> None:
    """Write data to the file at path, or to standard output for None or "-",
    where bytes go to the binary buffer, after the text printed so far, and
    are decoded only for a stream that has no buffer."""
    if path is None or path == "-":
        buffer = getattr(sys.stdout, "buffer", None)
        if isinstance(data, bytes) and buffer is not None:
            sys.stdout.flush()
            buffer.write(data)
        else:
            sys.stdout.write(data.decode() if isinstance(data, bytes) else data)
        return
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)


def _add_omega(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega", required=True, help="sequence as PRE:PERIOD, e.g. ':012'")


def _write_graph(args, g, meta: dict) -> int:
    """Write g as DOT under ``--dot``, else as a graph document carrying meta."""
    _write(args.output, export_dot(g) if args.dot else serialize_graph(g, meta))
    return OK


def cmd_schreier(args, config) -> int:
    w = OmegaWord.parse(args.omega)
    g = schreier_graph(w, args.level, config)
    return _write_graph(args, g, {"omega": str(w), "level": args.level})


def cmd_upsilon(args, config) -> int:
    spec = UpsilonSpec(args.kind, args.size)
    if spec.kind == "finite":
        _check_level(spec.size, config)  # 2^size vertices
    else:
        lo, hi, _ = _upsilon_span(spec)
        if hi - lo + 1 > config.max_vertices:
            raise ResourceLimitError(f"{hi - lo + 1} vertices exceed cap {config.max_vertices}")
    return _write_graph(args, upsilon_graph(spec), {"kind": args.kind, "size": args.size})


def cmd_spectrum(args, config) -> int:
    w = OmegaWord.parse(args.omega)
    vals = _certified_level_spectrum(w, args.level, config)
    target = IntervalUnion.parse(args.target)
    inside = target.contains(vals, config.membership_tol)
    _write(args.output, export_eigenvalue_csv({args.level: (vals.tolist(), inside.tolist())}))
    return OK if inside.all() else VERIFY_FAIL


def cmd_sweep(args, config) -> int:
    w = OmegaWord.parse(args.omega)
    target = IntervalUnion.parse(args.target)
    result = spectrum_sweep(w, args.max_level, target, config)
    levels = {n: (rep.eigenvalues, rep.in_target) for n, rep in result.reports.items()}
    _write(args.output, export_eigenvalue_csv(levels))
    for n, hd in result.hausdorff_by_level.items():
        print(f"level {n}: hausdorff(target -> cumulative) = {hd:.3g}")
    return OK if result.all_contained else VERIFY_FAIL


def cmd_cover_verify(args, config) -> int:
    w = OmegaWord.parse(args.omega)
    c = level_projection_covering(w, args.source_level, args.target_level, config)
    if args.corrupt_swap:
        m = c.edge_map
        a, *rest = sorted(m)
        b = next(k for k in rest if m[k] != m[a])
        c = cov.CoveringMap(c.source, c.target, c.vertex_map, {**m, a: m[b], b: m[a]})
    report = cov.verify_covering(c)
    fibers = Counter(map(c.phi, c.source.vertices))
    print(f"fiber sizes: {sorted(set(fibers.values()))}")
    if report.ok:
        print("covering verified")
        return OK
    print(f"covering violated: {report.witness}")
    return VERIFY_FAIL


def cmd_hulanicki(args, config) -> int:
    w = OmegaWord.parse(args.omega)
    radii = [int(r) for r in args.radii.split(",")]
    size = _check_level(args.target_level, config)
    # finite-target truncates one layer beyond the subexp ball, so reads one more
    window = max(radii) + size + 1 + (args.mode == "finite-target")
    ball = cayley_ball(w, window, args.target_level, config)
    report = cov.spectral_inclusion_report(ball.covering, radii, args.mode, config=config)
    ok = True
    for lam, res in zip(report.eigenvalues, report.best_residuals):
        print(f"lambda = {lam:+.6f}: best residual {res:.6f}")
    for rec in report.records:
        if rec.theoretical_bound is not None:
            ok = ok and rec.residual**2 <= rec.theoretical_bound + 1e-9
    print("bound soundness: " + ("ok" if ok else "VIOLATED"))
    return OK if ok else VERIFY_FAIL


def cmd_growth(args, config) -> int:
    w = OmegaWord.parse(args.omega)
    rep = ball_sizes(w, args.radius)
    print(f"gamma(0..{args.radius}) = {list(rep.sizes)}")
    print(f"exact at comparison depth {rep.depth}")
    return OK


def cmd_relators(args, config) -> int:
    w = OmegaWord.parse(args.omega)
    ok = True
    # a k below 1 reaches relators_U, which rejects it
    for level in range(min(args.k, 1), args.k + 1):
        for rel in relators_U(w, level):
            trivial = verify_trivial(rel, w, comparison_depth(w, len(rel)))
            in_comm = abelianization_class(rel) == (0, 0, 0)
            ok = ok and trivial.trivial and in_comm
            print(
                f"U_{level}: {rel[:40]}{'...' if len(rel) > 40 else ''} "
                f"trivial@{trivial.depth}={trivial.trivial} commutator={in_comm}"
            )
    return OK if ok else VERIFY_FAIL


def cmd_dihedral(args, config) -> int:
    rep = dihedral_reduction_check(OmegaWord.parse(args.omega), args.depth, config)
    print(
        f"depth {rep.depth}: T^2=I {rep.t_squared_is_identity}, "
        f"4M=A+2T+I {rep.markov_identity_holds}"
    )
    # M = A/4 + T/2 + I/4: line weights 1/4 and 1/2, then a shift by 1/4
    spec = dihedral_weighted_spectrum(0.25, 0.5)
    print(f"exact spectrum: {spec.exact}")
    print(f"shifted by 0.25: {spec.exact.affine(1.0, 0.25)}")
    for length in spec.truncation_lengths:
        print(f"truncation L={length}: boundary error {spec.boundary_errors[length]:.3g}")
    return OK if rep.t_squared_is_identity else VERIFY_FAIL


def cmd_moments(args, config) -> int:
    w = OmegaWord.parse(args.omega)
    size = _check_level(args.level, config)
    if not 0 <= args.vertex < size:
        print(f"error: --vertex must be in 0..{size - 1}", file=sys.stderr)
        return USAGE
    g = schreier_graph(w, args.level, config)
    v = g.vertices[args.vertex]
    seq = spectral_moments(g, v, args.count)
    ref = moments_via_eigendecomposition(g, v, args.count)
    dev = max(abs(a - b) for a, b in zip(seq.moments, ref.moments))
    print(f"moments at {v}: {[round(m, 12) for m in seq.moments]}")
    print(f"dual-method deviation: {dev:.3g}")
    print(f"hankel min eigenvalue: {seq.hankel_min_eigenvalue():.3g}")
    return OK if dev <= 1e-10 else VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="treespec")
    ap.add_argument("--max-vertices", type=int, default=RunConfig.max_vertices)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schreier", help="level Schreier graph")
    _add_omega(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_schreier)

    p = sub.add_parser("upsilon", help="model path-with-loops graph")
    p.add_argument("--kind", choices=["finite", "ray", "line"], default="finite")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_upsilon)

    p = sub.add_parser("spectrum", help="single-level Markov spectrum")
    _add_omega(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--target", default=str(GRIG_TARGET))
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="spectra of all levels vs a target set")
    _add_omega(p)
    p.add_argument("--max-level", type=int, required=True)
    p.add_argument("--target", default=str(GRIG_TARGET))
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cover-verify", help="verify a level projection covering")
    _add_omega(p)
    p.add_argument("--source-level", type=int, required=True)
    p.add_argument("--target-level", type=int, required=True)
    p.add_argument("--corrupt-swap", action="store_true", help="inject a violation")
    p.set_defaults(func=cmd_cover_verify)

    p = sub.add_parser("hulanicki", help="residual harness on a Cayley-ball cover")
    _add_omega(p)
    p.add_argument("--target-level", type=int, required=True)
    p.add_argument("--radii", default="4,6,8")
    p.add_argument("--mode", choices=["subexp", "finite-target"], default="subexp")
    p.set_defaults(func=cmd_hulanicki)

    p = sub.add_parser("growth", help="ball sizes of the group")
    _add_omega(p)
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("relators", help="relator families and their checks")
    _add_omega(p)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=cmd_relators)

    p = sub.add_parser("dihedral", help="dihedral reduction and line spectrum")
    _add_omega(p)
    p.add_argument("--depth", type=int, default=6)
    p.set_defaults(func=cmd_dihedral)

    p = sub.add_parser("moments", help="spectral-measure moments at a vertex")
    _add_omega(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--count", type=int, default=20)
    p.set_defaults(func=cmd_moments)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        config = RunConfig(max_vertices=args.max_vertices)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    except ValueError as exc:  # a cap RunConfig rejects
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    _echo_config(config)
    try:
        return args.func(args, config)
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
