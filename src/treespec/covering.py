"""Graph coverings: verification, lifting, Folner data, and the residual
harness that certifies spectral inclusion numerically.

A covering is a pair of surjections (vertices, edges) restricting to a
bijection on every edge star.  Sources may be finite windows onto infinite
graphs; every certificate is then stamped with the window and the set of
interior vertices whose stars are complete.

The residual harness applies the lifted Markov operator without building it;
:func:`lift_weights` is the public weighted lift and the dense reference route.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, ResourceLimitError, RunConfig
from .graphs import Edge, Multigraph, WeightedGraph
from .graphs import _bfs_distances, _degrees, _markov_eigh, _neighbor_sum


class WindowTooSmallError(RuntimeError):
    pass


class BadStartError(ValueError):
    pass


class NotAnEigenpairError(ValueError):
    pass


@dataclass
class CoveringMap:
    """Vertex and edge surjections from source onto target.

    ``interior`` is the set of source vertices whose full edge star is
    present; None means the whole source is exact (finite covering).
    """

    source: Multigraph
    target: Multigraph
    vertex_map: dict
    edge_map: dict[int, int]
    interior: Optional[set] = None

    def phi(self, v):
        return self.vertex_map[v]

    def interior_vertices(self) -> list:
        if self.interior is None:
            return list(self.source.vertices)
        return [v for v in self.source.vertices if v in self.interior]


@dataclass(frozen=True)
class CoveringReport:
    ok: bool
    witness: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_covering(c: CoveringMap) -> CoveringReport:
    """Check that vertices map into the target, surjectivity, endpoint
    compatibility and local bijectivity.

    On windowed sources local bijectivity is checked at interior vertices
    only; if the window image misses part of the target the window cannot
    certify surjectivity and :class:`WindowTooSmallError` is raised.
    """
    src, tgt = c.source, c.target
    for v in src.vertices:
        if c.phi(v) not in tgt._index:
            return CoveringReport(
                False, f"vertex {v!r} maps to {c.phi(v)!r}, not a target vertex"
            )
    # endpoint compatibility (as multisets, so a non-loop may cover a loop)
    for ei, ti in c.edge_map.items():
        e, t = src.edges[ei], tgt.edges[ti]
        if Counter((c.phi(e.u), c.phi(e.v))) != Counter((t.u, t.v)):
            return CoveringReport(False, f"edge {ei} endpoints do not cover edge {ti}")
    interior = set(c.interior_vertices())
    for v in interior:
        star = src.incident(v)
        images = []
        for ei in star:
            if ei not in c.edge_map:
                return CoveringReport(False, f"edge {ei} at vertex {v!r} unmapped")
            images.append(c.edge_map[ei])
        tv = c.phi(v)
        if sorted(images) != sorted(tgt.incident(tv)):
            return CoveringReport(
                False, f"star at {v!r} is not bijective onto star at {tv!r}"
            )
    # surjectivity onto the target, witnessed by interior vertices
    hit_v = {c.phi(v) for v in interior}
    hit_e = {c.edge_map[ei] for v in interior for ei in src.incident(v)}
    missing_v = [v for v in tgt.vertices if v not in hit_v]
    missing_e = [i for i in range(len(tgt.edges)) if i not in hit_e]
    if missing_v or missing_e:
        if c.interior is not None:
            raise WindowTooSmallError(
                f"window image misses target vertices {missing_v[:3]} "
                f"or edges {missing_e[:3]}"
            )
        return CoveringReport(
            False, f"not surjective: missing vertices {missing_v[:3]}"
        )
    return CoveringReport(True)


def lift_weights(c: CoveringMap, weighted_target: WeightedGraph) -> WeightedGraph:
    """Pull back per-endpoint weights along the covering.

    ``weighted_target`` must have the same vertices and edge order as the
    covering's target.
    """
    edges = []
    for ei, e in enumerate(c.source.edges):
        te = weighted_target.edges[c.edge_map[ei]]
        pu, pv = c.phi(e.u), c.phi(e.v)
        if te.is_loop:
            wu = wv = te.wu
        else:
            wu = te.wu if pu == te.u else te.wv
            wv = te.wu if pv == te.u else te.wv
        edges.append(Edge(e.u, e.v, wu, wv, e.label))
    return WeightedGraph(c.source.vertices, edges)


def lift_path(
    c: CoveringMap, origin, edge_indices: Sequence[int], start
) -> list:
    """Unique lift of a target path; returns the source vertex sequence."""
    if c.phi(start) != origin:
        raise BadStartError(f"{start!r} is not in the fiber of {origin!r}")
    path = [start]
    cur_t, cur_s = origin, start
    for ti in edge_indices:
        te = c.target.edges[ti]
        if cur_t not in (te.u, te.v):
            raise ValueError(f"target edge {ti} not incident to {cur_t!r}")
        lifted = [
            ei for ei in c.source.incident(cur_s) if c.edge_map.get(ei) == ti
        ]
        if len(lifted) != 1:
            raise ValueError(
                f"lift not unique at {cur_s!r}: {len(lifted)} candidate edges"
            )
        e = c.source.edges[lifted[0]]
        cur_s = e.v if e.u == cur_s else e.u
        cur_t = te.v if te.u == cur_t else te.u
        path.append(cur_s)
    return path


# ---------------------------------------------------------------------------
# Folner data


@dataclass(frozen=True)
class FolnerReport:
    sizes: tuple[int, ...]  # |B_k| for k = 0..k_max
    boundary_ratios: tuple[float, ...]  # |B_1(F_k) \ F_k| / |F_k|
    subexp_evidence: bool
    growth_rates: tuple[float, ...]  # |B_k|^(1/k)


def folner_balls(c: CoveringMap, v, k_max: int) -> FolnerReport:
    """Ball sizes and boundary ratios of F_k = B_k(v) in the source of c.

    An infinite graph is read through a window, a covering with ``interior``
    set; the outer boundary of F_{k_max} is exact only if B_{k_max + 1}(v) is,
    and :class:`WindowTooSmallError` is raised otherwise.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    dist = _bfs_distances(c.source, v)
    _require_exact_ball(c, dist, k_max + 1)
    sizes = [sum(1 for d in dist.values() if d <= k) for k in range(k_max + 2)]
    ratios = tuple(
        (sizes[k + 1] - sizes[k]) / sizes[k] for k in range(1, k_max + 1)
    )
    rates = tuple(sizes[k] ** (1.0 / k) for k in range(1, k_max + 1))
    # evidence only: growth rate fitted over the top half of the range close
    # to 1 and the per-k rates still falling
    half = max(1, k_max // 2)
    fitted = (sizes[k_max] / sizes[half]) ** (1.0 / (k_max - half)) if k_max > half else rates[-1]
    evidence = fitted < 1.3 and rates[-1] <= rates[half - 1]
    return FolnerReport(tuple(sizes[: k_max + 1]), ratios, evidence, rates)


# ---------------------------------------------------------------------------
# residual harness


def _require_exact_ball(c: CoveringMap, dist: dict, k: int) -> None:
    """Raise unless B_k of the BFS base is exact: every vertex closer than k is interior."""
    if c.interior is None:
        return
    for x, d in dist.items():
        if d < k and x not in c.interior:
            raise WindowTooSmallError(f"radius {k}: {x!r} at distance {d} is not interior")


def _fiber_census(c: CoveringMap, dist: dict, v, radii) -> dict[int, int]:
    """alpha_j, the fiber points of phi(v) within distance j of v, per radius j."""
    fiber = [d for x, d in dist.items() if c.phi(x) == c.phi(v)]
    return {j: sum(d <= j for d in fiber) for j in sorted(set(radii))}


def fiber_count(c: CoveringMap, v, k: int) -> int:
    """Number of fiber points of phi(v) within the radius-k source ball."""
    dist = _bfs_distances(c.source, v)
    _require_exact_ball(c, dist, k)
    return _fiber_census(c, dist, v, [k])[k]


def _unit_target_vector(c: CoveringMap, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (c.target.n,) or not f.any():
        raise ValueError("f must be a nonzero vector on the target vertices")
    return f / float(np.linalg.norm(f))


def _lifted_markov(c: CoveringMap, x: np.ndarray) -> np.ndarray:
    """The lifted Markov operator applied to x, with degrees read at each image."""
    tdeg = dict(zip(c.target.vertices, _degrees(c.target)))
    return _neighbor_sum(c.source, x) / [tdeg[c.phi(v)] for v in c.source.vertices]


@dataclass(frozen=True)
class HulanickiRecord:
    mode: str
    k: int
    n_support: int
    residual: float
    theoretical_bound: Optional[float]
    folner_ratio: Optional[float]
    alphas: dict[int, int] = field(default_factory=dict)


# a target residual at or below this makes (lam, f) an exact eigenpair
EIGEN_TOL = 1e-9


def _base_distances(c: CoveringMap) -> tuple:
    """The base (the first source vertex) and the two searches every residual
    record reads: source distances from it and target distances from its image."""
    base = c.source.vertices[0]
    return base, _bfs_distances(c.source, base), _bfs_distances(c.target, c.phi(base))


def hulanicki_residual(
    c: CoveringMap, lam: float, f: np.ndarray, mode: str, k: int
) -> HulanickiRecord:
    """Residual of the truncated pullback of f against the lifted operator.

    Balls are centred at the base, the first source vertex.

    mode "finite-target": f must be an exact eigenpair of the target Markov
    operator; the pullback is truncated to B_{N+1}(B_k(base)) with N the
    target size, and the Folner ratio of B_k(base) is reported alongside.

    mode "subexp": f may be an eps-approximate eigenvector; the pullback is
    truncated to B_k(base) and the residual is compared against the bound
    eps^2 a_k / a_{k-N} + 2 |supp f| (a_{k+N} - a_{k-2N}) / a_{k-N}
    computed from the measured fiber counts a_j.
    """
    return _residual(c, _base_distances(c), lam, f, mode, k)


def _residual(
    c: CoveringMap, searches: tuple, lam: float, f, mode: str, k: int
) -> HulanickiRecord:
    """:func:`hulanicki_residual` on the searches of :func:`_base_distances`."""
    if mode not in ("finite-target", "subexp"):
        raise ValueError(f"unknown mode {mode!r}")
    tgt = c.target
    f = _unit_target_vector(c, f)
    eps = float(np.linalg.norm(_neighbor_sum(tgt, f) / _degrees(tgt) - lam * f))
    if mode == "finite-target" and eps > EIGEN_TOL:
        raise NotAnEigenpairError(f"target residual {eps:.3e} > {EIGEN_TOL}")

    base, dist, tdist = searches
    support = [tgt.vertices[i] for i in np.nonzero(np.abs(f) > 0)[0]]
    if mode == "finite-target":
        n_ctrl = tgt.n
        trunc = k + n_ctrl + 1
    else:
        n_ctrl = max(tdist[s] for s in support)
        trunc = k
    # B_{trunc+1} for the residual rows, B_{k+N} for the fiber counts
    _require_exact_ball(c, dist, max(trunc + 1, k + n_ctrl))

    fk = np.zeros(c.source.n)
    for v, d in dist.items():
        if d <= trunc:
            fk[c.source.index(v)] = f[tgt.index(c.phi(v))]
    norm_fk = float(np.linalg.norm(fk))
    if norm_fk == 0:
        raise ValueError("truncated pullback vanishes; enlarge k")
    residual = float(np.linalg.norm(_lifted_markov(c, fk) - lam * fk)) / norm_fk

    if mode == "subexp":
        needed = [k, k - n_ctrl, k + n_ctrl, k - 2 * n_ctrl]
        alphas = _fiber_census(c, dist, base, needed)
        denom = alphas[k - n_ctrl]
        if denom == 0:
            raise ValueError(f"alpha_(k-N) = 0 at k={k}, N={n_ctrl}; enlarge k")
        bound = (
            eps**2 * alphas[k] / denom
            + 2 * len(support) * (alphas[k + n_ctrl] - alphas[k - 2 * n_ctrl]) / denom
        )
        return HulanickiRecord("subexp", k, len(support), residual, bound, None, alphas)

    ball = sum(1 for d in dist.values() if d <= k)
    boundary = sum(1 for d in dist.values() if d == k + 1)
    return HulanickiRecord(
        "finite-target", k, len(support), residual, None, boundary / ball, {}
    )


def window_pullback_residual(c: CoveringMap, lam: float, f: np.ndarray) -> HulanickiRecord:
    """Residual of the full pullback of f on a finite (possibly windowed) source.

    The pullback f(phi(x)) is taken on every source vertex, so the cutoff is
    the window itself: rows at rim vertices (incomplete stars) carry the
    truncation defect, interior rows vanish exactly when f is an eigenvector.
    For an exact finite covering the residual is therefore 0.  The reported
    ``folner_ratio`` is the fraction of non-interior vertices.
    """
    tgt = c.target
    f = _unit_target_vector(c, f)
    fk = np.array([f[tgt.index(c.phi(v))] for v in c.source.vertices])
    residual = float(np.linalg.norm(_lifted_markov(c, fk) - lam * fk)) / float(np.linalg.norm(fk))
    rim = c.source.n - len(c.interior_vertices())
    return HulanickiRecord(
        "window", c.source.n, int(np.count_nonzero(np.abs(f) > 0)),
        residual, None, rim / c.source.n, {},
    )


@dataclass(frozen=True)
class InclusionReport:
    eigenvalues: tuple[float, ...]
    best_residuals: tuple[float, ...]
    records: tuple[HulanickiRecord, ...]


def spectral_inclusion_report(
    c: CoveringMap,
    k_schedule: Sequence[int],
    mode: str = "subexp",
    config: RunConfig = DEFAULT_CONFIG,
) -> InclusionReport:
    """Best residual per target eigenvalue over a schedule of radii.

    The target must be finite; its Markov operator is fully diagonalized and
    each eigenpair is pushed through :func:`hulanicki_residual`, all on one
    pair of searches.
    """
    if c.target.n > config.max_vertices:
        raise ResourceLimitError(f"target exceeds max_vertices {config.max_vertices}")
    vals, vecs = _markov_eigh(c.target)
    # eigenvectors of the symmetric form, mapped to eigenvectors of D^-1 A
    vecs = vecs / np.sqrt(_degrees(c.target))[:, None]
    searches = _base_distances(c)
    records = []
    best = []
    for i in range(len(vals)):
        best_res = math.inf
        for k in k_schedule:
            rec = _residual(c, searches, float(vals[i]), vecs[:, i], mode, k)
            records.append(rec)
            best_res = min(best_res, rec.residual)
        best.append(best_res)
    return InclusionReport(tuple(map(float, vals)), tuple(best), tuple(records))
