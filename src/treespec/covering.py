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

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, repeat
from typing import Optional, Sequence

import numpy as np

from .config import _INT, DEFAULT_CONFIG, ResourceLimitError, RunConfig, _require_int_radii
from .graphs import Multigraph, WeightedGraph
from .graphs import _bfs_distances, _degrees, _from_ends, _markov_eigh, _neighbor_sum, _stars


class WindowTooSmallError(RuntimeError):
    pass


class BadStartError(ValueError):
    pass


class NotAnEigenpairError(ValueError):
    pass


@dataclass(frozen=True)
class CoveringMap:
    """Vertex and edge surjections from source onto target.

    ``interior`` is the set of source vertices whose full edge star is
    present; None means the whole source is exact (finite covering).  Numeric
    routines read tables by source position, each built once on first use.
    """

    source: Multigraph
    target: Multigraph
    vertex_map: dict
    edge_map: dict[int, int]
    interior: Optional[set] = None

    def phi(self, v):
        return self.vertex_map[v]

    @cached_property
    def _image(self) -> np.ndarray:
        """Each source vertex's image as a target position; ValueError names a
        vertex that is unmapped or maps outside the target."""
        image = map(self.target.index, map(self.vertex_map.__getitem__, self.source.vertices))
        try:
            return np.fromiter(image, np.intp, self.source.n)
        except (KeyError, TypeError):  # TypeError: an unhashable image
            raise ValueError(_vertex_fault(self)) from None

    @cached_property
    def _edge_entries(self) -> tuple[np.ndarray, np.ndarray, Optional[str]]:
        """The edge map's keys and values as id arrays, in map order up to the first
        entry that is not a pair of edge ids in range, and the text naming it or None."""
        m, bounds = self.edge_map, (len(self.source.ends), len(self.target.ends))
        if all(map(isinstance, chain(m.keys(), m.values()), repeat(_INT))):
            try:
                keys, values = (np.fromiter(ids, np.intp, len(m)) for ids in (m.keys(), m.values()))
            except OverflowError:  # an id past the range of intp
                pass
            else:
                outside = (keys < 0) | (keys >= bounds[0]) | (values < 0) | (values >= bounds[1])
                if not np.count_nonzero(outside):
                    return keys, values, None
        # some entry is malformed: the scan names the first
        for count, (ei, ti) in enumerate(m.items()):
            if not (isinstance(ei, _INT) and isinstance(ti, _INT)):
                fault = f"edge map {ei!r} -> {ti!r} is not a pair of edge ids"
            elif not (0 <= ei < bounds[0] and 0 <= ti < bounds[1]):
                fault = f"edge map {ei} -> {ti} out of range"
            else:
                continue
            keys, values = (np.fromiter(ids, np.intp, count) for ids in (m.keys(), m.values()))
            return keys, values, fault

    @cached_property
    def _edge_image(self) -> np.ndarray:
        """The target edge id of each source edge, -1 where unmapped; ValueError
        names the first edge-map entry that is not a pair of edge ids in range."""
        keys, values, fault = self._edge_entries
        if fault:
            raise ValueError(fault)
        table = np.full(len(self.source.ends), -1, np.intp)
        table[keys] = values
        return table

    @cached_property
    def _image_degree(self) -> np.ndarray:
        return _degrees(self.target)[self._image]

    @cached_property
    def _interior(self) -> np.ndarray:
        inside, src = self.interior, self.source
        return np.fromiter((inside is None or v in inside for v in src.vertices), bool, src.n)

    @cached_property
    def _base(self) -> tuple[np.ndarray, np.ndarray]:
        """Source distances from the base, the first source vertex, and target
        distances from its image."""
        s, t = self.source, self.target
        return _bfs_distances(s, s.vertices[0]), _bfs_distances(t, t.vertices[self._image[0]])


@dataclass(frozen=True)
class CoveringReport:
    ok: bool
    witness: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _vertex_fault(c: CoveringMap) -> Optional[str]:
    """The first source vertex that is unmapped or maps outside the target."""
    for v in c.source.vertices:
        if v not in c.vertex_map:
            return f"vertex {v!r} unmapped"
        try:
            inside = c.phi(v) in c.target
        except TypeError:  # an unhashable image
            inside = False
        if not inside:
            return f"vertex {v!r} maps to {c.phi(v)!r}, not a target vertex"
    return None


def _endpoint_fault(c: CoveringMap, image: np.ndarray) -> Optional[str]:
    """The first well-formed edge-map entry, in map order, whose ends do not
    cover its image's (as multisets, so a non-loop may cover a loop)."""
    keys, values, _ = c._edge_entries
    (a, b), (u, w) = image[c.source.ends[keys]].T, c.target.ends[values].T
    mismatch = np.flatnonzero(~((a == u) & (b == w) | (a == w) & (b == u)))
    if not mismatch.size:
        return None
    ei, ti = next(islice(c.edge_map.items(), int(mismatch[0]), None))
    return f"edge {ei} endpoints do not cover edge {ti}"


def _star_fault(c: CoveringMap, image: np.ndarray) -> Optional[str]:
    """The first interior vertex, in source order, whose star does not map
    bijectively onto the star at its image; an unmapped star edge is named
    first.  With endpoints compatible each edge image at v lies in the star at
    phi(v), so the star maps onto it bijectively iff every edge is mapped, no
    image repeats and degrees agree.

    A repeat is a run in the sorted (vertex, image + 1) keys; the shift keeps
    unmapped (-1) images apart.  The stable argsort is the sort the slot index
    is built with, so it pages in no numpy code of its own."""
    s, t = _stars(c.source), _stars(c.target)
    slot_image = c._edge_image[s.edge]
    unmapped = slot_image < 0
    width = len(c.target.ends) + 1
    keys = s.vertex * width + slot_image + 1
    keys = keys[np.argsort(keys, kind="stable")]
    bad = np.diff(s.ptr) != np.diff(t.ptr)[image]
    bad[s.vertex[unmapped]] = True
    bad[keys[1:][keys[1:] == keys[:-1]] // width] = True
    faulty = np.flatnonzero(bad & c._interior)
    if not faulty.size:
        return None
    x = int(faulty[0])
    v, star = c.source.vertices[x], slice(s.ptr[x], s.ptr[x + 1])
    gap = np.flatnonzero(unmapped[star])
    if gap.size:
        return f"edge {s.edge[star][gap[0]]} at vertex {v!r} unmapped"
    return f"star at {v!r} is not bijective onto star at {c.phi(v)!r}"


def verify_covering(c: CoveringMap) -> CoveringReport:
    """Check that vertices map into the target, surjectivity, endpoint
    compatibility and local bijectivity.

    On windowed sources local bijectivity is checked at interior vertices
    only; if the window image misses part of the target the window cannot
    certify surjectivity and :class:`WindowTooSmallError` is raised.  The
    checks run in numpy on one read of the edge map; the witness is the first
    fault in a fixed order: a source vertex, then an endpoint mismatch in map
    order before the first malformed edge-map entry, then that entry, then an
    interior vertex in source order, then the first missing target vertices and edges.
    """
    src, tgt = c.source, c.target
    try:
        image = c._image
    except ValueError as fault:
        return CoveringReport(False, str(fault))
    fault = _endpoint_fault(c, image) or c._edge_entries[2] or _star_fault(c, image)
    if fault:
        return CoveringReport(False, fault)
    # surjectivity onto the target, witnessed by interior vertices
    table, s = c._edge_image, _stars(src)
    hit_v, hit_e = np.zeros(tgt.n, bool), np.zeros(len(tgt.ends), bool)
    hit_v[image[c._interior]] = True
    hit_e[table[s.edge[c._interior[s.vertex]]]] = True
    missing_v = [tgt.vertices[i] for i in np.flatnonzero(~hit_v)[:3].tolist()]
    missing_e = np.flatnonzero(~hit_e)[:3].tolist()
    if missing_v or missing_e:
        if c.interior is not None:
            raise WindowTooSmallError(
                f"window image misses target vertices {missing_v} or edges {missing_e}"
            )
        return CoveringReport(False, f"not surjective: missing vertices {missing_v}")
    return CoveringReport(True)


def lift_weights(c: CoveringMap, weighted_target: WeightedGraph) -> WeightedGraph:
    """Pull back per-endpoint weights along the covering.

    ``weighted_target`` must have the same vertices and edge order as the
    covering's target, and every source vertex and edge must be mapped into
    it; ValueError otherwise.
    """
    w = weighted_target
    if w.vertices != c.target.vertices or not np.array_equal(w.ends, c.target.ends):
        raise ValueError("weighted target differs from the covering target in vertices or edges")
    c._image  # ValueError names a vertex that is unmapped or maps outside the target
    unmapped = np.flatnonzero(c._edge_image < 0)  # ValueError names a malformed entry
    if unmapped.size:
        raise ValueError(f"source edge {unmapped[0]} unmapped")
    table, image, src = w.weights[c._edge_image], w.ends[c._edge_image], c.source
    # each source end takes the weight at the target end that is its image; a loop has one weight
    at_u = (image[:, :1] == c._image[src.ends]) | (image[:, :1] == image[:, 1:])
    weights = np.where(at_u, table[:, :1], table[:, 1:])
    return _from_ends(WeightedGraph, list(src.vertices), src.ends, src.labels, weights)


def lift_path(
    c: CoveringMap, origin, edge_indices: Sequence[int], start
) -> list:
    """Unique lift of a target path; returns the source vertex sequence.

    BadStartError names a start that is not a source vertex in the fiber of
    ``origin``.  ValueError names a step whose target edge id is not an int in
    range, or not incident to the walk, or does not lift to exactly one source
    edge.
    """
    try:
        inside = start in c.source and c.phi(start) == origin
    except (KeyError, TypeError):  # an unmapped or an unhashable start
        inside = False
    if not inside:
        raise BadStartError(f"{start!r} is not in the fiber of {origin!r}")
    table, stars, n_edges = c._edge_image, _stars(c.source), len(c.target.ends)
    x = c.source.index(start)  # the walk by positions: x in the source, y in the target
    y = int(c._image[x])
    path = [start]
    for ti in edge_indices:
        if not (isinstance(ti, _INT) and 0 <= ti < n_edges):
            raise ValueError(f"target edge {ti!r} is not an edge id in range({n_edges})")
        tu, tv = c.target.ends[ti].tolist()
        if y not in (tu, tv):
            raise ValueError(f"target edge {ti} not incident to {c.target.vertices[y]!r}")
        star = stars.edge[stars.ptr[x]:stars.ptr[x + 1]]
        lifted = star[table[star] == ti]
        if lifted.size != 1:
            raise ValueError(
                f"lift not unique at {c.source.vertices[x]!r}: {lifted.size} candidate edges"
            )
        su, sv = c.source.ends[lifted[0]].tolist()
        x, y = sv if su == x else su, tv if tu == y else tu
        path.append(c.source.vertices[x])
    return path


# ---------------------------------------------------------------------------
# Folner data


@dataclass(frozen=True)
class FolnerReport:
    sizes: tuple[int, ...]  # |B_k| for k = 0..k_max
    boundary_ratios: tuple[float, ...]  # |B_1(F_k) \ F_k| / |F_k|
    subexp_evidence: bool


def folner_balls(c: CoveringMap, v, k_max: int) -> FolnerReport:
    """Ball sizes and boundary ratios of F_k = B_k(v) in the source of c.

    An infinite graph is read through a window, a covering with ``interior``
    set; the outer boundary of F_{k_max} is exact only if B_{k_max + 1}(v) is,
    and :class:`WindowTooSmallError` is raised otherwise.
    """
    _require_int_radii([k_max])
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    radius = _require_exact_ball(c, _bfs_distances(c.source, v), k_max + 1)
    sizes = np.searchsorted(np.sort(radius), np.arange(k_max + 2), side="right").tolist()
    ratios = tuple(
        (sizes[k + 1] - sizes[k]) / sizes[k] for k in range(1, k_max + 1)
    )
    rates = tuple(sizes[k] ** (1.0 / k) for k in range(1, k_max + 1))
    # evidence only: growth rate fitted over the top half of the range close
    # to 1 and the per-k rates still falling
    half = max(1, k_max // 2)
    fitted = (sizes[k_max] / sizes[half]) ** (1.0 / (k_max - half)) if k_max > half else rates[-1]
    evidence = fitted < 1.3 and rates[-1] <= rates[half - 1]
    return FolnerReport(tuple(sizes[: k_max + 1]), ratios, evidence)


# ---------------------------------------------------------------------------
# residual harness


def _require_exact_ball(c: CoveringMap, radius: np.ndarray, k: int) -> np.ndarray:
    """``radius`` (source distances from a search base) once B_k of the base is exact, every
    vertex closer than k interior; else WindowTooSmallError names the nearest, ties by position."""
    rim = np.flatnonzero((radius < k) & ~c._interior)
    if rim.size:
        x = rim[radius[rim].argmin()]
        v, d = c.source.vertices[x], int(radius[x])
        raise WindowTooSmallError(f"radius {k}: {v!r} at distance {d} is not interior")
    return radius


def fiber_count(c: CoveringMap, v, k: int) -> int:
    """Number of fiber points of phi(v) within the radius-k source ball."""
    _require_int_radii([k])
    radius = _require_exact_ball(c, _bfs_distances(c.source, v), k)
    return int(np.count_nonzero((radius <= k) & (c._image == c._image[c.source.index(v)])))


def _unit_target_vector(c: CoveringMap, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (c.target.n,) or not f.any():
        raise ValueError("f must be a nonzero vector on the target vertices")
    return f / float(np.linalg.norm(f))


def _pullback_residual(c: CoveringMap, lam: float, fk: np.ndarray, vanished: str) -> float:
    """||(M - lam) fk|| / ||fk|| for fk by source position, M the lifted Markov operator:
    the neighbour sum over the target degree at each image.  ValueError(vanished) if fk = 0."""
    norm_fk = float(np.linalg.norm(fk))
    if norm_fk == 0:
        raise ValueError(vanished)
    lifted = _neighbor_sum(c.source, fk) / c._image_degree
    return float(np.linalg.norm(lifted - lam * fk)) / norm_fk


@dataclass(frozen=True)
class HulanickiRecord:
    mode: str
    k: int
    residual: float
    theoretical_bound: Optional[float]
    folner_ratio: Optional[float]
    alphas: dict[int, int] = field(default_factory=dict)


# a target residual at or below this makes (lam, f) an exact eigenpair
EIGEN_TOL = 1e-9


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
    if mode not in ("finite-target", "subexp"):
        raise ValueError(f"unknown mode {mode!r}")
    _require_int_radii([k])
    tgt = c.target
    f = _unit_target_vector(c, f)
    eps = float(np.linalg.norm(_neighbor_sum(tgt, f) / _degrees(tgt) - lam * f))
    if mode == "finite-target" and eps > EIGEN_TOL:
        raise NotAnEigenpairError(f"target residual {eps:.3e} > {EIGEN_TOL}")

    (radius, tdist), image = c._base, c._image
    support = np.flatnonzero(np.abs(f) > 0)
    if mode == "finite-target":
        n_ctrl = tgt.n
        trunc = k + n_ctrl + 1
    else:
        far = support[np.isinf(tdist[support])]
        if far.size:
            raise ValueError(
                f"f is supported at {tgt.vertices[far[0]]!r}, which the base's image does not reach"
            )
        n_ctrl = int(tdist[support].max())
        trunc = k
    # B_{trunc+1} for the residual rows, B_{k+N} for the fiber counts
    _require_exact_ball(c, radius, max(trunc + 1, k + n_ctrl))

    fk = np.where(radius <= trunc, f[image], 0.0)
    residual = _pullback_residual(c, lam, fk, "truncated pullback vanishes; enlarge k")

    if mode == "subexp":
        needed = [k, k - n_ctrl, k + n_ctrl, k - 2 * n_ctrl]
        fiber = radius[image == image[0]]  # distances of the base's fiber points
        alphas = {j: int(np.count_nonzero(fiber <= j)) for j in sorted(set(needed))}
        denom = alphas[k - n_ctrl]
        if denom == 0:
            raise ValueError(f"alpha_(k-N) = 0 at k={k}, N={n_ctrl}; enlarge k")
        bound = (
            eps**2 * alphas[k] / denom
            + 2 * len(support) * (alphas[k + n_ctrl] - alphas[k - 2 * n_ctrl]) / denom
        )
        return HulanickiRecord("subexp", k, residual, bound, None, alphas)

    ball = int(np.count_nonzero(radius <= k))
    boundary = int(np.count_nonzero(radius == k + 1))
    return HulanickiRecord("finite-target", k, residual, None, boundary / ball, {})


def window_pullback_residual(c: CoveringMap, lam: float, f: np.ndarray) -> HulanickiRecord:
    """Residual of the full pullback of f on a finite (possibly windowed) source.

    The pullback f(phi(x)) is taken on every source vertex, so the cutoff is
    the window itself: rows at rim vertices (incomplete stars) carry the
    truncation defect, interior rows vanish exactly when f is an eigenvector.
    For an exact finite covering the residual is therefore 0.  The reported
    ``folner_ratio`` is the fraction of non-interior vertices.
    """
    fk = _unit_target_vector(c, f)[c._image]
    vanished = "pullback vanishes: f is zero on every image of the window"
    residual = _pullback_residual(c, lam, fk, vanished)
    rim = c.source.n - int(np.count_nonzero(c._interior))
    return HulanickiRecord("window", c.source.n, residual, None, rim / c.source.n, {})


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
    each eigenpair is pushed through :func:`hulanicki_residual`, all on the
    covering's one pair of base searches.
    """
    if len(k_schedule) == 0:
        raise ValueError("k_schedule must hold at least one radius")
    _require_int_radii(k_schedule)
    if c.target.n > config.max_vertices:
        raise ResourceLimitError(f"target exceeds max_vertices {config.max_vertices}")
    vals, vecs = _markov_eigh(c.target)
    # eigenvectors of the symmetric form, mapped to eigenvectors of D^-1 A
    vecs = vecs / np.sqrt(_degrees(c.target))[:, None]
    by_value = [
        [hulanicki_residual(c, float(lam), vecs[:, i], mode, k) for k in k_schedule]
        for i, lam in enumerate(vals)
    ]
    best = tuple(min(rec.residual for rec in recs) for recs in by_value)
    return InclusionReport(tuple(map(float, vals)), best, tuple(chain.from_iterable(by_value)))
