"""Seeded inputs and the three certification workloads of the benchmark.

A workload runs as a sequence of *passes*, each in a fresh process.  A pass is
a list of certificates: each calls into ``treespec`` and checks the output
against a reference that does not share the code path under test.  A
certificate whose output disagrees, or whose program call raises, counts as
failed; no failure stops the pass.

The seed only chooses the omega words and the closed walks.  Sizes are fixed
here so that every seed does the same amount of work:

* ``levels`` draws omega freely from Omega_2: the level graphs, and so every
  cost in this workload, are the same for every such word.
* ``cover`` and ``group`` draw each omega as a relabelling of the symbols
  {0, 1, 2} of a fixed base word.  A relabelling permutes the generators
  b, c, d, so the groups, their balls and their relators have the same sizes;
  other words of Omega_2 give balls of 804 to 999 elements at radius 11 and
  relator families of 392 to 1296 letters, which would make the run time a
  property of the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np

import treespec as ts

# levels: one omega per pass, every level up to LEVELS_MAX
LEVELS_OMEGAS = 3
LEVELS_MAX = 13
RAY_SIZES = (6, 20)

# cover: one omega per pass
COVER_BASE = ":012"
COVER_OMEGAS = 2
COVER_SOURCE, COVER_TARGET = 10, 3
COVER_RADII = (4, 6)
CAYLEY_LEVEL = 2
WALKS, WALK_HALF = 12, 12

# group: all three omegas in every pass, one per normal form
GROUP_BASES = (":012", ":01", "0:01")
GROUP_RADIUS = 18
ORACLE_RADIUS, ORACLE_DEPTH = 6, 10
RELATOR_K, RELATOR_DEPTH = 3, 11
DIHEDRAL_DEPTH = 9

TARGET = ((-0.5, 0.0), (0.5, 1.0))
SPECTRUM_TOL = 1e-10
HAUSDORFF_TOL = 1e-12
RAY_TOL = 1e-9
RESIDUAL_SLACK = 1e-9


# ---------------------------------------------------------------------------
# inputs


def _random_omega2(rng: random.Random) -> str:
    pre = "".join(str(rng.randrange(3)) for _ in range(rng.randrange(4)))
    while True:
        period = "".join(str(rng.randrange(3)) for _ in range(rng.randint(2, 4)))
        if len(set(period)) >= 2:
            return f"{pre}:{period}"


def _relabel(word: str, perm: tuple[int, ...]) -> str:
    return "".join(c if c == ":" else str(perm[int(c)]) for c in word)


def _closed_walk(rng: random.Random) -> str:
    """A back-and-forth walk with a b, c, d loop spliced in.

    b, c and d commute and bcd = 1, so every ordering of the three letters
    is a closed walk that never backtracks.
    """
    half = [rng.choice("abcd") for _ in range(WALK_HALF)]
    walk = half + half[::-1]
    cut = rng.randrange(len(walk) + 1)
    return "".join(walk[:cut] + rng.sample("bcd", 3) + walk[cut:])


def make_inputs(workload: str, seed: int) -> dict:
    """Every input a pass of ``workload`` uses, drawn from ``seed`` alone."""
    rng = random.Random(f"{workload}:{seed}")
    perms = list(itertools.permutations(range(3)))
    if workload == "levels":
        omegas: list[str] = []
        while len(omegas) < LEVELS_OMEGAS:
            word = _random_omega2(rng)
            if word not in omegas:
                omegas.append(word)
        return {"omegas": omegas}
    if workload == "cover":
        omegas = [_relabel(COVER_BASE, p) for p in rng.sample(perms, COVER_OMEGAS)]
        walks = []
        for _ in range(WALKS):
            origin = format(rng.randrange(1 << COVER_TARGET), f"0{COVER_TARGET}b")
            tail = COVER_SOURCE - COVER_TARGET
            start = origin + format(rng.randrange(1 << tail), f"0{tail}b")
            walks.append({"origin": origin, "start": start, "letters": _closed_walk(rng)})
        return {"omegas": omegas, "walks": walks}
    if workload == "group":
        return {"omegas": [_relabel(b, rng.choice(perms)) for b in GROUP_BASES]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# certificate bookkeeping


class Certificates:
    """Names of the certificates run, and the reason for each failure."""

    def __init__(self):
        self.names: list[str] = []
        self.failures: dict[str, str] = {}

    def check(self, name: str, fn) -> None:
        """Run one certificate; ``fn`` returns None on success or a reason."""
        self.names.append(name)
        try:
            reason = fn()
        except Exception as exc:  # a program error fails this certificate only
            reason = f"raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures[name] = reason


def _stage(fn):
    """Result of a program call that several certificates share, or the
    exception it raised (each dependent certificate then fails with it)."""
    try:
        return fn()
    except Exception as exc:
        return exc


def _need(value):
    if isinstance(value, Exception):
        raise value
    return value


# ---------------------------------------------------------------------------
# references


def closed_form_spectrum(n: int) -> np.ndarray:
    """Markov spectrum of the level-n graph, from the renormalisation
    x -> x^2 - 2x - 4 (Bartholdi-Grigorchuk 2000), sorted."""
    vals = [np.array([0.5, 1.0])]
    for level in range(2, n + 1):
        j = np.arange(1 << (level - 2))
        r = np.sqrt(5 + 4 * np.cos((2 * j + 1) * math.pi / (1 << (level - 1))))
        vals += [(1 + r) / 4, (1 - r) / 4]
    return np.sort(np.concatenate(vals))


def hausdorff_to_target(points: np.ndarray) -> float:
    """sup over the target set of the distance to the nearest point."""
    pts = np.sort(points)
    mids = (pts[:-1] + pts[1:]) / 2
    worst = 0.0
    for lo, hi in TARGET:
        cand = np.concatenate(([lo, hi], mids[(mids >= lo) & (mids <= hi)]))
        i = np.searchsorted(pts, cand)
        right = np.where(i < len(pts), pts[np.minimum(i, len(pts) - 1)] - cand, np.inf)
        left = np.where(i > 0, cand - pts[np.maximum(i - 1, 0)], np.inf)
        worst = max(worst, float(np.minimum(left, right).max()))
    return worst


def _in_target(x: np.ndarray, tol: float) -> np.ndarray:
    return np.logical_or.reduce([(lo - tol <= x) & (x <= hi + tol) for lo, hi in TARGET])


def _edge_codes(edges, label_of, size: int) -> np.ndarray:
    """Sorted codes lo * size + hi of the edge endpoints, as integers."""
    ends = np.array([(label_of[e.u], label_of[e.v]) for e in edges], dtype=np.int64)
    ends.sort(axis=1)
    return np.sort(ends[:, 0] * size + ends[:, 1])


def _is_isomorphism(g, u, mapping) -> bool:
    """The vertex bijection carries the edge multiset of g onto that of u."""
    if mapping is None or len(mapping) != g.n or set(mapping) != set(g.vertices):
        return False
    position = {v: i for i, v in enumerate(u.vertices)}
    if sorted(position[x] for x in mapping.values()) != list(range(u.n)):
        return False
    image = {v: position[x] for v, x in mapping.items()}
    return np.array_equal(
        _edge_codes(g.edges, image, u.n), _edge_codes(u.edges, position, u.n)
    )


def symmetric_markov_spectrum(g) -> np.ndarray:
    """Markov spectrum from D^-1/2 A D^-1/2, which is symmetric and similar
    to D^-1 A on any graph; loops count once toward the degree."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    a = np.zeros((g.n, g.n))
    for e in g.edges:
        i, j = idx[e.u], idx[e.v]
        a[i, j] += 1
        if i != j:
            a[j, i] += 1
    deg = np.sqrt(a.sum(axis=1))  # a loop adds 1 to the diagonal only
    return np.linalg.eigvalsh(a / np.outer(deg, deg))


def _edge_table(g) -> dict:
    """(vertex, label) -> edge index, for graphs with one edge per label."""
    table = {}
    for i, e in enumerate(g.edges):
        table[(e.u, e.label)] = i
        table[(e.v, e.label)] = i
    return table


def _letter_parity(word: str) -> tuple[int, int, int]:
    counts = Counter(word)
    return (
        counts["a"] % 2,
        (counts["b"] + counts["d"]) % 2,
        (counts["c"] + counts["d"]) % 2,
    )


def _ball_census(w, radius: int, depth: int) -> list[int]:
    """Cumulative ball sizes by plain BFS over generator actions."""
    gens = [ts.word_action(g, w, depth) for g in "abcd"]
    identity = ts.word_action("", w, depth)
    seen = {identity.leaf_perm}
    frontier = [identity]
    sizes = [1]
    for _ in range(radius):
        nxt = []
        for el in frontier:
            for g in gens:
                cand = g.compose(el)
                if cand.leaf_perm not in seen:
                    seen.add(cand.leaf_perm)
                    nxt.append(cand)
        frontier = nxt
        sizes.append(len(seen))
    return sizes


# ---------------------------------------------------------------------------
# workloads


def run_levels(inputs: dict, pass_index: int, certs: Certificates) -> None:
    text = inputs["omegas"][pass_index % len(inputs["omegas"])]
    w = ts.OmegaWord.parse(text)
    config = ts.RunConfig(max_vertices=1 << LEVELS_MAX)
    graphs = {}

    def model(n):
        g = graphs[n] = ts.schreier_graph(w, n, config)
        u = ts.upsilon_graph(ts.UpsilonSpec("finite", n))
        result = ts.check_isomorphic(g, u)
        if not result.isomorphic:
            return f"not isomorphic to the model: {result.witness}"
        if not _is_isomorphism(g, u, result.mapping):
            return "returned mapping does not carry edges onto the model"
        return None

    for n in range(1, LEVELS_MAX + 1):
        certs.check(f"levels model omega={text} n={n}", lambda n=n: model(n))

    sweep = _stage(lambda: ts.spectrum_sweep(w, LEVELS_MAX, config=config))

    def spectrum(n, ref, cumulative):
        report = _need(sweep).reports[n]
        got = np.sort(np.array(report.eigenvalues))
        if got.shape != ref.shape:
            return f"{got.size} eigenvalues, expected {ref.size}"
        dev = float(np.abs(got - ref).max())
        if dev > SPECTRUM_TOL:
            return f"deviates from the closed form by {dev:.3e}"
        expected = bool(_in_target(ref, config.membership_tol).all())
        if report.contained != expected:
            return f"containment reported {report.contained}, expected {expected}"
        hd = _need(sweep).hausdorff_by_level[n]
        ref_hd = hausdorff_to_target(cumulative)
        if abs(hd - ref_hd) > HAUSDORFF_TOL:
            return f"hausdorff {hd!r}, reference {ref_hd!r}"
        return None

    cumulative = np.empty(0)
    for n in range(1, LEVELS_MAX + 1):
        ref = closed_form_spectrum(n)
        cumulative = np.concatenate((cumulative, ref))
        certs.check(
            f"levels spectrum omega={text} n={n}",
            lambda n=n, ref=ref, cum=cumulative: spectrum(n, ref, cum),
        )

    def round_trip(n):
        g = graphs[n]
        data = ts.serialize_graph(g)
        h = ts.parse_graph(data)
        if ts.serialize_graph(h) != data:
            return "re-serialized bytes differ"
        if h.vertices != g.vertices or h.edges != g.edges:
            return "parsed graph differs from the original"
        return None

    for n in range(1, LEVELS_MAX + 1):
        certs.check(f"levels round-trip omega={text} n={n}", lambda n=n: round_trip(n))

    def ray(s):
        u = ts.upsilon_graph(ts.UpsilonSpec("ray", s))
        got = np.sort(ts.markov_eigenvalues_banded(u))
        dev = float(np.abs(got - symmetric_markov_spectrum(u)).max())
        return None if dev <= RAY_TOL else f"banded deviates from dense by {dev:.3e}"

    for s in RAY_SIZES:
        certs.check(f"levels ray-banded s={s}", lambda s=s: ray(s))


def run_cover(inputs: dict, pass_index: int, certs: Certificates) -> None:
    text = inputs["omegas"][pass_index % len(inputs["omegas"])]
    w = ts.OmegaWord.parse(text)
    m, n = COVER_SOURCE, COVER_TARGET
    cov = _stage(lambda: ts.level_projection_covering(w, m, n))

    def verified():
        report = ts.verify_covering(_need(cov))
        return None if report.ok else f"rejected: {report.witness}"

    def fibers():
        c = _need(cov)
        sizes = Counter(c.vertex_map[v] for v in c.source.vertices)
        if set(sizes) != set(c.target.vertices) or set(sizes.values()) != {1 << (m - n)}:
            return f"fiber sizes {sorted(set(sizes.values()))}, expected {1 << (m - n)}"
        return None

    certs.check(f"cover verify omega={text}", verified)
    certs.check(f"cover fibers omega={text}", fibers)

    tables = _stage(lambda: (_edge_table(_need(cov).source), _edge_table(_need(cov).target)))

    def corrupted():
        c = _need(cov)
        src_table, _ = _need(tables)
        v0 = c.source.vertices[0]
        ea, eb = src_table[(v0, "a")], src_table[(v0, "b")]
        edge_map = dict(c.edge_map)
        edge_map[ea], edge_map[eb] = edge_map[eb], edge_map[ea]
        bad = ts.CoveringMap(c.source, c.target, c.vertex_map, edge_map)
        return "accepted a swapped edge map" if ts.verify_covering(bad).ok else None

    certs.check(f"cover corrupted-rejected omega={text}", corrupted)

    def lift(walk):
        c = _need(cov)
        src_table, tgt_table = _need(tables)
        tv = [walk["origin"]]
        edges = []
        for g in walk["letters"]:
            e = c.target.edges[tgt_table[(tv[-1], g)]]
            edges.append(tgt_table[(tv[-1], g)])
            tv.append(e.v if e.u == tv[-1] else e.u)
        path = ts.lift_path(c, walk["origin"], edges, walk["start"])
        if len(path) != len(tv) or path[0] != walk["start"]:
            return f"lift has {len(path)} vertices, expected {len(tv)}"
        for i, g in enumerate(walk["letters"]):
            e = c.source.edges[src_table[(path[i], g)]]
            if {e.u, e.v} != {path[i], path[i + 1]}:
                return f"step {i} does not follow the {g}-edge"
        if any(p[:n] != t for p, t in zip(path, tv)):
            return "lift leaves the fibers of the target walk"
        return None

    for i, walk in enumerate(inputs["walks"]):
        certs.check(f"cover lift omega={text} walk={i}", lambda walk=walk: lift(walk))

    report = _stage(
        lambda: ts.spectral_inclusion_report(
            ts.cayley_ball(w, max(COVER_RADII) + 5, CAYLEY_LEVEL).covering,
            COVER_RADII,
            "subexp",
        )
    )

    def eigenvalues():
        got = np.sort(np.array(_need(report).eigenvalues))
        dev = float(np.abs(got - closed_form_spectrum(CAYLEY_LEVEL)).max())
        return None if dev <= SPECTRUM_TOL else f"deviates by {dev:.3e}"

    certs.check(f"cover target-spectrum omega={text}", eigenvalues)
    records = len(COVER_RADII) * (1 << CAYLEY_LEVEL)

    def residual(i):
        rec = _need(report).records[i]
        if rec.residual**2 > rec.theoretical_bound + RESIDUAL_SLACK:
            return f"residual^2 {rec.residual**2:.3e} > bound {rec.theoretical_bound:.3e}"
        return None

    for i in range(records):
        certs.check(f"cover residual omega={text} record={i}", lambda i=i: residual(i))


def run_group(inputs: dict, pass_index: int, certs: Certificates) -> None:
    for text in inputs["omegas"]:
        w = ts.OmegaWord.parse(text)

        def ball():
            enum = ts.enumerate_ball(w, GROUP_RADIUS)
            ref = _ball_census(w, ORACLE_RADIUS, ORACLE_DEPTH)
            if not enum.stable:
                return "census did not stabilise"
            if list(enum.sizes[: ORACLE_RADIUS + 1]) != ref:
                return f"sizes {enum.sizes[: ORACLE_RADIUS + 1]} != BFS {ref}"
            return None

        certs.check(f"group ball omega={text}", ball)

        def relator(word):
            if not ts.verify_trivial(word, w, RELATOR_DEPTH).trivial:
                return f"acts nontrivially at depth {RELATOR_DEPTH}"
            if ts.abelianization_class(word) != (0, 0, 0) or _letter_parity(word) != (0, 0, 0):
                return "not in the commutator subgroup"
            return None

        for k in range(1, RELATOR_K + 1):
            family = _stage(lambda k=k: ts.relators_U(w, k))
            if isinstance(family, Exception):
                certs.check(f"group relators omega={text} k={k}", lambda: _need(family))
                continue
            for i, word in enumerate(family):
                certs.check(
                    f"group relator omega={text} k={k} i={i}", lambda word=word: relator(word)
                )

        def dihedral():
            rep = ts.dihedral_reduction_check(w, DIHEDRAL_DEPTH)
            if not (rep.t_squared_is_identity and rep.markov_identity_holds):
                return f"identities fail: {rep}"
            return None

        certs.check(f"group dihedral omega={text}", dihedral)


WORKLOADS = {"levels": run_levels, "cover": run_cover, "group": run_group}
