"""Eigensolvers, interval-union targets, spectral sweeps, the infinite
dihedral reduction, and spectral-measure moments.

A sweep certifies each level with the four permutation checks of
``schreier.level_certificate`` and reads its spectrum off the closed form,
``level_spectrum``, with no path form and no tridiagonal.  The banded solver
is the second route: it folds the tridiagonal of a path with loops, where a
level's halves again have the closed form, and solves every other
tridiagonal dense by numpy, up to ``DEFAULT_CONFIG.max_vertices``."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .actions import _generator_table
from .config import DEFAULT_CONFIG, ResourceLimitError, RunConfig, _INT, _require_int
from .graphs import IsolatedVertexError, Multigraph
from .graphs import _degrees, _markov_eigh, _neighbor_sum, _require_vertex
from .omega import OmegaWord
from .schreier import NotAPathError, PathForm, _check_level, level_certificate
from .schreier import path_canonical_form


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted union of disjoint closed intervals."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("interval union must be nonempty")
        for lo, hi in self.intervals:
            if not lo <= hi:  # false also at a NaN endpoint
                raise ValueError(f"interval [{lo}, {hi}] is empty or has a NaN end")
        for (_, prev_hi), (lo, _) in zip(self.intervals, self.intervals[1:]):
            if lo <= prev_hi:
                raise ValueError("intervals must be sorted and disjoint")

    @staticmethod
    def parse(text: str) -> "IntervalUnion":
        """Parse the compact grammar '[a,b]u[c,d]...'."""
        parts = text.replace(" ", "").split("u")
        intervals = []
        for p in parts:
            try:  # two numbers in brackets
                lo, hi = map(float, p[1:-1].split(",") if p[:1] + p[-1:] == "[]" else ())
            except ValueError:
                raise ValueError(f"bad interval {p!r}") from None
            intervals.append((lo, hi))
        return IntervalUnion(tuple(sorted(intervals)))

    def __str__(self) -> str:
        return "u".join(f"[{lo:g},{hi:g}]" for lo, hi in self.intervals)

    def distance(self, x: float | np.ndarray) -> float | np.ndarray:
        """Distance from x, a number or an array of numbers, to the union."""
        lo, hi = np.array(self.intervals).T
        x = np.asarray(x, dtype=float)[..., None]
        # where x is an infinite end, inf - inf is NaN and fmax takes the other side
        with np.errstate(invalid="ignore"):
            d = np.maximum(np.fmax(lo - x, x - hi), 0.0).min(axis=-1)
        return float(d) if d.ndim == 0 else d

    def contains(self, x: float | np.ndarray, tol: float = 0.0) -> bool | np.ndarray:
        return self.distance(x) <= tol

    def affine(self, scale: float, shift: float) -> "IntervalUnion":
        """Image under x -> scale * x + shift (merging touching intervals)."""
        mapped = sorted(
            tuple(sorted((scale * lo + shift, scale * hi + shift)))
            for lo, hi in self.intervals
        )
        merged = [list(mapped[0])]
        for lo, hi in mapped[1:]:
            if lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return IntervalUnion(tuple((lo, hi) for lo, hi in merged))

    def hausdorff_to_points(self, points: Sequence[float]) -> float:
        """sup over the union of the distance to the nearest point (exact).

        The supremum over an interval is attained at an endpoint or at a
        midpoint between consecutive points, so only those are measured.
        """
        pts = np.sort(np.asarray(points, dtype=float))
        if not pts.size:
            return math.inf
        mids = (pts[:-1] + pts[1:]) / 2
        worst = 0.0
        for lo, hi in self.intervals:
            cand = np.concatenate(([lo, hi], mids[(lo <= mids) & (mids <= hi)]))
            i = np.searchsorted(pts, cand)
            n = pts.size
            right = np.where(i < n, pts[np.minimum(i, n - 1)] - cand, math.inf)
            left = np.where(i > 0, cand - pts[np.maximum(i - 1, 0)], math.inf)
            worst = max(worst, float(np.minimum(left, right).max()))
        return worst


GRIG_TARGET = IntervalUnion(((-0.5, 0.0), (0.5, 1.0)))


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple[float, ...]
    target: IntervalUnion
    in_target: tuple[bool, ...]
    hausdorff: float

    @property
    def contained(self) -> bool:
        return all(self.in_target)


def _report(vals: np.ndarray, target: IntervalUnion, tol: float) -> SpectrumReport:
    vals = np.sort(vals)
    in_target = tuple(target.contains(vals, tol).tolist())
    hausdorff = target.hausdorff_to_points(vals)
    return SpectrumReport(tuple(vals.tolist()), target, in_target, hausdorff)


def markov_eigenvalues_banded(g: Multigraph | PathForm) -> np.ndarray:
    """Markov spectrum of a path-with-loops graph via its tridiagonal form."""
    return _tridiagonal_eigvals(*_markov_tridiagonal(g))


def _markov_tridiagonal(g: Multigraph | PathForm) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the Markov matrix of a path with loops.

    After canonical path ordering the Markov matrix D^-1 A has bandwidth 1.
    It is similar to the symmetric D^-1/2 A D^-1/2, whose diagonal holds
    loopcount/degree and whose off-diagonal holds mult_i / sqrt(d_i d_{i+1}),
    so the spectrum is exact for any path with loops.
    """
    form = g if isinstance(g, PathForm) else path_canonical_form(g)
    loops = np.array(form.loops, dtype=float)
    mult = np.array(form.multiplicities, dtype=float)
    deg = loops + np.pad(mult, (1, 0)) + np.pad(mult, (0, 1))
    if not deg.all():
        v = form.order[int(np.argmin(deg))]
        raise IsolatedVertexError(f"vertex {v!r} is isolated")
    return loops / deg, mult / np.sqrt(deg[:-1] * deg[1:])


# machine epsilon: relative to the largest entry, the coupling size dropped
_EPS = float(np.finfo(float).eps)


def _tridiagonal_eigvals(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the symmetric tridiagonal (diag, off).

    Couplings of at most eps times the largest entry are dropped first:
    that moves no eigenvalue by more than 2 eps times that entry (Weyl), and
    keeps the dense solve accurate where a squared coupling would underflow.
    A matrix of even size that equals its own reversal commutes with the
    flip J, so the similarity by (I ± J)/sqrt(2) splits it exactly into two
    tridiagonals of half the size, the mirror-even and the mirror-odd half,
    which differ only in the last diagonal entry diag[m-1] ± off[m-1].  Each
    half is split again while it is mirror-symmetric.  On the level graphs
    the even half is the previous level (a covering contains the spectrum
    of the graph it covers) and four times the odd half is A_k, whose roots
    are known in closed form; every other matrix is solved dense.  Adding
    0.0 to the diagonal turns a -0.0 into 0.0, which the dense solve would
    otherwise keep, and which can move its tiny eigenvalues between slots.
    """
    diag, off = np.asarray(diag, dtype=float) + 0.0, np.asarray(off, dtype=float)
    size = len(diag)
    if size == 1:
        return diag
    scale = max(np.abs(diag).max(), np.abs(off).max())
    off = np.where(np.abs(off) > _EPS * scale, off, 0.0)
    if size % 2 == 0 and np.array_equal(diag, diag[::-1]) and np.array_equal(off, off[::-1]):
        m = size // 2
        even, odd = diag[:m].copy(), diag[:m].copy()
        even[-1] += off[m - 1]
        odd[-1] -= off[m - 1]
        halves = _tridiagonal_eigvals(even, off[: m - 1]), _tridiagonal_eigvals(odd, off[: m - 1])
        return np.sort(np.concatenate(halves))
    if _is_level_odd_half(diag, off):
        return _level_odd_half_eigvals(size)
    return _dense_eigvals(diag, off)


def _level_odd_half_eigvals(size: int) -> np.ndarray:
    """Sorted eigenvalues of A_k / 4, size = 2k: det(x - A_k) =
    2^(k+1) T_k(((x-1)^2 - 5)/4) (Bartholdi-Grigorchuk 2000), so they are
    (1 ± sqrt(5 + 4 cos((2j+1) pi / 2k)))/4 for j < k."""
    root = np.sqrt(5 + 4 * np.cos((2 * np.arange(size // 2) + 1) * math.pi / size))
    return np.concatenate(((1 - root) / 4, (1 + root[::-1]) / 4))


def _is_level_odd_half(diag: np.ndarray, off: np.ndarray) -> bool:
    """Whether 4 (diag, off) is A_k: size 2k, diagonal (3, 1, ..., 1, -1) and
    couplings (1, 2, 1, ..., 2, 1).  Dyadic level entries compare exactly."""
    a_diag, a_off = np.ones(len(diag)), np.ones(len(off))
    a_diag[0], a_diag[-1], a_off[1::2] = 3.0, -1.0, 2.0
    even = len(diag) % 2 == 0
    return even and np.array_equal(4 * diag, a_diag) and np.array_equal(4 * off, a_off)


def _dense_eigvals(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the dense tridiagonal, capped in size."""
    size, cap = len(diag), DEFAULT_CONFIG.max_vertices
    if size > cap:
        raise ResourceLimitError(f"a tridiagonal of size {size} exceeds the dense cap {cap}")
    dense = np.diag(diag)
    np.fill_diagonal(dense[1:], off)
    np.fill_diagonal(dense[:, 1:], off)
    return np.linalg.eigvalsh(dense)


def level_spectrum(n: int, config: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The sorted Markov spectrum of a level-n graph that ``level_certificate``
    passes: 1/2 and 1, and for L = 2..n the values
    (1 ± sqrt(5 + 4 cos((2j+1) pi / 2^(L-1))))/4, j < 2^(L-2).  These are the
    eigenvalues that the mirror fold of the level's tridiagonal reaches, by
    the same expression, so the two agree to the bit."""
    _check_level(n, config)
    halves = [_level_odd_half_eigvals(1 << (level - 1)) for level in range(2, n + 1)]
    return np.sort(np.concatenate([np.array([0.5, 1.0]), *halves]))


def _certified_level_spectrum(w: OmegaWord, n: int, config: RunConfig) -> np.ndarray:
    """``level_spectrum(n)`` once the level passes ``level_certificate``;
    NotAPathError carrying the witness otherwise."""
    certificate = level_certificate(w, n, config)
    if not certificate:
        raise NotAPathError(certificate.witness)
    return level_spectrum(n, config)


@dataclass(frozen=True)
class SweepResult:
    omega: str
    reports: dict[int, SpectrumReport]

    @property
    def hausdorff_by_level(self) -> dict[int, float]:
        return {n: rep.hausdorff for n, rep in self.reports.items()}

    @property
    def all_contained(self) -> bool:
        return all(r.contained for r in self.reports.values())


def spectrum_sweep(
    w: OmegaWord,
    n_max: int,
    target: IntervalUnion = GRIG_TARGET,
    config: RunConfig = DEFAULT_CONFIG,
) -> SweepResult:
    """Markov spectra of all levels up to n_max against a target set.

    Every eigenvalue is checked for membership (tolerance from the config);
    the one-sided Hausdorff distance from the target to the cumulative
    eigenvalue union is reported per level: to level n's own values, which
    hold every lower level's bit for bit, as Gamma_n covers Gamma_(n-1).
    Each level is certified by ``level_certificate`` and its spectrum read
    off ``level_spectrum``; no graph, path form or tridiagonal is built.
    """
    _require_int("level", n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    reports = {
        n: _report(_certified_level_spectrum(w, n, config), target, config.membership_tol)
        for n in range(1, n_max + 1)
    }
    return SweepResult(str(w), reports)


# ---------------------------------------------------------------------------
# infinite dihedral reduction


@dataclass(frozen=True)
class DihedralSpectrum:
    exact: IntervalUnion
    oracle_exact: IntervalUnion  # from the Fourier sampling oracle
    truncation_lengths: tuple[int, ...]
    truncation_eigenvalues: dict[int, tuple[float, ...]]
    boundary_errors: dict[int, float]  # max distance of truncation into exact


# a band gap narrower than this is closed, by the closed form and the oracle alike
_CLOSED_GAP = 1e-12


def _bands(lo: float, hi: float) -> IntervalUnion:
    """The symmetric bands +-[lo, hi], or [-hi, hi] when the gap is closed."""
    if lo < _CLOSED_GAP:
        return IntervalUnion(((-hi, hi),))
    return IntervalUnion(((-hi, -lo), (lo, hi)))


# points of the theta grid the Fourier oracle samples
_FOURIER_SAMPLES = 20001


def _dihedral_fourier_oracle(x: float, y: float) -> IntervalUnion:
    """Band endpoints from the dispersion |x + y e^(i theta)|, sampled."""
    theta = np.linspace(0.0, math.pi, _FOURIER_SAMPLES)
    vals = np.abs(x + y * np.exp(1j * theta))
    return _bands(float(vals.min()), float(vals.max()))


def dihedral_weighted_spectrum(
    x: float, y: float, lengths: Sequence[int] = (50, 100, 200, 400)
) -> DihedralSpectrum:
    """Spectrum of the alternating-weight doubly infinite line operator.

    The operator x s + y t on the regular representation of the infinite
    dihedral group is the adjacency operator of a line with edge weights
    alternating x, y; its spectrum is +-[|x - y|, x + y].  The closed form
    is cross-computed by a Fourier sampling oracle, and Dirichlet
    truncations of the line are reported with their measured distance into
    the exact set.
    """
    for name, weight in (("x", x), ("y", y)):
        if not (isinstance(weight, numbers.Real) and 0 < weight < math.inf):
            raise ValueError(f"weight {name}={weight!r} is not finite and positive")
    for length in lengths:
        if not (isinstance(length, _INT) and length >= 1):
            raise ValueError(f"truncation length {length!r} is not an int >= 1")
    exact = _bands(abs(x - y), x + y)
    oracle = _dihedral_fourier_oracle(x, y)
    trunc_vals, errors = {}, {}
    for length in lengths:
        off = np.array([x if i % 2 == 0 else y for i in range(length - 1)])
        vals = _tridiagonal_eigvals(np.zeros(length), off)
        trunc_vals[length] = tuple(float(v) for v in vals)
        errors[length] = float(exact.distance(vals).max())
    return DihedralSpectrum(exact, oracle, tuple(lengths), trunc_vals, errors)


@dataclass(frozen=True)
class DihedralReductionReport:
    depth: int
    t_squared_is_identity: bool
    # 4M = A + 2T + I holds for any four matrices once M = (A + B + C + D)/4
    # and 2T = B + C + D - I, so there is nothing to compute
    markov_identity_holds: ClassVar[bool] = True


def _vanishes(terms: list[tuple[int, np.ndarray]]) -> bool:
    """Whether the sum of s * P over the (s, perm) terms is the zero matrix,
    where P has a 1 at (perm[j], j); summed exactly, in int64."""
    n = len(terms[0][1])
    keys = np.concatenate([p.astype(np.int64) * n + np.arange(n) for _, p in terms])
    keys, at = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(keys), dtype=np.int64)
    np.add.at(sums, at, np.repeat(np.array([s for s, _ in terms], dtype=np.int64), n))
    return not sums.any()


def _t_squared_is_identity(b: np.ndarray, c: np.ndarray, d: np.ndarray) -> bool:
    """(2T)^2 = 4I for 2T = B + C + D - I.  Each of the 16 signed products
    XY has its 1 in column j at row x(y(j))."""
    eye = np.arange(len(b))
    two_t = [(1, b), (1, c), (1, d), (-1, eye)]
    return _vanishes([(s * t, x[y]) for s, x in two_t for t, y in two_t] + [(-4, eye)])


def dihedral_reduction_check(
    w: OmegaWord, depth: int, config: RunConfig = DEFAULT_CONFIG
) -> DihedralReductionReport:
    """Exact integer check of the dihedral involution identity on a level.

    With the level permutation matrices A, B, C, D of the generators and
    T = (B + C + D - I)/2, verifies T^2 = I in integer arithmetic (via 2T)
    on the permutation arrays; that is the check that carries the reduction
    to the infinite dihedral group.  4 M = A + 2 T + I, where
    M = (A + B + C + D)/4, holds for any four matrices, so the report
    states it as the constant ``markov_identity_holds``.  The level has
    2^depth vertices, which ``config.max_vertices`` caps.
    """
    _check_level(depth, config)
    _, b, c, d = _generator_table(w, depth)
    return DihedralReductionReport(depth, _t_squared_is_identity(b, c, d))


# ---------------------------------------------------------------------------
# spectral-measure moments


@dataclass(frozen=True)
class MomentSequence:
    vertex: object
    moments: tuple[float, ...]

    def hankel_min_eigenvalue(self) -> float:
        p = len(self.moments) - 1
        size = p // 2 + 1
        h = np.array(self.moments)[np.add.outer(np.arange(size), np.arange(size))]
        return float(np.linalg.eigvalsh(h).min())


def spectral_moments(g: Multigraph, v, count: int) -> MomentSequence:
    """Return quantities (M^p delta_v, delta_v) for p = 0..count."""
    _require_int("count", count)
    if count < 0:
        raise ValueError("count must be >= 0")
    _require_vertex(g, v)
    deg = _degrees(g)
    i = g.index(v)
    vec = np.zeros(g.n)
    vec[i] = 1.0
    moments = []
    for _p in range(count + 1):
        moments.append(float(vec[i]))
        vec = _neighbor_sum(g, vec) / deg
    return MomentSequence(v, tuple(moments))


def moments_via_eigendecomposition(g: Multigraph, v, count: int) -> MomentSequence:
    """Independent route: sum of w_i lambda_i^p from the eigendecomposition.

    The diagonal entries of M^p and of its symmetric form agree, so the
    weights w_i are read off the symmetric eigenvectors as they are.
    """
    _require_int("count", count)
    if count < 0:
        raise ValueError("count must be >= 0")
    _require_vertex(g, v)
    vals, vecs = _markov_eigh(g)
    i = g.index(v)
    weights = vecs[i, :] ** 2
    moments = tuple(float(np.sum(weights * vals**p)) for p in range(count + 1))
    return MomentSequence(v, moments)
