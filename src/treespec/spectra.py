"""Eigensolvers, interval-union targets, spectral sweeps, the infinite
dihedral reduction, and spectral-measure moments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .actions import generator_action
from .config import DEFAULT_CONFIG, RunConfig
from .graphs import IsolatedVertexError, Multigraph
from .graphs import _degrees, _markov_eigh, _neighbor_sum
from .omega import OmegaWord
from .schreier import path_canonical_form, schreier_graph


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted union of disjoint closed intervals."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("interval union must be nonempty")
        prev_hi = -math.inf
        for lo, hi in self.intervals:
            if lo > hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")
            if lo <= prev_hi:
                raise ValueError("intervals must be sorted and disjoint")
            prev_hi = hi

    @staticmethod
    def parse(text: str) -> "IntervalUnion":
        """Parse the compact grammar '[a,b]u[c,d]...'."""
        parts = text.replace(" ", "").split("u")
        intervals = []
        for p in parts:
            if not (p.startswith("[") and p.endswith("]")):
                raise ValueError(f"bad interval {p!r}")
            lo, hi = p[1:-1].split(",")
            intervals.append((float(lo), float(hi)))
        return IntervalUnion(tuple(sorted(intervals)))

    def __str__(self) -> str:
        return "u".join(f"[{lo:g},{hi:g}]" for lo, hi in self.intervals)

    def distance(self, x: float) -> float:
        best = math.inf
        for lo, hi in self.intervals:
            if lo <= x <= hi:
                return 0.0
            best = min(best, abs(x - lo), abs(x - hi))
        return best

    def contains(self, x: float, tol: float = 0.0) -> bool:
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


def _report(
    eigenvalues: np.ndarray,
    target: IntervalUnion,
    cumulative: Sequence[float],
    tol: float,
) -> SpectrumReport:
    vals = tuple(float(x) for x in np.sort(eigenvalues))
    flags = tuple(target.contains(v, tol) for v in vals)
    return SpectrumReport(vals, target, flags, target.hausdorff_to_points(cumulative))


def markov_eigenvalues_banded(g: Multigraph) -> np.ndarray:
    """Markov spectrum of a path-with-loops graph via its tridiagonal form."""
    return _tridiagonal_eigvals(*_markov_tridiagonal(g))


def _markov_tridiagonal(g: Multigraph) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the Markov matrix of a path with loops.

    After canonical path ordering the Markov matrix D^-1 A has bandwidth 1.
    It is similar to the symmetric D^-1/2 A D^-1/2, whose diagonal holds
    loopcount/degree and whose off-diagonal holds mult_i / sqrt(d_i d_{i+1}),
    so the spectrum is exact for any path with loops.
    """
    form = path_canonical_form(g)
    loops = np.array(form.loops, dtype=float)
    mult = np.array(form.multiplicities, dtype=float)
    deg = loops + np.pad(mult, (1, 0)) + np.pad(mult, (0, 1))
    if not deg.all():
        v = form.order[int(np.argmin(deg))]
        raise IsolatedVertexError(f"vertex {v!r} is isolated")
    return loops / deg, mult / np.sqrt(deg[:-1] * deg[1:])


# machine epsilon: relative to the largest entry, the coupling size a fold drops
_EPS = float(np.finfo(float).eps)


def _tridiagonal_eigvals(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the symmetric tridiagonal (diag, off).

    A matrix of even size that equals its own reversal commutes with the
    flip J, so the similarity by (I ± J)/sqrt(2) splits it exactly into two
    tridiagonals of half the size, the mirror-even and the mirror-odd half,
    which differ only in the last diagonal entry diag[m-1] ± off[m-1].  Each
    half is split again while it is mirror-symmetric; on the level graphs
    the even half is the previous level (a covering contains the spectrum
    of the graph it covers).  Before the split, couplings of at most eps
    times the largest entry are dropped: that moves no eigenvalue by more
    than 2 eps times that entry (Weyl), and keeps the halves' QR solves
    accurate where a squared coupling would underflow.  Every other matrix
    is solved as it is.
    """
    size = len(diag)
    if size == 1:
        return diag.copy()
    if size < 2 or size % 2 or not (
        np.array_equal(diag, diag[::-1]) and np.array_equal(off, off[::-1])
    ):
        return eigh_tridiagonal(diag, off, eigvals_only=True)
    scale = max(np.abs(diag).max(), np.abs(off).max())
    off = np.where(np.abs(off) > _EPS * scale, off, 0.0)
    m = size // 2
    even, odd = diag[:m].copy(), diag[:m].copy()
    even[-1] += off[m - 1]
    odd[-1] -= off[m - 1]
    half_off = off[: m - 1]
    vals = np.concatenate(
        (_tridiagonal_eigvals(even, half_off), _tridiagonal_eigvals(odd, half_off))
    )
    return np.sort(vals)


@dataclass(frozen=True)
class SweepResult:
    omega: str
    reports: dict[int, SpectrumReport]
    hausdorff_by_level: dict[int, float]

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
    eigenvalue union is reported per level.
    """
    reports = {}
    hausdorff = {}
    cumulative: list[float] = []
    for n in range(1, n_max + 1):
        g = schreier_graph(w, n, config)
        vals = markov_eigenvalues_banded(g)
        cumulative.extend(float(v) for v in vals)
        rep = _report(vals, target, cumulative, config.membership_tol)
        reports[n] = rep
        hausdorff[n] = rep.hausdorff
    return SweepResult(str(w), reports, hausdorff)


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


def _dihedral_exact(x: float, y: float) -> IntervalUnion:
    lo, hi = abs(x - y), x + y
    if lo < _CLOSED_GAP:
        return IntervalUnion(((-hi, hi),))
    return IntervalUnion(((-hi, -lo), (lo, hi)))


# points of the theta grid the Fourier oracle samples
_FOURIER_SAMPLES = 20001


def _dihedral_fourier_oracle(x: float, y: float) -> IntervalUnion:
    """Band endpoints from the dispersion |x + y e^(i theta)|, sampled."""
    theta = np.linspace(0.0, math.pi, _FOURIER_SAMPLES)
    vals = np.abs(x + y * np.exp(1j * theta))
    lo, hi = float(vals.min()), float(vals.max())
    if lo < _CLOSED_GAP:
        return IntervalUnion(((-hi, hi),))
    return IntervalUnion(((-hi, -lo), (lo, hi)))


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
    if x <= 0 or y <= 0:
        raise ValueError("weights must be positive")
    exact = _dihedral_exact(x, y)
    oracle = _dihedral_fourier_oracle(x, y)
    trunc_vals = {}
    errors = {}
    for length in lengths:
        off = np.array([x if i % 2 == 0 else y for i in range(length - 1)])
        vals = _tridiagonal_eigvals(np.zeros(length), off)
        trunc_vals[length] = tuple(float(v) for v in vals)
        errors[length] = max(exact.distance(float(v)) for v in vals)
    return DihedralSpectrum(exact, oracle, tuple(lengths), trunc_vals, errors)


@dataclass(frozen=True)
class DihedralReductionReport:
    depth: int
    t_squared_is_identity: bool
    markov_identity_holds: bool


def _perm_matrix(perm: Sequence[int]):
    # imported here: at module level scipy.sparse would load with every import
    from scipy.sparse import csr_array
    n = len(perm)
    return csr_array((np.ones(n, dtype=np.int64), (perm, np.arange(n))), shape=(n, n))


def dihedral_reduction_check(
    w: OmegaWord, depth: int
) -> DihedralReductionReport:
    """Exact integer check of the dihedral involution identity on a level.

    With the level permutation matrices A, B, C, D of the generators and
    T = (B + C + D - I)/2, verifies T^2 = I and 4 M = A + 2 T + I where
    M = (A + B + C + D)/4, all in integer arithmetic (via 2T).  The second
    identity holds for any four matrices once M is defined so, and
    ``markov_identity_holds`` is True by construction; T^2 = I is the check
    that carries the reduction to the infinite dihedral group.
    """
    mats = {
        g: _perm_matrix(generator_action(g, w, depth).leaf_perm)
        for g in ("a", "b", "c", "d")
    }
    eye = _perm_matrix(range(1 << depth))
    two_t = mats["b"] + mats["c"] + mats["d"] - eye
    t_sq = not (two_t @ two_t - 4 * eye).count_nonzero()
    four_m = mats["a"] + mats["b"] + mats["c"] + mats["d"]
    markov = not (four_m - (mats["a"] + two_t + eye)).count_nonzero()
    return DihedralReductionReport(depth, t_sq, markov)


# ---------------------------------------------------------------------------
# spectral-measure moments


@dataclass(frozen=True)
class MomentSequence:
    vertex: object
    moments: tuple[float, ...]

    def hankel_min_eigenvalue(self) -> float:
        p = len(self.moments) - 1
        size = p // 2 + 1
        h = np.array(
            [[self.moments[i + j] for j in range(size)] for i in range(size)]
        )
        return float(np.linalg.eigvalsh(h).min())


def spectral_moments(g: Multigraph, v, count: int) -> MomentSequence:
    """Return quantities (M^p delta_v, delta_v) for p = 0..count."""
    if count < 0:
        raise ValueError("count must be >= 0")
    deg = np.array(_degrees(g))
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
    vals, vecs = _markov_eigh(g)
    i = g.index(v)
    weights = vecs[i, :] ** 2
    moments = tuple(float(np.sum(weights * vals**p)) for p in range(count + 1))
    return MomentSequence(v, moments)
