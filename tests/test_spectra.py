import bisect
import math
import os
from fractions import Fraction
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from treespec import (
    DEFAULT_CONFIG,
    GRIG_TARGET,
    IntervalUnion,
    IsolatedVertexError,
    Multigraph,
    OmegaWord,
    ResourceLimitError,
    RunConfig,
    UpsilonSpec,
    dihedral_reduction_check,
    dihedral_weighted_spectrum,
    generator_action,
    level_path_form,
    level_spectrum,
    markov_eigenvalues_banded,
    markov_operator,
    moments_via_eigendecomposition,
    schreier_graph,
    spectral_moments,
    spectrum_sweep,
    upsilon_graph,
)
from treespec import schreier, spectra
from treespec.graphs import _markov_eigh
from treespec.spectra import _markov_tridiagonal, _tridiagonal_eigvals

W = OmegaWord.parse(":012")
GOLD = math.sqrt(5.0)


def t_squared_by_sparse(b, c, d):
    """Reference: (B + C + D - I)^2 = 4I with scipy.sparse permutation matrices,
    the route that the permutation-array sum replaced."""
    from scipy.sparse import csr_array

    def mat(perm):
        n = len(perm)
        return csr_array((np.ones(n, dtype=np.int64), (perm, np.arange(n))), shape=(n, n))

    eye = mat(np.arange(len(b)))
    two_t = mat(b) + mat(c) + mat(d) - eye
    return not (two_t @ two_t - 4 * eye).count_nonzero()


def hausdorff_by_loop(u, points):
    """Reference: the per-point bisect loop IntervalUnion.hausdorff_to_points
    replaced; the same candidates and the same min/max arithmetic."""
    pts = sorted(points)
    if not pts:
        return math.inf

    def dist(x):
        i = bisect.bisect_left(pts, x)
        best = math.inf
        if i < len(pts):
            best = min(best, pts[i] - x)
        if i > 0:
            best = min(best, x - pts[i - 1])
        return best

    worst = 0.0
    for lo, hi in u.intervals:
        candidates = [lo, hi]
        for p, q in zip(pts, pts[1:]):
            mid = (p + q) / 2
            if lo <= mid <= hi:
                candidates.append(mid)
        worst = max(worst, max(dist(x) for x in candidates))
    return worst


def distance_by_loop(u, x):
    """Reference: the per-interval loop that IntervalUnion.distance replaced."""
    best = math.inf
    for lo, hi in u.intervals:
        if lo <= x <= hi:
            return 0.0
        best = min(best, abs(x - lo), abs(x - hi))
    return best


# entries of random tridiagonals; zero couplings split the matrix into blocks
ENTRIES = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))


@st.composite
def mirror_tridiagonals(draw):
    """Random (diag, off) of even size 2..64 equal to their own reversal."""
    m = draw(st.integers(1, 32))
    half = draw(st.lists(ENTRIES, min_size=m, max_size=m))
    half_off = draw(st.lists(ENTRIES, min_size=m - 1, max_size=m - 1))
    middle = draw(ENTRIES)
    diag = np.array(half + half[::-1])
    off = np.array(half_off + [middle] + half_off[::-1])
    return diag, off


@st.composite
def tridiagonals(draw, sizes):
    n = draw(sizes)
    diag = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    off = draw(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1))
    return np.array(diag), np.array(off)


# a mirror tridiagonal whose couplings near 1e-154 square below the normal
# floats: the default LAPACK solvers put two of its eigenvalues 2e-5 off
UNDERFLOWING_COUPLINGS = (
    np.array([0.0] * 7 + [1.0, 0.0, 0.0, 1.0] + [0.0] * 7),
    np.array(
        [0.0] * 6 + [9.82368029e-154, 0.75, 7.19861323e-81, 0.75, 9.82368029e-154] + [0.0] * 6
    ),
)


def signed_zero_tridiagonal():
    """Size 45, zero but for a -0.0 on the diagonal and two unit couplings.
    Kept as -0.0, the dense solve put its +-8e-17 eigenvalues in other slots
    than the solve of ``dense_tridiagonal``, whose sum makes it 0.0."""
    diag, off = np.zeros(45), np.zeros(44)
    diag[9], off[8:10] = -0.0, 1.0
    return diag, off


def dense_tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def without_negligible_couplings(diag, off):
    scale = max(np.abs(diag).max(), np.abs(off).max(initial=0.0))
    return np.where(np.abs(off) > np.finfo(float).eps * scale, off, 0.0)


def solve_sizes(monkeypatch):
    """Sizes of the tridiagonals the fold hands to its dense route."""
    sizes = []
    dense = spectra._dense_eigvals

    def recording(diag, off):
        sizes.append(len(diag))
        return dense(diag, off)

    monkeypatch.setattr(spectra, "_dense_eigvals", recording)
    return sizes


def bisected(diag, off, windows):
    """Reference: LAPACK bisection (stebz) for the eigenvalues of the index
    windows [lo, hi], which shares no code with the closed form or the fold.
    On a 2-core Xeon, all 8192 of a level-14 odd half take 24 s by
    bisection and a window of 128 takes 0.3 s."""
    return np.concatenate(
        [
            eigh_tridiagonal(
                diag, off, eigvals_only=True, select="i", select_range=w, lapack_driver="stebz"
            )
            for w in windows
        ]
    )


def edge_windows(vals, width):
    """Index windows of the given width at both ends of each band of the
    sorted eigenvalues vals, whose one gap holds 1/4."""
    gap = int(np.searchsorted(vals, 0.25))
    last = len(vals) - 1
    return [(0, width - 1), (gap - width, gap + width - 1), (last - width + 1, last)]


def odd_half(diag, off):
    """The mirror-odd half of a mirror-symmetric tridiagonal of even size."""
    m = len(diag) // 2
    odd = diag[:m].copy()
    odd[-1] -= off[m - 1]
    return odd, off[: m - 1]


def a_k_pattern(k):
    """The diagonal (3, 1, ..., 1, -1) and couplings (1, 2, 1, ..., 2, 1) of A_k."""
    return np.array([3] + [1] * (2 * k - 2) + [-1]), np.array([1, 2] * k)[: 2 * k - 1]


def negative_pivots(diag, off, shifts):
    """Eigenvalues below each shift: the negative pivots of the LDL^T
    factorisation of (diag, off) - shift (Sylvester's law of inertia), a
    pivot of size at most pivmin taken as -pivmin, as LAPACK's bisection
    does."""
    pivmin = np.finfo(float).tiny * max(1.0, float((off**2).max(initial=0.0)))
    count = np.zeros(len(shifts), dtype=int)
    pivot = np.ones(len(shifts))
    for i, a in enumerate(diag):
        pivot = a - shifts - (off[i - 1] ** 2 / pivot if i else 0.0)
        pivot = np.where(np.abs(pivot) <= pivmin, -pivmin, pivot)
        count += pivot < 0
    return count


class TestIntervalUnion:
    def test_parse_and_str(self):
        u = IntervalUnion.parse("[-0.5,0]u[0.5,1]")
        assert u.intervals == ((-0.5, 0.0), (0.5, 1.0))
        assert str(u) == "[-0.5,0]u[0.5,1]"

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            IntervalUnion(((0.0, 2.0), (1.0, 3.0)))

    def test_rejects_empty_union(self):
        with pytest.raises(ValueError, match="interval union must be nonempty"):
            IntervalUnion(())

    @pytest.mark.parametrize("text", ["[-inf,0]", "[-inf,-1]u[0,1]"])
    def test_accepts_minus_inf_start(self, text):
        u = IntervalUnion.parse(text)
        assert u.intervals[0][0] == -math.inf and str(u) == text

    @pytest.mark.parametrize(
        "intervals", [((-math.inf, 0.0), (-1.0, 1.0)), ((0.0, 1.0), (-3.0, -2.0))]
    )
    def test_rejects_overlap_after_minus_inf_and_unsorted(self, intervals):
        with pytest.raises(ValueError, match="sorted and disjoint"):
            IntervalUnion(intervals)

    def test_parse_rejects_overlap_after_minus_inf(self):
        with pytest.raises(ValueError, match="sorted and disjoint"):
            IntervalUnion.parse("[-inf,0]u[-1,1]")

    def test_distance_and_contains(self):
        u = GRIG_TARGET
        assert u.distance(-0.25) == 0.0
        assert u.distance(0.25) == 0.25
        assert u.contains(0.2, tol=0.3)
        assert not u.contains(0.25, tol=0.2)

    def test_affine_merges(self):
        u = IntervalUnion(((0.0, 1.0), (2.0, 3.0)))
        # scaling by 2 keeps the gap; shifting does not merge
        assert u.affine(2.0, 0.0).intervals == ((0.0, 2.0), (4.0, 6.0))
        # a negative scale flips the order
        assert u.affine(-1.0, 0.0).intervals == ((-3.0, -2.0), (-1.0, 0.0))
        # a zero scale maps both onto one point: the overlapping images merge
        assert u.affine(0.0, 0.5).intervals == ((0.5, 0.5),)

    @pytest.mark.parametrize(
        "target", [GRIG_TARGET, IntervalUnion(((-3.0, -1.5), (0.1, 0.2), (2.0, 2.0)))]
    )
    @pytest.mark.parametrize("tol", [0.0, 1e-8, 0.25])
    def test_report_flags_match_contains(self, target, tol):
        # points at exactly +-tol from each endpoint, and their float neighbours
        pts = []
        for lo, hi in target.intervals:
            for end in (lo, hi):
                for x in (end - tol, end, end + tol):
                    pts += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
        rep = spectra._report(np.array(pts), target, tol)
        assert rep.in_target == tuple(target.contains(x, tol) for x in sorted(pts))
        assert rep.in_target == tuple(distance_by_loop(target, x) <= tol for x in sorted(pts))

    @given(
        ends=st.lists(st.floats(-2, 2), min_size=2, max_size=6, unique=True).filter(
            lambda e: len(e) % 2 == 0
        ),
        pts=st.lists(st.floats(-3, 3), max_size=20),
    )
    def test_distance_matches_loop(self, ends, pts):
        # at every endpoint and its float neighbours too; a number gives a
        # float, an array an array of the same values
        ends = sorted(ends)
        u = IntervalUnion(tuple(zip(ends[::2], ends[1::2])))
        pts = pts + ends + [np.nextafter(e, t) for e in ends for t in (-np.inf, np.inf)]
        expect = [distance_by_loop(u, x) for x in pts]
        got = [u.distance(x) for x in pts]
        assert got == expect and all(type(d) is float for d in got)
        assert u.distance(np.array(pts)).tolist() == expect

    def test_distance_at_infinite_ends(self):
        # inf - inf is NaN at x = inf; the union still contains it
        u = IntervalUnion(((0.0, 1.0), (2.0, math.inf)))
        assert u.distance(np.array([-math.inf, 1.5, math.inf])).tolist() == [math.inf, 0.5, 0.0]
        assert u.contains(math.inf)

    @pytest.mark.parametrize(
        "intervals", [((math.nan, 1.0),), ((0.0, math.nan),), ((0.0, 1.0), (math.nan, 2.0))]
    )
    def test_rejects_nan_ends(self, intervals):
        # unchecked, a NaN end made 0.5 lie outside [nan, 1] and still put the
        # Hausdorff distance from [nan, 1] to {0.5} at 0
        with pytest.raises(ValueError, match="NaN"):
            IntervalUnion(intervals)

    def test_parse_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            IntervalUnion.parse("[nan,1]")

    @pytest.mark.parametrize(
        "text", ["[1,2,3]", "[1]", "[]", "[0,1]u[1,2,3]", "[a,1]", "[1,2]u[x,3]"]
    )
    def test_parse_names_an_interval_without_two_ends(self, text):
        # these raised "too many values to unpack", "not enough values" or
        # "could not convert string to float"
        bad = text.split("u")[-1]
        with pytest.raises(ValueError, match=re.escape(f"bad interval {bad!r}")):
            IntervalUnion.parse(text)

    def test_hausdorff_exact_on_gaps(self):
        u = IntervalUnion(((0.0, 1.0),))
        # worst point of [0,1] against {0, 1} is the midpoint
        assert u.hausdorff_to_points([0.0, 1.0]) == pytest.approx(0.5)
        assert u.hausdorff_to_points([0.5]) == pytest.approx(0.5)

    @given(
        x=st.floats(-2, 2),
        pts=st.lists(st.floats(-2, 2), min_size=1, max_size=8),
    )
    def test_hausdorff_dominates_sampling(self, x, pts):
        u = IntervalUnion(((-1.0, 1.0),))
        hd = u.hausdorff_to_points(pts)
        if -1 <= x <= 1:
            assert min(abs(x - p) for p in pts) <= hd + 1e-12

    @given(
        ends=st.lists(st.floats(-2, 2), min_size=2, max_size=6, unique=True).filter(
            lambda e: len(e) % 2 == 0
        ),
        pts=st.lists(st.floats(-3, 3), max_size=20),
    )
    # (p + q)/2 here and p + (q - p)/2 differ in the last bit
    @example(ends=[0.0, 0.3], pts=[-0.109, 0.443])
    def test_hausdorff_matches_loop(self, ends, pts):
        ends = sorted(ends)
        u = IntervalUnion(tuple(zip(ends[::2], ends[1::2])))
        assert u.hausdorff_to_points(pts) == hausdorff_by_loop(u, pts)
        assert u.hausdorff_to_points(np.array(pts)) == hausdorff_by_loop(u, pts)


class TestLevelSpectra:
    def test_level1(self):
        vals = markov_eigenvalues_banded(schreier_graph(W, 1))
        assert np.allclose(sorted(vals), [0.5, 1.0], atol=1e-10)

    def test_level2_closed_form(self):
        vals = markov_eigenvalues_banded(schreier_graph(W, 2))
        expect = sorted([(1 - GOLD) / 4, 0.5, (1 + GOLD) / 4, 1.0])
        assert np.allclose(sorted(vals), expect, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_banded_agrees_with_dense(self, n):
        g = schreier_graph(W, n)
        banded = np.sort(markov_eigenvalues_banded(g))
        dense = np.sort(np.linalg.eigvalsh(markov_operator(g).as_matrix()))
        assert np.allclose(banded, dense, atol=1e-9)

    @pytest.mark.parametrize("size", [6, 20])
    def test_banded_exact_on_irregular_path(self, size):
        # the ray mixes degrees 3 and 4; compare with D^1/2 M D^-1/2, which is
        # symmetric and similar to the Markov matrix M
        g = upsilon_graph(UpsilonSpec("ray", size))
        sqrt_deg = np.sqrt([g.degree(v) for v in g.vertices])
        m = markov_operator(g).as_matrix()
        sym = sqrt_deg[:, None] * m / sqrt_deg[None, :]
        dense = np.linalg.eigvalsh((sym + sym.T) / 2)
        banded = np.sort(markov_eigenvalues_banded(g))
        assert np.abs(banded - dense).max() < 1e-12

    def test_banded_isolated_vertex_raises(self):
        # the dense route raises too; a loopless single vertex has no Markov row
        with pytest.raises(IsolatedVertexError):
            markov_eigenvalues_banded(Multigraph([0], []))
        assert markov_eigenvalues_banded(Multigraph([0], [(0, 0)])).tolist() == [1.0]

    @pytest.mark.parametrize("omega", [":012", ":01", ":0102"])
    def test_levels_live_in_target(self, omega):
        sweep = spectrum_sweep(OmegaWord.parse(omega), 7)
        assert sweep.all_contained
        # Hausdorff distance to the cumulative union shrinks with the level
        hd = [sweep.hausdorff_by_level[n] for n in range(1, 8)]
        assert hd == sorted(hd, reverse=True)
        assert hd[-1] < 0.06

    def test_distance_to_the_cumulative_union(self):
        # level n's values hold every lower level's bit for bit, so the
        # distance to them is the distance to the union of levels 1..n
        sweep = spectrum_sweep(W, 9)
        for n in range(2, 10):
            assert set(level_spectrum(n - 1).tolist()) <= set(level_spectrum(n).tolist())
            union = np.concatenate([level_spectrum(k) for k in range(1, n + 1)])
            assert sweep.hausdorff_by_level[n] == GRIG_TARGET.hausdorff_to_points(union)

    def test_sweep_needs_a_level(self):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            spectrum_sweep(W, 0)

    def test_sweep_builds_no_graph(self, monkeypatch):
        # the sweep reads each level off the generator permutations
        def refuse(*args, **kwargs):
            raise AssertionError("spectrum_sweep built a Multigraph")

        monkeypatch.setattr(Multigraph, "__init__", refuse)
        sweep = spectrum_sweep(W, 6)
        assert sweep.all_contained and len(sweep.reports) == 6


class TestCertifiedSweep:
    """A sweep certifies each level with four permutation checks and reads
    its spectrum off the closed form; the fold of the level's path form is
    the second route, and the two agree to the bit."""

    @pytest.mark.parametrize("omega", [":012", "0:01", ":0", "11:1202"])
    def test_sweep_matches_the_fold_bit_for_bit(self, omega):
        w = OmegaWord.parse(omega)
        config = RunConfig(max_vertices=1 << 13)
        sweep = spectrum_sweep(w, 13, config=config)
        for n in range(1, 14):
            fold = markov_eigenvalues_banded(level_path_form(w, n, config))
            assert np.array(sweep.reports[n].eigenvalues).tobytes() == fold.tobytes(), n
            assert level_spectrum(n, config).tobytes() == fold.tobytes(), n

    def test_sweep_folds_no_tridiagonal(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("spectrum_sweep took the fold")

        monkeypatch.setattr(spectra, "_tridiagonal_eigvals", refuse)
        monkeypatch.setattr(schreier, "_canonical_path", refuse)
        assert spectrum_sweep(W, 8).all_contained

    @pytest.mark.parametrize("n", range(1, 12))
    def test_inertia_counts_bracket_level_spectrum(self, n):
        # LDL^T counts on the level's own tridiagonal, which shares no code
        # with the closed form
        diag, off = _markov_tridiagonal(level_path_form(W, n))
        vals = level_spectrum(n)
        i = np.arange(len(vals))
        assert vals.shape == (1 << n,)
        assert np.all(negative_pivots(diag, off, vals - 1e-9) <= i)
        assert np.all(negative_pivots(diag, off, vals + 1e-9) > i)

    def test_level_spectrum_checks_the_level(self):
        with pytest.raises(ResourceLimitError):
            level_spectrum(13)
        with pytest.raises(ValueError, match="level 2.5 is not an int"):
            level_spectrum(2.5)
        assert level_spectrum(np.int64(1)).tolist() == [0.5, 1.0]


class TestTridiagonalFold:
    @given(mirror_tridiagonals())
    @example(UNDERFLOWING_COUPLINGS)
    @example(  # folded without dropping the 7e-81 couplings, two eigenvalues were 6e-5 off
        (
            np.array([9.8e-154, 0.75, 9.8e-154, 1.0, 1.0, 9.8e-154, 0.75, 9.8e-154]),
            np.array([7e-81, 0.75, 7e-81, 1.0, 7e-81, 0.75, 7e-81]),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_fold_agrees_with_full_solve(self, tri):
        # The QR solvers behind the default eigh_tridiagonal and eigvalsh square
        # the couplings, and lose up to 1e-3 when a square underflows; bisection
        # does not.  Dropping couplings below eps times the largest entry moves
        # no eigenvalue by more than 2 eps times it, and the dense solve of what
        # is left keeps its accuracy.
        diag, off = tri
        folded = _tridiagonal_eigvals(diag, off)
        bisected = eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="stebz")
        assert np.abs(folded - bisected).max() < 1e-12
        kept = without_negligible_couplings(diag, off)
        assert np.abs(folded - np.linalg.eigvalsh(dense_tridiagonal(diag, kept))).max() < 1e-12

    def test_underflowing_couplings_solved_exactly(self):
        # two copies of [[1, 3/4], [3/4, 0]], joined by negligible couplings
        folded = _tridiagonal_eigvals(*UNDERFLOWING_COUPLINGS)
        root = math.sqrt(13.0) / 2
        expect = np.array([(1 - root) / 2] * 2 + [0.0] * 14 + [(1 + root) / 2] * 2)
        assert np.abs(folded - expect).max() < 1e-15

    # solved dense, without the negligible couplings that put the QR solvers
    # up to 3e-4 off on these examples; bisection is the reference
    @given(tridiagonals(st.integers(0, 31).map(lambda k: 2 * k + 1)))
    @example(
        (
            np.array([0.5, 1.0, 0.5, 0.5, 0.0, 1.0, 0.0]),
            np.array([1e-154, 0.0, 0.75, 7e-81, 0.75, 1e-154]),
        )
    )
    @example(signed_zero_tridiagonal())
    @settings(deadline=None)
    def test_odd_sizes_solved_as_they_are(self, tri):
        diag, off = tri
        vals = _tridiagonal_eigvals(diag, off)
        kept = without_negligible_couplings(diag, off)
        assert np.array_equal(vals, np.linalg.eigvalsh(dense_tridiagonal(diag, kept)))
        expect = eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="stebz")
        assert np.abs(vals - expect).max() < 1e-12

    @given(tridiagonals(st.integers(1, 32).map(lambda k: 2 * k)))
    @example(
        (
            np.array([1.0, 1.0, 0.0, 0.5, 0.0, 0.0]),
            np.array([1e-154, 0.0, 7e-81, 0.75, 0.75]),
        )
    )
    @example(signed_zero_tridiagonal())
    @settings(deadline=None)
    def test_non_mirror_inputs_solved_as_they_are(self, tri):
        diag, off = tri
        diag[0] = diag[-1] + 1.0
        vals = _tridiagonal_eigvals(diag, off)
        kept = without_negligible_couplings(diag, off)
        assert np.array_equal(vals, np.linalg.eigvalsh(dense_tridiagonal(diag, kept)))
        expect = eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="stebz")
        assert np.abs(vals - expect).max() < 1e-12

    @pytest.mark.parametrize("omega", [":012", ":01", "0:12"])
    def test_even_half_is_previous_level(self, omega):
        # the covering of level n-1 by level n: sp(M_{n-1}) is the even half
        w = OmegaWord.parse(omega)
        prev = _markov_tridiagonal(schreier_graph(w, 1))
        for n in range(2, 11):
            diag, off = _markov_tridiagonal(schreier_graph(w, n))
            m = diag.size // 2
            even = diag[:m].copy()
            even[-1] += off[m - 1]
            assert np.array_equal(even, prev[0])
            assert np.array_equal(off[: m - 1], prev[1])
            prev = diag, off

    def test_level_solves_are_half_size(self, monkeypatch):
        # every half of a level is the level before or A_k / 4: no dense solve
        sizes = solve_sizes(monkeypatch)
        vals = markov_eigenvalues_banded(schreier_graph(W, 8))
        assert sizes == []
        dense = np.linalg.eigvalsh(markov_operator(schreier_graph(W, 8)).as_matrix())
        assert np.abs(vals - dense).max() < 1e-12

    def test_answers_are_fresh_arrays(self):
        diag, off = _markov_tridiagonal(level_path_form(W, 6))
        first = _tridiagonal_eigvals(diag, off)
        expect = first.copy()
        first[:] = 7.0
        second = _tridiagonal_eigvals(diag, off)
        assert np.array_equal(second, expect) and second is not first
        second[0] = -7.0
        assert np.array_equal(_tridiagonal_eigvals(diag, off), expect)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_middle_exception_folds(self, n, monkeypatch):
        # one connecting edge at the centre: degree 3 there, still a mirror image
        g = upsilon_graph(UpsilonSpec("finite", n, middle_exception=True))
        sizes = solve_sizes(monkeypatch)
        vals = markov_eigenvalues_banded(g)
        assert max(sizes) == 1 << (n - 1)
        assert np.abs(vals - _markov_eigh(g)[0]).max() < 1e-12

    def test_dense_route_is_capped(self):
        # a path with loops that is no level: one end of a ray has three loops
        cap = DEFAULT_CONFIG.max_vertices
        g = upsilon_graph(UpsilonSpec("ray", cap))
        with pytest.raises(ResourceLimitError, match=f"size {cap + 1} exceeds the dense cap {cap}"):
            markov_eigenvalues_banded(g)
        diag, off = np.arange(cap + 1.0), np.ones(cap)
        with pytest.raises(ResourceLimitError, match=f"size {cap + 1}"):
            _tridiagonal_eigvals(diag, off)


class TestLevelClosedForm:
    """The mirror-odd half of level L is A_k / 4, k = 2^(L-2), and the fold
    reads its eigenvalues off det(x - A_k) = 2^(k+1) T_k(((x-1)^2 - 5)/4)."""

    @staticmethod
    def continuant(x, k):
        """det(x - A_k) by the three-term recurrence, in ints."""
        diag, off = a_k_pattern(k)
        prev, cur = 1, x - int(diag[0])
        for a, b in zip(diag[1:].tolist(), off.tolist()):
            prev, cur = cur, (x - a) * cur - b * b * prev
        return cur

    @staticmethod
    def chebyshev(k, y):
        """T_k(y) by T_(j+1) = 2y T_j - T_(j-1), exact on a Fraction."""
        prev, cur = Fraction(1), y
        for _ in range(k - 1):
            prev, cur = cur, 2 * y * cur - prev
        return cur

    @pytest.mark.parametrize("k", range(1, 40))
    def test_continuant_is_scaled_chebyshev(self, k):
        for x in range(-7, 8):
            y = Fraction((x - 1) ** 2 - 5, 4)
            assert self.continuant(x, k) == 2 ** (k + 1) * self.chebyshev(k, y), x

    @pytest.mark.parametrize("omega", [":012", ":01", "0:01", "21:0102", "2:1", "012:20"])
    def test_level_odd_half_is_a_k(self, omega):
        w = OmegaWord.parse(omega)
        config = RunConfig(max_vertices=1 << 14)
        for n in range(2, 15):
            diag, off = _markov_tridiagonal(level_path_form(w, n, config))
            assert np.array_equal(diag, diag[::-1]) and np.array_equal(off, off[::-1])
            odd, half_off = odd_half(diag, off)
            a_diag, a_off = a_k_pattern(1 << (n - 2))
            assert np.array_equal(4 * odd, a_diag) and np.array_equal(4 * half_off, a_off), n
            assert spectra._is_level_odd_half(odd, half_off)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 64])
    def test_closed_form_for_every_k(self, k, monkeypatch):
        # the pattern, not the level, selects the closed form: any k >= 1
        a_diag, a_off = a_k_pattern(k)
        sizes = solve_sizes(monkeypatch)
        vals = _tridiagonal_eigvals(a_diag / 4, a_off / 4)
        assert sizes == [] and np.all(np.diff(vals) > 0)
        dense = np.linalg.eigvalsh(dense_tridiagonal(a_diag / 4, a_off / 4))
        assert np.abs(vals - dense).max() < 1e-12

    @pytest.mark.parametrize("change", [(0, 0.5), (-1, 0.0), (1, 0.5)])
    def test_other_diagonals_solved_dense(self, change, monkeypatch):
        # one changed diagonal entry and the matrix is no A_k / 4
        a_diag, a_off = a_k_pattern(8)
        diag = a_diag / 4
        diag[change[0]] = change[1]
        sizes = solve_sizes(monkeypatch)
        vals = _tridiagonal_eigvals(diag, a_off / 4)
        assert sizes == [16]
        assert np.array_equal(vals, np.linalg.eigvalsh(dense_tridiagonal(diag, a_off / 4)))

    def test_level_14_odd_half_matches_bisection(self, monkeypatch):
        diag, off = _markov_tridiagonal(level_path_form(W, 14, RunConfig(max_vertices=1 << 14)))
        odd, half_off = odd_half(diag, off)
        sizes = solve_sizes(monkeypatch)
        vals = _tridiagonal_eigvals(odd, half_off)
        assert sizes == [] and vals.shape == (1 << 13,)
        windows = edge_windows(vals, 128)
        got = np.concatenate([vals[lo : hi + 1] for lo, hi in windows])
        assert np.abs(got - bisected(odd, half_off, windows)).max() < 1e-12

    @pytest.mark.parametrize("n", range(1, 12))
    def test_inertia_counts_bracket_closed_form(self, n):
        # the i-th eigenvalue lies in [mu_i - 1e-9, mu_i + 1e-9)
        diag, off = _markov_tridiagonal(level_path_form(W, n))
        vals = markov_eigenvalues_banded(level_path_form(W, n))
        i = np.arange(len(vals))
        assert np.all(negative_pivots(diag, off, vals - 1e-9) <= i)
        assert np.all(negative_pivots(diag, off, vals + 1e-9) > i)

    def test_inertia_count_sees_a_moved_eigenvalue(self):
        # the bracket fails once one closed-form value moves by 1e-8
        diag, off = _markov_tridiagonal(level_path_form(W, 6))
        vals = markov_eigenvalues_banded(level_path_form(W, 6))
        vals[20] += 1e-8
        assert negative_pivots(diag, off, vals[20:21] - 1e-9)[0] > 20


class TestDihedral:
    def test_reduction_identities(self):
        for depth in (3, 5, 7):
            rep = dihedral_reduction_check(W, depth)
            assert rep.t_squared_is_identity is True
            assert rep.markov_identity_holds is True

    def test_only_t_squared_is_computed(self, monkeypatch):
        # 4M = A + 2T + I cancels for any four matrices; it was summed anyway
        calls = []

        def counting(terms):
            calls.append(len(terms))
            return vanishes(terms)

        vanishes = spectra._vanishes
        monkeypatch.setattr(spectra, "_vanishes", counting)
        assert dihedral_reduction_check(W, 4).t_squared_is_identity
        assert calls == [17]  # the 16 products of 2T with itself, and -4I

    def test_level_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            dihedral_reduction_check(W, 6, RunConfig(max_vertices=32))
        assert dihedral_reduction_check(W, 5, RunConfig(max_vertices=32)).t_squared_is_identity

    @pytest.mark.parametrize("omega", [":012", ":01", "0:12", "2:21"])
    def test_t_squared_matches_sparse_reference(self, omega):
        w = OmegaWord.parse(omega)
        for depth in range(1, 10):
            b, c, d = (generator_action(g, w, depth).perm for g in "bcd")
            got = spectra._t_squared_is_identity(b, c, d)
            assert got == t_squared_by_sparse(b, c, d)
            assert got == dihedral_reduction_check(w, depth).t_squared_is_identity

    @pytest.mark.parametrize("omega", [":012", ":01", "0:12", "2:21"])
    def test_t_squared_fails_with_a_for_b(self, omega):
        w = OmegaWord.parse(omega)
        a, c, d = (generator_action(g, w, 6).perm for g in "acd")
        assert spectra._t_squared_is_identity(a, c, d) is False
        assert t_squared_by_sparse(a, c, d) is False

    def test_no_path_imports_scipy(self):
        # the package, the sweep, a non-level banded solve, both dihedral
        # routes and the sweep command run on numpy alone
        import treespec

        src = str(Path(treespec.__file__).resolve().parents[1])
        code = """
import sys
import treespec as ts
from treespec.cli import main

w = ts.OmegaWord.parse(':012')
steps = {
    'import treespec': lambda: None,
    'spectrum_sweep': lambda: ts.spectrum_sweep(w, 8),
    'banded ray': lambda: ts.markov_eigenvalues_banded(ts.upsilon_graph(ts.UpsilonSpec('ray', 20))),
    'dihedral_weighted_spectrum': lambda: ts.dihedral_weighted_spectrum(1.0, 2.0),
    'dihedral_reduction_check': lambda: ts.dihedral_reduction_check(w, 6),
    'treespec sweep': lambda: main(['sweep', '--omega', ':012', '--max-level', '6']),
}
for name, step in steps.items():
    step()
    if 'scipy' in sys.modules:
        sys.exit(f'scipy loaded by {name}')
"""
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "x, y, bad",
        [
            (0.0, 1.0, "x=0.0"),
            (1.0, -2.0, "y=-2.0"),
            (math.inf, 1.0, "x=inf"),
            (1.0, math.nan, "y=nan"),
            ("1", 1.0, "x='1'"),
        ],
    )
    def test_weights_must_be_finite_and_positive(self, x, y, bad):
        # inf gave the bands +-[inf, inf]; nan raised "interval [nan, nan] is empty"
        with pytest.raises(ValueError, match=re.escape(f"weight {bad} is not finite and positive")):
            dihedral_weighted_spectrum(x, y)

    @pytest.mark.parametrize("lengths", [(0,), (2.5,), (50, -1), ("8",)])
    def test_lengths_must_be_positive_ints(self, lengths):
        # 0 raised numpy's "zero-size array to reduction operation", 2.5 a bare TypeError
        bad = lengths[-1]
        with pytest.raises(ValueError, match=re.escape(f"length {bad!r} is not an int >= 1")):
            dihedral_weighted_spectrum(1.0, 2.0, lengths)

    def test_numpy_lengths_accepted(self):
        spec = dihedral_weighted_spectrum(2.0, 1.0, (np.int64(1), np.int32(8)))
        assert spec.truncation_eigenvalues[1] == (0.0,)
        expect = dihedral_weighted_spectrum(2.0, 1.0, (1, 8))
        assert spec.truncation_eigenvalues == expect.truncation_eigenvalues

    def test_weighted_line_spectrum(self):
        spec = dihedral_weighted_spectrum(1.0, 2.0)
        assert spec.exact.intervals == ((-3.0, -1.0), (1.0, 3.0))

    def test_equal_weights_close_the_gap(self):
        spec = dihedral_weighted_spectrum(1.0, 1.0)
        assert spec.exact.intervals == ((-2.0, 2.0),)

    @given(
        x=st.floats(0.1, 3.0),
        y=st.floats(0.1, 3.0),
    )
    @settings(max_examples=25, deadline=None)
    @example(x=0.1, y=math.nextafter(0.1, 1))  # a gap of 2.8e-17 is closed
    def test_fourier_oracle_agrees(self, x, y):
        spec = dihedral_weighted_spectrum(x, y, lengths=(50,))
        for (lo, hi), (olo, ohi) in zip(
            spec.exact.intervals, spec.oracle_exact.intervals
        ):
            assert abs(lo - olo) < 1e-6 and abs(hi - ohi) < 1e-6

    def test_truncations_converge_from_inside(self):
        # strong outer bonds (x > y): no in-gap edge modes, eigenvalues
        # stay in the exact set and fill it up
        spec = dihedral_weighted_spectrum(2.0, 1.0, lengths=(50, 100, 200))
        assert all(err < 1e-9 for err in spec.boundary_errors.values())
        worst = {
            n: spec.exact.hausdorff_to_points(vals)
            for n, vals in spec.truncation_eigenvalues.items()
        }
        assert worst[200] < worst[50]

    def test_weak_outer_bonds_carry_edge_modes(self):
        # x < y terminates the chain with weak bonds; two near-zero edge
        # states sit in the gap and the reported boundary error says so
        spec = dihedral_weighted_spectrum(1.0, 2.0, lengths=(100,))
        assert spec.boundary_errors[100] == pytest.approx(1.0, abs=1e-6)
        # all other eigenvalues respect the fattened set
        fat = spec.boundary_errors[100] + 1e-9
        assert all(
            spec.exact.distance(v) <= fat
            for v in spec.truncation_eigenvalues[100]
        )

    def test_truncation_spectrum_symmetric_under_negation(self):
        # the s/t line is bipartite: eigenvalues come in +- pairs
        spec = dihedral_weighted_spectrum(1.5, 0.5, lengths=(64,))
        vals = np.array(spec.truncation_eigenvalues[64])
        assert np.allclose(np.sort(vals), np.sort(-vals), atol=1e-9)

    def test_markov_spectrum_is_affine_dihedral_image(self):
        # 4 M = A + 2 T + I links the Markov spectrum of a level graph to
        # the dihedral operator A + 2T with x = 1, y = 2
        spec = dihedral_weighted_spectrum(1.0, 2.0)
        image = spec.exact.affine(0.25, 0.25)
        assert image.intervals == GRIG_TARGET.intervals
        vals = markov_eigenvalues_banded(schreier_graph(W, 6))
        assert all(image.contains(float(v), tol=1e-10) for v in vals)


class TestMoments:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_power_route_matches_eigendecomposition(self, n):
        g = schreier_graph(W, n)
        v = g.vertices[0]
        a = spectral_moments(g, v, 12)
        b = moments_via_eigendecomposition(g, v, 12)
        assert np.allclose(a.moments, b.moments, atol=1e-12)

    def test_routes_agree_on_upsilon_ray(self):
        # degree 3 at the far end, 4 elsewhere: the Markov operator is not symmetric
        g = upsilon_graph(UpsilonSpec("ray", 6))
        a = spectral_moments(g, 6, 12)
        b = moments_via_eigendecomposition(g, 6, 12)
        assert np.allclose(a.moments, b.moments, atol=1e-12)

    def test_path_moments_by_hand(self):
        # from an end of the path 0-1-2 the walk returns with probability 1/2
        # at every even time
        g = Multigraph([0, 1, 2], [(0, 1), (1, 2)])
        hand = [1.0, 0.0] + [0.5, 0.0] * 3
        assert np.allclose(moments_via_eigendecomposition(g, 0, 7).moments, hand, atol=1e-12)
        assert np.allclose(spectral_moments(g, 0, 7).moments, hand, atol=1e-12)

    def test_isolated_vertex_raises(self):
        with pytest.raises(IsolatedVertexError):
            spectral_moments(Multigraph([0, 1], [(0, 0)]), 0, 3)

    @pytest.mark.parametrize("route", [spectral_moments, moments_via_eigendecomposition])
    def test_unknown_vertex_named(self, route, monkeypatch):
        # a bare KeyError, on the second route after a dense eigendecomposition
        monkeypatch.setattr(spectra, "_markov_eigh", None)
        with pytest.raises(ValueError, match="start vertex 'nope' is not in the graph"):
            route(schreier_graph(W, 3), "nope", 3)

    @pytest.mark.parametrize("route", [spectral_moments, moments_via_eigendecomposition])
    def test_negative_count_refused(self, route):
        # the eigendecomposition route returned moments=() for count -1
        g = schreier_graph(W, 2)
        with pytest.raises(ValueError, match="count must be >= 0"):
            route(g, g.vertices[0], -1)
        assert len(route(g, g.vertices[0], 0).moments) == 1

    @pytest.mark.parametrize("route", [spectral_moments, moments_via_eigendecomposition])
    @pytest.mark.parametrize("count", [2.5, 3.0, "3", None])
    def test_count_not_an_int_named(self, route, count):
        # a bare TypeError from range()
        g = schreier_graph(W, 2)
        with pytest.raises(ValueError, match=re.escape(f"count {count!r} is not an int")):
            route(g, g.vertices[0], count)
        assert route(g, g.vertices[0], np.int64(3)) == route(g, g.vertices[0], 3)

    def test_moment_normalization(self):
        g = schreier_graph(W, 3)
        m = spectral_moments(g, g.vertices[0], 6)
        assert m.moments[0] == 1.0
        assert all(-1 <= x <= 1 for x in m.moments)

    def test_hankel_positive(self):
        g = schreier_graph(W, 4)
        for v in g.vertices[:4]:
            m = spectral_moments(g, v, 10)
            assert m.hankel_min_eigenvalue() >= -1e-12
