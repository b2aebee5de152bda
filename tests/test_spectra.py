import bisect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from treespec import (
    GRIG_TARGET,
    IntervalUnion,
    IsolatedVertexError,
    Multigraph,
    OmegaWord,
    UpsilonSpec,
    dihedral_reduction_check,
    dihedral_weighted_spectrum,
    markov_eigenvalues_banded,
    markov_operator,
    moments_via_eigendecomposition,
    schreier_graph,
    spectral_moments,
    spectrum_sweep,
    upsilon_graph,
)
from treespec import spectra
from treespec.graphs import _markov_eigh
from treespec.spectra import _markov_tridiagonal, _tridiagonal_eigvals

W = OmegaWord.parse(":012")
GOLD = math.sqrt(5.0)


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


def dense_tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def solve_sizes(monkeypatch):
    """Sizes of the tridiagonals the fold hands to eigh_tridiagonal."""
    sizes = []

    def recording(diag, off, **kwargs):
        sizes.append(len(diag))
        return eigh_tridiagonal(diag, off, **kwargs)

    monkeypatch.setattr(spectra, "eigh_tridiagonal", recording)
    return sizes


class TestIntervalUnion:
    def test_parse_and_str(self):
        u = IntervalUnion.parse("[-0.5,0]u[0.5,1]")
        assert u.intervals == ((-0.5, 0.0), (0.5, 1.0))
        assert str(u) == "[-0.5,0]u[0.5,1]"

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            IntervalUnion(((0.0, 2.0), (1.0, 3.0)))

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
        scale = max(np.abs(diag).max(), np.abs(off).max())
        kept = np.where(np.abs(off) > np.finfo(float).eps * scale, off, 0.0)
        assert np.abs(folded - np.linalg.eigvalsh(dense_tridiagonal(diag, kept))).max() < 1e-12

    def test_underflowing_couplings_solved_exactly(self):
        # two copies of [[1, 3/4], [3/4, 0]], joined by negligible couplings
        folded = _tridiagonal_eigvals(*UNDERFLOWING_COUPLINGS)
        root = math.sqrt(13.0) / 2
        expect = np.array([(1 - root) / 2] * 2 + [0.0] * 14 + [(1 + root) / 2] * 2)
        assert np.abs(folded - expect).max() < 1e-15

    @given(tridiagonals(st.integers(0, 31).map(lambda k: 2 * k + 1)))
    @settings(deadline=None)
    def test_odd_sizes_solved_as_they_are(self, tri):
        diag, off = tri
        expect = eigh_tridiagonal(diag, off, eigvals_only=True)
        assert np.array_equal(_tridiagonal_eigvals(diag, off), expect)

    @given(tridiagonals(st.integers(1, 32).map(lambda k: 2 * k)))
    @settings(deadline=None)
    def test_non_mirror_inputs_solved_as_they_are(self, tri):
        diag, off = tri
        diag[0] = diag[-1] + 1.0
        expect = eigh_tridiagonal(diag, off, eigvals_only=True)
        assert np.array_equal(_tridiagonal_eigvals(diag, off), expect)

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
        sizes = solve_sizes(monkeypatch)
        vals = markov_eigenvalues_banded(schreier_graph(W, 8))
        assert max(sizes) == 1 << 7 and sum(sizes) == (1 << 8) - 2
        dense = np.linalg.eigvalsh(markov_operator(schreier_graph(W, 8)).as_matrix())
        assert np.abs(vals - dense).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_middle_exception_folds(self, n, monkeypatch):
        # one connecting edge at the centre: degree 3 there, still a mirror image
        g = upsilon_graph(UpsilonSpec("finite", n, middle_exception=True))
        sizes = solve_sizes(monkeypatch)
        vals = markov_eigenvalues_banded(g)
        assert max(sizes) == 1 << (n - 1)
        assert np.abs(vals - _markov_eigh(g)[0]).max() < 1e-12


class TestDihedral:
    def test_reduction_identities(self):
        for depth in (3, 5, 7):
            rep = dihedral_reduction_check(W, depth)
            assert rep.t_squared_is_identity is True
            assert rep.markov_identity_holds is True

    def test_import_does_not_load_scipy_sparse(self):
        # the sparse check imports it on first use, not with the package
        import treespec

        src = str(Path(treespec.__file__).resolve().parents[1])
        code = "import sys, treespec; sys.exit('scipy.sparse' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0

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
