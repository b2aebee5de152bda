"""Level spectra beyond the acceptance levels, against the closed form, and
ball censuses beyond the acceptance radii."""

import math

import numpy as np
import pytest

from treespec import (
    OmegaWord,
    RunConfig,
    enumerate_ball,
    generator_action,
    markov_eigenvalues_banded,
    schreier_graph,
    spectrum_sweep,
)
from treespec.spectra import _markov_tridiagonal

from test_spectra import bisected, edge_windows


def closed_form_spectrum(n):
    """sp(M_n) = {1, 1/2} and, for L = 2..n, (1 +- sqrt(5 + 4 cos((2j+1) pi / 2^(L-1))))/4
    for 0 <= j < 2^(L-2): the renormalisation x -> x^2 - 2x - 4 of the
    adjacency spectrum (Bartholdi-Grigorchuk 2000)."""
    vals = [1.0, 0.5]
    for level in range(2, n + 1):
        j = np.arange(1 << (level - 2))
        r = np.sqrt(5 + 4 * np.cos((2 * j + 1) * math.pi / (1 << (level - 1))))
        vals += list((1 + r) / 4) + list((1 - r) / 4)
    return np.sort(vals)


def test_level_14_matches_closed_form():
    n = 14
    g = schreier_graph(OmegaWord.parse(":012"), n, RunConfig(max_vertices=1 << n))
    vals = markov_eigenvalues_banded(g)
    assert vals.shape == (1 << n,)
    assert np.abs(vals - closed_form_spectrum(n)).max() < 1e-10
    # bisection on the level's own tridiagonal, at both ends of both bands
    # (on a 2-core Xeon all 16384 take 93 s by bisection, these 256 about 1 s)
    diag, off = _markov_tridiagonal(g)
    windows = edge_windows(vals, 64)
    got = np.concatenate([vals[lo : hi + 1] for lo, hi in windows])
    assert np.abs(got - bisected(diag, off, windows)).max() < 1e-12


def test_level_14_sweep_matches_graph_route():
    # the sweep's path forms come from the generator permutations, the
    # graph's from its edges; the eigenvalues agree to the bit
    n = 14
    w = OmegaWord.parse(":012")
    config = RunConfig(max_vertices=1 << n)
    sweep = spectrum_sweep(w, n, config=config)
    vals = markov_eigenvalues_banded(schreier_graph(w, n, config))
    assert sweep.reports[n].eigenvalues == tuple(vals.tolist())


def test_level_20_generators_are_arrays():
    # one intp per leaf and generator, with no tuple beside them; each
    # projects onto level 19 by dropping the last bit
    w = OmegaWord.parse(":012")
    gens = [generator_action(g, w, 20) for g in "abcd"]
    assert not any("leaf_perm" in vars(a) for a in gens)
    deep = [a.perm for a in gens]
    assert sum(p.nbytes for p in deep) == 4 * (1 << 20) * np.dtype(np.intp).itemsize
    for g, perm in zip("abcd", deep):
        assert np.array_equal(perm[::2] >> 1, generator_action(g, w, 19).perm)
    generator_action.cache_clear()


@pytest.mark.parametrize(
    "omega, size", [(":012", 65_527), (":01", 68_645), ("0:01", 57_052)]
)
def test_radius_22_census(omega, size):
    # the values the one-candidate-at-a-time loop gave, at comparison depth 8
    enum = enumerate_ball(OmegaWord.parse(omega), 22)
    assert enum.depth == 8 and enum.sizes[-1] == size
