import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from treespec import (
    Edge,
    FormatError,
    Multigraph,
    OmegaWord,
    WeightedGraph,
    export_dot,
    export_eigenvalue_csv,
    markov_weights,
    parse_graph,
    schreier_graph,
    serialize_graph,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
WEIGHTS = st.one_of(FINITE, st.complex_numbers(allow_nan=False, allow_infinity=False))


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(1, 5))
    edges = []
    for u, v, wu, wv in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), WEIGHTS, WEIGHTS),
        max_size=8,
    )):
        edges.append(Edge(u, v, wu, wu if u == v else wv))  # a loop has one weight
    return WeightedGraph(list(range(n)), edges)


def weight_bits(w):
    c = complex(w)
    return struct.pack("<dd", c.real, c.imag)


def graph_equal(a, b):
    if list(a.vertices) != list(b.vertices):
        return False
    ea = [(e.u, e.v, complex(e.wu), complex(e.wv), e.label) for e in a.edges]
    eb = [(e.u, e.v, complex(e.wu), complex(e.wv), e.label) for e in b.edges]
    return ea == eb


class TestRoundTrip:
    def test_schreier_graph(self):
        g = schreier_graph(OmegaWord.parse(":012"), 3)
        h = parse_graph(serialize_graph(g))
        assert graph_equal(markov_weights(g), markov_weights(h))

    def test_weighted_round_trip_is_bit_exact(self):
        w = markov_weights(schreier_graph(OmegaWord.parse(":01"), 2))
        h = parse_graph(serialize_graph(w))
        for e, f in zip(w.edges, h.edges):
            assert float(e.wu) == float(f.wu)  # exact, not approx
            assert float(e.wv) == float(f.wv)

    @given(wu=FINITE, wv=FINITE)
    def test_arbitrary_doubles_survive(self, wu, wv):
        g = WeightedGraph([0, 1], [Edge(0, 1, wu, wv)])
        h = parse_graph(serialize_graph(g))
        assert float(h.edges[0].wu) == wu
        assert float(h.edges[0].wv) == wv

    @given(g=weighted_graphs())
    def test_random_weighted_graphs_round_trip_bit_exactly(self, g):
        h = parse_graph(serialize_graph(g))
        assert list(h.vertices) == list(g.vertices)
        assert [(e.u, e.v) for e in h.edges] == [(e.u, e.v) for e in g.edges]
        for e, f in zip(g.edges, h.edges):
            assert weight_bits(f.wu) == weight_bits(e.wu)
            assert weight_bits(f.wv) == weight_bits(e.wv)

    def test_complex_weights(self):
        g = WeightedGraph([0, 1], [Edge(0, 1, 1 + 0.1j, 1 - 0.1j)])
        h = parse_graph(serialize_graph(g))
        assert complex(h.edges[0].wu) == 1 + 0.1j

    def test_serialization_is_canonical(self):
        g = schreier_graph(OmegaWord.parse(":012"), 2)
        assert serialize_graph(g) == serialize_graph(g)
        doc = json.loads(serialize_graph(g))
        assert doc["format_version"] == 1
        assert "conventions" in doc


class TestParseErrors:
    def test_not_json(self):
        with pytest.raises(FormatError, match="JSON"):
            parse_graph(b"not json{")

    def test_missing_field(self):
        with pytest.raises(FormatError, match="missing field"):
            parse_graph(b'{"format_version":1,"vertices":[]}')

    def test_wrong_version(self):
        with pytest.raises(FormatError, match="format_version"):
            parse_graph(b'{"format_version":99,"vertices":[],"edges":[]}')

    def test_duplicate_vertex(self):
        doc = b'{"format_version":1,"vertices":[0,0],"edges":[]}'
        with pytest.raises(FormatError, match="duplicate"):
            parse_graph(doc)

    def test_unknown_endpoint(self):
        doc = b'{"format_version":1,"vertices":[0],"edges":[{"u":0,"v":5}]}'
        with pytest.raises(FormatError, match="edge 0"):
            parse_graph(doc)

    def test_conventions_mismatch(self):
        doc = (
            b'{"conventions":{"loop_degree_one":false,'
            b'"upsilon_middle_exception":false},'
            b'"edges":[],"format_version":1,"vertices":[0]}'
        )
        with pytest.raises(FormatError, match="conventions"):
            parse_graph(doc)

    def test_bad_weight_string(self):
        doc = (
            b'{"format_version":1,"weighted":true,"vertices":[0,1],'
            b'"edges":[{"u":0,"v":1,"wu":"zap","wv":"1.0"}]}'
        )
        with pytest.raises(FormatError, match="weight"):
            parse_graph(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            b'{"format_version":1,"weighted":true,"vertices":[0],"edges":[{"u":0,"v":0}]}',
            b'{"format_version":1,"weighted":true,"vertices":[0,1],"edges":[{"u":0,"v":1}]}',
            b'{"format_version":1,"vertices":[{}],"edges":[]}',
            b'{"format_version":1,"vertices":[0],"edges":[{"u":0,"v":{}}]}',
            b'{"format_version":1,"vertices":5,"edges":[]}',
            b"5",
        ],
        ids=["loop-without-w", "edge-without-wu", "object-vertex", "object-endpoint",
             "vertices-not-a-list", "not-an-object"],
    )
    def test_malformed_structure(self, doc):
        with pytest.raises(FormatError):
            parse_graph(doc)


class TestExports:
    def test_dot_contains_every_edge(self):
        g = schreier_graph(OmegaWord.parse(":012"), 2)
        dot = export_dot(g)
        assert dot.startswith("graph G {")
        assert dot.count("--") == len(g.edges)
        for gen in "abcd":
            assert f'label="{gen}"' in dot

    def test_dot_weighted_attributes(self):
        w = markov_weights(schreier_graph(OmegaWord.parse(":012"), 1))
        dot = export_dot(w, name="lvl1")
        assert "graph lvl1 {" in dot and 'wu="0.25"' in dot

    def test_eigenvalue_csv(self):
        rows = [(1, 0, 0.5, True), (1, 1, 1.0, True)]
        csv_text = export_eigenvalue_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "level,index,value,in_target"
        assert lines[1] == "1,0,0.5,True"
        assert len(lines) == 3
