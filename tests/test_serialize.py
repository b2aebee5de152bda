import hashlib
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


LEVEL_DOCUMENT_SHA256 = {
    1: "5266d193c42ea4137a063fda6dc8acc458cde823c2724867cddee2ddda958290",
    2: "47b5fe2b86b45ccd0ab422c06a022f11bc71328d95462ad7b11f2e28707fdfbc",
    3: "ccf3e1f67b478c2db13496cf3998212c0d7385cb76728efa5b91344950953c23",
    4: "583b6940bcc31bc3c89544788f9a179296ce0b0391380d09f449088bf8b6ad77",
    5: "d604b197e5a452d16a1975243c433a4213eb5fcc930e5485424d7dd560e0d1e1",
    6: "65541673573861d9e850d17599a510ab5cb83d2180f6dfe8f3e86213ee53a72a",
    7: "00cccb8512260c95c8f2916b7362b7d9a55481222501110f632dc2e56fe2b15d",
    8: "d75c8e013c957a4e28d3770bacdc67de92b969cff743bf7d158e3a0127ccceef",
    9: "84cf67bcabb793ea00cf45670b38c30b0e11b4a6fac516fca4cf56156fa36b25",
    10: "0a4f84ad0d069a690e19869844da4010a452d80b1618ca27d2f287d7a6dd3649",
}


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

    def test_level_documents_unchanged(self):
        # the documents of the level graphs must not change by a byte
        w = OmegaWord.parse(":012")
        for n, digest in LEVEL_DOCUMENT_SHA256.items():
            assert hashlib.sha256(serialize_graph(schreier_graph(w, n))).hexdigest() == digest

    def test_list_vertex_ids_come_back_as_tuples(self):
        g = Multigraph([(0, 1), (1, "a"), 2], [((0, 1), (1, "a"), "x"), (2, (0, 1)), (2, 2)])
        data = serialize_graph(g)
        h = parse_graph(data)
        assert h.vertices == [(0, 1), (1, "a"), 2] and h.edges == g.edges
        assert all(type(v) is tuple for v in h.vertices[:2])
        assert serialize_graph(h) == data


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
            b'{"format_version":1,"vertices":[[0,[1]]],"edges":[]}',
            b'{"format_version":1,"vertices":[[0,1]],"edges":[{"u":[0,[1]],"v":[0,1]}]}',
            b'{"format_version":1,"vertices":5,"edges":[]}',
            b"5",
        ],
        ids=["loop-without-w", "edge-without-wu", "object-vertex", "object-endpoint",
             "nested-list-vertex", "nested-list-endpoint",
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

    def test_dot_escapes_quotes_and_backslashes(self):
        # unescaped, the quote in 'a"b' closed the id early: "a"b" -- "c"
        g = Multigraph(['a"b', "c\\d"], [('a"b', "c\\d", 'x"y')])
        assert export_dot(g).splitlines()[1:4] == [
            '  "a\\"b";',
            '  "c\\\\d";',
            '  "a\\"b" -- "c\\\\d" [label="x\\"y"];',
        ]

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
