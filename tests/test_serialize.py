import hashlib
import itertools
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treespec import (
    Edge,
    FormatError,
    Multigraph,
    OmegaWord,
    RunConfig,
    UpsilonSpec,
    WeightedGraph,
    cayley_ball,
    export_dot,
    export_eigenvalue_csv,
    level_projection_covering,
    lift_weights,
    markov_operator,
    markov_weights,
    parse_graph,
    schreier_graph,
    serialize_graph,
    shift_square_transform,
    upsilon_graph,
)
from treespec.serialize import CONVENTIONS, FORMAT_VERSION, _weight_from_str, _weight_to_str

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


def reference_serialize(g, metadata=None):
    """The dict-per-edge writer that the column writer must match byte for byte."""
    weighted = isinstance(g, WeightedGraph)
    edges = []
    for e in g.edges:
        rec = {"u": e.u, "v": e.v}
        if weighted:
            if e.is_loop:
                rec["w"] = _weight_to_str(e.wu)
            else:
                rec["wu"] = _weight_to_str(e.wu)
                rec["wv"] = _weight_to_str(e.wv)
        if e.label is not None:
            rec["label"] = e.label
        edges.append(rec)
    doc = {
        "format_version": FORMAT_VERSION,
        "weighted": weighted,
        "vertices": list(g.vertices),
        "edges": edges,
        "metadata": dict(metadata or {}),
        "conventions": CONVENTIONS,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def reference_parse(data):
    """The record-by-record reader of a well-formed document."""
    doc = json.loads(data.decode())
    vertices = [tuple(v) if type(v) is list else v for v in doc["vertices"]]
    weighted = doc["weighted"]
    edges = []
    for rec in doc["edges"]:
        u, v = rec["u"], rec["v"]
        u = tuple(u) if type(u) is list else u
        v = tuple(v) if type(v) is list else v
        if not weighted:
            edges.append(Edge(u, v, 1.0, 1.0, rec.get("label")))
        elif u == v:
            w = _weight_from_str(rec["w"])
            edges.append(Edge(u, v, w, w, rec.get("label")))
        else:
            wu, wv = _weight_from_str(rec["wu"]), _weight_from_str(rec["wv"])
            edges.append(Edge(u, v, wu, wv, rec.get("label")))
    return (WeightedGraph if weighted else Multigraph)(vertices, edges)


def aliases(x):
    """x and the values equal to it, and so hashed alike, that print differently."""
    if type(x) is tuple:
        return list(itertools.product(*map(aliases, x)))
    if type(x) in (bool, int, float) and float(x).is_integer():
        return [x, int(x), float(x)] + [-0.0] * (x == 0) + [bool(x)] * (x in (0, 1))
    return [x]


ID_KINDS = [
    st.text(max_size=3),
    st.integers(-3, 3),
    st.tuples(st.integers(0, 1), st.text(max_size=2)),
    st.one_of(st.text(max_size=2), st.integers(-2, 2), st.booleans(),
              st.floats(-2, 2, width=16), st.tuples(st.booleans(), st.integers(0, 1))),
]
LABELS = st.one_of(st.none(), st.sampled_from("abcd"), st.text(max_size=3))


@st.composite
def documented_graphs(draw):
    """Graphs on str, int, tuple or mixed ids whose edge ends may print unlike
    their vertex (1, True, 1.0), with loops and labels, weighted or not."""
    vertices = draw(st.lists(draw(st.sampled_from(ID_KINDS)), min_size=1, max_size=5,
                             unique=True))
    end = st.sampled_from(vertices).flatmap(lambda x: st.sampled_from(aliases(x)))
    weighted = draw(st.booleans())
    label = st.one_of(LABELS, st.integers(0, 1), st.booleans()) if draw(st.booleans()) else LABELS
    rows = draw(st.lists(st.tuples(end, st.one_of(end, st.none()), WEIGHTS, WEIGHTS, label),
                         max_size=8))
    edges = []
    for u, v, wu, wv, lab in rows:
        v = u if v is None else v  # a loop now and then
        edges.append(Edge(u, v, wu, wv, lab) if weighted else Edge(u, v, label=lab))
    return (WeightedGraph if weighted else Multigraph)(vertices, edges)


def snapshot(g):
    """Everything a graph holds, with the types and float bits that repr shows."""
    return type(g), repr(g.vertices), repr(g.edges)


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
    11: "f50afb039182b47b2acc57f502d4068ec31deb634d323304bc09967fe92ec806",
    12: "cdeeb4c728545c6d896b8080d333b2506a39719e1e148f072936d7f5c82b81e5",
    13: "c92d69527c6d489abe04e9babcf97e707c1d5c964a293ff0abffc6b2d8a50ee0",
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

    @pytest.mark.parametrize("wu, wv, dtype", [(0.5, 2, float), (0.5, 1j, complex)])
    def test_weight_table_is_float_unless_a_weight_is_complex(self, wu, wv, dtype):
        # the constructor and the parser keep one rule; both tables were complex
        g = WeightedGraph([0, 1], [Edge(0, 1, wu, wv), Edge(1, 1, 0.25, 0.25)])
        h = parse_graph(serialize_graph(g))
        assert g.weights.dtype == h.weights.dtype == dtype
        assert repr(h.edges) == repr(g.edges)

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
        w, config = OmegaWord.parse(":012"), RunConfig(max_vertices=1 << 13)
        for n, digest in LEVEL_DOCUMENT_SHA256.items():
            data = serialize_graph(schreier_graph(w, n, config))
            assert hashlib.sha256(data).hexdigest() == digest

    @given(g=documented_graphs(), metadata=st.dictionaries(st.text(max_size=2), st.integers()))
    @settings(max_examples=300, deadline=None)
    def test_column_route_matches_the_reference_route(self, g, metadata):
        # a label the reader refuses, neither a string nor None, is refused on write
        bad = [i for i, e in enumerate(g.edges) if not (e.label is None or type(e.label) is str)]
        if bad:
            with pytest.raises(FormatError, match=rf"edge {bad[0]}: label"):
                serialize_graph(g, metadata)
            return
        data = serialize_graph(g, metadata)
        assert data == reference_serialize(g, metadata)
        assert snapshot(parse_graph(data)) == snapshot(reference_parse(data))
        assert serialize_graph(parse_graph(data), metadata) == data

    def test_ends_that_print_unlike_their_vertex_take_its_text(self):
        # an end is its vertex: True given at vertex 1 is written as 1
        g = Multigraph([1, (0, "x")], [(True, 1.0), (1, (False, "x")), ((0.0, "x"), 1, "a")])
        data = serialize_graph(g)
        assert data == reference_serialize(g)
        assert b'"edges":[{"u":1,"v":1},{"u":1,"v":[0,"x"]},{"label":"a","u":[0,"x"],"v":1}]' in data

    def test_list_vertex_ids_come_back_as_tuples(self):
        g = Multigraph([(0, 1), (1, "a"), 2], [((0, 1), (1, "a"), "x"), (2, (0, 1)), (2, 2)])
        data = serialize_graph(g)
        h = parse_graph(data)
        assert h.vertices == [(0, 1), (1, "a"), 2] and h.edges == g.edges
        assert all(type(v) is tuple for v in h.vertices[:2])
        assert serialize_graph(h) == data

    def test_nested_list_ids_come_back_as_nested_tuples(self):
        # only the outer list of an id was made a tuple: "unhashable type: 'list'"
        g = Multigraph([((0, 1), 2), 3], [(((0, 1), 2), 3)])
        data = serialize_graph(g)
        h = parse_graph(data)
        assert h.vertices == g.vertices and h.edges == g.edges
        assert serialize_graph(h) == data


class TestWriteErrors:
    @pytest.mark.parametrize("label", [5, True])
    def test_label_must_be_a_string_or_none(self, label):
        # it was written as "label":5, which the reader refuses
        g = Multigraph([0, 1], [Edge(0, 1, label="a"), Edge(1, 1), Edge(0, 1, label=label)])
        with pytest.raises(
            FormatError, match=re.escape(f"edge 2: label {label!r} is neither a string nor null")
        ):
            serialize_graph(g)

    def test_id_without_a_json_form_is_named(self):
        # json's bare TypeError did not name the id
        g = Multigraph([0, frozenset({1})], [(0, frozenset({1}))])
        message = "vertex id frozenset({1}) has no JSON form"
        with pytest.raises(FormatError, match=re.escape(message)):
            serialize_graph(g)


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

    @pytest.mark.parametrize("weighted", [b'"false"', b"0", b"1", b"null", b"[]"])
    def test_weighted_must_be_a_json_bool(self, weighted):
        # bool("false") is true: the document was read as weighted and then
        # blamed for a missing 'wu'
        doc = b'{"format_version":1,"weighted":%s,"vertices":[0,1],"edges":[{"u":0,"v":1}]}'
        with pytest.raises(FormatError, match="field 'weighted' must be true or false"):
            parse_graph(doc % weighted)

    @pytest.mark.parametrize("label", [b"[1]", b"1", b"true", b'{"a":1}'])
    def test_label_must_be_a_string_or_null(self, label):
        # a list label made an Edge that cannot be hashed
        doc = (
            b'{"format_version":1,"vertices":[0,1],"edges":[{"u":0,"v":1,"label":"a"},'
            b'{"u":1,"v":1,"label":null},{"u":0,"v":1,"label":%s}]}'
        )
        with pytest.raises(FormatError, match=r"edge 2: label .* is neither a string nor null"):
            parse_graph(doc % label)

    @pytest.mark.parametrize(
        "edges, weighted, message",
        [
            (b'{"u":0,"v":1},{"u":1}', b"false", "edge 1: missing or malformed field 'v'"),
            (b'{"u":0,"v":1},[0,1]', b"false", "edge 1: missing or malformed field"),
            (b'{"u":0,"v":0,"w":"1"},{"u":0,"v":1,"wu":"1","wv":"zap"}', b"true",
             "edge 1: bad weight string 'zap'"),
            (b'{"u":0,"v":0,"w":"1"},{"u":1,"v":1,"wu":"1"}', b"true",
             "edge 1: missing or malformed field 'w'"),
        ],
        ids=["missing-v", "record-not-an-object", "bad-weight", "loop-without-w"],
    )
    def test_first_bad_record_is_named(self, edges, weighted, message):
        doc = b'{"format_version":1,"weighted":%s,"vertices":[0,1],"edges":[%s]}'
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_graph(doc % (weighted, edges))

    @pytest.mark.parametrize(
        "doc",
        [
            b'{"format_version":1,"weighted":true,"vertices":[0],"edges":[{"u":0,"v":0}]}',
            b'{"format_version":1,"weighted":true,"vertices":[0,1],"edges":[{"u":0,"v":1}]}',
            b'{"format_version":1,"vertices":[{}],"edges":[]}',
            b'{"format_version":1,"vertices":[0],"edges":[{"u":0,"v":{}}]}',
            b'{"format_version":1,"vertices":[[0,1]],"edges":[{"u":[0,[1]],"v":[0,1]}]}',
            b'{"format_version":1,"vertices":5,"edges":[]}',
            b"5",
        ],
        ids=["loop-without-w", "edge-without-wu", "object-vertex", "object-endpoint",
             "nested-list-endpoint",
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
        csv_text = export_eigenvalue_csv({1: ([0.5, 1.0], [True, True])})
        lines = csv_text.strip().split("\n")
        assert lines[0] == "level,index,value,in_target"
        assert lines[1] == "1,0,0.5,True"
        assert len(lines) == 3


class TestNotJson:
    """NaN and the infinities have no JSON form: Python's json wrote them as
    bare tokens and read them back."""

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_id_is_named(self, x):
        g = Multigraph([x, 1.5], [])
        with pytest.raises(FormatError, match=re.escape(f"vertex id {x!r} has no JSON form")):
            serialize_graph(g)

    def test_non_finite_inside_an_id_is_named(self):
        g = Multigraph([(1, math.nan), (2, 0.5)], [((2, 0.5), (2, 0.5))])
        with pytest.raises(FormatError, match=re.escape("vertex id (1, nan) has no JSON form")):
            serialize_graph(g)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("where", ["vertices", "metadata"])
    def test_non_finite_tokens_refused(self, token, where):
        vertices, meta = (f"[{token}]", "{}") if where == "vertices" else ("[1]", f'{{"x":{token}}}')
        doc = f'{{"edges":[],"format_version":1,"metadata":{meta},"vertices":{vertices}}}'
        with pytest.raises(FormatError, match=re.escape(f"{token} is not a JSON value")):
            parse_graph(doc.encode())

    @pytest.mark.parametrize(
        "metadata, key",
        [({"a": {1}}, "a"), ({"level": 3, "x": math.nan}, "x"), ({"b": 1, "c": [math.inf]}, "c")],
    )
    def test_metadata_without_a_json_form_is_named(self, metadata, key):
        # json raised a bare TypeError for the set, and wrote NaN for the float
        with pytest.raises(FormatError, match=re.escape(f"metadata {key!r} has no JSON form")):
            serialize_graph(Multigraph([0], []), metadata)

    def test_metadata_keys_that_do_not_sort(self):
        with pytest.raises(FormatError, match="metadata has no JSON form"):
            serialize_graph(Multigraph([0], []), {1: 2, "a": 3})

    def test_finite_float_ids_still_written(self):
        g = Multigraph([0.5, -2.0], [(0.5, -2.0)])
        assert parse_graph(serialize_graph(g, {"w": 0.25})).vertices == [0.5, -2.0]


def reference_dot(g, name="G"):
    """The edge-by-edge DOT writer that the column writer must match."""

    def quoted(x):
        return '"' + str(x).replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = [f"graph {name} {{"] + [f"  {quoted(v)};" for v in g.vertices]
    for e in g.edges:
        attrs = [] if e.label is None else [f"label={quoted(e.label)}"]
        if isinstance(g, WeightedGraph):
            attrs.append(f'wu="{_weight_to_str(e.wu)}"')
            if not e.is_loop:
                attrs.append(f'wv="{_weight_to_str(e.wv)}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {quoted(e.u)} -- {quoted(e.v)}{suffix};")
    return "\n".join(lines + ["}"]) + "\n"


def shift_square_graph(lam):
    op = markov_operator(schreier_graph(OmegaWord.parse(":012"), 3))
    return shift_square_transform(op, lam, 2 * op.norm_bound + 1.0)[1]


def lifted_graph():
    c = level_projection_covering(OmegaWord.parse(":012"), 5, 2)
    return lift_weights(c, markov_weights(c.target))


# graphs built by the package's builders and by the constructor (mixed and
# tuple ids given by ends that print unlike their vertex, real and complex weights)
COLUMN_GRAPHS = {
    "schreier": lambda: schreier_graph(OmegaWord.parse(":012"), 4),
    "upsilon-finite": lambda: upsilon_graph(UpsilonSpec("finite", 4)),
    "upsilon-line": lambda: upsilon_graph(UpsilonSpec("line", 3)),
    "cayley-ball": lambda: cayley_ball(OmegaWord.parse(":012"), 4, 3).graph,
    "markov-weights": lambda: markov_weights(schreier_graph(OmegaWord.parse("0:01"), 3)),
    "lift-weights": lifted_graph,
    "shift-square-real": lambda: shift_square_graph(0.25),
    "shift-square-complex": lambda: shift_square_graph(0.25 + 0.1j),
    "constructed-mixed-ids": lambda: Multigraph(
        [1, (0, "x"), "a", 2.5],
        [(True, 1.0), (1, (False, "x"), "p"), ((0.0, "x"), "a", "q"), ("a", "a"), (2.5, 1)],
    ),
    "constructed-real": lambda: WeightedGraph(
        [0, 1, 2], [Edge(0, 1, 0.5, 2.0, "a"), Edge(1, 1, 0.25, 0.25), Edge(2, True, 1, -0.0)]
    ),
    "constructed-complex": lambda: WeightedGraph(
        ["u", ("v", 1)],
        [Edge("u", ("v", True), 1 + 0.5j, 1 - 0.5j, "c"), Edge("u", "u", 0.5, 0.5),
         Edge(("v", 1.0), "u", 2.0, 3j)],
    ),
}


class TestColumnGraphs:
    """The writers read a graph's columns, and the reader builds a graph's
    columns from its document; neither makes Edge rows."""

    @pytest.mark.parametrize("build", COLUMN_GRAPHS.values(), ids=COLUMN_GRAPHS.keys())
    def test_writers_build_no_rows(self, build):
        g = build()
        serialize_graph(g, {"level": 3})
        export_dot(g)
        assert "edges" not in vars(g)

    @pytest.mark.parametrize("build", COLUMN_GRAPHS.values(), ids=COLUMN_GRAPHS.keys())
    def test_reading_edges_keeps_no_rows(self, build):
        g = build()
        names = set(vars(g))
        view = g.edges
        assert len(list(view)) == len(view) and view[0] == view[-len(view)]
        assert view[1:3] == list(view)[1:3] and view == build().edges and view == list(view)
        assert not view != g.edges and repr(view)
        assert set(vars(g)) == names and "edges" not in vars(g)

    def test_reading_edges_of_a_level_graph_leaves_no_memory(self):
        g = schreier_graph(OmegaWord.parse(":012"), 12)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert sum(1 for _ in g.edges) == len(g.ends) and g.edges == g.edges
            assert g.edges[-1] == list(g.edges)[-1] and len(g.edges[::2]) == len(g.ends[::2])
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert left < 64 * 1024

    @pytest.mark.parametrize("build", COLUMN_GRAPHS.values(), ids=COLUMN_GRAPHS.keys())
    def test_match_the_reference_routes(self, build):
        g = build()
        data = serialize_graph(g, {"level": 3})
        dot = export_dot(g, name="lvl")
        assert data == reference_serialize(g, {"level": 3})
        assert dot == reference_dot(g, name="lvl")
        assert snapshot(parse_graph(data)) == snapshot(reference_parse(data))
        # with the view built, the writers still read the columns, to the same bytes
        assert serialize_graph(g, {"level": 3}) == data and export_dot(g, name="lvl") == dot

    @pytest.mark.parametrize("build", [COLUMN_GRAPHS["schreier"], COLUMN_GRAPHS["upsilon-line"]],
                             ids=["str-ids", "int-ids"])
    def test_reader_builds_no_rows(self, build):
        data = serialize_graph(build())
        h = parse_graph(data)
        assert "edges" not in vars(h)
        assert serialize_graph(h) == data and "edges" not in vars(h)
        assert snapshot(h) == snapshot(reference_parse(data))

    def test_ends_that_print_unlike_their_vertex_round_trip(self):
        # the reader resolves each end to its vertex: "u":true at vertex 1 reads back as 1
        data = (b'{"edges":[{"u":true,"v":1},{"label":"a","u":2,"v":1.0},{"u":2,"v":2}],'
                b'"format_version":1,"vertices":[1,2]}')
        h = parse_graph(data)
        assert repr(h.edges) == repr([Edge(1, 1), Edge(2, 1, label="a"), Edge(2, 2)])
        written = serialize_graph(h)
        assert b'"edges":[{"u":1,"v":1},{"label":"a","u":2,"v":1},{"u":2,"v":2}]' in written
        assert serialize_graph(parse_graph(written)) == written and export_dot(h) == reference_dot(h)

    @pytest.mark.parametrize(
        "doc, message",
        [
            (b'{"format_version":1,"vertices":["a","a"],"edges":[]}', "duplicate vertex ids"),
            (b'{"format_version":1,"vertices":["a"],"edges":[{"u":"a","v":"a"},{"u":"b","v":"a"}]}',
             "edge 1: Edge(u='b', v='a', wu=1.0, wv=1.0, label=None) references unknown vertex"),
        ],
        ids=["duplicate-id", "unknown-end"],
    )
    def test_column_route_failures_are_named_by_the_row_route(self, doc, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_graph(doc)

    @given(g=documented_graphs())
    @settings(max_examples=200, deadline=None)
    def test_row_graph_dot_matches_the_reference(self, g):
        assert export_dot(g) == reference_dot(g)


class TestHeaderFields:
    """Python equality let true and 1.0 pass for the version, and 1 and 0 for
    the convention bools."""

    @pytest.mark.parametrize("version", [b"true", b"1.0", b'"1"'])
    def test_format_version_must_be_the_int_one(self, version):
        doc = b'{"format_version":%s,"vertices":[0],"edges":[]}' % version
        message = f"field 'format_version' must be the int 1, not {json.loads(version)!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_graph(doc)

    @pytest.mark.parametrize(
        "conventions, message",
        [
            (b'{"loop_degree_one":1,"upsilon_middle_exception":0}',
             "conventions field 'loop_degree_one' must be true, not 1"),
            (b'{"loop_degree_one":true,"upsilon_middle_exception":0}',
             "conventions field 'upsilon_middle_exception' must be false, not 0"),
            (b'{"loop_degree_one":1.0,"upsilon_middle_exception":false}',
             "conventions field 'loop_degree_one' must be true, not 1.0"),
            (b'{"loop_degree_one":true}', "differ from"),
            (b"[]", "conventions [] differ from"),
        ],
        ids=["int-bools", "int-false", "float-true", "missing-field", "not-an-object"],
    )
    def test_conventions_must_be_the_json_bools(self, conventions, message):
        doc = b'{"conventions":%s,"format_version":1,"vertices":[0],"edges":[]}' % conventions
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_graph(doc)

    def test_canonical_header_still_read(self):
        g = schreier_graph(OmegaWord.parse(":012"), 2)
        assert parse_graph(serialize_graph(g)).vertices == g.vertices
