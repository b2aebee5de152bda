"""Graph documents (JSON), DOT export, and CSV reports.

Weights travel as decimal strings produced by Python's shortest round-trip
float repr, so parse(serialize(g)) reproduces every IEEE double bit-exactly.
"""

from __future__ import annotations

import json
import math
from itertools import chain, count, repeat
from operator import eq, itemgetter
from typing import Optional

from .config import FormatError
from .graphs import Edge, Multigraph, WeightedGraph, _new_edge

FORMAT_VERSION = 1

# Loops count once toward the degree; the Upsilon model omits the middle-vertex
# exception.  Every document carries this block and parsing rejects others.
CONVENTIONS = {"loop_degree_one": True, "upsilon_middle_exception": False}


def _weight_to_str(w) -> str:
    c = complex(w)
    if c.imag == 0 and math.copysign(1.0, c.imag) > 0:  # a -0.0 part keeps its sign
        return repr(c.real)
    return repr(c)


def _weight_from_str(s: str):
    try:
        if "j" in s or "(" in s:
            return complex(s)
        return float(s)
    except ValueError as exc:
        raise FormatError(f"bad weight string {s!r}") from exc


# the canonical JSON of one value: the document is these texts joined; a NaN
# or infinite float has no JSON form and raises ValueError
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode

# the JSON text of an id of one of these types, with no Python frame: two equal
# ids of one such type print alike, while 1, True and 1.0 are equal but do not
_ID_TEXT = {str: json.encoder.encode_basestring_ascii, int: int.__repr__}

# the labels a document holds; equal ones print alike, so each is encoded once
_LABEL_TYPES = {str, type(None)}


def _id_texts(g: Multigraph, u: list, v: list) -> tuple[str, list, list]:
    """The vertex array's text and each edge's u and v texts.  When every id
    and end is of one type of ``_ID_TEXT``, each vertex is encoded once and
    an end takes its vertex's text; otherwise each end is encoded itself."""
    kinds = set(map(type, chain(g.vertices, u, v)))
    text = _ID_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
    if text is None:
        try:
            return _encode(g.vertices), list(map(_encode, u)), list(map(_encode, v))
        except (TypeError, ValueError):  # json's bare error; name the first id it cannot write
            for x in chain(g.vertices, u, v):
                try:
                    _encode(x)
                except (TypeError, ValueError):
                    raise FormatError(f"vertex id {x!r} has no JSON form") from None
            raise
    texts = list(map(text, g.vertices))
    u, v = (list(map(texts.__getitem__, c.tolist())) for c in g.ends.T)
    return "[" + ",".join(texts) + "]", u, v


def _heads(label: list) -> list[str]:
    """Each edge record up to its u value; keys sort as label < u < v < w < wu < wv.
    A label the reader refuses, one neither a string nor None, raises FormatError."""
    if not set(map(type, label)) <= _LABEL_TYPES:
        i = next(i for i, x in enumerate(label) if type(x) not in _LABEL_TYPES)
        raise FormatError(f"edge {i}: label {label[i]!r} is neither a string nor null")
    memo = {x: '{"u":' if x is None else '{"label":' + _encode(x) + ',"u":' for x in set(label)}
    return list(map(memo.__getitem__, label))


def _metadata_text(metadata: dict) -> str:
    """The metadata's JSON text; FormatError names the first entry with no
    JSON form, where json raises a bare TypeError or ValueError, or else
    carries json's text (keys of types that do not sort together)."""
    try:
        return _encode(metadata)
    except (TypeError, ValueError) as exc:
        for key, value in metadata.items():
            try:
                _encode({key: value})
            except (TypeError, ValueError):
                raise FormatError(f"metadata {key!r} has no JSON form") from None
        raise FormatError(f"metadata has no JSON form: {exc}") from exc


def _weight_tail(e: Edge) -> str:
    """An edge record's weights, its closing brace and the comma after it; a
    weight string is a float or complex repr, which needs no JSON escape."""
    if e.is_loop:
        return f',"w":"{_weight_to_str(e.wu)}"}},'
    return f',"wu":"{_weight_to_str(e.wu)}","wv":"{_weight_to_str(e.wv)}"}},'


def serialize_graph(g: Multigraph, metadata: Optional[dict] = None) -> bytes:
    """Serialize a (weighted) multigraph to canonical JSON bytes.

    The bytes are those of ``json.dumps(doc, sort_keys=True,
    separators=(",", ":"))`` on the document with one dict per edge, written
    by column: record i is its label's header, the texts of u[i] and v[i]
    and, on a weighted graph, a weight tail; the document is joined once.
    """
    weighted = isinstance(g, WeightedGraph)
    u, v, label = (list(map(itemgetter(k), g.edges)) for k in (0, 1, 4))
    vertices, u_text, v_text = _id_texts(g, u, v)
    # five pieces per record, the comma after it in its tail; a prefix and a suffix
    pieces = [',"v":'] * (5 * len(u) + 2)
    pieces[1:-1:5] = _heads(label)
    pieces[2:-1:5] = u_text
    pieces[4:-1:5] = v_text
    pieces[5:-1:5] = list(map(_weight_tail, g.edges)) if weighted else ["},"] * len(u)
    if u:
        pieces[-2] = pieces[-2][:-1]  # no comma after the last record
    pieces[0] = '{"conventions":' + _encode(CONVENTIONS) + ',"edges":['
    pieces[-1] = (
        f'],"format_version":{FORMAT_VERSION},"metadata":{_metadata_text(dict(metadata or {}))},'
        f'"vertices":{vertices},"weighted":{_encode(weighted)}}}'
    )
    # a str join: a bytes join holds a buffer descriptor per piece
    return "".join(pieces).encode()


def _as_tuple(x):
    """x with every list in it, at any depth, turned into a tuple."""
    return tuple(map(_as_tuple, x)) if type(x) is list else x


def _ids(column: list) -> list:
    """The vertex ids of a decoded column: JSON has no tuples, so a
    list-valued id comes back as a tuple, as does every list inside it."""
    if list not in set(map(type, column)):
        return column
    return list(map(_as_tuple, column))


def _edge_columns(records: list, weighted: bool) -> tuple:
    """The u, v, wu, wv and label columns of the edge records.

    Raises KeyError or TypeError on a missing or malformed field, and
    FormatError on a bad weight string or label; the caller names the record.
    """
    u, v = (_ids(list(map(itemgetter(k), records))) for k in ("u", "v"))
    label = list(map(dict.get, records, repeat("label")))
    if not set(map(type, label)) <= _LABEL_TYPES:
        bad = next(x for x in label if type(x) not in _LABEL_TYPES)
        raise FormatError(f"label {bad!r} is neither a string nor null")
    if not weighted:
        return u, v, repeat(1.0), repeat(1.0), label
    loop = list(map(eq, u, v))
    # a loop carries one weight "w"; any other edge "wu" and "wv"
    wu = [_weight_from_str(r["w"] if k else r["wu"]) for r, k in zip(records, loop)]
    wv = [w if k else _weight_from_str(r["wv"]) for r, k, w in zip(records, loop, wu)]
    return u, v, wu, wv, label


def _edges(records: list, weighted: bool) -> list[Edge]:
    """The edges of the records, read by column; on a failure a scan names
    the first bad record, each of which the columns read alone."""
    try:
        return list(map(_new_edge, zip(*_edge_columns(records, weighted))))
    except (TypeError, KeyError, FormatError):
        for i, rec in enumerate(records):
            try:
                _edge_columns([rec], weighted)
            except (TypeError, KeyError) as exc:
                raise FormatError(f"edge {i}: missing or malformed field {exc}") from exc
            except FormatError as exc:
                raise FormatError(f"edge {i}: {exc}") from exc
        raise


def _refuse_constant(token: str):
    """Python's json reads NaN, Infinity and -Infinity, which JSON has not."""
    raise FormatError(f"not valid JSON: {token} is not a JSON value")


def parse_graph(data: bytes) -> Multigraph:
    """Parse a graph document; raises FormatError with field diagnostics."""
    try:
        doc = json.loads(data.decode(), parse_constant=_refuse_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("document is not a JSON object")
    for key in ("format_version", "vertices", "edges"):
        if key not in doc:
            raise FormatError(f"missing field {key!r}")
    if doc["format_version"] != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {doc['format_version']!r}")
    if "conventions" in doc and doc["conventions"] != CONVENTIONS:
        raise FormatError(
            f"conventions {doc['conventions']!r} differ from {CONVENTIONS!r}"
        )
    if not (isinstance(doc["vertices"], list) and isinstance(doc["edges"], list)):
        raise FormatError("vertices and edges must be lists")
    weighted = doc.get("weighted", False)
    if type(weighted) is not bool:
        raise FormatError(f"field 'weighted' must be true or false, not {weighted!r}")
    # popped, the records are freed before the graph is built
    edges = _edges(doc.pop("edges"), weighted)
    cls = WeightedGraph if weighted else Multigraph
    try:
        return cls(_ids(doc["vertices"]), edges)
    except (TypeError, ValueError) as exc:  # TypeError: an unhashable vertex id
        raise FormatError(str(exc)) from exc


def _dot_quoted(x) -> str:
    """str(x) as a DOT quoted string, its backslashes and quotes escaped."""
    return '"' + str(x).replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: Multigraph, name: str = "G") -> str:
    """DOT text; multi-edges and loops appear as separate edge statements."""
    lines = [f"graph {name} {{"]
    for v in g.vertices:
        lines.append(f"  {_dot_quoted(v)};")
    for e in g.edges:
        attrs = []
        if e.label is not None:
            attrs.append(f"label={_dot_quoted(e.label)}")
        if isinstance(g, WeightedGraph):
            attrs.append(f'wu="{_weight_to_str(e.wu)}"')
            if not e.is_loop:
                attrs.append(f'wv="{_weight_to_str(e.wv)}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_quoted(e.u)} -- {_dot_quoted(e.v)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


EIGENVALUE_CSV_HEADER = ["level", "index", "value", "in_target"]


def export_eigenvalue_csv(levels: dict[int, tuple]) -> str:
    """CSV with one eigenvalue per row, level, index, value and in_target, from
    ``{level: (values, flags)}`` of floats and bools; one join per level."""
    texts = [",".join(EIGENVALUE_CSV_HEADER) + "\n"]
    for level, (values, flags) in levels.items():
        texts.append("".join(map(f"{level},{{}},{{!r}},{{}}\n".format, count(), values, flags)))
    return "".join(texts)
