"""Graph documents (JSON), DOT export, and CSV reports.

Weights travel as decimal strings produced by Python's shortest round-trip
float repr, so parse(serialize(g)) reproduces every IEEE double bit-exactly.

Documents and DOT text are written by column.  A column graph (see
:mod:`treespec.graphs`) is written from its columns, each end taking its
vertex's text, and gets no ``Edge`` rows; a row graph is written from the
caller's rows, whose ends keep their own text.  An unweighted document whose
ids all decode to ``str``, or all to ``int``, is read back as a column graph;
any other document, and one that the column route cannot resolve, is read
by rows, which name the first bad record.
"""

from __future__ import annotations

import json
import math
from itertools import chain, count, repeat
from operator import eq, itemgetter
from typing import Optional

import numpy as np

from .config import FormatError
from .graphs import Multigraph, WeightedGraph, _from_ids, _new_edge, _rows

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


def _one_id_kind(*columns: list) -> bool:
    """Whether every id in the columns is of one type of ``_ID_TEXT``."""
    kinds = set(map(type, chain(*columns)))
    return len(kinds) == 1 and kinds <= _ID_TEXT.keys()


def _texts(ids: list) -> list[str]:
    """Each id's JSON text; FormatError names the first id with no JSON form."""
    text = _ID_TEXT[type(ids[0])] if _one_id_kind(ids) else _encode
    try:
        return list(map(text, ids))
    except (TypeError, ValueError):  # json's bare error; name the first id it cannot write
        for x in ids:
            try:
                _encode(x)
            except (TypeError, ValueError):
                raise FormatError(f"vertex id {x!r} has no JSON form") from None
        raise


def _gather(texts: list[str], g: Multigraph) -> list[list[str]]:
    """Each edge's u and v texts, those of its ends' vertices; an object array
    gathers them with no Python step per end."""
    return np.array(texts, dtype=object)[g.ends.T].tolist()


def _id_texts(g: Multigraph, rows: Optional[list]) -> tuple[str, list, list]:
    """The vertex array's text and each edge's u and v texts.  Each vertex is
    encoded once, and an end takes its vertex's text, on a column graph and
    when every id and end of the rows is of one type of ``_ID_TEXT``;
    otherwise each end of the rows is encoded itself."""
    texts = _texts(g.vertices)
    vertices = "[" + ",".join(texts) + "]"
    if rows is not None:
        u, v = (list(map(itemgetter(k), rows)) for k in (0, 1))
        if not _one_id_kind(g.vertices, u, v):
            return vertices, _texts(u), _texts(v)
    return vertices, *_gather(texts, g)


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


def _weight_columns(g: WeightedGraph, rows: Optional[list]) -> tuple[list, list, list]:
    """Each edge's wu, wv and whether it is a loop: from the weights table and
    ends of a column graph, the same values as its ``Edge`` view, or from the rows."""
    if rows is None:
        wu, wv = g.weights.T.tolist()
        return wu, wv, (g.ends[:, 0] == g.ends[:, 1]).tolist()
    return [e.wu for e in rows], [e.wv for e in rows], [e.is_loop for e in rows]


def _weight_tail(wu, wv, loop: bool) -> str:
    """An edge record's weights, its closing brace and the comma after it; a
    weight string is a float or complex repr, which needs no JSON escape."""
    if loop:
        return f',"w":"{_weight_to_str(wu)}"}},'
    return f',"wu":"{_weight_to_str(wu)}","wv":"{_weight_to_str(wv)}"}},'


def serialize_graph(g: Multigraph, metadata: Optional[dict] = None) -> bytes:
    """Serialize a (weighted) multigraph to canonical JSON bytes.

    The bytes are those of ``json.dumps(doc, sort_keys=True,
    separators=(",", ":"))`` on the document with one dict per edge, written
    by column: record i is its label's header, the texts of u[i] and v[i]
    and, on a weighted graph, a weight tail; the document is joined once.
    A column graph's records come from its columns, with no ``Edge`` rows.
    """
    weighted = isinstance(g, WeightedGraph)
    rows = _rows(g)
    vertices, u_text, v_text = _id_texts(g, rows)
    # five pieces per record, the comma after it in its tail; a prefix and a suffix
    pieces = [',"v":'] * (5 * len(u_text) + 2)
    pieces[1:-1:5] = _heads(g.labels)
    pieces[2:-1:5] = u_text
    pieces[4:-1:5] = v_text
    if weighted:
        pieces[5:-1:5] = list(map(_weight_tail, *_weight_columns(g, rows)))
    else:
        pieces[5:-1:5] = ["},"] * len(u_text)
    if u_text:
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


def _columns(records: list, weighted: bool) -> tuple:
    """The columns of the records; on a failure a scan names the first bad
    record, each of which the columns read alone."""
    try:
        return _edge_columns(records, weighted)
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


def _check_header(doc: dict) -> None:
    """Refuse a format_version other than the int 1 and conventions other than
    the two JSON bools, naming the field: 1.0, true and 0 compare equal to them."""
    version = doc["format_version"]
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"field 'format_version' must be the int 1, not {version!r}")
    conventions = doc.get("conventions", CONVENTIONS)
    if type(conventions) is not dict or conventions.keys() != CONVENTIONS.keys():
        raise FormatError(f"conventions {conventions!r} differ from {CONVENTIONS!r}")
    for key, value in CONVENTIONS.items():
        if conventions[key] is not value:
            got = _encode(conventions[key])
            raise FormatError(f"conventions field {key!r} must be {_encode(value)}, not {got}")


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
    _check_header(doc)
    if not (isinstance(doc["vertices"], list) and isinstance(doc["edges"], list)):
        raise FormatError("vertices and edges must be lists")
    weighted = doc.get("weighted", False)
    if type(weighted) is not bool:
        raise FormatError(f"field 'weighted' must be true or false, not {weighted!r}")
    # popped, the records are freed once read into columns
    u, v, wu, wv, label = _columns(doc.pop("edges"), weighted)
    vertices = _ids(doc["vertices"])
    if not weighted and _one_id_kind(vertices, u, v):
        try:
            return _from_ids(vertices, u, v, label)
        except (KeyError, ValueError):
            pass  # the row route names the repeated id or the first unknown end
    edges = list(map(_new_edge, zip(u, v, wu, wv, label)))
    del u, v, wu, wv, label  # freed before the graph is built
    try:
        return (WeightedGraph if weighted else Multigraph)(vertices, edges)
    except (TypeError, ValueError) as exc:  # TypeError: an unhashable vertex id
        raise FormatError(str(exc)) from exc


def _dot_quoted(x) -> str:
    """str(x) as a DOT quoted string, its backslashes and quotes escaped."""
    return '"' + str(x).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_tail(label, wu=None, wv=None, loop=True) -> str:
    """The end of an edge statement: its attribute list, the label if any and,
    on a weighted graph, wu and, but for a loop, wv; then the semicolon."""
    attrs = [] if label is None else [f"label={_dot_quoted(label)}"]
    if wu is not None:
        attrs.append(f'wu="{_weight_to_str(wu)}"')
        if not loop:
            attrs.append(f'wv="{_weight_to_str(wv)}"')
    return f" [{', '.join(attrs)}];\n" if attrs else ";\n"


def export_dot(g: Multigraph, name: str = "G") -> str:
    """DOT text; multi-edges and loops appear as separate edge statements.

    Written by column and joined once, like a document: each vertex is
    quoted once, a column graph's ends take their vertex's text, and a row
    graph's ends are quoted themselves."""
    rows = _rows(g)
    quoted = list(map(_dot_quoted, g.vertices))
    if rows is None:
        u, v = _gather(quoted, g)
    else:
        u, v = ([_dot_quoted(e[k]) for e in rows] for k in (0, 1))
    labels = g.labels
    if isinstance(g, WeightedGraph):
        tails = list(map(_dot_tail, labels, *_weight_columns(g, rows)))
    elif set(map(type, labels)) <= _LABEL_TYPES:  # equal labels print alike: each is quoted once
        memo = {x: _dot_tail(x) for x in set(labels)}
        tails = list(map(memo.__getitem__, labels))
    else:
        tails = list(map(_dot_tail, labels))
    # five pieces per edge statement: the indent, u, " -- ", v and its tail
    pieces = ["  "] * (5 * len(u))
    pieces[1::5], pieces[2::5], pieces[3::5], pieces[4::5] = u, [" -- "] * len(u), v, tails
    head = f"graph {name} {{\n" + "".join(map("  {};\n".format, quoted))
    return head + "".join(pieces) + "}\n"


EIGENVALUE_CSV_HEADER = ["level", "index", "value", "in_target"]


def export_eigenvalue_csv(levels: dict[int, tuple]) -> str:
    """CSV with one eigenvalue per row, level, index, value and in_target, from
    ``{level: (values, flags)}`` of floats and bools; one join per level."""
    texts = [",".join(EIGENVALUE_CSV_HEADER) + "\n"]
    for level, (values, flags) in levels.items():
        texts.append("".join(map(f"{level},{{}},{{!r}},{{}}\n".format, count(), values, flags)))
    return "".join(texts)
