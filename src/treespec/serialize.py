"""Graph documents (JSON), DOT export, and CSV reports.

Weights travel as decimal strings produced by Python's shortest round-trip
float repr, so parse(serialize(g)) reproduces every IEEE double bit-exactly.

Documents and DOT text are written by column from a graph's columns, each
edge end taking its vertex's text, with no ``Edge`` rows; a document is read
back by column too, each end resolved to its vertex.
"""

from __future__ import annotations

import json
import math
from itertools import count, repeat
from operator import eq, itemgetter
from typing import Optional

import numpy as np

from .config import FormatError
from .graphs import Multigraph, WeightedGraph, _from_ids

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


def _texts(ids: list) -> list[str]:
    """Each id's JSON text; FormatError names the first id with no JSON form."""
    kinds = set(map(type, ids))
    text = _ID_TEXT.get(kinds.pop(), _encode) if len(kinds) == 1 else _encode
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


def _weight_columns(g: WeightedGraph) -> tuple[list, list, list]:
    """Each edge's wu, wv and whether it is a loop, from the weights table and ends."""
    wu, wv = g.weights.T.tolist()
    return wu, wv, (g.ends[:, 0] == g.ends[:, 1]).tolist()


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
    by column: record i is its label's header, the texts of the vertices of
    its ends and, on a weighted graph, a weight tail; the document is joined
    once.  The records come from the columns, with no ``Edge`` rows.
    """
    weighted = isinstance(g, WeightedGraph)
    texts = _texts(g.vertices)
    u_text, v_text = _gather(texts, g)
    # five pieces per record, the comma after it in its tail; a prefix and a suffix
    pieces = [',"v":'] * (5 * len(u_text) + 2)
    pieces[1:-1:5] = _heads(g.labels)
    pieces[2:-1:5] = u_text
    pieces[4:-1:5] = v_text
    if weighted:
        pieces[5:-1:5] = list(map(_weight_tail, *_weight_columns(g)))
    else:
        pieces[5:-1:5] = ["},"] * len(u_text)
    if u_text:
        pieces[-2] = pieces[-2][:-1]  # no comma after the last record
    pieces[0] = '{"conventions":' + _encode(CONVENTIONS) + ',"edges":['
    pieces[-1] = (
        f'],"format_version":{FORMAT_VERSION},"metadata":{_metadata_text(dict(metadata or {}))},'
        f'"vertices":[{",".join(texts)}],"weighted":{_encode(weighted)}}}'
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
    """The u, v, wu, wv and label columns of the edge records; wu and wv are
    None on an unweighted document.

    Raises KeyError or TypeError on a missing or malformed field, and
    FormatError on a bad weight string or label; the caller names the record.
    """
    u, v = (_ids(list(map(itemgetter(k), records))) for k in ("u", "v"))
    label = list(map(dict.get, records, repeat("label")))
    if not set(map(type, label)) <= _LABEL_TYPES:
        bad = next(x for x in label if type(x) not in _LABEL_TYPES)
        raise FormatError(f"label {bad!r} is neither a string nor null")
    if not weighted:
        return u, v, None, None, label
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
    cls = WeightedGraph if weighted else Multigraph
    try:
        return _from_ids(cls, _ids(doc["vertices"]), u, v, label, wu, wv)
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
    quoted once, and each edge end takes its vertex's text."""
    quoted = list(map(_dot_quoted, g.vertices))
    u, v = _gather(quoted, g)
    labels = g.labels
    if isinstance(g, WeightedGraph):
        tails = list(map(_dot_tail, labels, *_weight_columns(g)))
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
