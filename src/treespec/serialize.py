"""Graph documents (JSON), DOT export, and CSV reports.

Weights travel as decimal strings produced by Python's shortest round-trip
float repr, so parse(serialize(g)) reproduces every IEEE double bit-exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Optional

from .config import FormatError
from .graphs import Edge, Multigraph, WeightedGraph

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


def serialize_graph(g: Multigraph, metadata: Optional[dict] = None) -> bytes:
    """Serialize a (weighted) multigraph to canonical JSON bytes."""
    weighted = isinstance(g, WeightedGraph)
    edges = []
    for e in g.edges:
        rec: dict = {"u": e.u, "v": e.v}
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


def parse_graph(data: bytes) -> Multigraph:
    """Parse a graph document; raises FormatError with field diagnostics."""
    try:
        doc = json.loads(data.decode())
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
    # JSON has no tuples: a list-valued vertex id comes back as a tuple
    vertices = [tuple(v) if type(v) is list else v for v in doc["vertices"]]
    weighted = bool(doc.get("weighted"))
    edges = []
    for i, rec in enumerate(doc["edges"]):
        try:
            u, v = rec["u"], rec["v"]
            if type(u) is list:
                u = tuple(u)
            if type(v) is list:
                v = tuple(v)
            if not weighted:
                edges.append(Edge(u, v, 1.0, 1.0, rec.get("label")))
            elif u == v:
                w = _weight_from_str(rec["w"])
                edges.append(Edge(u, v, w, w, rec.get("label")))
            else:
                wu, wv = _weight_from_str(rec["wu"]), _weight_from_str(rec["wv"])
                edges.append(Edge(u, v, wu, wv, rec.get("label")))
        except (TypeError, KeyError) as exc:
            raise FormatError(f"edge {i}: missing or malformed field {exc}") from exc
    cls = WeightedGraph if weighted else Multigraph
    try:
        return cls(vertices, edges)
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


def export_eigenvalue_csv(rows: list[tuple]) -> str:
    """CSV with one eigenvalue per row: level, index, value, in_target."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EIGENVALUE_CSV_HEADER)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
