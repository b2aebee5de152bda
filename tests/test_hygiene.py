"""Source hygiene: no module of the package imports a name it never uses,
no module reads the leaf tuple of a tree automorphism or the leaf
permutations of a ball, no module but ``graphs`` reads a private attribute
of a graph, no module but ``graphs`` and ``serialize`` reads a graph's
``Edge`` view, no module but ``covering`` reads the cached tables of a
covering, and the CLI reads every option it defines.

``__init__`` is exempt from the import check, because its imports are the
public re-exports.
"""

import argparse
import ast
from pathlib import Path

import pytest

from treespec import CoveringMap, Multigraph, OmegaWord, markov_weights, schreier_graph
from treespec.cli import build_parser

SRC = Path(__file__).resolve().parent.parent / "src" / "treespec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded as a name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    source = "import numpy as np\nfrom typing import Optional, Sequence\nx: Sequence = ()\n"
    assert unused_imports(source) == ["np (line 1)", "Optional (line 2)"]


def leaf_tuple_reads(source: str) -> list[int]:
    """Lines that read ``.leaf_perm``, the tuple built on demand; the
    package works on the ``.perm`` array."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "leaf_perm"
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_leaf_tuple_reads(path):
    assert leaf_tuple_reads(path.read_text()) == []


def test_detects_leaf_tuple_read():
    source = "def f(a):\n    return a.perm\n\ndef g(a):\n    return len(a.leaf_perm)\n"
    assert leaf_tuple_reads(source) == [5]


def edge_view_reads(source: str) -> list[int]:
    """Lines that read ``.edges``, a graph's edges as ``Edge`` tuples, which a
    graph makes row by row on each read; only ``graphs`` reads it."""
    return attribute_reads(source, {"edges"})


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "graphs.py"], ids=lambda p: p.stem
)
def test_no_edge_view_reads(path):
    assert edge_view_reads(path.read_text()) == []


def test_detects_edge_view_read():
    source = "def f(g):\n    return len(g.ends)\n\ndef h(c):\n    return c.source.edges[0]\n"
    assert edge_view_reads(source) == [5]


def private_names(cls, *instances) -> set[str]:
    """Private attributes of a class (methods and cached tables) and those
    its instances set when they are built."""
    names = set(vars(cls)).union(*map(vars, instances))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def multigraph_private_names() -> set[str]:
    # every graph, made by the constructor or built from positions (a level
    # graph, a Markov-weighted graph), holds its columns and ``_labels``
    built = Multigraph([0, 1], [(0, 1)])
    return private_names(
        Multigraph, built, schreier_graph(OmegaWord.parse(":012"), 1), markov_weights(built)
    )


def attribute_reads(source: str, names: set[str]) -> list[int]:
    """Lines that read an attribute named in ``names``, on any object."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in names
    ]


def test_multigraph_private_names_found():
    assert {"_index", "_slots", "_labels"} <= multigraph_private_names()


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "graphs.py"], ids=lambda p: p.stem
)
def test_graph_internals_read_only_in_graphs(path):
    # other modules go through ends, index, membership and the adjacency methods
    assert attribute_reads(path.read_text(), multigraph_private_names()) == []


def test_detects_graph_internals_read():
    source = (
        "def f(g):\n    return g.ends\n\ndef h(g):\n    return g._index[0]\n"
        "\ndef k(g):\n    return g._labels\n"
    )
    assert sorted(attribute_reads(source, multigraph_private_names())) == [5, 8]


def test_covering_private_names_found():
    assert {"_image", "_image_degree", "_interior", "_base"} <= private_names(CoveringMap)


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "covering.py"], ids=lambda p: p.stem
)
def test_covering_tables_read_only_in_covering(path):
    # a builder hands its tables over through ``covering._covering_from_tables``,
    # or a cached table is built from the maps once; elsewhere the maps are read
    assert attribute_reads(path.read_text(), private_names(CoveringMap)) == []


def test_detects_covering_tables_read():
    source = "def f(c):\n    return c.phi(0)\n\ndef h(c):\n    return c._image[0]\n"
    assert attribute_reads(source, private_names(CoveringMap)) == [5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_ball_perms_reads(path):
    # a ball's leaf permutations are derived on first read, for callers
    # outside the package; the package reads the neighbour table
    assert attribute_reads(path.read_text(), {"perms"}) == []


def test_detects_ball_perms_read():
    source = "def f(a, enum):\n    return a.perm, enum.sizes\n\ndef g(e):\n    return e.perms[0]\n"
    assert attribute_reads(source, {"perms"}) == [5]


def own_dests(ap: argparse.ArgumentParser) -> list[str]:
    """Settable values of this parser alone, except help and the
    subcommand selector."""
    return [
        action.dest
        for action in ap._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
    ]


def subparsers(ap: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return {
        name: sub
        for action in ap._actions
        if isinstance(action, argparse._SubParsersAction)
        for name, sub in action.choices.items()
    }


def parser_dests(ap: argparse.ArgumentParser) -> list[str]:
    """Every settable value of the parser and of each subparser."""
    dests = own_dests(ap)
    for sub in subparsers(ap).values():
        dests += parser_dests(sub)
    return dests


def args_reads(node: ast.AST) -> set[str]:
    """Attributes read as ``args.<name>`` anywhere below node."""
    return {
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
    }


def handler_reads(name: str, functions: dict[str, ast.FunctionDef]) -> set[str]:
    """``args`` attributes read by a handler and by every function of the
    source that it, or such a function, passes ``args`` to."""
    read, todo, seen = set(), [name], set()
    while todo:
        fn = functions[todo.pop()]
        seen.add(fn.name)
        read |= args_reads(fn)
        for call in ast.walk(fn):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id in functions
                and call.func.id not in seen
                and any(isinstance(a, ast.Name) and a.id == "args" for a in call.args)
            ):
                todo.append(call.func.id)
    return read


def unread_options(ap: argparse.ArgumentParser, source: str) -> list[str]:
    """Options that nothing reads as ``args.<dest>``.

    A top-level option may be read anywhere in the source.  A subcommand's
    option must be read by its own ``set_defaults(func=...)`` handler or by
    a helper that receives ``args`` from it; it is reported as
    ``<subcommand>.<dest>``.
    """
    tree = ast.parse(source)
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    unread = sorted(set(own_dests(ap)) - args_reads(tree))
    for name, sub in subparsers(ap).items():
        read = handler_reads(sub.get_default("func").__name__, functions)
        unread += [f"{name}.{dest}" for dest in own_dests(sub) if dest not in read]
    return unread


def test_cli_reads_every_option():
    assert unread_options(build_parser(), (SRC / "cli.py").read_text()) == []


def test_cli_settable_values():
    assert len(parser_dests(build_parser())) == 35


def test_detects_unread_option():
    ap = argparse.ArgumentParser()
    ap.add_argument("--used")
    ap.add_argument("--spare-knob")
    assert unread_options(ap, "def f(args):\n    return args.used\n") == ["spare_knob"]


def test_detects_option_read_only_by_another_subcommand():
    # relators defines --depth, but only the dihedral handler reads it
    source = (
        "def cmd_relators(args):\n"
        "    return _report(args, args.k)\n"
        "def _report(args, k):\n"
        "    return args.omega, k\n"
        "def cmd_dihedral(args):\n"
        "    return args.omega, args.depth\n"
    )
    handlers = {}
    exec(source, handlers)
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="command")
    p = sub.add_parser("relators")
    p.add_argument("--omega")
    p.add_argument("--k")
    p.add_argument("--depth")
    p.set_defaults(func=handlers["cmd_relators"])
    p = sub.add_parser("dihedral")
    p.add_argument("--omega")
    p.add_argument("--depth")
    p.set_defaults(func=handlers["cmd_dihedral"])
    # --omega of relators is read by the helper it passes args to
    assert unread_options(ap, source) == ["relators.depth"]
