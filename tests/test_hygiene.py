"""Source hygiene: no module of the package imports a name it never uses,
and the CLI reads every option it defines.

``__init__`` is exempt, because its imports are the public re-exports.
"""

import argparse
import ast
from pathlib import Path

import pytest

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


def parser_dests(ap: argparse.ArgumentParser) -> list[str]:
    """Every settable value of the parser and of each subparser, except
    help and the subcommand selector."""
    dests = []
    for action in ap._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                dests += parser_dests(sub)
        elif not isinstance(action, argparse._HelpAction):
            dests.append(action.dest)
    return dests


def unread_options(ap: argparse.ArgumentParser, source: str) -> list[str]:
    """Option dests never read as ``args.<dest>`` in the source."""
    read = {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    return sorted(set(parser_dests(ap)) - read)


def test_cli_reads_every_option():
    assert unread_options(build_parser(), (SRC / "cli.py").read_text()) == []


def test_cli_settable_values():
    assert len(parser_dests(build_parser())) == 35


def test_detects_unread_option():
    ap = argparse.ArgumentParser()
    ap.add_argument("--used")
    ap.add_argument("--spare-knob")
    assert unread_options(ap, "def f(args):\n    return args.used\n") == ["spare_knob"]
