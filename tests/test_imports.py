"""The package's import graph: `engine` imports no sibling, and no module
reaches itself through its imports."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "evocnn"


def evocnn_imports(path):
    """The evocnn modules a module imports, at module level or inside a function."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("evocnn."))
        elif isinstance(node, ast.ImportFrom):
            module = ("evocnn." * bool(node.level) + (node.module or "")).strip(".")
            if module == "evocnn":  # from . import data
                names.update(a.name for a in node.names)
            elif module.startswith("evocnn."):
                names.add(module.split(".")[1])
    return names


def test_import_graph_is_acyclic_and_engine_imports_no_sibling():
    graph = {path.stem: evocnn_imports(path) for path in SRC.glob("*.py")}
    assert graph["engine"] == set()
    assert graph["data"] == {"engine", "fileio"}  # the parser sees both import forms
    # static_order raises graphlib.CycleError naming a cycle
    assert len(list(TopologicalSorter(graph).static_order())) == len(graph)
