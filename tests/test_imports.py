"""The package's import graph: `engine` imports no sibling, no module
reaches itself through its imports, and the CLI pins BLAS before numpy
loads."""

import ast
import os
import subprocess
import sys
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


# Records OPENBLAS_NUM_THREADS as numpy is first imported, then loads the CLI.
_BLAS_AT_NUMPY_IMPORT = """
import os, sys

class Probe:
    seen = "numpy not imported"

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and Probe.seen == "numpy not imported":
            Probe.seen = os.environ.get("OPENBLAS_NUM_THREADS")

sys.meta_path.insert(0, Probe())
import evocnn.cli
evocnn.cli.build_parser()
print(Probe.seen)
"""


def test_cli_pins_blas_before_numpy_loads():
    # worker processes run `python -m evocnn.cli`; an import moved above the
    # *_NUM_THREADS block would leave their BLAS unpinned
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(SRC.parent)
    out = subprocess.run([sys.executable, "-c", _BLAS_AT_NUMPY_IMPORT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "1"
