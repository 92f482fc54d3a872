"""The package holds no names of its own: each public name is imported
from the module that defines it, so importing one module loads only what
that module imports, and `pipecut.<module>` is always the module."""

import os
import subprocess
import sys
from pathlib import Path

import pipecut.graph

SRC = Path(pipecut.graph.__file__).resolve().parents[1]


def run_fresh(code: str) -> str:
    """Stdout of `code` run in a fresh interpreter that imports from src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


class TestPackageNamespace:
    def test_graph_and_generators_load_no_planner_module(self):
        loaded = run_fresh("import sys, pipecut.graph, pipecut.generators\n"
                           "print(' '.join(sorted(m for m in sys.modules "
                           "if m.startswith('pipecut'))))").split()
        assert loaded == ["pipecut", "pipecut.generators", "pipecut.graph"]

    def test_submodule_import_binds_the_module(self):
        out = run_fresh("import types\nimport pipecut.simulate as s\n"
                        "print(isinstance(s, types.ModuleType), callable(s.render_gantt))")
        assert out.split() == ["True", "True"]

    def test_package_holds_no_public_names(self):
        out = run_fresh("import pipecut\n"
                        "print([n for n in vars(pipecut) if not n.startswith('_')])")
        assert out.strip() == "[]"
