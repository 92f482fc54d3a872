"""Start-up cost: importing the CLI loads no heavyweight standard module.

Every `pipecut` command pays for its imports before it reads a byte of
input. `dataclasses` pulls in `inspect` (and with it `ast`, `dis`,
`tokenize`, `linecache`), and each dataclass costs an `exec` to create, so
the package defines its records as named tuples and plain classes. The
baseline is what the modules the CLI needs from the standard library load
on their own, which keeps the check the same from one Python to the next.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pipecut.graph

SRC = Path(pipecut.graph.__file__).resolve().parents[1]
BASELINE = "argparse, csv, json, graphlib, heapq, math, itertools, typing"
HEAVY = ("dataclasses", "inspect")


def modules_added_by_cli_import() -> set[str]:
    """Modules that `import pipecut.cli` adds, in a fresh interpreter, to
    those the baseline imports already loaded."""
    code = (f"import sys\nimport {BASELINE}\nbefore = set(sys.modules)\n"
            "import pipecut.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout))


def test_cli_import_loads_no_heavy_module():
    added = modules_added_by_cli_import()
    assert "pipecut.cli" in added
    assert not added & set(HEAVY), sorted(added & set(HEAVY))


def test_no_package_module_imports_dataclasses():
    importers = []
    for path in sorted(SRC.joinpath("pipecut").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []
