"""Every internal import names the module that defines the name: a
`from .module import name` in the package binds `name` only where `module`
defines it at top level (a function, a class or an assignment), never where
`module` itself imported it."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pipecut"


def top_level_definitions(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def misplaced_imports(sources: dict[str, str]) -> list[str]:
    """`importer: from .module import name` for each relative import of a
    name that `module` does not define, given module name -> source text."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defined = {mod: top_level_definitions(tree) for mod, tree in trees.items()}
    bad = []
    for mod, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                bad += [f"{mod}: from .{node.module} import {alias.name}"
                        for alias in node.names
                        if alias.name not in defined.get(node.module, ())]
    return bad


def test_every_internal_import_names_its_defining_module():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert {"cli", "stages", "simulate", "blocks", "atoms"} <= set(sources)
    assert misplaced_imports(sources) == []


def test_checker_catches_an_import_through_another_module():
    sources = {
        "a": "class Defined(ValueError):\n    pass\n\nLIMIT: int = 3\nRATE = 2.0\n",
        "b": "from .a import Defined, LIMIT, RATE\n\n\ndef f():\n    return Defined\n",
        "c": "from .b import Defined, f\n",
    }
    assert misplaced_imports(sources) == ["c: from .b import Defined"]
