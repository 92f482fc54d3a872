"""The package's internal imports form a one-way graph."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pipecut"


def internal_imports() -> dict[str, set[str]]:
    """Module -> package modules it imports anywhere, function bodies included."""
    modules = {p.stem for p in SRC.glob("*.py")}
    graph: dict[str, set[str]] = {}
    for path in SRC.glob("*.py"):
        deps: set[str] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            names: list[str] = []
            if isinstance(node, ast.ImportFrom):
                if node.level == 1:
                    names = [node.module] if node.module else [a.name for a in node.names]
                elif node.module and node.module.split(".")[0] == "pipecut":
                    names = [".".join(node.module.split(".")[1:]) or "__init__"]
            elif isinstance(node, ast.Import):
                names = [".".join(a.name.split(".")[1:]) or "__init__"
                         for a in node.names if a.name.split(".")[0] == "pipecut"]
            deps.update(n.split(".")[0] for n in names if n.split(".")[0] in modules)
        graph[path.stem] = deps
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    state: dict[str, int] = {}   # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(mod: str) -> list[str] | None:
        state[mod] = 1
        path.append(mod)
        for dep in sorted(graph.get(mod, ())):
            if state.get(dep) == 1:
                return path[path.index(dep):] + [dep]
            if dep not in state:
                found = visit(dep)
                if found:
                    return found
        path.pop()
        state[mod] = 2
        return None

    for mod in sorted(graph):
        if mod not in state:
            found = visit(mod)
            if found:
                return found
    return None


def test_internal_imports_are_acyclic():
    graph = internal_imports()
    assert {"stages", "simulate", "blocks", "costs"} <= set(graph)
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_checker_catches_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_simulator_sits_above_the_planner():
    graph = internal_imports()
    assert "simulate" not in graph["stages"]
    assert "stages" in graph["simulate"]
