"""Graph files: the one-line save, the one-pass node check, one sort per graph.

`save_graph` encodes the whole document before it opens the file, and the
file is one line of JSON. The node loader is checked against the loader it
replaced, kept here as the reference, on thousands of mutated node
documents: both must raise the same error or build the same node. A graph
is sorted once, and every caller gets its own copy of the order.
"""

import copy
import heapq
import json
import math
import random
import types
from collections.abc import Mapping

import pytest

import pipecut.graph as graph_module
from pipecut.atoms import build_atomic_subcomponents
from pipecut.generators import gen_bert_like
from pipecut.graph import (
    CycleError,
    Node,
    ParseError,
    TaskGraph,
    TaskInfo,
    ValueInfo,
    _node_from_json,
    graph_from_json,
    graph_to_json,
    load_graph,
    save_graph,
)

from helpers import chain_graph, random_layered_graph, task, value
from test_shared_rules import rich_graph


# -- the reference node loader: one key check per level, then each field --

def _ref_check_keys(obj, allowed, required, ctx):
    if not isinstance(obj, Mapping):
        raise ParseError(f"{ctx}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"{ctx}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ParseError(f"{ctx}: missing fields {sorted(missing)}")


def _ref_parse_amount(raw, what, whole=False):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParseError(f"{what} must be a number, got {raw!r}")
    try:
        finite = math.isfinite(raw)
    except OverflowError:
        finite = False
    if not finite or raw < 0:
        raise ParseError(f"{what} must be finite and non-negative, got {raw!r}")
    if not whole:
        return float(raw)
    if raw != int(raw):
        raise ParseError(f"{what} must be a whole number, got {raw!r}")
    return int(raw)


def reference_node_from_json(raw):
    _ref_check_keys(raw, {"id", "kind", "task", "value"}, {"id", "kind"}, "node")
    nid = raw["id"]
    if not isinstance(nid, str) or not nid:
        raise ParseError("node id must be a non-empty string")
    kind = raw["kind"]
    if kind == "task":
        if "value" in raw:
            raise ParseError(f"task node {nid!r} carries a value payload")
        payload = raw.get("task", {})
        _ref_check_keys(payload, {"op", "flops_per_sample", "attrs"}, {"op"}, f"node {nid!r} task")
        op, attrs = payload["op"], payload.get("attrs", {})
        if not isinstance(op, str) or not op:
            raise ParseError(f"node {nid!r}: op must be a non-empty string, got {op!r}")
        if not isinstance(attrs, Mapping):
            raise ParseError(f"node {nid!r}: attrs must be an object")
        return Node(nid, task=TaskInfo(
            op=op,
            flops_per_sample=_ref_parse_amount(payload.get("flops_per_sample", 0),
                                               f"node {nid!r}: flops_per_sample"),
            attrs=dict(attrs),
        ))
    if kind == "value":
        if "task" in raw:
            raise ParseError(f"value node {nid!r} carries a task payload")
        payload = raw.get("value", {})
        _ref_check_keys(payload, {"fixed_bytes", "bytes_per_sample", "is_param"}, set(),
                        f"node {nid!r} value")
        is_param = payload.get("is_param", False)
        if not isinstance(is_param, bool):
            raise ParseError(f"node {nid!r}: is_param must be true or false, got {is_param!r}")
        return Node(nid, value=ValueInfo(
            fixed_bytes=_ref_parse_amount(payload.get("fixed_bytes", 0),
                                          f"node {nid!r}: fixed_bytes", whole=True),
            bytes_per_sample=_ref_parse_amount(payload.get("bytes_per_sample", 0),
                                               f"node {nid!r}: bytes_per_sample", whole=True),
            is_param=is_param,
        ))
    raise ParseError(f"node {nid!r}: kind must be 'task' or 'value', got {kind!r}")


# -- mutated node documents --

BASES = [
    {"id": "t0", "kind": "task",
     "task": {"op": "matmul", "flops_per_sample": 128.0, "attrs": {"h": 2}}},
    {"id": "mm.3", "kind": "task", "task": {"op": "add"}},
    {"id": "v0", "kind": "value",
     "value": {"fixed_bytes": 256, "bytes_per_sample": 64, "is_param": False}},
    {"id": "w", "kind": "value", "value": {"fixed_bytes": 1024, "is_param": True}},
    {"id": "x", "kind": "value"},
]
NUMBER_FIELDS = [("task", "flops_per_sample"), ("value", "fixed_bytes"),
                 ("value", "bytes_per_sample")]
# wrong types and bools where a number belongs, out-of-range and fractional
# values, and good ones of both JSON number types
NUMBERS = ["1", None, [], {}, [1], True, False, -1, -0.5, -0.0, math.nan, math.inf,
           -math.inf, 10**400, -10**400, 2**1024, 1.5, 0.5, 2**53 + 1, 0, 0.0, 3, 4.0,
           1e308, 1.7976931348623157e308, 10**308,
           # ints around the first one float() overflows on
           2**1024 - 2**971 + 1, 2**1024 - 2**970 - 1, 2**1024 - 2**970]
IDS = ["", 1, 0, None, [], {}, True, 1.5, ["t0"], "a", "t0::c0", "ÿ"]
NOT_OBJECTS = [None, 1, 1.5, "x", "", [], [["op", "mm"]], True]
KINDS = ["task", "value", "Task", "VALUE", "", None, 1, True, ["task"], {"task": 1}]
OPS = ["", 1, None, [], "mm", True]
ATTRS = [[], "x", 1, None, {}, {"a": 1}, [["a", 1]], True]
IS_PARAM = [0, 1, "true", None, [], True, False, 0.0]
KEYS = ["id", "kind", "task", "value", "op", "flops_per_sample", "attrs",
        "fixed_bytes", "bytes_per_sample", "is_param", "extra", "Id", ""]


def _payload(doc, rng):
    """The node's payload object, made if missing, or None if the node or
    its payload is not an object."""
    if not isinstance(doc, dict):
        return None
    kind = rng.choice(["task", "value"])
    if kind not in doc:
        doc[kind] = {}
    return doc[kind] if isinstance(doc[kind], dict) else None


def mutate(doc, rng):
    """One random fault, or a random good value, in a node document."""
    op = rng.randrange(11)
    if op == 0:
        return rng.choice(NOT_OBJECTS)
    if not isinstance(doc, dict):
        return doc
    if op == 1:
        kind, name = rng.choice(NUMBER_FIELDS)
        doc.setdefault(kind, {})
        if isinstance(doc[kind], dict):
            doc[kind][name] = rng.choice(NUMBERS)
    elif op == 2:
        doc["id"] = rng.choice(IDS)
    elif op == 3:
        target = doc if rng.random() < 0.5 else _payload(doc, rng)
        if target:
            del target[rng.choice(sorted(target))]
    elif op == 4:
        target = doc if rng.random() < 0.5 else _payload(doc, rng)
        if target is not None:
            target[rng.choice(KEYS)] = rng.choice([1, "x", None, {}])
    elif op == 5:
        doc[rng.choice(["task", "value"])] = rng.choice(NOT_OBJECTS)
    elif op == 6:
        doc["kind"] = rng.choice(KINDS)
    elif op == 7:
        # a node carrying both payloads, or the other kind's
        other = copy.deepcopy(rng.choice(BASES))
        for key in ("task", "value"):
            if key in other:
                doc[key] = other[key]
    elif op == 8:
        doc.setdefault("task", {})
        if isinstance(doc["task"], dict):
            doc["task"]["op"] = rng.choice(OPS)
    elif op == 9:
        doc.setdefault("task", {})
        if isinstance(doc["task"], dict):
            doc["task"]["attrs"] = rng.choice(ATTRS)
    else:
        doc.setdefault("value", {})
        if isinstance(doc["value"], dict):
            doc["value"]["is_param"] = rng.choice(IS_PARAM)
    return doc


def mutated_documents(n, seed):
    rng = random.Random(seed)
    docs = []
    for _ in range(n):
        doc = copy.deepcopy(rng.choice(BASES))
        for _ in range(rng.randint(1, 3)):
            doc = mutate(doc, rng)
        docs.append(doc)
    return docs


def grid_documents():
    """Every listed number in every number field of every base that has the
    field's kind, and every listed id, kind, op, attrs and flag."""
    docs = []
    for base in BASES:
        for kind, name in NUMBER_FIELDS:
            if base["kind"] == kind:
                for raw in NUMBERS:
                    doc = copy.deepcopy(base)
                    doc.setdefault(kind, {})[name] = raw
                    docs.append(doc)
        for key, choices in (("id", IDS), ("kind", KINDS)):
            for raw in choices:
                docs.append({**copy.deepcopy(base), key: raw})
        for raw in NOT_OBJECTS:
            docs.append({**copy.deepcopy(base), base["kind"]: raw})
    for name, choices in (("op", OPS), ("attrs", ATTRS)):
        for raw in choices:
            docs.append({"id": "t", "kind": "task", "task": {"op": "mm", name: raw}})
    for raw in IS_PARAM:
        docs.append({"id": "v", "kind": "value", "value": {"is_param": raw}})
    return docs + NOT_OBJECTS


def outcome(parse, raw):
    """What `parse` makes of a private copy of `raw`: the node and its repr
    (which tells 4 from 4.0), or the error's type and message. The copy is
    made outside the `try`, so a document that cannot be copied is an error
    of the test, not an outcome both loaders share."""
    doc = copy.deepcopy(raw)
    try:
        node = parse(doc)
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    return node, repr(node)


def test_outcome_raises_on_a_document_it_cannot_copy():
    # a mapping proxy is a valid payload that `copy.deepcopy` rejects; were
    # the copy inside the `try`, both loaders would "agree" on its TypeError
    doc = {"id": "t", "kind": "task", "task": types.MappingProxyType({"op": "mm"})}
    with pytest.raises(TypeError, match="mappingproxy"):
        outcome(_node_from_json, doc)


class TestLoaderParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_mutated_nodes_match_the_reference(self, seed):
        docs = mutated_documents(600, seed)
        results = [(outcome(reference_node_from_json, d), outcome(_node_from_json, d))
                   for d in docs]
        for doc, (want, got) in zip(docs, results):
            assert got == want, doc
        # the corpus reaches both outcomes and many distinct messages
        errors = {want[1] for want, _ in results if want[0] is ParseError}
        assert sum(isinstance(want[0], Node) for want, _ in results) >= 20
        assert len(errors) >= 80

    def test_every_listed_fault_matches_the_reference(self):
        docs = grid_documents()
        assert len(docs) >= 200
        for doc in docs:
            assert outcome(_node_from_json, doc) == outcome(reference_node_from_json, doc), doc

    def test_graph_loads_equal_through_either_node_loader(self, monkeypatch):
        doc = graph_to_json(rich_graph(random.Random(3)))
        g = graph_from_json(doc)
        monkeypatch.setattr(graph_module, "_node_from_json", reference_node_from_json)
        assert graph_from_json(doc) == g


class TestSaveGraph:
    @pytest.mark.parametrize("g", [gen_bert_like(64, 2, 16, 100),
                                   rich_graph(random.Random(5)), chain_graph()],
                             ids=["bert", "rich", "chain"])
    def test_one_line_that_loads_back_equal(self, g, tmp_path):
        path = tmp_path / "g.json"
        save_graph(g, str(path))
        text = path.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        assert json.loads(text) == graph_to_json(g)
        assert load_graph(str(path)) == g

    def test_any_whitespace_loads(self, tmp_path):
        g = rich_graph(random.Random(8))
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(g), indent="\t", separators=(" ,\n", " : ")))
        assert load_graph(str(path)) == g

    def test_a_graph_that_does_not_encode_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(chain_graph(), str(path))
        before = path.read_bytes()
        bad = TaskGraph([value("x", per_sample=4), task("t", attrs={"shape": {1, 2}}),
                         value("y", per_sample=4)], [("x", "t"), ("t", "y")], ["x"], ["y"])
        with pytest.raises(TypeError):
            save_graph(bad, str(path))
        assert path.read_bytes() == before


class CountingHeapq:
    """Stands in for `heapq` inside `pipecut.graph` and counts the sorts:
    `topo_order` heapifies once per sort."""

    heappush = staticmethod(heapq.heappush)
    heappop = staticmethod(heapq.heappop)

    def __init__(self):
        self.sorts = 0

    def heapify(self, items):
        self.sorts += 1
        heapq.heapify(items)


@pytest.fixture
def counted_sorts(monkeypatch):
    counter = CountingHeapq()
    monkeypatch.setattr(graph_module, "heapq", counter)
    return counter


class TestSortOnce:
    @pytest.mark.parametrize("seed", range(6))
    def test_each_call_returns_an_equal_fresh_list(self, seed, counted_sorts):
        g = random_layered_graph(random.Random(seed))
        first, second = g.topo_order(), g.topo_order()
        assert first == second and first is not second
        first.reverse()
        second.append("not a node")
        assert g.topo_order() == first[::-1] == second[:-1]
        assert counted_sorts.sorts == 1

    def test_load_and_atoms_share_one_sort(self, tmp_path, counted_sorts):
        path = tmp_path / "g.json"
        save_graph(gen_bert_like(64, 2, 16, 100), str(path))
        g = load_graph(str(path))
        assert counted_sorts.sorts == 1
        build_atomic_subcomponents(g)
        assert counted_sorts.sorts == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_a_derived_graph_sorts_its_own_nodes(self, seed, counted_sorts):
        g = rich_graph(random.Random(seed))
        g.topo_order()
        # the clone-expanded graph is derived with `replaced`
        p = build_atomic_subcomponents(g)
        fresh = TaskGraph(p.graph.nodes.values(), p.graph.edges, p.graph.inputs,
                          p.graph.outputs)
        assert p.graph.topo_order() == fresh.topo_order()

    def test_a_cycle_raises_on_every_call(self):
        g = TaskGraph([value("a"), task("t"), value("b"), task("u")],
                      [("a", "t"), ("t", "b"), ("b", "u"), ("u", "a")])
        for _ in range(2):
            with pytest.raises(CycleError):
                g.topo_order()
