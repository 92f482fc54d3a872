"""Bipartite task/value graph model, validation, and JSON round trip.

Task nodes consume and produce value nodes. Values carry byte sizes (a fixed
part plus a per-sample part), tasks carry per-sample FLOP estimates. All
iteration orders are deterministic so downstream passes are reproducible.
A graph file is one JSON document: `save_graph` writes it on one line, and
`load_graph` reads it with any whitespace, checking each node in one pass.
A graph never changes, so it is sorted once and each caller gets a copy.
The records (`Node`, `TaskInfo`, `ValueInfo`, `Violation`, `ClusterSpec`) are
immutable named tuples, cheap to build: use `_asdict()` and `_replace()`, not
`vars()` or `dataclasses.replace`. A replaced `Node` or `ClusterSpec` is checked.
"""

from __future__ import annotations

import heapq
import json
from collections.abc import Iterable, Mapping, Set
from operator import attrgetter, itemgetter
from typing import Any, NamedTuple


class ParseError(ValueError):
    """Raised for malformed graph or cluster files."""


class ValidationError(ValueError):
    """Raised when a structurally valid file violates a graph invariant."""

    def __init__(self, violations: Iterable["Violation"]):
        self.violations = list(violations)
        msg = "; ".join(v.describe() for v in self.violations) or "invalid graph"
        super().__init__(msg)


class CycleError(RuntimeError):
    """Raised when a traversal requires an acyclic graph but finds a cycle."""


class Violation(NamedTuple):
    kind: str
    nodes: tuple[str, ...]
    detail: str

    def describe(self) -> str:
        return f"{self.kind} [{', '.join(self.nodes)}]: {self.detail}"


class TaskInfo(NamedTuple("_TaskFields", [("op", str), ("flops_per_sample", float),
                                          ("attrs", Mapping[str, Any])])):
    __slots__ = ()

    def __new__(cls, op: str, flops_per_sample: float = 0.0,
                attrs: Mapping[str, Any] | None = None) -> TaskInfo:
        # each task gets its own attrs: a default is never shared
        return tuple.__new__(cls, (op, flops_per_sample, {} if attrs is None else attrs))


class ValueInfo(NamedTuple):
    fixed_bytes: int = 0
    bytes_per_sample: int = 0
    is_param: bool = False


class Node(NamedTuple("_NodeFields", [("id", str), ("task", TaskInfo | None),
                                      ("value", ValueInfo | None)])):
    """One graph node. Exactly one of task/value is set."""

    __slots__ = ()

    def __new__(cls, id: str, task: TaskInfo | None = None,
                value: ValueInfo | None = None) -> Node:
        if (task is None) == (value is None):
            raise ValueError(f"node {id!r} must be exactly one of task/value")
        return tuple.__new__(cls, (id, task, value))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Node:
        return cls(*iterable)  # so `_replace` checks its result too

    is_task = property(lambda self: self.task is not None)
    is_value = property(lambda self: self.value is not None)


class TaskGraph:
    """Immutable directed bipartite graph of task and value nodes."""

    def __init__(
        self,
        nodes: Iterable[Node],
        edges: Iterable[tuple[str, str]],
        inputs: Iterable[str] = (),
        outputs: Iterable[str] = (),
    ):
        self.nodes: dict[str, Node] = {}
        for n in sorted(nodes, key=attrgetter("id")):
            if n.id in self.nodes:
                raise ValueError(f"duplicate node id {n.id!r}")
            self.nodes[n.id] = n
        self.edges: tuple[tuple[str, str], ...] = tuple([(src, dst) for src, dst in edges])
        seen: set[tuple[str, str]] = set()
        succ: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        pred: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        for edge in self.edges:
            src, dst = edge
            if src not in self.nodes or dst not in self.nodes:
                raise ValueError(f"edge ({src!r}, {dst!r}) references an unknown node")
            if edge in seen:
                raise ValueError(f"duplicate edge ({src!r}, {dst!r})")
            seen.add(edge)
            succ[src].append(dst)
            pred[dst].append(src)
        self.inputs = frozenset(inputs)
        self.outputs = frozenset(outputs)
        for vid in sorted(self.inputs | self.outputs):
            if vid not in self.nodes:
                raise ValueError(f"declared input/output {vid!r} is not a node")
            if not self.nodes[vid].is_value:
                raise ValueError(f"declared input/output {vid!r} is not a value node")
        self._succ = {nid: tuple(sorted(vs)) for nid, vs in succ.items()}
        self._pred = {nid: tuple(sorted(vs)) for nid, vs in pred.items()}
        self._order: tuple[str, ...] | None = None

    def replaced(self, drop: Iterable[str], nodes: Iterable[Node],
                 edges: Iterable[tuple[str, str]]) -> TaskGraph:
        """This graph without the `drop` nodes and their edges, plus new
        `nodes` and `edges`. The result, with nodes in id order and edges
        sorted, is what the constructor builds from the same parts and is
        checked the same way, but only the nodes next to a dropped node or a
        new edge get their successors and predecessors recomputed."""
        drop = set(drop)
        ends = sorted(drop & (self.inputs | self.outputs))
        if ends:
            raise ValueError(f"declared input/output {ends[0]!r} cannot be dropped")
        added: dict[str, Node] = {}
        for n in nodes:
            if n.id in self.nodes or n.id in added:
                raise ValueError(f"duplicate node id {n.id!r}")
            added[n.id] = n
        out = TaskGraph.__new__(TaskGraph)
        out.nodes = dict(sorted([item for item in self.nodes.items() if item[0] not in drop]
                                + list(added.items()), key=itemgetter(0)))
        new_edges: set[tuple[str, str]] = set()
        # successors and predecessors each node gains
        gained: tuple[dict[str, list[str]], dict[str, list[str]]] = ({}, {})
        for src, dst in edges:
            if src not in out.nodes or dst not in out.nodes:
                raise ValueError(f"edge ({src!r}, {dst!r}) references an unknown node")
            if (src, dst) in new_edges or dst in self._succ.get(src, ()):
                raise ValueError(f"duplicate edge ({src!r}, {dst!r})")
            new_edges.add((src, dst))
            gained[0].setdefault(src, []).append(dst)
            gained[1].setdefault(dst, []).append(src)
        out.edges = tuple(sorted([(src, dst) for src, dst in self.edges
                                  if src not in drop and dst not in drop] + list(new_edges)))
        out.inputs, out.outputs = self.inputs, self.outputs
        # a kept node next to a dropped one loses it: a successor of a
        # dropped node loses a predecessor, and the other way round
        losing = ({x for nid in drop for x in self._pred[nid]} - drop,
                  {x for nid in drop for x in self._succ[nid]} - drop)
        tables = []
        for old, gains, lost in zip((self._succ, self._pred), gained, losing):
            table = {nid: vs for nid, vs in old.items() if nid not in drop}
            table.update((nid, ()) for nid in added)
            for nid in lost | gains.keys():
                table[nid] = tuple(sorted([x for x in table[nid] if x not in drop]
                                          + gains.get(nid, [])))
            tables.append(table)
        out._succ, out._pred = tables
        out._order = None
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and frozenset(self.edges) == frozenset(other.edges)
            and self.inputs == other.inputs
            and self.outputs == other.outputs
        )

    def __len__(self) -> int:
        return len(self.nodes)

    def succ(self, node_id: str) -> tuple[str, ...]:
        return self._succ[node_id]

    def pred(self, node_id: str) -> tuple[str, ...]:
        return self._pred[node_id]

    def task_ids(self) -> list[str]:
        return [nid for nid, n in self.nodes.items() if n.task is not None]

    def value_ids(self) -> list[str]:
        return [nid for nid, n in self.nodes.items() if n.value is not None]

    def producer(self, value_id: str) -> str | None:
        """Task producing the value, or None for sources (inputs, params)."""
        preds = self._pred[value_id]
        return preds[0] if preds else None

    def consumers(self, value_id: str) -> tuple[str, ...]:
        return self._succ[value_id]

    def value_size(self, value_id: str, microbatch: int) -> int:
        info = self.nodes[value_id].value
        if info is None:
            raise ValueError(f"{value_id!r} is not a value node")
        return info.fixed_bytes + microbatch * info.bytes_per_sample

    def topo_order(self) -> list[str]:
        """Topological order over all nodes, ties broken by ascending id.
        The graph does not change, so it is sorted once; each call returns
        a fresh list."""
        if self._order is not None:
            return list(self._order)
        indeg = {nid: len(self._pred[nid]) for nid in self.nodes}
        ready = [nid for nid, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for nxt in self._succ[nid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(order) != len(self.nodes):
            stuck = sorted(nid for nid, d in indeg.items() if d > 0)
            raise CycleError(f"graph contains a cycle through {stuck[:8]}")
        self._order = tuple(order)
        return order


class _ClusterFields(NamedTuple):
    num_nodes: int
    devices_per_node: int
    device_memory_bytes: int
    bw_intra: float
    bw_inter: float
    link_latency_sec: float = 0.0


class ClusterSpec(_ClusterFields):
    """Homogeneous cluster description used by cost and search phases."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ClusterSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.num_nodes < 1 or self.devices_per_node < 1:
            raise ValueError("cluster must have at least one node and one device")
        if self.device_memory_bytes <= 0:
            raise ValueError("device_memory_bytes must be positive")
        if not (self.bw_intra >= self.bw_inter > 0):
            raise ValueError("bandwidths must satisfy bw_intra >= bw_inter > 0")
        if self.link_latency_sec < 0:
            raise ValueError("link_latency_sec must be non-negative")
        return self

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> ClusterSpec:
        return cls(*iterable)  # so `_replace` checks its result too

    @property
    def num_devices(self) -> int:
        return self.num_nodes * self.devices_per_node


# the least integer that float() overflows on: every finite float is below it
_FLOAT_OVERFLOW = 2**1024 - 2**970
_NODE_FIELDS, _NODE_REQUIRED = (frozenset({"id", "kind", "task", "value"}),
                               frozenset({"id", "kind"}))
# per node kind: the fields its payload may carry, those it must, and the
# other kind, whose payload the node must not carry
_PAYLOAD_FIELDS = {
    "task": (frozenset({"op", "flops_per_sample", "attrs"}), frozenset({"op"}), "value"),
    "value": (frozenset({"fixed_bytes", "bytes_per_sample", "is_param"}), frozenset(), "task"),
}


def check_keys(obj: Mapping[str, Any], allowed: Set[str], required: Set[str], ctx: str) -> None:
    """The key check of every input object: ParseError unless `obj` is an
    object with only `allowed` and all `required` fields."""
    # dict first: an isinstance check against the Mapping ABC is slow
    if not isinstance(obj, (dict, Mapping)):
        raise ParseError(f"{ctx}: expected an object, got {type(obj).__name__}")
    if allowed.issuperset(obj) and required.issubset(obj):
        return
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"{ctx}: unknown fields {sorted(unknown)}")
    raise ParseError(f"{ctx}: missing fields {sorted(required - set(obj))}")


def parse_amount(raw: Any, what: str, whole: bool = False) -> float | int:
    """A finite, non-negative JSON number: a float, or an int when `whole`.
    Anything else raises ParseError naming `what`."""
    kind = type(raw)
    if kind is not int and kind is not float:  # bools included
        raise ParseError(f"{what} must be a number, got {raw!r}")
    if not 0 <= raw < _FLOAT_OVERFLOW:  # NaN fails both comparisons
        raise ParseError(f"{what} must be finite and non-negative, got {raw!r}")
    if not whole:
        return float(raw)
    if kind is float and not raw.is_integer():
        raise ParseError(f"{what} must be a whole number, got {raw!r}")
    return int(raw)


def _node_from_json(raw: Mapping[str, Any]) -> Node:
    """One node document as a Node, checked in one pass. The order of the
    checks decides which fault a document with several is rejected for. A
    field of the JSON type a good value has builds no message; any other
    goes through `check_keys` or `parse_amount`."""
    check_keys(raw, _NODE_FIELDS, _NODE_REQUIRED, "node")
    nid, kind = raw["id"], raw["kind"]
    if not isinstance(nid, str) or not nid:
        raise ParseError("node id must be a non-empty string")
    if kind != "task" and kind != "value":
        raise ParseError(f"node {nid!r}: kind must be 'task' or 'value', got {kind!r}")
    allowed, required, other = _PAYLOAD_FIELDS[kind]
    if other in raw:
        raise ParseError(f"{kind} node {nid!r} carries a {other} payload")
    payload = raw.get(kind, {})
    if type(payload) is not dict or not allowed >= payload.keys() >= required:
        check_keys(payload, allowed, required, f"node {nid!r} {kind}")
    get = payload.get
    if kind == "task":
        op, attrs = payload["op"], get("attrs", {})
        if not isinstance(op, str) or not op:
            raise ParseError(f"node {nid!r}: op must be a non-empty string, got {op!r}")
        if type(attrs) is not dict and not isinstance(attrs, Mapping):
            raise ParseError(f"node {nid!r}: attrs must be an object")
        flops = get("flops_per_sample", 0.0)
        if type(flops) is not float or not 0 <= flops < _FLOAT_OVERFLOW:
            flops = parse_amount(flops, f"node {nid!r}: flops_per_sample")
        return Node(nid, TaskInfo(op, flops, dict(attrs)))
    is_param = get("is_param", False)
    if not isinstance(is_param, bool):
        raise ParseError(f"node {nid!r}: is_param must be true or false, got {is_param!r}")
    fixed, per_sample = get("fixed_bytes", 0), get("bytes_per_sample", 0)
    if type(fixed) is not int or not 0 <= fixed < _FLOAT_OVERFLOW:
        fixed = parse_amount(fixed, f"node {nid!r}: fixed_bytes", whole=True)
    if type(per_sample) is not int or not 0 <= per_sample < _FLOAT_OVERFLOW:
        per_sample = parse_amount(per_sample, f"node {nid!r}: bytes_per_sample", whole=True)
    return Node(nid, value=ValueInfo(fixed, per_sample, is_param))


def graph_from_json(doc: Mapping[str, Any]) -> TaskGraph:
    """Build and validate a TaskGraph from an already-parsed JSON document."""
    check_keys(doc, {"nodes", "edges", "inputs", "outputs"}, {"nodes", "edges"}, "graph")
    raw_nodes, raw_edges = doc["nodes"], doc["edges"]
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise ParseError("graph: nodes and edges must be arrays")
    nodes = [_node_from_json(n) for n in raw_nodes]
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                and isinstance(e[1], str)):
            raise ParseError(f"graph: edge {e!r} must be a [src, dst] pair of node ids")
    ends = {key: doc.get(key, []) for key in ("inputs", "outputs")}
    for key, ids in ends.items():
        if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
            raise ParseError(f"graph: {key} must be an array of value ids")
    try:
        g = TaskGraph(nodes, raw_edges, ends["inputs"], ends["outputs"])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    violations = validate_graph(g)
    if violations:
        raise ValidationError(violations)
    return g


def read_json(path: str) -> Any:
    """The document in a JSON file. Text that does not decode, does not
    parse, holds an integer too long to convert or nests too deeply raises
    ParseError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}: {exc}") from exc


def load_graph(path: str) -> TaskGraph:
    """Load a graph JSON file, rejecting unknown fields and invalid graphs."""
    return graph_from_json(read_json(path))


def graph_to_json(g: TaskGraph) -> dict[str, Any]:
    """The document that `graph_from_json` reads back as `g`. A payload
    holds its info's fields, in the order the record declares them."""
    nodes = [{"id": nid, "kind": "task", "task": {**n.task._asdict(), "attrs": dict(n.task.attrs)}}
             if n.task is not None else {"id": nid, "kind": "value", "value": n.value._asdict()}
             for nid, n in g.nodes.items()]
    return {"nodes": nodes, "edges": [[a, b] for a, b in g.edges],
            "inputs": sorted(g.inputs), "outputs": sorted(g.outputs)}


def save_graph(g: TaskGraph, path: str) -> None:
    """Write `g` as one line of JSON. The text is encoded before the file is
    opened, so a graph that does not encode leaves the file as it was."""
    text = json.dumps(graph_to_json(g)) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def validate_graph(g: TaskGraph) -> list[Violation]:
    """Return every violated graph invariant; empty list means valid."""
    out: list[Violation] = []
    sources = set(g.inputs)
    for src, dst in g.edges:
        if (g.nodes[src].task is None) == (g.nodes[dst].task is None):
            kinds = "values" if g.nodes[src].task is None else "tasks"
            out.append(Violation("non-bipartite-edge", (src, dst),
                                 f"edge connects two {kinds}"))
    for vid, node in g.nodes.items():
        if node.value is None:
            continue
        preds = g._pred[vid]
        if not preds:
            sources.add(vid)
        if len(preds) > 1:
            out.append(Violation("multi-producer-value", (vid, *preds),
                                 f"value has {len(preds)} producers"))
        if preds and vid in g.inputs:
            out.append(Violation("produced-input", (vid, *preds),
                                 "a model input must not be produced by a task"))
        if node.value.is_param and node.value.bytes_per_sample != 0:
            out.append(Violation("param-batch-scaling", (vid,),
                                 "parameter values must not scale with batch size"))
    try:
        g.topo_order()
    except CycleError as exc:
        out.append(Violation("cycle", (), str(exc)))
        return out  # reachability is meaningless on a cyclic graph
    reach, stack = set(), list(sources)
    while stack:
        nid = stack.pop()
        if nid not in reach:
            reach.add(nid)
            stack.extend(g._succ[nid])
    for oid in sorted(g.outputs):
        if oid not in reach:
            out.append(Violation("unreachable-output", (oid,),
                                 "output is fed by no input, parameter, or constant"))
    return out


def count_params(g: TaskGraph) -> int:
    """Total parameter element count, assuming 4-byte elements."""
    return sum(n.value.fixed_bytes // 4 for n in g.nodes.values()
               if n.value is not None and n.value.is_param)


def cluster_from_json(doc: Mapping[str, Any]) -> ClusterSpec:
    keys = frozenset(ClusterSpec._fields)
    check_keys(doc, keys, keys - ClusterSpec._field_defaults.keys(), "cluster")
    counts = ("num_nodes", "devices_per_node", "device_memory_bytes")
    fields = {name: parse_amount(raw, f"cluster {name}", whole=name in counts)
              for name, raw in doc.items()}
    try:
        return ClusterSpec(**fields)
    except ValueError as exc:
        raise ValidationError([Violation("cluster", (), str(exc))]) from exc


def load_cluster(path: str) -> ClusterSpec:
    return cluster_from_json(read_json(path))
