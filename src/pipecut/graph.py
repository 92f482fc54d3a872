"""Bipartite task/value graph model, validation, and JSON round trip.

Task nodes consume and produce value nodes. Values carry byte sizes (a fixed
part plus a per-sample part), tasks carry per-sample FLOP estimates. All
iteration orders are deterministic so downstream passes are reproducible.
"""

from __future__ import annotations

import heapq
import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any


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


@dataclass(frozen=True)
class Violation:
    kind: str
    nodes: tuple[str, ...]
    detail: str

    def describe(self) -> str:
        return f"{self.kind} [{', '.join(self.nodes)}]: {self.detail}"


@dataclass(frozen=True)
class TaskInfo:
    op: str
    flops_per_sample: float = 0.0
    attrs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ValueInfo:
    fixed_bytes: int = 0
    bytes_per_sample: int = 0
    is_param: bool = False


@dataclass(frozen=True)
class Node:
    """One graph node. Exactly one of task/value is set."""

    id: str
    task: TaskInfo | None = None
    value: ValueInfo | None = None

    def __post_init__(self) -> None:
        if (self.task is None) == (self.value is None):
            raise ValueError(f"node {self.id!r} must be exactly one of task/value")

    @property
    def is_task(self) -> bool:
        return self.task is not None

    @property
    def is_value(self) -> bool:
        return self.value is not None


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
        for n in sorted(nodes, key=lambda n: n.id):
            if n.id in self.nodes:
                raise ValueError(f"duplicate node id {n.id!r}")
            self.nodes[n.id] = n
        edge_list = [(src, dst) for src, dst in edges]
        seen: set[tuple[str, str]] = set()
        for src, dst in edge_list:
            if src not in self.nodes or dst not in self.nodes:
                raise ValueError(f"edge ({src!r}, {dst!r}) references an unknown node")
            if (src, dst) in seen:
                raise ValueError(f"duplicate edge ({src!r}, {dst!r})")
            seen.add((src, dst))
        self.edges: tuple[tuple[str, str], ...] = tuple(edge_list)
        self.inputs = frozenset(inputs)
        self.outputs = frozenset(outputs)
        for vid in sorted(self.inputs | self.outputs):
            if vid not in self.nodes:
                raise ValueError(f"declared input/output {vid!r} is not a node")
            if not self.nodes[vid].is_value:
                raise ValueError(f"declared input/output {vid!r} is not a value node")
        succ: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        pred: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        for src, dst in self.edges:
            succ[src].append(dst)
            pred[dst].append(src)
        self._succ = {nid: tuple(sorted(vs)) for nid, vs in succ.items()}
        self._pred = {nid: tuple(sorted(vs)) for nid, vs in pred.items()}

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
        return [nid for nid, n in self.nodes.items() if n.is_task]

    def value_ids(self) -> list[str]:
        return [nid for nid, n in self.nodes.items() if n.is_value]

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
        """Topological order over all nodes, ties broken by ascending id."""
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
        return order


@dataclass(frozen=True)
class ClusterSpec:
    """Homogeneous cluster description used by cost and search phases."""

    num_nodes: int
    devices_per_node: int
    device_memory_bytes: int
    bw_intra: float
    bw_inter: float
    link_latency_sec: float = 0.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.devices_per_node < 1:
            raise ValueError("cluster must have at least one node and one device")
        if self.device_memory_bytes <= 0:
            raise ValueError("device_memory_bytes must be positive")
        if not (self.bw_intra >= self.bw_inter > 0):
            raise ValueError("bandwidths must satisfy bw_intra >= bw_inter > 0")
        if self.link_latency_sec < 0:
            raise ValueError("link_latency_sec must be non-negative")

    @property
    def num_devices(self) -> int:
        return self.num_nodes * self.devices_per_node


def check_keys(obj: Mapping[str, Any], allowed: set[str], required: set[str], ctx: str) -> None:
    """The key check of every input object: ParseError unless `obj` is an
    object with only `allowed` and all `required` fields."""
    if not isinstance(obj, Mapping):
        raise ParseError(f"{ctx}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"{ctx}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ParseError(f"{ctx}: missing fields {sorted(missing)}")


def parse_amount(raw: Any, what: str, whole: bool = False) -> float | int:
    """A finite, non-negative JSON number: a float, or an int when `whole`.
    Anything else raises ParseError naming `what`."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParseError(f"{what} must be a number, got {raw!r}")
    try:
        finite = math.isfinite(raw)
    except OverflowError:  # an integer past the float range
        finite = False
    if not finite or raw < 0:
        raise ParseError(f"{what} must be finite and non-negative, got {raw!r}")
    if not whole:
        return float(raw)
    if raw != int(raw):
        raise ParseError(f"{what} must be a whole number, got {raw!r}")
    return int(raw)


def _node_from_json(raw: Mapping[str, Any]) -> Node:
    check_keys(raw, {"id", "kind", "task", "value"}, {"id", "kind"}, "node")
    nid = raw["id"]
    if not isinstance(nid, str) or not nid:
        raise ParseError("node id must be a non-empty string")
    kind = raw["kind"]
    if kind == "task":
        if "value" in raw:
            raise ParseError(f"task node {nid!r} carries a value payload")
        payload = raw.get("task", {})
        check_keys(payload, {"op", "flops_per_sample", "attrs"}, {"op"}, f"node {nid!r} task")
        op, attrs = payload["op"], payload.get("attrs", {})
        if not isinstance(op, str) or not op:
            raise ParseError(f"node {nid!r}: op must be a non-empty string, got {op!r}")
        if not isinstance(attrs, Mapping):
            raise ParseError(f"node {nid!r}: attrs must be an object")
        return Node(nid, task=TaskInfo(
            op=op,
            flops_per_sample=parse_amount(payload.get("flops_per_sample", 0),
                                          f"node {nid!r}: flops_per_sample"),
            attrs=dict(attrs),
        ))
    if kind == "value":
        if "task" in raw:
            raise ParseError(f"value node {nid!r} carries a task payload")
        payload = raw.get("value", {})
        check_keys(payload, {"fixed_bytes", "bytes_per_sample", "is_param"}, set(), f"node {nid!r} value")
        is_param = payload.get("is_param", False)
        if not isinstance(is_param, bool):
            raise ParseError(f"node {nid!r}: is_param must be true or false, got {is_param!r}")
        return Node(nid, value=ValueInfo(
            fixed_bytes=parse_amount(payload.get("fixed_bytes", 0),
                                     f"node {nid!r}: fixed_bytes", whole=True),
            bytes_per_sample=parse_amount(payload.get("bytes_per_sample", 0),
                                          f"node {nid!r}: bytes_per_sample",
                                          whole=True),
            is_param=is_param,
        ))
    raise ParseError(f"node {nid!r}: kind must be 'task' or 'value', got {kind!r}")


def graph_from_json(doc: Mapping[str, Any]) -> TaskGraph:
    """Build and validate a TaskGraph from an already-parsed JSON document."""
    check_keys(doc, {"nodes", "edges", "inputs", "outputs"}, {"nodes", "edges"}, "graph")
    raw_nodes = doc["nodes"]
    raw_edges = doc["edges"]
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise ParseError("graph: nodes and edges must be arrays")
    nodes = [_node_from_json(n) for n in raw_nodes]
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(i, str) for i in e)):
            raise ParseError(f"graph: edge {e!r} must be a [src, dst] pair of node ids")
    ends = {key: doc.get(key, []) for key in ("inputs", "outputs")}
    for key, ids in ends.items():
        if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
            raise ParseError(f"graph: {key} must be an array of value ids")
    try:
        g = TaskGraph(nodes, raw_edges, ends["inputs"], ends["outputs"])
    except ValidationError:
        raise
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
    nodes = []
    for nid, n in g.nodes.items():
        if n.is_task:
            assert n.task is not None
            nodes.append({
                "id": nid,
                "kind": "task",
                "task": {
                    "op": n.task.op,
                    "flops_per_sample": n.task.flops_per_sample,
                    "attrs": dict(n.task.attrs),
                },
            })
        else:
            assert n.value is not None
            nodes.append({
                "id": nid,
                "kind": "value",
                "value": {
                    "fixed_bytes": n.value.fixed_bytes,
                    "bytes_per_sample": n.value.bytes_per_sample,
                    "is_param": n.value.is_param,
                },
            })
    return {
        "nodes": nodes,
        "edges": [[a, b] for a, b in g.edges],
        "inputs": sorted(g.inputs),
        "outputs": sorted(g.outputs),
    }


def save_graph(g: TaskGraph, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_json(g), fh, indent=1)
        fh.write("\n")


def _forward_reach(g: TaskGraph, seeds: Iterable[str]) -> set[str]:
    reach = set()
    stack = [s for s in seeds if s in g.nodes]
    while stack:
        nid = stack.pop()
        if nid in reach:
            continue
        reach.add(nid)
        stack.extend(g.succ(nid))
    return reach


def validate_graph(g: TaskGraph) -> list[Violation]:
    """Return every violated graph invariant; empty list means valid."""
    out: list[Violation] = []
    for src, dst in g.edges:
        if g.nodes[src].is_task == g.nodes[dst].is_task:
            kinds = "tasks" if g.nodes[src].is_task else "values"
            out.append(Violation("non-bipartite-edge", (src, dst),
                                 f"edge connects two {kinds}"))
    for vid in g.value_ids():
        preds = g.pred(vid)
        if len(preds) > 1:
            out.append(Violation("multi-producer-value", (vid, *preds),
                                 f"value has {len(preds)} producers"))
        if preds and vid in g.inputs:
            out.append(Violation("produced-input", (vid, *preds),
                                 "a model input must not be produced by a task"))
        info = g.nodes[vid].value
        assert info is not None
        if info.is_param and info.bytes_per_sample != 0:
            out.append(Violation("param-batch-scaling", (vid,),
                                 "parameter values must not scale with batch size"))
    try:
        g.topo_order()
    except CycleError as exc:
        out.append(Violation("cycle", (), str(exc)))
        return out  # reachability is meaningless on a cyclic graph
    sources = {vid for vid in g.value_ids() if not g.pred(vid)}
    reach = _forward_reach(g, g.inputs | sources)
    for oid in sorted(g.outputs):
        if oid not in reach:
            out.append(Violation("unreachable-output", (oid,),
                                 "output is fed by no input, parameter, or constant"))
    return out


def count_params(g: TaskGraph) -> int:
    """Total parameter element count, assuming 4-byte elements."""
    total = 0
    for vid in g.value_ids():
        info = g.nodes[vid].value
        assert info is not None
        if info.is_param:
            total += info.fixed_bytes // 4
    return total


def cluster_from_json(doc: Mapping[str, Any]) -> ClusterSpec:
    check_keys(
        doc,
        {"num_nodes", "devices_per_node", "device_memory_bytes",
         "bw_intra", "bw_inter", "link_latency_sec"},
        {"num_nodes", "devices_per_node", "device_memory_bytes", "bw_intra", "bw_inter"},
        "cluster",
    )
    counts = ("num_nodes", "devices_per_node", "device_memory_bytes")
    fields = {name: parse_amount(raw, f"cluster {name}", whole=name in counts)
              for name, raw in doc.items()}
    try:
        return ClusterSpec(**fields)
    except ValueError as exc:
        raise ValidationError([Violation("cluster", (), str(exc))]) from exc


def load_cluster(path: str) -> ClusterSpec:
    return cluster_from_json(read_json(path))
