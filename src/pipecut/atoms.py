"""Atomic decomposition of a task graph.

Tasks are first classified constant or non-constant by forward reachability
from the model inputs. Each non-constant task then anchors one atomic
subcomponent; constant tasks and values are private support for the atoms
that consume them, cloned per atom when shared, so every atom can run
self-contained given only its non-constant inputs. The clone-expanded
graph is derived from the input graph (`TaskGraph.replaced`): only the
shared support nodes and their edges change.

Atoms and their unions share one boundary rule: a group's inputs are the
values its tasks read that are model inputs or owned outside the group, and
its outputs are the values it owns that are model outputs or read outside
it. The partition keeps two tables, built once. `crossing` lists every value
some atom takes as an input, with its owner and reader atoms; each atom is
built once with its boundary read off it, `merged` composes atom boundaries
for a union, and the block phase's adjacency, input entries and traffic
table read it. `terms` holds each atom's byte terms, built in the walk that
assigns owners, and the block phase's memory terms come from it.
"""

from __future__ import annotations

from itertools import count
from typing import NamedTuple

from .graph import Node, TaskGraph, TaskInfo


class NoNonConstantTask(ValueError):
    """The graph computes nothing from its inputs."""


class DanglingOutput(ValueError):
    """A model output or constant subgraph is not anchored to any atom."""


class Subcomponent(NamedTuple):
    """A set of graph nodes with explicit value boundaries."""

    id: str
    node_ids: frozenset[str]
    input_values: tuple[str, ...]
    output_values: tuple[str, ...]


class TaskShape(NamedTuple):
    """What a task adds to the memory terms of its home (an atom or a block)
    at any microbatch; sizes are (fixed bytes, bytes per sample) pairs, and
    parameters and graph inputs are in none of them."""

    info: TaskInfo
    produced: tuple             # (fixed, per sample) of the values it writes
    reads: tuple                # (owner home, fixed, per sample) of those it reads


def mark_constant_tasks(g: TaskGraph) -> dict[str, bool]:
    """Map each task id to True when its result never depends on an input.

    A task is non-constant iff it consumes a model-input value or an output
    of a non-constant task; everything else (parameter transforms, frozen
    preprocessing) is constant and can be replicated freely. Keys come in
    `g.topo_order()` order.
    """
    constant: dict[str, bool] = {}
    for nid in g.topo_order():
        if g.nodes[nid].task is not None:
            constant[nid] = True
            for vid in g.pred(nid):
                # a source value's producer is None, which counts as constant
                if vid in g.inputs or not constant.get(g.producer(vid), True):
                    constant[nid] = False
                    break
    return constant


def _constant_closure(g: TaskGraph, constant: dict[str, bool], task_id: str) -> set[str]:
    """Constant tasks and values backward-reachable from one task's inputs,
    with each such task's outputs that nothing reads."""
    closure: set[str] = set()
    stack = list(g.pred(task_id))
    while stack:
        vid = stack.pop()
        if vid in closure or vid in g.inputs:
            continue
        producer = g.producer(vid)
        if producer is None:
            closure.add(vid)
            continue
        if not constant[producer]:
            continue
        closure.add(vid)
        if producer not in closure:
            closure.add(producer)
            closure.update(out for out in g.succ(producer) if not g.consumers(out))
            stack.extend(g.pred(producer))
    return closure


class AtomicPartition:
    """Atoms over a (possibly clone-expanded) graph, in topological order,
    each built once from its node set (`members`) and the crossing table."""

    def __init__(self, graph: TaskGraph, members: list[frozenset[str]],
                 clone_origins: dict[str, str]) -> None:
        self.graph = g = graph
        self.clone_origins = clone_origins
        self._task_atom: dict[str, int] = {}
        self._value_owner: dict[str, int] = {}
        # per atom: parameter bytes; (fixed, per sample) source bytes of the
        # non-parameter values with no producer that are not graph inputs
        # some task reads, such as constants; and each task's `TaskShape`
        self.terms: list[tuple[int, tuple[int, int], tuple[TaskShape, ...]]] = []
        # a graph has few distinct produced tuples: each shape shares one
        interned: dict[tuple, tuple] = {}

        def sizes(vid):
            info = g.nodes[vid].value  # its first two fields are (fixed, per sample)
            return None if info.is_param or vid in g.inputs else info[:2]

        for idx, node_ids in enumerate(members):
            params = fixed = per_sample = 0
            shapes = []
            for nid in node_ids:
                node = g.nodes[nid]
                if node.task is not None:
                    self._task_atom[nid] = idx
                    # atoms are in topological order, so a value read here
                    # that has no owner yet is owned by this atom
                    produced = tuple([sz for sz in map(sizes, g.succ(nid)) if sz is not None])
                    reads = tuple([(self._value_owner.get(vid, idx), *sz) for vid in g.pred(nid)
                                   if (sz := sizes(vid)) is not None])
                    shapes.append(TaskShape(node.task, interned.setdefault(produced, produced),
                                            reads))
                    continue
                self._value_owner[nid] = idx
                if node.value.is_param:
                    params += node.value.fixed_bytes
                elif g.producer(nid) is None and not (nid in g.inputs and g.consumers(nid)):
                    fixed += node.value.fixed_bytes
                    per_sample += node.value.bytes_per_sample
            self.terms.append((params, (fixed, per_sample), tuple(shapes)))
        # value id -> (owner atom, sorted reader atoms) of every value some
        # atom takes as an input, in value-id order: all readers of a graph
        # input, the readers other than the owner of any other value. An
        # atom's inputs are the crossing values it reads, and its outputs the
        # values it owns that another atom reads or that are model outputs.
        self.crossing: dict[str, tuple[int, tuple[int, ...]]] = {}
        inputs, outputs = [[] for _ in members], [[] for _ in members]
        for vid in g.value_ids():
            owner = self._value_owner[vid]
            readers = {self._task_atom[t] for t in g.consumers(vid)}
            if vid in g.outputs or not readers <= {owner}:
                outputs[owner].append(vid)
            if vid not in g.inputs:
                readers.discard(owner)
            if readers:
                self.crossing[vid] = owner, tuple(sorted(readers))
                for reader in self.crossing[vid][1]:
                    inputs[reader].append(vid)
        width = max(5, len(str(len(members))))
        self.atoms = tuple(Subcomponent(f"A{idx:0{width}d}", nodes, tuple(ins), tuple(outs))
                           for idx, (nodes, ins, outs) in enumerate(zip(members, inputs, outputs)))

    def owner_of_value(self, value_id: str) -> int:
        return self._value_owner[value_id]

    def consumer_atoms(self, value_id: str) -> frozenset[int]:
        return frozenset(self._task_atom[t] for t in self.graph.consumers(value_id))

    def dependencies(self) -> list[tuple[int, int]]:
        """Atom-level edges: owner atom -> reader atom of a crossing value.
        A graph input carries no dependency."""
        return sorted({(owner, reader) for vid, (owner, readers) in self.crossing.items()
                       if vid not in self.graph.inputs for reader in readers})

    def merged(self, atom_indices, sub_id: str) -> Subcomponent:
        """Materialize the union of atoms as one subcomponent.

        Its boundary is composed from its atoms' (see `crossing`), so one
        rule holds for atoms and groups: an atom's input stays an input if it
        is a model input or is owned outside the group, and an atom's output
        stays an output if it is a model output or is read outside it.
        """
        graph, group, crossing = self.graph, frozenset(atom_indices), self.crossing
        atoms = [self.atoms[idx] for idx in group]
        node_ids = frozenset().union(*(atom.node_ids for atom in atoms))
        inputs = {vid for atom in atoms for vid in atom.input_values
                  if vid in graph.inputs or crossing[vid][0] not in group}
        outputs = {vid for atom in atoms for vid in atom.output_values
                   if vid in graph.outputs or not group.issuperset(crossing[vid][1])}
        return Subcomponent(sub_id, node_ids, tuple(sorted(inputs)), tuple(sorted(outputs)))


def build_atomic_subcomponents(g: TaskGraph) -> AtomicPartition:
    """Split the graph into atoms with exactly one non-constant task each.

    Constant support shared by several atoms is deep-cloned so each atom owns
    a private copy; the clone map records clone id -> original id. Model
    inputs are assigned to their first consumer in topological order but are
    never cloned. Raises NoNonConstantTask or DanglingOutput on graphs that
    cannot be covered.
    """
    constant = mark_constant_tasks(g)
    anchors = [tid for tid, is_const in constant.items() if not is_const]
    if not anchors:
        raise NoNonConstantTask("no task depends on a model input")

    for oid in sorted(g.outputs):
        producer = g.producer(oid)
        if producer is None:
            if oid not in g.inputs:
                raise DanglingOutput(f"output {oid!r} is not produced by any task")
        elif constant[producer]:
            raise DanglingOutput(f"output {oid!r} depends on no model input")

    owners: dict[str, list[int]] = {}
    for idx, anchor in enumerate(anchors):
        for nid in _constant_closure(g, constant, anchor):
            owners.setdefault(nid, []).append(idx)

    for tid, is_const in constant.items():
        if is_const and tid not in owners:
            raise DanglingOutput(f"constant task {tid!r} feeds no atom")
    for vid in g.value_ids():
        if g.producer(vid) is None and vid not in g.inputs and vid not in owners:
            raise DanglingOutput(f"constant value {vid!r} feeds no atom")

    # per-atom id of each constant support node; shared nodes become clones,
    # named by the first `{id}::c{r}` that no node has (copies of different
    # nodes never share a name)
    local_id: list[dict[str, str]] = [{} for _ in anchors]
    clone_origins: dict[str, str] = {}
    for nid in sorted(owners):
        atom_list = sorted(owners[nid])
        if len(atom_list) == 1:
            local_id[atom_list[0]][nid] = nid
        else:
            names = (f"{nid}::c{r}" for r in count())
            for idx, clone in zip(atom_list, (c for c in names if c not in g.nodes)):
                local_id[idx][nid] = clone
                clone_origins[clone] = nid

    expanded = _expand_clones(g, anchors, local_id, clone_origins) if clone_origins else g
    return _assemble(expanded, anchors, local_id, clone_origins)


def _expand_clones(g, anchors, local_id, clone_origins) -> TaskGraph:
    """The graph with each shared support node replaced by its copies. Every
    reader of a support node that one atom owns is in that atom's support or
    is its anchor, so such a node keeps its edges; a copy keeps the
    out-edges that stay in its atom's support or reach its anchor."""
    copies: list[Node] = []
    edges: list[tuple[str, str]] = []
    for idx, anchor in enumerate(anchors):
        ids = local_id[idx]
        for orig, new_id in ids.items():
            if new_id == orig:
                continue
            old = g.nodes[orig]
            copies.append(Node(new_id, task=old.task, value=old.value))
            edges.extend((new_id, ids.get(dst, dst)) for dst in g.succ(orig)
                         if dst in ids or dst == anchor)
    return g.replaced(clone_origins.values(), copies, edges)


def _assemble(graph, anchors, local_id, clone_origins) -> AtomicPartition:
    """Collect each atom's members: its anchor, the anchor's outputs and the
    atom's copy of its support."""
    members = [{anchor, *graph.succ(anchor), *local_id[idx].values()}
               for idx, anchor in enumerate(anchors)]
    # model inputs go to their first consumer in topo order, which is the
    # first atom since every consumer is an anchor; dead ones to atom 0
    anchor_atom = {anchor: idx for idx, anchor in enumerate(anchors)}
    for vid in graph.inputs:
        members[min((anchor_atom[t] for t in graph.consumers(vid)), default=0)].add(vid)
    return AtomicPartition(graph, [frozenset(m) for m in members], clone_origins)
