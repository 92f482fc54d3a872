"""Each atom's byte terms are built once, in the walk that assigns owners
(`AtomicPartition.terms`), and the block phase reads them instead of
walking the graph.

`reference_home_terms` below is the walk over a home's nodes (a home is a
tuple of atom indices: an atom alone or a block) that defines the terms:
parameter bytes; source bytes, the non-parameter values with no producer
that are not graph inputs some task reads; and one shape per task, in the
order of the home's atoms and of each atom's node set, with every read keyed
by its owner's home. The partition's terms must equal it per atom, and a
block set's parameter bytes, source bytes and task classes per block."""

import random

import pytest

from pipecut.atoms import TaskShape, build_atomic_subcomponents
from pipecut.blocks import BlockSet, partition_blocks
from pipecut.costs import CostModel, CostModelConfig, CostTableEntry, op_signature
from pipecut.generators import gen_bert_like, gen_resnet_like
from pipecut.graph import ClusterSpec, TaskGraph

from helpers import random_layered_graph
from test_shared_rules import rich_graph

BIG = ClusterSpec(num_nodes=1, devices_per_node=4, device_memory_bytes=2**50,
                  bw_intra=50e9, bw_inter=10e9)
ADJACENCY = ("succ", "pred", "producer", "consumers")

GRAPHS = {
    **{f"{make.__name__}-{seed}": (lambda make=make, seed=seed: make(random.Random(seed)))
       for make in (rich_graph, random_layered_graph) for seed in range(6)},
    "bert": lambda: gen_bert_like(64, 4, 16, 100),
    "resnet": lambda: gen_resnet_like(50, 1),
}


def reference_home_terms(p, homes) -> list[tuple]:
    """Per home: (parameter bytes, (fixed, per sample) source bytes, shapes)."""
    g = p.graph
    home_of = {a: h for h, atoms in enumerate(homes) for a in atoms}

    def sizes(vid):
        info = g.nodes[vid].value
        if info.is_param or vid in g.inputs:
            return None
        return info.fixed_bytes, info.bytes_per_sample

    out = []
    for atoms in homes:
        params = fixed = per_sample = 0
        shapes = []
        for nid in (nid for a in atoms for nid in p.atoms[a].node_ids):
            node = g.nodes[nid]
            if node.is_task:
                produced = tuple(sz for sz in map(sizes, g.succ(nid)) if sz is not None)
                reads = tuple((home_of[p.owner_of_value(vid)], *sz) for vid in g.pred(nid)
                              if (sz := sizes(vid)) is not None)
                shapes.append(TaskShape(node.task, produced, reads))
            elif node.value.is_param:
                params += node.value.fixed_bytes
            elif g.producer(nid) is None and not (nid in g.inputs and g.consumers(nid)):
                fixed += node.value.fixed_bytes
                per_sample += node.value.bytes_per_sample
        out.append((params, (fixed, per_sample), shapes))
    return out


def reference_classes(shapes) -> list[tuple[TaskShape, int]]:
    """(first shape, count) per op signature, FLOPs and sizes, in order."""
    classes: dict[tuple, list] = {}
    for shape in shapes:
        key = (op_signature(shape.info, 0), shape.info.flops_per_sample, *shape[1:])
        classes.setdefault(key, [shape, 0])[1] += 1
    return [(shape, count) for shape, count in classes.values()]


def cost_table(g) -> dict[str, CostTableEntry]:
    """Entries at microbatch 1 for every other op signature of the graph,
    half of them replacing the activation bytes."""
    sigs = sorted({op_signature(g.nodes[t].task, 1) for t in g.task_ids()})
    return {sig: CostTableEntry(1, t_fwd=1e-6 * (i + 1), act_bytes=64 * i if i % 2 else None)
            for i, sig in enumerate(sigs[::2])}


def model_for(p, with_table: bool) -> CostModel:
    cfg = CostModelConfig(cost_table=cost_table(p.graph) if with_table else None)
    return CostModel(p.graph, cfg, BIG)


def random_blocks(p, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """A random topological order of the atoms, cut at random places."""
    preds = {a: set() for a in range(len(p.atoms))}
    for a, b in p.dependencies():
        preds[b].add(a)
    order: list[int] = []
    while preds:
        ready = sorted(a for a, ps in preds.items() if not ps)
        a = rng.choice(ready)
        order.append(a)
        del preds[a]
        for ps in preds.values():
            ps.discard(a)
    cuts = sorted(rng.sample(range(1, len(order)), rng.randint(0, min(5, len(order) - 1))))
    return tuple(tuple(order[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, len(order)]))


@pytest.fixture(params=sorted(GRAPHS))
def partition(request):
    return build_atomic_subcomponents(GRAPHS[request.param]())


class TestTermsEqualTheReferenceWalk:
    def test_atom_terms(self, partition):
        p = partition
        ref = reference_home_terms(p, [(a,) for a in range(len(p.atoms))])
        assert p.terms == [(params, source, tuple(shapes)) for params, source, shapes in ref]

    @pytest.mark.parametrize("with_table", [False, True])
    def test_block_terms(self, partition, with_table):
        p = partition
        model = model_for(p, with_table)
        rng = random.Random(len(p.atoms))
        for _ in range(4):
            block_atoms = random_blocks(p, rng)
            bs = BlockSet(p, model, block_atoms)
            ref = reference_home_terms(p, block_atoms)
            for b, (params, source, shapes) in enumerate(ref):
                assert bs.param_bytes(b, b + 1) == params
                assert bs._source_bytes[b] == source
                assert bs._task_classes[b] == reference_classes(shapes)

    def test_partitioned_blocks(self, partition):
        p = partition
        bs = partition_blocks(p, model_for(p, False), k=4)
        ref = reference_home_terms(p, bs.block_atoms)
        assert bs._task_classes == [reference_classes(shapes) for _, _, shapes in ref]


def count_calls(monkeypatch) -> list[str]:
    """Wrap the graph's adjacency methods; returns the list each call adds
    its method name to."""
    calls: list[str] = []

    def counting(name, real):
        def wrapper(self, node_id):
            calls.append(name)
            return real(self, node_id)
        return wrapper

    for name in ADJACENCY:
        monkeypatch.setattr(TaskGraph, name, counting(name, getattr(TaskGraph, name)))
    return calls


class TestBlockPhaseWalksNoGraph:
    @pytest.mark.parametrize("make", [lambda: gen_bert_like(64, 4, 16, 100),
                                      lambda: rich_graph(random.Random(3))],
                             ids=["bert", "rich_graph"])
    @pytest.mark.parametrize("with_table", [False, True])
    def test_no_adjacency_calls(self, make, with_table, monkeypatch):
        p = build_atomic_subcomponents(make())
        assert p.clone_origins
        model = model_for(p, with_table)
        calls = count_calls(monkeypatch)
        bs = partition_blocks(p, model, k=6)
        BlockSet(p, model, bs.block_atoms)
        assert calls == []
        assert len(bs) == 6

    def test_the_counter_sees_a_walk(self, monkeypatch):
        p = build_atomic_subcomponents(gen_bert_like(64, 4, 16, 100))
        calls = count_calls(monkeypatch)
        reference_home_terms(p, [tuple(range(len(p.atoms)))])
        assert calls.count("pred") == len(p.graph.task_ids())
