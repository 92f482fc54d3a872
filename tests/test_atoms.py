import random

import pytest

from pipecut.atoms import (
    DanglingOutput,
    NoNonConstantTask,
    build_atomic_subcomponents,
    mark_constant_tasks,
)
from pipecut.graph import TaskGraph, graph_from_json, validate_graph
from pipecut.generators import gen_bert_like, gen_resnet_like

from helpers import chain_graph, random_layered_graph, task, tied_matmul_doc, value


def tied_graph():
    return graph_from_json(tied_matmul_doc())


def shared_transpose_graph():
    # one transposed weight consumed by two matmuls in different atoms
    nodes = [value("x", per_sample=16), value("w", fixed=64, param=True),
             task("tr", "transpose"), value("wt", fixed=64),
             task("m1", "matmul", 10.0), value("y1", per_sample=16),
             task("m2", "matmul", 10.0), value("y2", per_sample=16)]
    edges = [("w", "tr"), ("tr", "wt"),
             ("x", "m1"), ("wt", "m1"), ("m1", "y1"),
             ("y1", "m2"), ("wt", "m2"), ("m2", "y2")]
    return TaskGraph(nodes, edges, ["x"], ["y2"])


class TestConstantMarking:
    def test_tied_graph(self):
        g = tied_graph()
        constant = mark_constant_tasks(g)
        assert constant == {"transpose1": True, "transpose2": True,
                            "matmul1": False, "matmul2": False, "matmul3": False}

    def test_chain_all_non_constant(self):
        g = chain_graph(4)
        assert not any(mark_constant_tasks(g).values())

    def test_param_only_consumer_is_constant(self):
        nodes = [value("x", per_sample=4), value("w", fixed=16, param=True),
                 task("prep"), value("wp", fixed=16),
                 task("use"), value("y", per_sample=4)]
        edges = [("w", "prep"), ("prep", "wp"), ("x", "use"), ("wp", "use"), ("use", "y")]
        g = TaskGraph(nodes, edges, ["x"], ["y"])
        assert mark_constant_tasks(g) == {"prep": True, "use": False}


class TestBuild:
    def test_tied_graph_atoms(self):
        p = build_atomic_subcomponents(tied_graph())
        assert len(p.atoms) == 3
        assert p.clone_origins == {}
        a0, a1, a2 = p.atoms
        assert {"matmul1", "transpose1", "w1", "w1t", "x", "y1"} == set(a0.node_ids)
        assert {"matmul2", "w2", "y2"} == set(a1.node_ids)
        assert {"matmul3", "transpose2", "w3", "w3t", "y3"} == set(a2.node_ids)
        assert a0.input_values == ("x",)
        assert a1.input_values == ("y1",)
        assert a0.output_values == ("y1",)
        assert a2.output_values == ("y3",)

    def test_chain_one_atom_per_task(self):
        p = build_atomic_subcomponents(chain_graph(5))
        assert len(p.atoms) == 5
        # atoms come out in topological order of their anchor tasks
        anchors = [sorted(t for t in a.node_ids if p.graph.nodes[t].is_task)[0]
                   for a in p.atoms]
        assert anchors == sorted(anchors)

    def test_shared_constant_cloned_per_atom(self):
        p = build_atomic_subcomponents(shared_transpose_graph())
        assert len(p.atoms) == 2
        origins = sorted(set(p.clone_origins.values()))
        assert origins == ["tr", "w", "wt"]
        assert sorted(p.clone_origins) == ["tr::c0", "tr::c1", "w::c0", "w::c1",
                                           "wt::c0", "wt::c1"]
        # each atom holds a private transpose chain
        for atom in p.atoms:
            assert any(n.startswith("tr::c") for n in atom.node_ids)
        assert "tr" not in p.graph.nodes
        assert validate_graph(p.graph) == []

    def test_bert_embedding_table_cloned(self):
        g = gen_bert_like(32, 2, 8, 50)
        p = build_atomic_subcomponents(g)
        assert set(p.clone_origins.values()) == {"embedding.w"}
        assert len(p.atoms) == 2 * 10 + 3

    def test_resnet_atom_count(self):
        p = build_atomic_subcomponents(gen_resnet_like(50, 1))
        assert p.clone_origins == {}
        n_tasks = len(gen_resnet_like(50, 1).task_ids())
        assert len(p.atoms) == n_tasks

    def test_no_non_constant_task(self):
        nodes = [value("w", fixed=4, param=True), task("t"), value("y", fixed=4)]
        g = TaskGraph(nodes, [("w", "t"), ("t", "y")], [], ["y"])
        with pytest.raises(NoNonConstantTask):
            build_atomic_subcomponents(g)

    def test_constant_output_rejected(self):
        nodes = [value("x", per_sample=4), task("use"), value("y", per_sample=4),
                 value("w", fixed=4, param=True), task("prep"), value("wp", fixed=4)]
        edges = [("x", "use"), ("use", "y"), ("w", "prep"), ("prep", "wp")]
        g = TaskGraph(nodes, edges, ["x"], ["y", "wp"])
        with pytest.raises(DanglingOutput):
            build_atomic_subcomponents(g)

    def test_dead_constant_rejected(self):
        nodes = [value("x", per_sample=4), task("use"), value("y", per_sample=4),
                 value("w", fixed=4, param=True), task("prep"), value("wp", fixed=4)]
        edges = [("x", "use"), ("use", "y"), ("w", "prep"), ("prep", "wp")]
        g = TaskGraph(nodes, edges, ["x"], ["y"])
        with pytest.raises(DanglingOutput):
            build_atomic_subcomponents(g)


def check_partition_invariants(g: TaskGraph, p) -> None:
    # exact node coverage, no overlap
    seen: set[str] = set()
    for atom in p.atoms:
        assert not (seen & atom.node_ids)
        seen |= atom.node_ids
    assert seen == set(p.graph.nodes)
    # exactly one non-constant task per atom
    constant = mark_constant_tasks(p.graph)
    for atom in p.atoms:
        anchors = [t for t in atom.node_ids
                   if p.graph.nodes[t].is_task and not constant[t]]
        assert len(anchors) == 1
    # boundary lists are consistent
    for idx, atom in enumerate(p.atoms):
        for vid in atom.input_values:
            producer = p.graph.producer(vid)
            assert producer is None or producer not in atom.node_ids
        for vid in atom.output_values:
            assert vid in atom.node_ids
            external = p.consumer_atoms(vid) - {idx}
            assert external or vid in p.graph.outputs
    # atom contraction is a DAG: Kahn must consume every node
    deps = p.dependencies()
    n = len(p.atoms)
    indeg = [0] * n
    succ = [[] for _ in range(n)]
    for a, b in deps:
        assert a != b
        succ[a].append(b)
        indeg[b] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    popped = 0
    while ready:
        i = ready.pop()
        popped += 1
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    assert popped == n
    # clone soundness: mapping clones back restores the task multiset
    tasks = sorted(p.clone_origins.get(t, t) for t in p.graph.task_ids())
    orig_tasks = sorted(set(tasks))
    assert orig_tasks == sorted(g.task_ids())


class TestInvariants:
    @pytest.mark.parametrize("builder", [
        lambda: tied_graph(),
        lambda: shared_transpose_graph(),
        lambda: chain_graph(6),
        lambda: gen_bert_like(32, 3, 8, 50),
        lambda: gen_resnet_like(50, 1),
    ])
    def test_structural(self, builder):
        g = builder()
        check_partition_invariants(g, build_atomic_subcomponents(g))

    def test_random_graphs(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_layered_graph(rng)
            check_partition_invariants(g, build_atomic_subcomponents(g))

    def test_deterministic(self):
        g = gen_bert_like(32, 2, 8, 50)
        p1 = build_atomic_subcomponents(g)
        p2 = build_atomic_subcomponents(g)
        assert p1.atoms == p2.atoms
        assert p1.clone_origins == p2.clone_origins
        assert p1.graph == p2.graph

    def test_merged_subcomponent(self):
        p = build_atomic_subcomponents(chain_graph(4))
        merged = p.merged([1, 2], "B0")
        assert merged.input_values == ("v00",)
        assert merged.output_values == ("v02",)
        assert merged.node_ids == p.atoms[1].node_ids | p.atoms[2].node_ids

    def test_merged_covers_whole_graph(self):
        g = tied_graph()
        p = build_atomic_subcomponents(g)
        merged = p.merged(range(len(p.atoms)), "all")
        assert merged.node_ids == frozenset(p.graph.nodes)
        assert merged.input_values == ("x",)
        assert merged.output_values == ("y3",)


class TestScale:
    def test_large_bert_atom_count(self):
        p = build_atomic_subcomponents(gen_bert_like(2048, 256, 512, 30522))
        assert len(p.atoms) > 1000
