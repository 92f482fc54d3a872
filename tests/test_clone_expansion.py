"""The clone-expanded graph is derived from the loaded one: only shared
support nodes are replaced, and the result equals a full rebuild."""

import json
import random

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.cli import main
from pipecut.generators import gen_bert_like
from pipecut.graph import Node, TaskGraph, graph_from_json, save_graph

from helpers import random_layered_graph, task, value
from test_cli import write_cluster
from test_shared_rules import rich_graph


def reference_expansion(g: TaskGraph, p) -> TaskGraph:
    """A from-scratch build of the expanded graph: every cloned node is
    replaced by its copies, and an edge of `g` touching a cloned node lands
    in each atom that holds both of its ends (the copies where cloned)."""
    cloned = set(p.clone_origins.values())
    nodes = [n for nid, n in g.nodes.items() if nid not in cloned]
    nodes += [Node(c, task=g.nodes[o].task, value=g.nodes[o].value)
              for c, o in p.clone_origins.items()]
    edges = {(a, b) for a, b in g.edges if a not in cloned and b not in cloned}
    for atom in p.atoms:
        local = {p.clone_origins.get(nid, nid): nid for nid in atom.node_ids}
        edges |= {(local[a], local[b]) for a, b in g.edges
                  if (a in cloned or b in cloned) and a in local and b in local}
    return TaskGraph(nodes, sorted(edges), g.inputs, g.outputs)


class TestExpandedGraph:
    # rich graphs share constant chains; layered ones have none to clone
    @pytest.mark.parametrize("make,cloning_seeds", [(rich_graph, 234),
                                                    (random_layered_graph, 0)])
    def test_equals_a_full_rebuild(self, make, cloning_seeds):
        cloning = 0
        for seed in range(300):
            g = make(random.Random(seed))
            p = build_atomic_subcomponents(g)
            if not p.clone_origins:
                assert p.graph is g
                continue
            cloning += 1
            ref = reference_expansion(g, p)
            got = p.graph
            assert list(got.nodes.items()) == list(ref.nodes.items()), seed
            assert got.edges == ref.edges, seed
            assert (got.inputs, got.outputs) == (ref.inputs, ref.outputs)
            for nid in ref.nodes:
                assert got.succ(nid) == ref.succ(nid), (seed, nid)
                assert got.pred(nid) == ref.pred(nid), (seed, nid)
        assert cloning == cloning_seeds

    def test_partition_builds_one_graph(self, tmp_path, monkeypatch):
        graph = tmp_path / "graph.json"
        save_graph(gen_bert_like(64, 2, 16, 100), str(graph))
        cluster = write_cluster(tmp_path / "cluster.json")
        built = []
        init = TaskGraph.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TaskGraph, "__init__", counted)
        assert main(["partition", "--graph", str(graph), "--cluster", cluster,
                     "--out", str(tmp_path / "out")]) == 0
        assert len(built) == 1


def small_graph():
    """in -> t0 -> a -> t1 -> b, with a parameter and a constant `c`."""
    nodes = [value("in", per_sample=4), value("w", fixed=8, param=True),
             task("t0"), value("a", per_sample=4), task("t1"),
             value("b", per_sample=4), value("c", fixed=4)]
    edges = [("in", "t0"), ("w", "t0"), ("t0", "a"), ("a", "t1"), ("c", "t1"),
             ("t1", "b")]
    return TaskGraph(nodes, edges, ["in"], ["b"])


class TestReplaced:
    # with and without an edge that gives t1 back what it loses with c
    @pytest.mark.parametrize("new_edges", [[("c::c1", "t1"), ("c::c0", "t0")],
                                           [("c::c0", "t0")]])
    def test_matches_the_constructor(self, new_edges):
        g = small_graph()
        copies = [value("c::c0", fixed=4), value("c::c1", fixed=4)]
        got = g.replaced(["c"], copies, new_edges)
        edges = [e for e in g.edges if "c" not in e] + new_edges
        ref = TaskGraph([n for n in g.nodes.values() if n.id != "c"] + copies,
                        sorted(edges), g.inputs, g.outputs)
        assert list(got.nodes) == list(ref.nodes)
        assert got.edges == ref.edges
        for nid in ref.nodes:
            assert (got.succ(nid), got.pred(nid)) == (ref.succ(nid), ref.pred(nid))
        assert g.succ("c") == ("t1",)  # the source graph is left as it was

    @pytest.mark.parametrize("drop,nodes,edges,match", [
        ([], [value("c")], [], "duplicate node id 'c'"),
        (["c"], [value("c")], [], "duplicate node id 'c'"),
        ([], [value("d"), value("d")], [], "duplicate node id 'd'"),
        (["c"], [], [("c", "t1")], "unknown node"),
        ([], [], [("w", "nowhere")], "unknown node"),
        ([], [], [("a", "t1")], "duplicate edge"),
        ([], [value("d")], [("d", "t1"), ("d", "t1")], "duplicate edge"),
        (["in"], [], [], "declared input/output 'in'"),
        (["b"], [], [], "declared input/output 'b'"),
    ])
    def test_keeps_the_constructor_checks(self, drop, nodes, edges, match):
        with pytest.raises(ValueError, match=match):
            small_graph().replaced(drop, nodes, edges)


def unread_output_doc(shared: bool):
    """w -> prep -> {wp, junk}, {x, wp} -> use -> y; `junk` is read by
    nothing. When `shared`, a second task reads wp, so prep is cloned."""
    def val(vid, **payload):
        return {"id": vid, "kind": "value", "value": payload}

    def tsk(tid, op):
        return {"id": tid, "kind": "task", "task": {"op": op, "flops_per_sample": 10.0}}

    nodes = [val("w", fixed_bytes=64, is_param=True), tsk("prep", "transpose"),
             val("wp", fixed_bytes=64), val("junk", fixed_bytes=16),
             val("x", bytes_per_sample=8), tsk("use", "mm"), val("y", bytes_per_sample=8)]
    edges = [["w", "prep"], ["prep", "wp"], ["prep", "junk"], ["x", "use"],
             ["wp", "use"], ["use", "y"]]
    out = "y"
    if shared:
        nodes += [tsk("use2", "mm"), val("z", bytes_per_sample=8)]
        edges += [["y", "use2"], ["wp", "use2"], ["use2", "z"]]
        out = "z"
    return {"nodes": nodes, "edges": edges, "inputs": ["x"], "outputs": [out]}


class TestUnreadConstantOutput:
    @pytest.mark.parametrize("shared", [False, True])
    def test_every_node_lands_in_one_atom(self, shared):
        g = graph_from_json(unread_output_doc(shared))
        p = build_atomic_subcomponents(g)
        held = [nid for atom in p.atoms for nid in atom.node_ids]
        assert sorted(held) == sorted(p.graph.nodes)
        junk = [nid for nid in p.graph.nodes if p.clone_origins.get(nid, nid) == "junk"]
        assert len(junk) == (2 if shared else 1)
        assert p.dependencies() == ([(0, 1)] if shared else [])

    @pytest.mark.parametrize("shared", [False, True])
    def test_partition_plans_and_simulate_replays(self, shared, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(unread_output_doc(shared)))
        cluster = write_cluster(tmp_path / "cluster.json")
        out = tmp_path / "out"
        common = ["--graph", str(graph), "--cluster", cluster, "--batch-size", "4"]
        assert main(["partition", *common, "--out", str(out)]) == 0
        assert main(["simulate", *common, "--plan", str(out / "plan.json")]) == 0
        assert "iteration_time_sec" in capsys.readouterr().out
