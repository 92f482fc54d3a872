"""Each value is derived once, and what is derived keeps its exact type.

A `partition` run sorts the graph twice (load validation and atom
building), cut bytes stay integers past 2**53, and graph edges name nodes
by string only. The traced CLI still runs, so the names the benchmark
tracer wraps in `pipecut.cli` stay exposed.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pipecut.atoms import build_atomic_subcomponents, mark_constant_tasks
from pipecut.blocks import BlockSet
from pipecut.cli import main
from pipecut.costs import CostModel, CostModelConfig
from pipecut.generators import gen_bert_like
from pipecut.graph import ClusterSpec, ParseError, TaskGraph, graph_from_json, save_graph

from helpers import random_layered_graph, task, value
from test_cli import write_cluster
from test_inputs import one_error_line
from test_shared_rules import rich_graph

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bert_job(tmp_path):
    graph = tmp_path / "graph.json"
    save_graph(gen_bert_like(64, 2, 16, 100), str(graph))
    cluster = write_cluster(tmp_path / "cluster.json")
    return ["partition", "--graph", str(graph), "--cluster", cluster,
            "--out", str(tmp_path / "out")]


class TestTopoOrderCalls:
    def test_partition_sorts_the_graph_twice(self, bert_job, monkeypatch):
        calls = []
        topo_order = TaskGraph.topo_order

        def counted(self):
            calls.append(len(self))
            return topo_order(self)

        monkeypatch.setattr(TaskGraph, "topo_order", counted)
        assert main(bert_job) == 0
        # once to validate the loaded graph, once to mark constant tasks
        assert len(calls) == 2

    @pytest.mark.parametrize("seed", range(40))
    def test_constant_marks_come_in_topo_order(self, seed):
        rng = random.Random(seed)
        g = random_layered_graph(rng) if seed % 2 else rich_graph(rng)
        tasks = [nid for nid in g.topo_order() if g.nodes[nid].is_task]
        assert list(mark_constant_tasks(g)) == tasks


class TestCutBytesStayIntegers:
    def test_boundary_past_two_to_the_53(self):
        big = 2**53 + 1
        nodes = [value("x", per_sample=4), task("t0"), value("v", per_sample=big),
                 task("t1"), value("y", per_sample=4)]
        edges = [("x", "t0"), ("t0", "v"), ("v", "t1"), ("t1", "y")]
        p = build_atomic_subcomponents(TaskGraph(nodes, edges, ["x"], ["y"]))
        cluster = ClusterSpec(num_nodes=1, devices_per_node=2,
                              device_memory_bytes=2**70, bw_intra=1e9,
                              bw_inter=1e9)
        model = CostModel(p.graph, CostModelConfig(), cluster)
        groups = ((0,), (1,))
        bs = BlockSet(p, model, groups)
        got = bs.boundary_bytes(1, 1)
        assert got == big and type(got) is int
        assert bs.boundary_bytes(1, 3) == 3 * big


def edge_doc(edge):
    return {
        "nodes": [
            {"id": "1", "kind": "value", "value": {"bytes_per_sample": 4}},
            {"id": "t", "kind": "task", "task": {"op": "mm", "flops_per_sample": 1.0}},
            {"id": "y", "kind": "value", "value": {"bytes_per_sample": 4}},
        ],
        "edges": [edge, ["t", "y"]],
        "inputs": ["1"],
        "outputs": ["y"],
    }


NON_STRING_EDGES = [[1, "t"], [1.0, "t"], [True, "t"], ["t", 1]]


class TestEdgeEndsAreStrings:
    def test_string_pair_loads_as_a_tuple(self):
        g = graph_from_json(edge_doc(["1", "t"]))
        assert g.edges == (("1", "t"), ("t", "y"))

    @pytest.mark.parametrize("edge", NON_STRING_EDGES)
    def test_rejected_at_load(self, edge):
        with pytest.raises(ParseError, match="pair of node ids"):
            graph_from_json(edge_doc(edge))

    @pytest.mark.parametrize("edge", NON_STRING_EDGES)
    def test_partition_exits_with_one_line(self, edge, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(edge_doc(edge)))
        cluster = write_cluster(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["partition", "--graph", str(graph), "--cluster", cluster,
                     "--out", str(out)]) == 1
        line = one_error_line(capsys)
        assert "pair of node ids" in line and "'1.0'" not in line
        assert not out.exists()


class TestTracerSmoke:
    def test_traced_partition_records_each_phase(self, bert_job, tmp_path):
        trace = tmp_path / "trace.json"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace),
             *bert_job],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        names = {span[0] for span in json.loads(trace.read_text())["spans"]}
        assert {"cli.main", "graph.load_graph", "blocks.partition_blocks",
                "stages.form_stage", "simulate.simulate"} <= names
