"""Input paths that no other test reaches: each malformed graph, plan,
cluster or flag below exits 1 with its one-line message, and an oracle
check on more blocks than the enumerator takes is skipped, not failed."""

import json

import pytest

from pipecut.cli import main
from pipecut.generators import gen_bert_like
from pipecut.graph import save_graph

from test_cli import write_cluster

CHAIN_NODES = [
    {"id": "x", "kind": "value", "value": {"bytes_per_sample": 4}},
    {"id": "t", "kind": "task", "task": {"op": "op", "flops_per_sample": 1.0}},
    {"id": "y", "kind": "value", "value": {"bytes_per_sample": 4}},
]
CHAIN_EDGES = [["x", "t"], ["t", "y"]]


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.fixture
def cluster(tmp_path):
    return write_cluster(tmp_path / "c.json")


def write_graph(path, nodes, edges, inputs, outputs):
    path.write_text(json.dumps({"nodes": nodes, "edges": edges,
                                "inputs": inputs, "outputs": outputs}))
    return str(path)


class TestGraphFiles:
    def partition(self, tmp_path, cluster, capsys, **doc):
        graph = write_graph(tmp_path / "g.json", **doc)
        return run(["partition", "--graph", graph, "--cluster", cluster,
                    "--batch-size", "8", "--out", str(tmp_path / "out")], capsys)

    def test_isolated_constant_value(self, tmp_path, cluster, capsys):
        nodes = [*CHAIN_NODES, {"id": "k", "kind": "value", "value": {"fixed_bytes": 8}}]
        code, err = self.partition(tmp_path, cluster, capsys, nodes=nodes,
                                   edges=CHAIN_EDGES, inputs=["x"], outputs=["y"])
        assert (code, err) == (1, "error: constant value 'k' feeds no atom\n")

    def test_declared_output_not_a_node(self, tmp_path, cluster, capsys):
        code, err = self.partition(tmp_path, cluster, capsys, nodes=CHAIN_NODES,
                                   edges=CHAIN_EDGES, inputs=["x"], outputs=["q"])
        assert (code, err) == (1, "error: declared input/output 'q' is not a node\n")

    def test_declared_input_is_a_task(self, tmp_path, cluster, capsys):
        code, err = self.partition(tmp_path, cluster, capsys, nodes=CHAIN_NODES,
                                   edges=CHAIN_EDGES, inputs=["t"], outputs=["y"])
        assert (code, err) == (1, "error: declared input/output 't' is not a value node\n")


def test_zero_device_memory(tmp_path, capsys):
    graph = tmp_path / "g.json"
    save_graph(gen_bert_like(64, 2, 16, 100), str(graph))
    cluster = write_cluster(tmp_path / "c.json", mem=0)
    code, err = run(["partition", "--graph", str(graph), "--cluster", cluster,
                     "--out", str(tmp_path / "out")], capsys)
    assert (code, err) == (1, "error: cluster []: device_memory_bytes must be positive\n")


def test_sweep_zero_layers(tmp_path, cluster, capsys):
    code, err = run(["sweep", "--cluster", cluster, "--hidden", "64", "--layers", "0,2",
                     "--seq", "16", "--vocab", "100", "--out", str(tmp_path)], capsys)
    assert (code, err) == (1, "error: --layers expects positive integers\n")
    assert not (tmp_path / "sweep.csv").exists()


def test_generate_resnet_zero_width(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, err = run(["generate", "resnet", "--layers", "50", "--width", "0",
                     "--out", str(out)], capsys)
    assert (code, err) == (1, "error: width_factor must be a positive integer\n")
    assert not out.exists()


class TestPlans:
    @pytest.fixture
    def planned(self, tmp_path, cluster):
        graph = tmp_path / "g.json"
        save_graph(gen_bert_like(64, 2, 16, 100), str(graph))
        out = tmp_path / "out"
        inputs = ["--graph", str(graph), "--cluster", cluster, "--batch-size", "8"]
        assert main(["partition", *inputs, "--out", str(out)]) == 0
        return inputs, out

    def simulate(self, planned, capsys, edit):
        inputs, out = planned
        capsys.readouterr()
        doc = json.loads((out / "plan.json").read_text())
        edit(doc)
        plan = out / "edited.json"
        plan.write_text(json.dumps(doc))
        return run(["simulate", *inputs, "--plan", str(plan)], capsys)

    def test_oracle_check_past_the_enumeration_guard(self, planned):
        inputs, out = planned
        assert json.loads((out / "blocks.json").read_text())["num_blocks"] > 12
        assert main(["partition", *inputs, "--oracle-check", "--out", str(out)]) == 0
        assert "oracle_check: instance too large" in (out / "report.txt").read_text()

    def test_no_stages(self, planned, capsys):
        code, err = self.simulate(planned, capsys, lambda doc: doc.update(stages=[]))
        assert (code, err) == (1, "error: plan has no stages\n")

    def test_zero_microbatches(self, planned, capsys):
        code, err = self.simulate(planned, capsys, lambda doc: doc.update(microbatches=0))
        assert (code, err) == (1, "error: microbatches, replica factor and batch size "
                                  "must be at least 1\n")

    def test_stages_stop_short(self, planned, capsys):
        nb = json.loads((planned[1] / "blocks.json").read_text())["num_blocks"]

        def stop_short(doc):
            doc["stages"][-1]["blocks"][1] = nb - 1

        code, err = self.simulate(planned, capsys, stop_short)
        assert (code, err) == (1, f"error: stages end at block {nb - 1}, not {nb}\n")
