"""One placement model in the stage layer.

Device d sits on node d // devices_per_node. A send after cumulative device
c crosses nodes when devices c - 1 and c sit on different nodes, the same
rule the gradient sync in `replay` applies to a stage's first and last
device. The stage search tries every replica factor R <= batch size that
divides the node count, largest R first, so node counts that are not a
power of two get pipelines of every width they divide into.
"""

import json

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import partition_blocks
from pipecut.cli import main
from pipecut.costs import CostModel, CostModelConfig
from pipecut.generators import gen_bert_like
from pipecut.graph import ClusterSpec, save_graph
from pipecut.stages import Plan, form_stage, form_stage_dp, stage_cost

GB = 10**9


@pytest.fixture(scope="module")
def bert_1024x24():
    return build_atomic_subcomponents(gen_bert_like(1024, 24, 512, 30522))


def small_device_blocks(partition, num_nodes):
    """bert 1024x24 blocks for num_nodes nodes of one 3 GB device each: too
    large for one device, so every plan is a pipeline."""
    cluster = ClusterSpec(num_nodes, 1, 3 * GB, 50e9, 10e9, 0.0)
    return partition_blocks(partition, CostModel(partition.graph, CostModelConfig(),
                                                 cluster), k=32)


class TestPipelineWidths:
    def test_three_nodes_plan_one_three_stage_pipeline(self, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        save_graph(gen_bert_like(1024, 24, 512, 30522), str(graph))
        cluster = tmp_path / "cluster.json"
        cluster.write_text(json.dumps({
            "num_nodes": 3, "devices_per_node": 1, "device_memory_bytes": 3 * GB,
            "bw_intra": 50e9, "bw_inter": 10e9}))
        out = tmp_path / "out"
        assert main(["partition", "--graph", str(graph), "--cluster", str(cluster),
                     "--batch-size", "12", "--out", str(out)]) == 0
        assert "infeasible" not in capsys.readouterr().err
        plan = Plan.from_json(json.loads((out / "plan.json").read_text()))
        assert (len(plan.stages), plan.replica_factor) == (3, 1)
        assert plan.devices_total == 3

    @pytest.mark.parametrize("num_nodes, replica_factor", [(6, 2), (12, 4), (15, 5)])
    def test_three_node_pipelines_replicate(self, bert_1024x24, num_nodes,
                                            replica_factor):
        # 3-node pipelines are the narrowest that fit; 12 nodes try them
        # before 4-node ones, and 15 nodes skip the 15 replicas that 12
        # samples cannot feed
        plan = form_stage(12, small_device_blocks(bert_1024x24, num_nodes)).plan
        assert plan.replica_factor == replica_factor
        assert plan.devices_total == num_nodes // replica_factor == 3


@pytest.fixture(scope="module")
def one_node_blocks():
    """bert 64x4 in 6 blocks on one node of 2 devices."""
    cluster = ClusterSpec(1, 2, 2**34, 50e9, 10e9, 0.0)
    p = build_atomic_subcomponents(gen_bert_like(64, 4, 16, 100))
    return partition_blocks(p, CostModel(p.graph, CostModelConfig(), cluster), k=6)


class TestSendsFollowTheNodeRule:
    def test_every_charged_send_uses_the_node_rule(self, one_node_blocks):
        bs = one_node_blocks
        model, dpn, nb = bs.model, bs.model.cluster.devices_per_node, len(bs)

        def send(cut, m, c):
            return model.comm_time(bs.boundary_bytes(cut, m),
                                   inter_node=(c - 1) // dpn != c // dpn)

        crossings = 0
        for lo in range(nb):
            for hi in range(lo + 1, nb + 1):
                for d0 in range(1, 5):
                    for d1 in range(d0 + 1, 6):
                        for m in (1, 3):
                            _, fwd, bwd = stage_cost(bs, lo, hi, d0, d1, m, False)
                            if hi < nb:
                                assert fwd == send(hi, m, d1)
                            if lo > 0:
                                assert bwd == send(lo, m, d0)
                                crossings += d0 % dpn == 0
        assert crossings > 0

    def test_plan_past_the_cluster_charges_its_node_crossings(self, one_node_blocks):
        # 5 devices on a 1 x 2 cluster: the cut after cumulative device 4
        # lies between devices 3 and 4, on nodes 1 and 2, so its send is
        # charged inter-node, as the sync of a stage over them would be
        plan = form_stage_dp(one_node_blocks, 3, 5, 40, 1, 2).plan
        assert [(st.blocks, st.devices) for st in plan.stages] == [
            ((0, 1), 1), ((1, 3), 2), ((3, 6), 2)]
