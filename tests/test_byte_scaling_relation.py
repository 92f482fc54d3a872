"""Metamorphic relation: byte sizes scale exactly.

Double every value's fixed bytes and bytes per sample, every cost-table
`act_bytes`, the device memory and both bandwidths. Every memory figure
then doubles, and every transfer time is unchanged: scaling by a power of
two is exact in binary floating point, and a doubled byte count over a
doubled bandwidth is the same quotient. Compute times do not change. So the
blocks, the stage spans, devices and replicas, MB, R, the objective and the
replayed iteration time must be identical, and every `mem` exactly 2x.
A budget too small for an atom or a plan is too small after doubling too.

The one floor in the replay, the gradient sync's `2 * params * (r - 1) // r`
bytes, doubles exactly only for r <= 2 replicas, so the clusters here have
at most two devices and the test checks that no stage has more replicas.
"""

import random

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import CompactionStuck, InfeasibleAtom, partition_blocks
from pipecut.costs import CostModel, CostModelConfig
from pipecut.generators import gen_bert_like, gen_resnet_like
from pipecut.graph import ClusterSpec, graph_from_json, graph_to_json
from pipecut.stages import form_stage, replay

from helpers import random_layered_graph
from test_shared_rules import rich_graph
from test_time_scaling_relation import cost_table

CLUSTERS = [(1, 2), (2, 1)]  # (nodes, devices per node): two devices at most


def cluster_of(nodes, dpn, mem=2**34):
    return ClusterSpec(num_nodes=nodes, devices_per_node=dpn, device_memory_bytes=mem,
                       bw_intra=50e9, bw_inter=10e9, link_latency_sec=3e-6)


def bigger(g, cluster, table):
    """`g`, `cluster` and `table` with every byte count and bandwidth doubled."""
    doc = graph_to_json(g)
    for node in doc["nodes"]:
        if node["kind"] == "value":
            node["value"]["fixed_bytes"] *= 2
            node["value"]["bytes_per_sample"] *= 2
    cluster = cluster._replace(device_memory_bytes=2 * cluster.device_memory_bytes,
                               bw_intra=2 * cluster.bw_intra, bw_inter=2 * cluster.bw_inter)
    if table is not None:
        table = {sig: e._replace(act_bytes=None if e.act_bytes is None else 2 * e.act_bytes)
                 for sig, e in table.items()}
    return graph_from_json(doc), cluster, table


def planned(g, cluster, ckpt, table, batch, k):
    """(block atoms, plan, replayed time); the exception class in place of
    the block atoms when no blocks fit, and None for a plan that does not."""
    p = build_atomic_subcomponents(g)
    model = CostModel(p.graph, CostModelConfig(checkpointing=ckpt, cost_table=table),
                      cluster)
    try:
        blocks = partition_blocks(p, model, k=k)
    except (InfeasibleAtom, CompactionStuck) as exc:
        return type(exc), None, None
    plan = form_stage(batch, blocks).plan
    if plan is None:
        return blocks.block_atoms, None, None
    assert all(st.replicas <= 2 for st in plan.stages)
    return blocks.block_atoms, plan, replay(plan, blocks)[0]


def shape(plan):
    stages = [(st.blocks, st.devices, st.replicas, st.t_fwd, st.t_bwd) for st in plan.stages]
    return stages, plan.microbatches, plan.replica_factor, plan.devices_total, plan.objective


def assert_relation(g, cluster, table=None, batch=8, k=8):
    """The relation with checkpointing on and off; returns the stage counts."""
    g2, cluster2, table2 = bigger(g, cluster, table)
    counts = []
    for ckpt in (True, False):
        atoms, plan, t = planned(g, cluster, ckpt, table, batch, k)
        atoms2, plan2, t2 = planned(g2, cluster2, ckpt, table2, batch, k)
        assert atoms2 == atoms
        assert (plan2 is None) == (plan is None)
        if plan is not None:
            assert shape(plan2) == shape(plan)
            assert t2 == t
            assert [st.mem for st in plan2.stages] == [2 * st.mem for st in plan.stages]
            counts.append(len(plan.stages))
    return counts


@pytest.mark.parametrize("chunk", range(4))
def test_random_layered_graphs(chunk):
    counts = []
    for seed in range(25 * chunk, 25 * chunk + 25):
        g = random_layered_graph(random.Random(seed))
        cluster = cluster_of(*CLUSTERS[seed % len(CLUSTERS)])
        counts += assert_relation(g, cluster)
        # a budget a quarter under the one-stage plan's memory forces a cut
        # or a smaller microbatch, and leaves some atoms too big to place
        mem = planned(g, cluster, True, None, 8, 8)[1].stages[0].mem
        counts += assert_relation(g, cluster._replace(device_memory_bytes=mem * 3 // 4))
    assert 1 in counts and 2 in counts


def test_graphs_with_cost_tables():
    for seed in range(20):
        rng = random.Random(seed)
        g = rich_graph(rng)
        assert_relation(g, cluster_of(*CLUSTERS[seed % len(CLUSTERS)]), cost_table(g, rng))


@pytest.mark.parametrize("g, batch, nodes, mem", [
    (gen_bert_like(64, 4, 16, 100), 16, 1, 2**34),
    (gen_bert_like(256, 8, 64, 1000), 16, 2, 2**26),
    (gen_resnet_like(50), 32, 2, 2**33),
], ids=["bert-64x4", "bert-256x8-tight", "resnet-50"])
def test_bert_and_resnet(g, batch, nodes, mem):
    cluster = cluster_of(nodes, 3 - nodes, mem)
    assert_relation(g, cluster, batch=batch)
    assert_relation(g, cluster, cost_table(g, random.Random(0)), batch=batch)
