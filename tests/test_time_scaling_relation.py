"""Metamorphic relation: time scales exactly.

Double every task's FLOPs and every cost-table time, halve both
bandwidths and double the link latency. Every compute and transfer time
then doubles, and since scaling by a power of two is exact in binary
floating point, so does every sum and maximum of them. Memory does not
change. So the blocks, the stage spans and devices, MB and R must be
identical, and the objective and the replayed iteration time exactly 2x.
The relation needs no oracle, so it holds at any size: here on random
graphs from `helpers.py`, on graphs with cost-table entries, and on a bert
and a resnet, with checkpointing on and off.
"""

import dataclasses
import random

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import partition_blocks
from pipecut.costs import CostModel, CostModelConfig, CostTableEntry, op_signature
from pipecut.generators import gen_bert_like, gen_resnet_like
from pipecut.graph import ClusterSpec, graph_from_json, graph_to_json
from pipecut.stages import form_stage, replay

from helpers import random_layered_graph
from test_shared_rules import rich_graph

CLUSTERS = [  # (nodes, devices per node, device memory)
    (2, 2, 2**34), (1, 4, 2**34), (2, 4, 2**34)]


def cluster_of(nodes, dpn, mem):
    return ClusterSpec(num_nodes=nodes, devices_per_node=dpn, device_memory_bytes=mem,
                       bw_intra=50e9, bw_inter=10e9, link_latency_sec=3e-6)


def slower(g, cluster, table):
    """`g`, `cluster` and `table` with every time doubled."""
    doc = graph_to_json(g)
    for node in doc["nodes"]:
        if node["kind"] == "task":
            node["task"]["flops_per_sample"] *= 2
    cluster = dataclasses.replace(cluster, bw_intra=cluster.bw_intra / 2,
                                  bw_inter=cluster.bw_inter / 2,
                                  link_latency_sec=cluster.link_latency_sec * 2)
    if table is not None:
        table = {sig: dataclasses.replace(
            e, t_fwd=2 * e.t_fwd, t_bwd=None if e.t_bwd is None else 2 * e.t_bwd)
            for sig, e in table.items()}
    return graph_from_json(doc), cluster, table


def cost_table(g, rng):
    """Entries for a few of the graph's tasks at a few microbatch sizes,
    some with their own backward time or activation bytes."""
    tasks = [n.task for n in g.nodes.values() if n.is_task]
    table = {}
    for info in rng.sample(tasks, min(4, len(tasks))):
        for m in rng.sample([1, 2, 4, 8], 2):
            table[op_signature(info, m)] = CostTableEntry(
                m, t_fwd=rng.randint(1, 100) * 1e-7,
                t_bwd=rng.choice([None, rng.randint(1, 100) * 1e-7]),
                act_bytes=rng.choice([None, rng.randint(1, 64) * 4]))
    return table


def planned(g, cluster, ckpt, table, batch, k):
    p = build_atomic_subcomponents(g)
    model = CostModel(p.graph, CostModelConfig(checkpointing=ckpt, cost_table=table),
                      cluster)
    blocks = partition_blocks(p, model, k=k)
    plan = form_stage(cluster.num_nodes, cluster.devices_per_node, batch, blocks).plan
    return blocks, plan, None if plan is None else replay(plan, blocks)[0]


def shape(plan):
    stages = [(st.blocks, st.devices, st.replicas, st.mem) for st in plan.stages]
    return stages, plan.microbatches, plan.replica_factor, plan.devices_total


def assert_relation(g, cluster, table=None, batch=8, k=8):
    g2, cluster2, table2 = slower(g, cluster, table)
    for ckpt in (True, False):
        blocks, plan, t = planned(g, cluster, ckpt, table, batch, k)
        blocks2, plan2, t2 = planned(g2, cluster2, ckpt, table2, batch, k)
        assert blocks2.block_atoms == blocks.block_atoms
        assert plan is not None and plan2 is not None
        assert shape(plan2) == shape(plan)
        assert plan2.objective == 2 * plan.objective
        assert t2 == 2 * t
        for st, st2 in zip(plan.stages, plan2.stages):
            assert (st2.t_fwd, st2.t_bwd) == (2 * st.t_fwd, 2 * st.t_bwd)


@pytest.mark.parametrize("chunk", range(4))
def test_random_layered_graphs(chunk):
    for seed in range(25 * chunk, 25 * chunk + 25):
        g = random_layered_graph(random.Random(seed))
        assert_relation(g, cluster_of(*CLUSTERS[seed % len(CLUSTERS)]))


def test_graphs_with_cost_tables():
    for seed in range(20):
        rng = random.Random(seed)
        g = rich_graph(rng)
        assert_relation(g, cluster_of(*CLUSTERS[seed % len(CLUSTERS)]), cost_table(g, rng))


@pytest.mark.parametrize("g, batch, cluster", [
    (gen_bert_like(64, 4, 16, 100), 16, (2, 2, 2**34)),
    (gen_resnet_like(50), 32, (2, 2, 2**33)),
], ids=["bert-64x4", "resnet-50"])
def test_bert_and_resnet(g, batch, cluster):
    assert_relation(g, cluster_of(*cluster), batch=batch)
    assert_relation(g, cluster_of(*cluster), cost_table(g, random.Random(0)), batch=batch)
