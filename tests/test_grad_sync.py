"""The gradient sync's byte count rounds down.

A stage on r devices syncs `2 * params * (r - 1) // r` bytes, the
ring-allreduce volume floored to a whole byte. With 3 replicas and an odd
parameter size the floor is not exact, so the allreduce lane's length
tells the floor from the ceiling.
"""

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import partition_blocks
from pipecut.costs import CostModel, CostModelConfig
from pipecut.graph import ClusterSpec, TaskGraph
from pipecut.stages import form_stage_dp, replay

from helpers import task, value

PARAMS = (501, 500)  # 1001 bytes in all: 2 * 1001 * 2 / 3 = 1334.67
LATENCY = 1e-6


def two_task_chain() -> TaskGraph:
    nodes = [value("x", per_sample=4)]
    edges = []
    prev = "x"
    for i, size in enumerate(PARAMS):
        tid, wid, vid = f"t{i}", f"w{i}", f"v{i}"
        nodes += [task(tid, flops=100.0), value(wid, fixed=size, param=True),
                  value(vid, per_sample=4)]
        edges += [(prev, tid), (wid, tid), (tid, vid)]
        prev = vid
    return TaskGraph(nodes, edges, ["x"], [prev])


@pytest.mark.parametrize("num_nodes, devices, replica_factor, bw_name", [
    (1, 3, 1, "bw_intra"),   # one stage on 3 devices of one node
    (3, 1, 3, "bw_inter"),   # one device per pipeline, 3 pipeline replicas
])
def test_allreduce_lane_takes_the_floored_byte_count(num_nodes, devices,
                                                     replica_factor, bw_name):
    cluster = ClusterSpec(num_nodes=num_nodes, devices_per_node=3 // num_nodes,
                          device_memory_bytes=2**40, bw_intra=50e9,
                          bw_inter=10e9, link_latency_sec=LATENCY)
    p = build_atomic_subcomponents(two_task_chain())
    blocks = partition_blocks(p, CostModel(p.graph, CostModelConfig(), cluster), k=2)
    assert blocks.param_bytes(0, len(blocks)) == sum(PARAMS)

    plan = form_stage_dp(blocks, 1, devices, 3, replica_factor, 1).plan
    assert plan.stages[0].replicas == 3
    _, lanes = replay(plan, blocks)
    [(mb, start, end)] = [(mb, start, end) for mb, phase, start, end in lanes[0]
                          if phase == "allreduce"]
    nbytes = 2 * sum(PARAMS) * 2 // 3
    assert nbytes == 1334
    bw = getattr(cluster, bw_name)
    assert mb == -1
    assert end == start + (LATENCY + nbytes / bw)
    assert end != start + (LATENCY + (nbytes + 1) / bw)
