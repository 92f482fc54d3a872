"""Microbatches in flight, read off the replay.

A stage holds a microbatch's activations from the end of its forward pass
to the end of its backward pass. The peak, over the stage's lane in order,
of forward passes finished minus backward passes finished is then the
number of microbatches it holds at once. Under fill-drain (GPipe, arXiv
1811.06965) every stage runs all its forward passes before any backward
pass, so the peak is MB at every stage. This pins that closed form with a
check independent of it, before any memory charge depends on it.
"""

import itertools
import random

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import partition_blocks
from pipecut.costs import CostModel, CostModelConfig
from pipecut.graph import ClusterSpec
from pipecut.stages import form_stage, form_stage_dp, replay, validate_plan

from helpers import random_layered_graph


def peak_in_flight(lane) -> int:
    """Peak over a replayed lane of forward passes finished minus backward
    passes finished."""
    in_flight = peak = 0
    for _, phase, _, _ in lane:
        if phase == "fwd":
            in_flight += 1
            peak = max(peak, in_flight)
        elif phase == "bwd":
            in_flight -= 1
    assert in_flight == 0  # every microbatch's backward pass ran
    return peak


def corpus_plans(seed: int):
    """Plans of one random layered graph: the searched plan and the DP's
    best plan for each stage count and microbatch count that has one, on
    a cluster and checkpointing mode drawn from the seed."""
    rng = random.Random(seed)
    p = build_atomic_subcomponents(random_layered_graph(rng, branch=3))
    cluster = ClusterSpec(num_nodes=rng.choice([1, 2]), devices_per_node=rng.randint(1, 4),
                          device_memory_bytes=2**40, bw_intra=1e6, bw_inter=1e5)
    cfg = CostModelConfig(device_flops_per_sec=1e3, checkpointing=rng.random() < 0.5)
    bs = partition_blocks(p, CostModel(p.graph, cfg, cluster), k=rng.randint(2, 6))
    batch = rng.choice([4, 8, 16])
    D = cluster.num_nodes * cluster.devices_per_node
    plans = [form_stage(batch, bs).plan]
    for S, MB in itertools.product(range(1, min(D, len(bs)) + 1), (1, 2, 4)):
        plans.append(form_stage_dp(bs, S, D, batch, 1, MB).plan)
    return bs, [plan for plan in plans if plan is not None]


@pytest.mark.parametrize("seed", range(40))
def test_fill_drain_holds_every_microbatch(seed):
    bs, plans = corpus_plans(seed)
    assert plans
    for plan in plans:
        assert validate_plan(plan, bs) == []
        _, lanes = replay(plan, bs)
        assert len(lanes) == len(plan.stages)
        assert [peak_in_flight(lane) for lane in lanes] == [plan.microbatches] * len(lanes)


def test_corpus_covers_pipelines():
    """The corpus holds multi-stage plans with several microbatches, where
    the peak is neither 1 nor the stage count."""
    shapes = {(len(plan.stages) > 1, plan.microbatches > 1)
              for seed in range(40) for plan in corpus_plans(seed)[1]}
    assert (True, True) in shapes
