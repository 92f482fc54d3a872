"""Span terms are built once per distinct task class: a block's tasks that
add the same terms at every microbatch are costed once and counted."""

import itertools

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import _SpanTerms, partition_blocks
from pipecut.costs import CostModel, CostModelConfig, CostTableEntry, op_signature
from pipecut.generators import gen_bert_like
from pipecut.graph import ClusterSpec, TaskGraph, TaskInfo

from helpers import task, value

BIG = ClusterSpec(num_nodes=1, devices_per_node=4, device_memory_bytes=2**50,
                  bw_intra=50e9, bw_inter=10e9)

# op, flops, attrs of each task in the chain, repeated so blocks hold several
# tasks of one class: `mm` with one signature but two FLOP counts, `gelu` with
# attrs {"n": 1} and {"n": 1.0}, which compare equal but render apart, and
# `add`, whose cost-table entry overrides its activation bytes
PATTERN = [("mm", 10.0, {"h": 2}), ("mm", 20.0, {"h": 2}),
           ("gelu", 5.0, {"n": 1}), ("gelu", 5.0, {"n": 1.0}),
           ("add", 1.0, {})]


def repeated_chain(repeats=4) -> TaskGraph:
    """x -> t000 -> v000 -> t001 -> ... with every value the same size."""
    nodes = [value("x", per_sample=8)]
    edges = []
    prev = "x"
    for i, (op, flops, attrs) in enumerate(PATTERN * repeats):
        tid, vid = f"t{i:03d}", f"v{i:03d}"
        nodes += [task(tid, op=op, flops=flops, attrs=attrs),
                  value(vid, fixed=16, per_sample=8)]
        edges += [(prev, tid), (tid, vid)]
        if i % 3 == 0:
            nodes.append(value(f"{tid}.w", fixed=64, param=True))
            edges.append((f"{tid}.w", tid))
        prev = vid
    return TaskGraph(nodes, edges, ["x"], [prev])


def cost_table() -> dict[str, CostTableEntry]:
    """Entries for `mm` at microbatch 1 only, so its two FLOP counts cost
    alike there and apart elsewhere; for `gelu` {"n": 1} but not {"n": 1.0};
    and an `add` entry at microbatch 2 that sets its activation bytes."""
    table = {}
    mm = TaskInfo("mm", 10.0, {"h": 2})
    table[op_signature(mm, 1)] = CostTableEntry(1, t_fwd=3.0)
    gelu = TaskInfo("gelu", 5.0, {"n": 1})
    for m in (1, 2, 3, 8):
        table[op_signature(gelu, m)] = CostTableEntry(m, t_fwd=0.1 * m, t_bwd=0.7)
    add = TaskInfo("add", 1.0, {})
    table[op_signature(add, 2)] = CostTableEntry(2, t_fwd=0.5, act_bytes=1000)
    return table


def blocks_of(g, cfg, k):
    p = build_atomic_subcomponents(g)
    return partition_blocks(p, CostModel(p.graph, cfg, BIG), k=k)


class TestClassesKeepProfiles:
    def test_blocks_hold_repeated_classes(self):
        bs = blocks_of(repeated_chain(), CostModelConfig(), k=2)
        g = bs.partition.graph
        for sub, classes in zip(bs.blocks, bs._task_classes):
            infos = [g.nodes[nid].task for nid in sub.node_ids if g.nodes[nid].is_task]
            assert sum(count for _, count in classes) == len(infos)
            assert len(classes) < len(infos)
            # gelu {"n": 1} and {"n": 1.0} are equal TaskInfos but stay apart
            kinds = {(op_signature(info, 0), info.flops_per_sample) for info in infos}
            assert {(op_signature(shape.info, 0), shape.info.flops_per_sample)
                    for shape, _ in classes} == kinds

    def test_profile_equals_cost_model_under_a_cost_table(self):
        for k, table in itertools.product((1, 2, 3, 7), (None, cost_table())):
            bs = blocks_of(repeated_chain(),
                           CostModelConfig(device_flops_per_sec=1.0, cost_table=table), k)
            n = len(bs)
            for lo, m, ckpt in itertools.product(range(n), (1, 2, 3, 8), (True, False)):
                for hi in range(lo + 1, n + 1):
                    fresh = bs.model.profile(bs.span(lo, hi), m, checkpointing=ckpt)
                    assert bs.profile(lo, hi, m, ckpt) == fresh, (k, lo, hi, m, ckpt)


class TestTaskCostCalls:
    def test_partition_coarsen_graph_costs_each_class_once(self, monkeypatch):
        """bert 2048x256 in 8 blocks: 2564 tasks, 90 classes, 11 distinct
        (op signature, FLOPs) keys, each costed once per microbatch size."""
        g = gen_bert_like(2048, 256, 512, 30522)
        cluster = ClusterSpec(num_nodes=1, devices_per_node=4,
                              device_memory_bytes=80 * 10**9, bw_intra=50e9, bw_inter=10e9)
        p = build_atomic_subcomponents(g)
        bs = partition_blocks(p, CostModel(p.graph, CostModelConfig(), cluster), k=8)
        assert len(bs) == 8 and len(p.graph.task_ids()) == 2564
        calls = []
        real = CostModel.task_cost

        def counting(self, info, microbatch):
            calls.append(microbatch)
            return real(self, info, microbatch)

        monkeypatch.setattr(CostModel, "task_cost", counting)
        for m in (1, 3, 32):
            calls.clear()
            _SpanTerms(bs, m)
            assert calls == [m] * 11
