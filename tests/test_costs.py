import math
import random

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import BlockSet
from pipecut.costs import (
    CostModel,
    CostModelConfig,
    CostTableEntry,
    comm_time,
    load_cost_table,
    op_signature,
)
from pipecut.generators import gen_bert_like
from pipecut.graph import ClusterSpec, ParseError, TaskGraph

from helpers import chain_graph, random_layered_graph, task, value

CLUSTER = ClusterSpec(
    num_nodes=2,
    devices_per_node=2,
    device_memory_bytes=16 * 2**30,
    bw_intra=50e9,
    bw_inter=10e9,
)


def single_task_graph(flops, out_per_sample=4.0, param_bytes=0):
    nodes = [value("x", per_sample=4.0), task("t", flops=flops),
             value("y", per_sample=out_per_sample)]
    edges = [("x", "t"), ("t", "y")]
    if param_bytes:
        nodes.append(value("w", fixed=param_bytes, param=True))
        edges.append(("w", "t"))
    return TaskGraph(nodes=nodes, edges=edges, inputs=("x",), outputs=("y",))


class TestProfileArithmetic:
    def test_flops_scaling_exact(self):
        g = single_task_graph(2e12)
        p = build_atomic_subcomponents(g)
        cfg = CostModelConfig(device_flops_per_sec=1e12, bwd_fwd_ratio=2.0)
        rec = CostModel(g, cfg, CLUSTER).profile(p.atoms[0], 1)
        assert rec.t_fwd_sec == 2.0
        assert rec.t_bwd_sec == 4.0

    def test_time_linear_in_microbatch(self):
        g = single_task_graph(3e11)
        p = build_atomic_subcomponents(g)
        model = CostModel(g, CostModelConfig(device_flops_per_sec=1e12), CLUSTER)
        assert model.profile(p.atoms[0], 8).t_fwd_sec == pytest.approx(
            8 * model.profile(p.atoms[0], 1).t_fwd_sec)

    def test_adam_factors_give_16gb_per_4gb_of_weights(self):
        # 1e9 fp32 parameters, no activations: weights + grads + 2x optimizer state.
        nodes = [value("x", per_sample=0.0), task("t", flops=1.0),
                 value("y", per_sample=0.0),
                 value("w", fixed=4_000_000_000, param=True)]
        g = TaskGraph(nodes=nodes, edges=[("x", "t"), ("w", "t"), ("t", "y")],
                      inputs=("x",), outputs=("y",))
        p = build_atomic_subcomponents(g)
        rec = CostModel(g, CostModelConfig(), CLUSTER).profile(p.atoms[0], 4)
        assert rec.mem_bytes == 16_000_000_000

    def test_memory_counts_inputs_and_activations(self):
        g = single_task_graph(1.0, out_per_sample=16.0)
        p = build_atomic_subcomponents(g)
        rec = CostModel(g, CostModelConfig(), CLUSTER).profile(p.atoms[0], 2)
        # input 4 B/sample + produced 16 B/sample at microbatch 2
        assert rec.mem_bytes == 2 * 4 + 2 * 16

    def test_zero_microbatch_allowed(self):
        g = single_task_graph(1e12, param_bytes=400)
        p = build_atomic_subcomponents(g)
        rec = CostModel(g, CostModelConfig(), CLUSTER).profile(p.atoms[0], 0)
        assert rec.t_fwd_sec == 0.0
        assert rec.mem_bytes == 400 * 4

    def test_negative_microbatch_rejected(self):
        g = single_task_graph(1.0)
        p = build_atomic_subcomponents(g)
        with pytest.raises(ValueError):
            CostModel(g, CostModelConfig(), CLUSTER).profile(p.atoms[0], -1)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            CostModelConfig(device_flops_per_sec=0)
        with pytest.raises(ValueError):
            CostModelConfig(bwd_fwd_ratio=-1)


class TestCommTime:
    def test_latency_plus_transfer(self):
        assert comm_time(10**9, 10**9, latency=0.5) == 1.5

    def test_zero_bytes_costs_latency_only(self):
        cluster = ClusterSpec(num_nodes=1, devices_per_node=4,
                              device_memory_bytes=1, bw_intra=1e9, bw_inter=1e9,
                              link_latency_sec=2e-5)
        model = CostModel(chain_graph(2), CostModelConfig(), cluster)
        assert model.comm_time(0) == 2e-5
        assert model.comm_time(0, inter_node=True) == 2e-5

    def test_inter_node_is_slower(self):
        model = CostModel(chain_graph(2), CostModelConfig(), CLUSTER)
        assert model.comm_time(10**9, inter_node=True) > model.comm_time(10**9)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            comm_time(1, 0.0)


def blockset_of(g, *groups):
    """BlockSet whose blocks are the given atom-index groups, in order."""
    p = build_atomic_subcomponents(g)
    model = CostModel(p.graph, CostModelConfig(), CLUSTER)
    groups = tuple(tuple(grp) for grp in groups)
    return BlockSet(p, model, groups)


def two_way_cut(g, a, b, microbatch):
    """Bytes of values one side writes and the other reads, both ways."""
    total = 0
    for src, dst in ((a, b), (b, a)):
        for vid in src.output_values:
            if any(c in dst.node_ids for c in g.consumers(vid)):
                total += g.value_size(vid, microbatch)
    return total


class TestCutBytes:
    def test_chain_boundary(self):
        bs = blockset_of(chain_graph(2, per_sample=4096.0), [0], [1])
        assert bs.boundary_bytes(1, 8) == 8 * 4096

    def test_symmetry(self):
        # a DAG's blocks only send forward, so the one-way boundary equals
        # the bytes crossing in either direction
        g = chain_graph(4)
        bs = blockset_of(g, [0, 1], [2, 3])
        assert bs.boundary_bytes(1, 3) == two_way_cut(g, *bs.blocks, 3) == 3 * 4

    def test_nonadjacent_is_zero(self):
        # atoms 0 and 2 share nothing: the cut after atom 1 carries only v01
        g = chain_graph(3)
        bs = blockset_of(g, [0], [1], [2])
        assert bs.boundary_bytes(2, 5) == 5 * 4
        assert bs.boundary_bytes(0, 5) == bs.boundary_bytes(3, 5) == 0

    def test_forwarded_model_input_counts(self):
        # x feeds both tasks; the atom owning x must ship it to the other.
        nodes = [value("x", per_sample=8.0),
                 task("ta", flops=1.0), value("va", per_sample=4.0),
                 task("tb", flops=1.0), value("vb", per_sample=4.0)]
        edges = [("x", "ta"), ("ta", "va"), ("x", "tb"), ("va", "tb"), ("tb", "vb")]
        g = TaskGraph(nodes=nodes, edges=edges, inputs=("x",), outputs=("vb",))
        bs = blockset_of(g, [0], [1])
        # cut carries va plus the forwarded input x
        assert bs.boundary_bytes(1, 2) == 2 * 4 + 2 * 8


class TestCostTable:
    def test_override_wins_over_flops(self, tmp_path):
        g = single_task_graph(2e12)
        sig = op_signature(g.nodes["t"].task, 4)
        path = tmp_path / "table.json"
        path.write_text('{"%s": {"microbatch": 4, "t_fwd": 0.125, "t_bwd": 0.5}}' % sig)
        table = load_cost_table(str(path))
        assert table[sig] == CostTableEntry(microbatch=4, t_fwd=0.125, t_bwd=0.5)
        p = build_atomic_subcomponents(g)
        cfg = CostModelConfig(device_flops_per_sec=1e12, cost_table=table)
        model = CostModel(g, cfg, CLUSTER)
        rec = model.profile(p.atoms[0], 4)
        assert rec.t_fwd_sec == 0.125
        assert rec.t_bwd_sec == 0.5
        # other microbatch sizes miss the table and fall back to the analytic path
        assert model.profile(p.atoms[0], 2).t_fwd_sec == 4.0

    def test_partial_entry_uses_ratio_and_act_override(self, tmp_path):
        g = single_task_graph(1e12, out_per_sample=100.0)
        sig = op_signature(g.nodes["t"].task, 1)
        path = tmp_path / "table.json"
        path.write_text('{"%s": {"microbatch": 1, "t_fwd": 0.25, "act_bytes": 7}}' % sig)
        cfg = CostModelConfig(device_flops_per_sec=1e12, bwd_fwd_ratio=3.0,
                              cost_table=load_cost_table(str(path)))
        p = build_atomic_subcomponents(g)
        rec = CostModel(g, cfg, CLUSTER).profile(p.atoms[0], 1)
        assert rec.t_bwd_sec == 0.75
        assert rec.mem_bytes == 4 + 7  # input plus overridden activation bytes

    def test_malformed_table_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"sig": {"microbatch": 1, "t_fwd": 1.0, "speed": 3}}')
        with pytest.raises(ParseError):
            load_cost_table(str(path))
        path.write_text('{"sig": {"microbatch": 1}}')
        with pytest.raises(ParseError):
            load_cost_table(str(path))
        path.write_text('[1, 2]')
        with pytest.raises(ParseError):
            load_cost_table(str(path))

    def test_signature_distinguishes_shape_attrs(self):
        a = task("a", flops=1.0, attrs={"h": 1024}).task
        b = task("b", flops=1.0, attrs={"h": 2048}).task
        assert op_signature(a, 1) != op_signature(b, 1)
        assert op_signature(a, 1) != op_signature(a, 2)


def _random_partitions(seed, n=12):
    rng = random.Random(seed)
    for _ in range(n):
        g = random_layered_graph(rng)
        yield g, build_atomic_subcomponents(g)


class TestProperties:
    def test_monotone_in_microbatch(self):
        for g, p in _random_partitions(11):
            model = CostModel(g, CostModelConfig(), CLUSTER)
            whole = p.merged(range(len(p.atoms)), "all")
            for ckpt in (False, True):
                lo = model.profile(whole, 2, checkpointing=ckpt)
                hi = model.profile(whole, 5, checkpointing=ckpt)
                assert hi.t_fwd_sec >= lo.t_fwd_sec
                assert hi.t_bwd_sec >= lo.t_bwd_sec
                assert hi.mem_bytes >= lo.mem_bytes

    def test_time_additive_over_disjoint_split(self):
        for g, p in _random_partitions(13):
            n = len(p.atoms)
            if n < 2:
                continue
            cut = n // 2
            model = CostModel(g, CostModelConfig(), CLUSTER)
            left = model.profile(p.merged(range(cut), "l"), 3)
            right = model.profile(p.merged(range(cut, n), "r"), 3)
            whole = model.profile(p.merged(range(n), "w"), 3)
            assert math.isclose(left.t_fwd_sec + right.t_fwd_sec, whole.t_fwd_sec,
                                rel_tol=1e-12)
            assert math.isclose(left.t_bwd_sec + right.t_bwd_sec, whole.t_bwd_sec,
                                rel_tol=1e-12)

    def test_checkpointing_never_costs_more_memory(self):
        for g, p in _random_partitions(17):
            model = CostModel(g, CostModelConfig(), CLUSTER)
            for sub in p.atoms:
                on = model.profile(sub, 4, checkpointing=True)
                off = model.profile(sub, 4, checkpointing=False)
                assert on.mem_bytes <= off.mem_bytes
            whole = p.merged(range(len(p.atoms)), "w")
            assert (model.profile(whole, 4, checkpointing=True).mem_bytes
                    <= model.profile(whole, 4, checkpointing=False).mem_bytes)

    def test_memory_at_least_param_state(self):
        cfg = CostModelConfig()
        factor = 1.0 + cfg.grad_factor + cfg.optimizer_state_factor
        for g, p in _random_partitions(19):
            model = CostModel(g, cfg, CLUSTER)
            for sub in p.atoms:
                params = sum(
                    g.nodes[n].value.fixed_bytes for n in sub.node_ids
                    if g.nodes[n].is_value and g.nodes[n].value.is_param)
                assert model.profile(sub, 1).mem_bytes >= factor * params

    def test_cut_symmetry_random(self):
        for g, p in _random_partitions(23, n=6):
            n = len(p.atoms)
            if n < 2:
                continue
            bs = blockset_of(g, range(n // 2), range(n // 2, n))
            assert bs.boundary_bytes(1, 2) == two_way_cut(g, *bs.blocks, 2)

    def test_deterministic(self):
        p = build_atomic_subcomponents(gen_bert_like(64, 2, 16, 100))
        model = CostModel(p.graph, CostModelConfig(), CLUSTER)
        whole = p.merged(range(len(p.atoms)), "w")
        first = model.profile(whole, 4)
        assert all(model.profile(whole, 4) == first for _ in range(3))
