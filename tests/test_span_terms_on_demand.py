"""Span terms cost each distinct task key once per microbatch size, and build
the checkpointing working sets only when a span first asks for them.

A task's key is its op signature and FLOPs, the pair that fixes
`CostModel.task_cost` at every microbatch. Stage search with checkpointing
off never reads a working set, so it must build none.
"""

import itertools

import pytest

from pipecut import blocks
from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import _SpanTerms, partition_blocks
from pipecut.cli import main
from pipecut.costs import CostModel, CostModelConfig, op_signature
from pipecut.generators import gen_bert_like
from pipecut.graph import ClusterSpec
from pipecut.simulate import simulate
from pipecut.stages import form_stage, validate_plan

from test_cli import write_cluster
from test_span_classes import blocks_of, cost_table, repeated_chain

# 1.5 MiB devices: the bert graph below needs several stages
TIGHT = ClusterSpec(num_nodes=2, devices_per_node=2, device_memory_bytes=1572864,
                    bw_intra=50e9, bw_inter=10e9)


def built_terms(monkeypatch) -> list[_SpanTerms]:
    """Wrap `_SpanTerms.__init__`; returns the list each new instance is
    added to."""
    built: list[_SpanTerms] = []
    real = _SpanTerms.__init__

    def keeping(self, blocks, microbatch):
        real(self, blocks, microbatch)
        built.append(self)

    monkeypatch.setattr(_SpanTerms, "__init__", keeping)
    return built


def working_sets(built: list[_SpanTerms]) -> list[bool]:
    """Per instance, whether it built its working-set terms."""
    assert built
    return [terms.peak is not None for terms in built]


class TestWorkingSetsOnDemand:
    @pytest.mark.parametrize("ckpt", [False, True])
    def test_search_builds_them_only_with_checkpointing(self, ckpt, monkeypatch):
        p = build_atomic_subcomponents(gen_bert_like(64, 4, 16, 100))
        bs = partition_blocks(p, CostModel(p.graph, CostModelConfig(checkpointing=ckpt), TIGHT), 8)
        built = built_terms(monkeypatch)
        plan = form_stage(16, bs).plan
        assert len(plan.stages) > 1
        assert validate_plan(plan, bs) == []
        simulate(plan, bs)
        assert any(working_sets(built)) == ckpt

    @pytest.mark.parametrize("ckpt", ["off", "on"])
    def test_sweep_builds_them_only_with_checkpointing(self, ckpt, tmp_path, monkeypatch):
        cluster = write_cluster(tmp_path / "cluster.json", nodes=2, dpn=2, mem=1572864)
        built = built_terms(monkeypatch)
        assert main(["sweep", "--cluster", cluster, "--hidden", "64", "--layers", "2,4",
                     "--seq", "16", "--vocab", "100", "--batch-size", "8", "--k", "8",
                     "--checkpointing", ckpt, "--out", str(tmp_path)]) == 0
        assert any(working_sets(built)) == (ckpt == "on")

    def test_built_once_per_microbatch_size(self, monkeypatch):
        bs = blocks_of(repeated_chain(), CostModelConfig(cost_table=cost_table()), 7)
        built = []
        real = blocks._working_terms

        def counting(shapes, acts, m):
            built.append(m)
            return real(shapes, acts, m)

        monkeypatch.setattr(blocks, "_working_terms", counting)
        n = len(bs)
        for m in (1, 2, 3):
            for lo, hi in itertools.combinations(range(n + 1), 2):
                bs.profile(lo, hi, m, False)
            assert built.count(m) == 0
            for lo, hi in itertools.combinations(range(n + 1), 2):
                bs.profile(lo, hi, m, True)
            assert built.count(m) == n  # one term list per block


class TestTaskCostPerKey:
    def test_each_new_microbatch_costs_each_key_once(self, monkeypatch):
        """Under a cost table whose `add` entry sets activation bytes at
        microbatch 2, every span's record equals `CostModel.profile`, and
        each microbatch size calls `task_cost` once per distinct key."""
        bs = blocks_of(repeated_chain(),
                       CostModelConfig(device_flops_per_sec=1.0, cost_table=cost_table()), 3)
        g = bs.partition.graph
        keys = {(op_signature(g.nodes[t].task, 0), g.nodes[t].task.flops_per_sample)
                for t in g.task_ids()}
        assert len(keys) == 5 and len(g.task_ids()) == 20
        calls = []
        real = CostModel.task_cost

        def counting(self, info, microbatch):
            calls.append((op_signature(info, 0), info.flops_per_sample, microbatch))
            return real(self, info, microbatch)

        monkeypatch.setattr(CostModel, "task_cost", counting)
        n = len(bs)
        for m in (1, 2, 3, 8):
            calls.clear()
            for (lo, hi), ckpt in itertools.product(
                    itertools.combinations(range(n + 1), 2), (False, True)):
                bs.profile(lo, hi, m, ckpt)
            assert sorted(calls) == sorted((sig, flops, m) for sig, flops in keys)
        monkeypatch.undo()
        for (lo, hi), m, ckpt in itertools.product(
                itertools.combinations(range(n + 1), 2), (1, 2, 3, 8), (False, True)):
            fresh = bs.model.profile(bs.span(lo, hi), m, checkpointing=ckpt)
            assert bs.profile(lo, hi, m, ckpt) == fresh
