"""Stage search answers every stage count of a microbatch count from one DP
pass, and composes each span profile once per block set.

`form_stage` must return exactly the plan of the plain loop written out in
`reference_form_stage`: one single-stage-count DP (`form_stage_dp`) per
(widening level, stage count, microbatch count), every candidate checked,
then ranked by replayed time, objective and microbatch count.
"""

import random

import pytest

import pipecut.blocks as blocks_mod
from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import BlockSet, CompactionStuck, InfeasibleAtom, partition_blocks
from pipecut.costs import CostModel, CostModelConfig, CostRecord
from pipecut.generators import gen_bert_like
from pipecut.graph import ClusterSpec
from pipecut.simulate import simulate
from pipecut.stages import (
    SearchOptions,
    SearchStats,
    _run_pass,
    form_stage,
    form_stage_dp,
    replay,
    validate_plan,
)

from helpers import random_layered_graph
from test_shared_rules import rich_graph
from test_stages import blockset_for


def reference_form_stage(num_nodes, devices_per_node, batch_size, blocks, options):
    """The search as one DP per (level, S, MB), candidates in (S, MB) order."""
    n = 1
    while n <= num_nodes:
        if num_nodes % n == 0:
            D = devices_per_node * n
            R = num_nodes // n
            candidates = []
            for S in range(devices_per_node * (n - 1) + 1, min(D, len(blocks)) + 1):
                MB = 1
                while MB * R <= batch_size:
                    plan = form_stage_dp(blocks, S, D, batch_size, R, MB, options).plan
                    if plan is not None:
                        candidates.append(plan)
                    MB *= 2
            if candidates:
                def rank(p):
                    assert validate_plan(p, blocks) == []
                    return (replay(p, blocks)[0], p.objective, p.microbatches)

                return min(candidates, key=rank)
        n *= 2
    return None


def random_case(rng):
    """A block set of a random layered or rich graph on a random cluster,
    with a loose or a tight memory budget, and a batch size."""
    while True:
        g = (random_layered_graph(rng, n_layers=rng.randint(3, 8))
             if rng.random() < 0.5 else rich_graph(rng))
        p = build_atomic_subcomponents(g)
        nodes = rng.choice([1, 2, 4])
        dpn = rng.randint(1, 4)
        ckpt = rng.random() < 0.5
        config = CostModelConfig(device_flops_per_sec=1e6, checkpointing=ckpt)
        k = rng.randint(2, 8)
        batch = rng.choice([1, 4, 8, 16, 32])
        bw_inter = rng.choice([1e5, 1e6])

        def build(mem):
            cluster = ClusterSpec(nodes, dpn, mem, 4 * bw_inter, bw_inter,
                                  rng.choice([0.0, 1e-4]))
            return partition_blocks(p, CostModel(p.graph, config, cluster), k)

        bs = build(2**50)
        tight = rng.random() < 0.5
        if tight:
            # between the largest block and the whole model at full batch,
            # so some stage splits fit and others do not; or between the
            # whole model with and without checkpointing at one share, so
            # a single stage fits only in the pass that checkpoints
            low = max(rec.mem_bytes for rec in bs.costs)
            high = bs.profile(0, len(bs), batch, False).mem_bytes
            if rng.random() < 0.5:
                m = rng.randint(1, batch)
                low = bs.profile(0, len(bs), m, True).mem_bytes
                high = bs.profile(0, len(bs), m, False).mem_bytes
            try:
                bs = build(int(low + rng.random() * (high - low)) + 1)
            except (InfeasibleAtom, CompactionStuck):
                continue
        return bs, nodes, dpn, batch, tight


class TestAgainstPerStageCountSearch:
    def test_form_stage_equals_reference(self):
        rng = random.Random(2024)
        seen = {"multi-stage": 0, "single with ckpt": 0, "tight": 0, "infeasible": 0}
        for _ in range(150):
            bs, nodes, dpn, batch, tight = random_case(rng)
            opts = SearchOptions(disable_pruning=rng.random() < 0.5)
            got = form_stage(batch, bs, opts).plan
            want = reference_form_stage(nodes, dpn, batch, bs, opts)
            assert got == want
            if want is None:
                seen["infeasible"] += 1
                continue
            seen["multi-stage"] += len(want.stages) > 1
            seen["single with ckpt"] += (len(want.stages) == 1
                                         and bs.model.config.checkpointing)
            seen["tight"] += tight
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize("seed", range(3))
    def test_one_pass_equals_one_dp_per_stage_count(self, seed):
        # every stage count of the range reads the plan a DP for it alone
        # returns; with pruning off, row s visits b <= nb - g and d <= D - g
        # for g = max(S_lo - s, 0), each cell charging (b-s+1)(d-s+1)
        rng = random.Random(seed)
        for _ in range(20):
            bs, nodes, dpn, batch, _ = random_case(rng)
            nb, D = len(bs), nodes * dpn
            if min(nb, D) < 2:
                continue
            S_hi = rng.randint(2, min(nb, D))
            S_lo = rng.randint(2 if bs.model.config.checkpointing else 1, S_hi)
            MB = rng.choice([1, 2])
            batch = max(batch, MB * D)
            stats = SearchStats()
            plans = _run_pass(bs, S_lo, S_hi, D, batch, 1, MB,
                              SearchOptions(disable_pruning=True), stats)
            for S in range(S_lo, S_hi + 1):
                assert plans.get(S) == form_stage_dp(bs, S, D, batch, 1, MB).plan
            want = sum((b - s + 1) * (d - s + 1)
                       for s in range(1, S_hi + 1)
                       for b in range(s, nb - max(S_lo - s, 0) + 1)
                       for d in range(s, D - max(S_lo - s, 0) + 1))
            assert (stats.visits, stats.dp_calls) == (want, 1)


class TestProfileMemo:
    def test_search_check_and_replay_compose_each_key_once(self, monkeypatch):
        bs = blockset_for(gen_bert_like(64, 3, 16, 100), nodes=2, dpn=2, ckpt=True)
        requested: set[tuple] = set()
        composed = 0
        real_profile = BlockSet.profile

        def profiling(self, lo, hi, microbatch, ckpt):
            requested.add((lo, hi, microbatch, ckpt))
            return real_profile(self, lo, hi, microbatch, ckpt)

        def record(**fields):
            nonlocal composed
            composed += 1
            return CostRecord(**fields)

        monkeypatch.setattr(BlockSet, "profile", profiling)
        monkeypatch.setattr(blocks_mod, "CostRecord", record)
        plan = form_stage(16, bs).plan
        assert plan is not None
        assert validate_plan(plan, bs) == []
        simulate(plan, bs)
        assert requested and composed == len(requested)

    def test_checkpointing_is_part_of_the_key(self):
        bs = blockset_for(gen_bert_like(64, 3, 16, 100), nodes=2, dpn=2)
        lo, hi, m = 0, len(bs), 4
        on = bs.profile(lo, hi, m, True)
        off = bs.profile(lo, hi, m, False)
        assert on != off
        assert on == bs.model.profile(bs.span(lo, hi), m, checkpointing=True)
        assert off == bs.model.profile(bs.span(lo, hi), m, checkpointing=False)
