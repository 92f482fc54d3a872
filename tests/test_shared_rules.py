"""One definition per stage rule: memory fit, span profiles, stage memory."""

import random

import pytest

from pipecut.costs import CostModel
from pipecut.generators import gen_bert_like
from pipecut.simulate import simulate
from pipecut.stages import (
    brute_force_partition,
    form_stage,
    form_stage_dp,
    validate_plan,
)

from helpers import random_layered_graph
from test_stages import blockset_for, stage_chain


class TestMemoryFit:
    def test_stage_needing_exactly_the_budget_does_not_fit(self):
        g = stage_chain([1.0, 1.0], sizes=[1000, 1000])
        plan = form_stage_dp(blockset_for(g), 1, 1, 8, 1, 1).plan
        need = plan.stages[0].mem

        exact = blockset_for(g, mem=need)
        assert form_stage_dp(exact, 1, 1, 8, 1, 1).plan is None
        assert brute_force_partition(exact, 1, 1, 8, 1, 1).plan is None
        assert {v.kind for v in validate_plan(plan, exact)} == {"memory"}

        roomy = blockset_for(g, mem=need + 1)
        assert form_stage_dp(roomy, 1, 1, 8, 1, 1).plan == plan
        assert brute_force_partition(roomy, 1, 1, 8, 1, 1).plan == plan
        assert validate_plan(plan, roomy) == []


class TestSpanProfileCache:
    @pytest.mark.parametrize("seed", range(4))
    def test_memoized_profile_matches_cost_model(self, seed):
        rng = random.Random(seed)
        bs = blockset_for(random_layered_graph(rng, n_layers=6))
        nb = len(bs)
        for _ in range(30):
            lo = rng.randrange(nb)
            hi = rng.randint(lo + 1, nb)
            m = rng.choice([1, 2, 3, 8, 64])
            ckpt = rng.random() < 0.5
            fresh = bs.model.profile(bs.span(lo, hi), m, checkpointing=ckpt)
            assert bs.profile(lo, hi, m, ckpt) == fresh
            assert bs.profile(lo, hi, m, ckpt) == fresh

    def test_search_check_and_replay_profile_each_span_once(self, monkeypatch):
        bs = blockset_for(gen_bert_like(64, 3, 16, 100), nodes=2, dpn=2)
        seen: list[tuple] = []
        real = CostModel.profile

        def counting(self, sub, microbatch, checkpointing=None):
            seen.append((sub.node_ids, microbatch, checkpointing))
            return real(self, sub, microbatch, checkpointing=checkpointing)

        monkeypatch.setattr(CostModel, "profile", counting)
        plan = form_stage(2, 2, 16, bs).plan
        assert plan is not None
        assert validate_plan(plan, bs) == []
        simulate(plan, bs)
        assert seen
        assert len(seen) == len(set(seen))


class TestStageMemory:
    """Stage memory charges one microbatch slice, not the slices in flight."""

    @pytest.mark.parametrize("MB", [1, 4])
    @pytest.mark.parametrize("ckpt", [False, True])
    def test_two_stage_chain_closed_form(self, MB, ckpt):
        # three tasks per stage; the middle value is small, so keeping every
        # value (210 B per sample) differs from the worst task's working set
        # plus nothing else (110 B per sample)
        sizes = [100, 10, 100, 100, 10, 100]
        g = stage_chain([1.0] * 6, sizes=sizes, params=[1000, 0, 0, 0, 0, 3000],
                        x_bytes=7)
        bs = blockset_for(g, dpn=2, ckpt=ckpt)
        m = 2
        plan = form_stage_dp(bs, 2, 2, m * MB, 1, MB).plan
        assert [st.blocks for st in plan.stages] == [(0, 3), (3, 6)]

        acts = 110 if ckpt else 210
        # parameters carry gradient and two optimizer states: 4x their bytes
        expected = [4 * 1000 + m * (7 + acts), 4 * 3000 + m * (100 + acts)]
        assert [st.mem for st in plan.stages] == expected
        for st in plan.stages:
            rec = bs.model.profile(bs.span(*st.blocks), m, checkpointing=ckpt)
            assert st.mem == rec.mem_bytes
