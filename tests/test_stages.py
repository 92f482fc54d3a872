import random

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import InfeasibleAtom, partition_blocks
from pipecut.costs import CostModel, CostModelConfig
from pipecut.graph import ClusterSpec, ParseError, TaskGraph
from pipecut.stages import (
    InvalidArgs,
    Plan,
    SearchBudgetExceeded,
    SearchOptions,
    TooLarge,
    brute_force_partition,
    form_stage,
    form_stage_dp,
    validate_plan,
)

from helpers import task, value


def stage_chain(flops, sizes=None, params=None, x_bytes=0):
    """Chain with one task per entry; boundary sizes and weights as given."""
    n = len(flops)
    sizes = sizes or [0] * n
    params = params or [0] * n
    nodes = [value("x", per_sample=x_bytes)]
    edges = []
    prev = "x"
    for i in range(n):
        tid, vid = f"t{i:02d}", f"v{i:02d}"
        nodes += [task(tid, flops=flops[i]), value(vid, per_sample=sizes[i])]
        edges += [(prev, tid), (tid, vid)]
        if params[i]:
            wid = f"w{i:02d}"
            nodes.append(value(wid, fixed=params[i], param=True))
            edges.append((wid, tid))
        prev = vid
    return TaskGraph(nodes, edges, ["x"], [prev])


def blockset_for(graph, *, mem=2**40, nodes=1, dpn=4, bw=(1e12, 1e12),
                 latency=0.0, ckpt=False):
    """One block per task; unit device speed makes flops read as seconds."""
    cluster = ClusterSpec(num_nodes=nodes, devices_per_node=dpn,
                          device_memory_bytes=mem, bw_intra=bw[0],
                          bw_inter=bw[1], link_latency_sec=latency)
    p = build_atomic_subcomponents(graph)
    cfg = CostModelConfig(device_flops_per_sec=1.0, checkpointing=ckpt)
    model = CostModel(p.graph, cfg, cluster)
    return partition_blocks(p, model, k=10**6)


class TestKnownOptima:
    def test_two_equal_blocks_split_evenly(self):
        bs = blockset_for(stage_chain([1.0, 1.0]))
        plan = form_stage_dp(bs, 2, 2, 1, 1, 1).plan
        assert plan is not None
        assert plan.objective == 3.0
        assert [st.blocks for st in plan.stages] == [(0, 1), (1, 2)]
        assert [st.devices for st in plan.stages] == [1, 1]
        assert [st.replicas for st in plan.stages] == [1, 1]

    def test_front_heavy_chain_cuts_after_first(self):
        bs = blockset_for(stage_chain([3.0, 1.0, 1.0, 1.0]))
        plan = form_stage_dp(bs, 2, 2, 1, 1, 1).plan
        assert plan.objective == 9.0
        assert [st.blocks for st in plan.stages] == [(0, 1), (1, 4)]

    def test_single_stage_scales_with_batch(self):
        bs = blockset_for(stage_chain([3.0, 1.0, 1.0, 1.0],
                                      params=[0, 0, 0, 128]))
        plan = form_stage_dp(bs, 1, 1, 2, 1, 1).plan
        assert plan.objective == 36.0
        assert plan.stages[0].t_fwd == 12.0
        assert plan.stages[0].mem == 128 * 4  # weights, gradients, optimizer

    def test_boundary_transfer_charged_to_both_sides(self):
        # 1000 B boundary at 1000 B/s: sender pays 1 s forward, 1 s backward
        bs = blockset_for(stage_chain([1.0, 1.0], sizes=[1000, 0]),
                          dpn=2, bw=(1000.0, 1000.0))
        plan = form_stage_dp(bs, 2, 2, 1, 1, 1).plan
        assert plan.objective == 5.0
        bf = brute_force_partition(bs, 2, 2, 1, 1, 1).plan
        assert bf.objective == 5.0

    def test_stage_memory_overflow_is_infeasible(self):
        bs = blockset_for(stage_chain([1.0, 1.0], sizes=[1000, 1000]),
                          mem=5000)
        res = form_stage_dp(bs, 1, 1, 8, 1, 1)
        assert res.plan is None
        assert res.stats.dp_calls == 1

    def test_checkpointing_needs_a_second_stage(self):
        # recompute cannot shrink a single stage, so only S=2 fits
        g = stage_chain([1.0] * 4, sizes=[1000] * 4)
        bs = blockset_for(g, mem=6000, ckpt=True)
        assert form_stage_dp(bs, 1, 2, 4, 1, 1).plan is None
        assert form_stage_dp(bs, 2, 2, 4, 1, 4).plan is not None

    def test_zero_sample_share_is_infeasible_not_an_error(self):
        bs = blockset_for(stage_chain([1.0, 1.0]))
        assert form_stage_dp(bs, 1, 2, 1, 1, 1).plan is None


class TestArguments:
    def test_rejects_more_stages_than_devices(self):
        bs = blockset_for(stage_chain([1.0, 1.0, 1.0]))
        with pytest.raises(InvalidArgs):
            form_stage_dp(bs, 3, 2, 4, 1, 1)

    def test_rejects_more_stages_than_blocks(self):
        bs = blockset_for(stage_chain([1.0, 1.0]))
        with pytest.raises(InvalidArgs):
            form_stage_dp(bs, 3, 4, 4, 1, 1)

    def test_rejects_nonpositive_counts(self):
        bs = blockset_for(stage_chain([1.0, 1.0]))
        for args in [(0, 2, 4, 1, 1), (1, 0, 4, 1, 1), (1, 2, 0, 1, 1),
                     (1, 2, 4, 0, 1), (1, 2, 4, 1, 0)]:
            with pytest.raises(InvalidArgs):
                form_stage_dp(bs, *args)

    def test_enumeration_guards(self):
        bs = blockset_for(stage_chain([1.0] * 13))
        with pytest.raises(TooLarge):
            brute_force_partition(bs, 2, 4, 8, 1, 1)
        small = blockset_for(stage_chain([1.0, 1.0]))
        with pytest.raises(TooLarge):
            brute_force_partition(small, 2, 9, 32, 1, 1)


class TestVisitAccounting:
    def test_exact_bulk_count(self):
        # cells (s=1, b, d) charge b*d pairs each: 1+2+2+4
        bs = blockset_for(stage_chain([1.0, 1.0]))
        res = form_stage_dp(bs, 1, 2, 4, 1, 1,
                            SearchOptions(disable_pruning=True))
        assert res.stats.visits == 9

    def test_budget_exceeded(self):
        bs = blockset_for(stage_chain([1.0] * 6))
        with pytest.raises(SearchBudgetExceeded) as exc:
            form_stage_dp(bs, 2, 4, 8, 1, 1, SearchOptions(visit_budget=3))
        assert exc.value.visits > 3
        assert exc.value.budget == 3

    def test_generous_budget_is_silent(self):
        bs = blockset_for(stage_chain([1.0] * 6))
        res = form_stage_dp(bs, 2, 4, 8, 1, 1,
                            SearchOptions(visit_budget=10**9))
        assert res.plan is not None


def random_instance(rng):
    n = rng.randint(2, 8)
    flops = [round(rng.uniform(0.5, 4.0), 3) for _ in range(n)]
    sizes = [rng.choice([0, 0, 64, 256, 1024]) for _ in range(n)]
    params = [rng.choice([0, 0, 0, 512, 2048]) for _ in range(n)]
    S = rng.randint(1, min(4, n))
    D = rng.randint(S, 6)
    R = rng.choice([1, 2])
    MB = rng.choice([1, 2, 4])
    BS = R * MB * D * rng.randint(1, 3)

    state = sum(p * 4 for p in params)
    acts = sum(sizes) * (BS // (MB * R)) + 64
    budget = rng.choice([2**40, max(int((state + acts) * rng.uniform(0.4, 1.1)), 64)])
    nodes_cfg = rng.choice([(1, 6), (2, 2), (2, 3)])
    graph = stage_chain(flops, sizes, params, x_bytes=rng.choice([0, 16]))
    while True:
        try:
            bs = blockset_for(graph, mem=budget, nodes=nodes_cfg[0],
                              dpn=nodes_cfg[1], bw=(1e3, 5e2),
                              latency=rng.choice([0.0, 0.01]),
                              ckpt=rng.random() < 0.5)
            break
        except InfeasibleAtom:
            budget *= 4
    return bs, S, D, BS, R, MB


class TestAgainstBruteForce:
    def test_objective_matches_exhaustive_search(self):
        rng = random.Random(1234)
        feasible = 0
        for _ in range(60):
            bs, S, D, BS, R, MB = random_instance(rng)
            dp = form_stage_dp(bs, S, D, BS, R, MB)
            bf = brute_force_partition(bs, S, D, BS, R, MB)
            if bf.plan is None:
                assert dp.plan is None
            else:
                assert dp.plan is not None
                assert dp.plan.objective == bf.plan.objective
                feasible += 1
        assert feasible >= 15

    def test_pruning_changes_nothing_but_work(self):
        rng = random.Random(99)
        strict = 0
        for _ in range(60):
            bs, S, D, BS, R, MB = random_instance(rng)
            on = form_stage_dp(bs, S, D, BS, R, MB)
            off = form_stage_dp(bs, S, D, BS, R, MB,
                                SearchOptions(disable_pruning=True))
            assert on.plan == off.plan
            assert on.stats.visits <= off.stats.visits
            if on.stats.visits < off.stats.visits:
                strict += 1
        assert strict >= 5

    def test_more_devices_never_hurt(self):
        rng = random.Random(7)
        for _ in range(25):
            bs, S, _, _, R, MB = random_instance(rng)
            if len(bs.blocks) < 2:
                continue
            S = 2
            BS = R * MB * 7 * 2  # every split keeps at least one sample
            prev = None
            for D in range(2, 7):
                plan = form_stage_dp(bs, S, D, BS, R, MB).plan
                if prev is not None:
                    assert plan is not None, "devices added, plan lost"
                    assert plan.objective <= prev + 1e-12
                if plan is not None:
                    prev = plan.objective

    def test_search_is_deterministic(self):
        rng1, rng2 = random.Random(5), random.Random(5)
        for _ in range(10):
            a = random_instance(rng1)
            b = random_instance(rng2)
            ra = form_stage_dp(a[0], *a[1:])
            rb = form_stage_dp(b[0], *b[1:])
            assert ra.plan == rb.plan
            assert ra.stats.visits == rb.stats.visits


class TestPlanJson:
    def roundtrip_plan(self):
        bs = blockset_for(stage_chain([3.0, 1.0, 1.0, 1.0]))
        return form_stage_dp(bs, 2, 3, 4, 1, 2).plan

    def test_roundtrip(self):
        plan = self.roundtrip_plan()
        assert Plan.from_json(plan.to_json()) == plan

    def test_json_shape(self):
        doc = self.roundtrip_plan().to_json()
        assert set(doc) == {"stages", "microbatches", "replica_factor",
                            "objective", "batch_size", "devices_total"}
        for st in doc["stages"]:
            assert set(st) == {"blocks", "devices", "replicas", "t_fwd",
                               "t_bwd", "mem"}
            assert len(st["blocks"]) == 2

    def test_rejects_malformed_documents(self):
        doc = self.roundtrip_plan().to_json()
        extra = dict(doc, note="hi")
        with pytest.raises(ParseError):
            Plan.from_json(extra)
        missing = {k: v for k, v in doc.items() if k != "objective"}
        with pytest.raises(ParseError):
            Plan.from_json(missing)
        bad_stage = dict(doc, stages=[{"blocks": [0, 1]}])
        with pytest.raises(ParseError):
            Plan.from_json(bad_stage)


class TestValidatePlan:
    def setup_plan(self, mem=2**40):
        g = stage_chain([3.0, 1.0, 1.0, 1.0], sizes=[64, 64, 64, 0],
                        params=[256, 0, 0, 256])
        bs = blockset_for(g, mem=mem, dpn=2, bw=(1e6, 1e6))
        return bs, form_stage_dp(bs, 2, 2, 4, 1, 1).plan

    def test_clean_plan_passes(self):
        bs, plan = self.setup_plan()
        assert validate_plan(plan, bs) == []

    def test_boundary_gap_detected(self):
        bs, plan = self.setup_plan()
        st = list(plan.stages)
        st[1] = st[1]._replace(blocks=(2, 4))
        bad = plan._replace(stages=tuple(st))
        kinds = {v.kind for v in validate_plan(bad, bs)}
        assert "boundary" in kinds

    def test_device_and_replica_mismatch_detected(self):
        bs, plan = self.setup_plan()
        st = list(plan.stages)
        st[0] = st[0]._replace(devices=0)
        kinds = {v.kind for v in
                 validate_plan(plan._replace(stages=tuple(st)), bs)}
        assert "devices" in kinds

        st = list(plan.stages)
        st[0] = st[0]._replace(replicas=5)
        kinds = {v.kind for v in
                 validate_plan(plan._replace(stages=tuple(st)), bs)}
        assert "replicas" in kinds

    def test_memory_overflow_detected(self):
        bs, plan = self.setup_plan()
        # above the single-atom floor, below what any stage of the plan needs
        tight_bs, _ = self.setup_plan(mem=1100)
        kinds = {v.kind for v in validate_plan(plan, tight_bs)}
        assert "memory" in kinds

    def test_stale_profile_detected(self):
        bs, plan = self.setup_plan()
        st = list(plan.stages)
        st[0] = st[0]._replace(t_fwd=st[0].t_fwd * 2)
        kinds = {v.kind for v in
                 validate_plan(plan._replace(stages=tuple(st)), bs)}
        assert "profile" in kinds

    def test_objective_mismatch_detected(self):
        bs, plan = self.setup_plan()
        bad = plan._replace(objective=plan.objective + 1)
        kinds = {v.kind for v in validate_plan(bad, bs)}
        assert "objective" in kinds

    def test_starved_stage_detected(self):
        bs, plan = self.setup_plan()
        bad = plan._replace(microbatches=64)
        kinds = {v.kind for v in validate_plan(bad, bs)}
        assert "microbatch" in kinds


class TestFormStage:
    def test_single_device_cluster(self):
        bs = blockset_for(stage_chain([1.0, 1.0]), nodes=1, dpn=1)
        res = form_stage(4, bs)
        plan = res.plan
        assert plan is not None
        assert plan.replica_factor == 1
        assert len(plan.stages) == 1
        assert plan.devices_total == 1
        assert res.stats.dp_calls == 3  # microbatch counts 1, 2, 4

    def test_prefers_pure_data_parallel_when_model_fits(self):
        g = stage_chain([1.0, 1.0], params=[64, 64])
        bs = blockset_for(g, nodes=2, dpn=1)
        plan = form_stage(8, bs).plan
        assert plan is not None
        assert plan.replica_factor == 2
        assert len(plan.stages) == 1

    def test_widens_pipeline_when_memory_forces_it(self):
        g = stage_chain([1.0] * 4, params=[1000] * 4)
        bs = blockset_for(g, mem=12000, nodes=2, dpn=1)
        plan = form_stage(4, bs).plan
        assert plan is not None
        assert plan.replica_factor == 1
        assert len(plan.stages) == 2
        assert sum(st.devices for st in plan.stages) == 2

    def test_infeasible_everywhere(self):
        g = stage_chain([1.0] * 4, params=[1000] * 4)
        bs = blockset_for(g, mem=4500, nodes=2, dpn=1)
        res = form_stage(4, bs)
        assert res.plan is None
        assert res.stats.dp_calls > 0

    def test_budget_propagates(self):
        bs = blockset_for(stage_chain([1.0] * 4), nodes=1, dpn=2)
        with pytest.raises(SearchBudgetExceeded):
            form_stage(8, bs, SearchOptions(visit_budget=2))

    def test_rejects_bad_arguments(self):
        bs = blockset_for(stage_chain([1.0, 1.0]))
        with pytest.raises(InvalidArgs):
            form_stage(0, bs)

    def test_plans_validate_cleanly(self):
        g = stage_chain([2.0, 1.0, 1.0, 2.0], sizes=[64] * 4,
                        params=[128] * 4)
        bs = blockset_for(g, nodes=2, dpn=2, bw=(1e6, 5e5))
        plan = form_stage(16, bs).plan
        assert plan is not None
        assert validate_plan(plan, bs) == []

    def test_deterministic(self):
        g = stage_chain([2.0, 1.0, 1.0, 2.0], sizes=[64] * 4)
        bs = blockset_for(g, nodes=2, dpn=2)
        a = form_stage(16, bs)
        b = form_stage(16, bs)
        assert a.plan == b.plan
        assert a.stats.visits == b.stats.visits
