"""One definition per stage rule: memory fit, span profiles, stage memory."""

import random

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import BlockSet, _SpanTerms, partition_blocks
from pipecut.costs import CostModel, CostModelConfig, CostTableEntry, op_signature
from pipecut.generators import gen_bert_like
from pipecut.graph import ClusterSpec, TaskGraph
from pipecut.simulate import simulate
from pipecut.stages import (
    brute_force_partition,
    form_stage,
    form_stage_dp,
    validate_plan,
)

from helpers import random_layered_graph, task, value
from test_stages import blockset_for, stage_chain


BIG = ClusterSpec(num_nodes=1, devices_per_node=4, device_memory_bytes=2**50,
                  bw_intra=50e9, bw_inter=10e9)


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
        """Stage search, plan checking and replay compose every span's
        profile from block terms: no span reaches the node walk in
        `CostModel.profile`, and each microbatch's terms are built once."""
        bs = blockset_for(gen_bert_like(64, 3, 16, 100), nodes=2, dpn=2)
        walked: list[tuple] = []
        built: list[int] = []
        real_walk = CostModel.profile
        real_build = _SpanTerms.__init__

        def walking(self, sub, microbatch, checkpointing=None):
            walked.append((sub.node_ids, microbatch, checkpointing))
            return real_walk(self, sub, microbatch, checkpointing=checkpointing)

        def building(self, blocks, microbatch):
            built.append(microbatch)
            real_build(self, blocks, microbatch)

        monkeypatch.setattr(CostModel, "profile", walking)
        monkeypatch.setattr(_SpanTerms, "__init__", building)
        plan = form_stage(16, bs).plan
        assert plan is not None
        assert validate_plan(plan, bs) == []
        simulate(plan, bs)
        assert walked == []
        assert built and len(built) == len(set(built))


def rich_graph(rng: random.Random):
    """Random DAG with skip and multi-reader values, a second input read
    late, a dead input, and constant chains shared by several tasks (so the
    atoms clone them). Ops carry shape attributes for cost-table lookups."""
    nodes = [value("in", per_sample=rng.randint(1, 64) * 4),
             value("in2", fixed=rng.randint(0, 8) * 4, per_sample=rng.randint(1, 16) * 4),
             value("dead", fixed=12, per_sample=4)]
    edges = []
    consts = []
    for i in range(rng.randint(0, 3)):
        nodes += [value(f"w{i}", fixed=rng.randint(1, 64) * 4, param=True),
                  task(f"c{i}", op="transpose", flops=float(rng.randint(0, 50))),
                  value(f"wt{i}", fixed=rng.randint(1, 64) * 4)]
        edges += [(f"w{i}", f"c{i}"), (f"c{i}", f"wt{i}")]
        consts.append(f"wt{i}")
    if rng.random() < 0.5:
        nodes.append(value("k", fixed=rng.randint(1, 16) * 4))
        consts.append("k")
    produced = ["in"]
    tasks = []
    for i in range(rng.randint(3, 14)):
        for j in range(rng.randint(1, 3)):
            tid = f"t{i:02d}_{j}"
            nodes.append(task(tid, op=rng.choice(["mm", "add", "gelu"]),
                              flops=rng.random() * 1000,
                              attrs={"h": rng.choice([1, 2])}))
            for src in rng.sample(produced, rng.randint(1, min(3, len(produced)))):
                edges.append((src, tid))
            if i > 1 and rng.random() < 0.2:
                edges.append(("in2", tid))
            if rng.random() < 0.5:
                wid = f"{tid}.w"
                nodes.append(value(wid, fixed=rng.randint(1, 256) * 4, param=True))
                edges.append((wid, tid))
            for out in range(rng.randint(1, 2)):
                vid = f"{tid}.o{out}"
                nodes.append(value(vid, per_sample=rng.randint(0, 64) * 4,
                                   fixed=rng.randint(0, 16) * 4))
                edges.append((tid, vid))
                produced.append(vid)
            tasks.append(tid)
    if not any(dst == "in2" or src == "in2" for src, dst in edges):
        edges.append(("in2", tasks[-1]))
    for c in consts:
        for tid in rng.sample(tasks, rng.randint(1, min(3, len(tasks)))):
            edges.append((c, tid))
    return TaskGraph(nodes, edges, ["in", "in2", "dead"], [produced[-1]])


def random_cost_table(rng: random.Random, graph, microbatches):
    """Entries for about half the (op, microbatch) signatures; some give
    t_bwd, some act_bytes, some only t_fwd."""
    table = {}
    for nid in graph.task_ids():
        for m in microbatches:
            sig = op_signature(graph.nodes[nid].task, m)
            if sig in table or rng.random() < 0.5:
                continue
            table[sig] = CostTableEntry(
                microbatch=m, t_fwd=rng.random() * 1e-3,
                t_bwd=rng.random() * 1e-3 if rng.random() < 0.5 else None,
                act_bytes=rng.randint(0, 4096) if rng.random() < 0.5 else None)
    return table


def random_blockset(rng: random.Random, p, model, k: int) -> BlockSet:
    """At most k blocks cut from a random topological order of the atoms;
    a block's atoms need not be neighbours by index."""
    n = len(p.atoms)
    succ = {a: [] for a in range(n)}
    indeg = [0] * n
    for a, b in p.dependencies():
        succ[a].append(b)
        indeg[b] += 1
    ready = [a for a in range(n) if indeg[a] == 0]
    order = []
    while ready:
        a = ready.pop(rng.randrange(len(ready)))
        order.append(a)
        for b in succ[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
    cuts = sorted(rng.sample(range(1, n), min(k, n) - 1))
    groups = tuple(tuple(sorted(order[lo:hi]))
                   for lo, hi in zip([0] + cuts, cuts + [n]))
    return BlockSet(p, model, groups)


def assert_composed_equals_walk(bs, rng, microbatches, n_spans=None):
    nb = len(bs)
    spans = [(lo, hi) for lo in range(nb) for hi in range(lo + 1, nb + 1)]
    if n_spans is not None and len(spans) > n_spans:
        spans = rng.sample(spans, n_spans)
    for lo, hi in spans:
        for m in microbatches:
            for ckpt in (False, True):
                walk = bs.model.profile(bs.span(lo, hi), m, checkpointing=ckpt)
                composed = bs.profile(lo, hi, m, ckpt)
                # exact, and floats bit for bit (== would let -0.0 pass for 0.0)
                assert composed == walk, (lo, hi, m, ckpt)
                assert composed.t_fwd_sec.hex() == walk.t_fwd_sec.hex()
                assert composed.t_bwd_sec.hex() == walk.t_bwd_sec.hex()


class TestComposedProfile:
    """`BlockSet.profile` equals `CostModel.profile` on the merged span."""

    MICROBATCHES = (1, 2, 3, 8, 64)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("table", [False, True])
    def test_random_dags(self, seed, table):
        rng = random.Random(seed)
        g = rich_graph(rng)
        p = build_atomic_subcomponents(g)
        cost_table = (random_cost_table(rng, p.graph, self.MICROBATCHES)
                      if table else None)
        cfg = CostModelConfig(device_flops_per_sec=rng.choice([1e9, 3.3e12]),
                              bwd_fwd_ratio=rng.choice([2.0, 2.7]),
                              cost_table=cost_table)
        model = CostModel(p.graph, cfg, BIG)
        for k in sorted({1, 2, rng.randint(3, 12), 64}):
            bs = random_blockset(rng, p, model, k)
            assert_composed_equals_walk(bs, rng, self.MICROBATCHES)

    @pytest.mark.parametrize("table", [False, True])
    def test_bert_at_k64(self, table):
        rng = random.Random(64)
        p = build_atomic_subcomponents(gen_bert_like(64, 8, 16, 100))
        cost_table = (random_cost_table(rng, p.graph, self.MICROBATCHES)
                      if table else None)
        model = CostModel(p.graph, CostModelConfig(cost_table=cost_table), BIG)
        bs = partition_blocks(p, model, k=64)
        assert len(bs) == 64
        assert_composed_equals_walk(bs, rng, self.MICROBATCHES, n_spans=150)

    def test_span_out_of_range(self):
        bs = blockset_for(stage_chain([1.0, 1.0]))
        for lo, hi in ((0, 0), (1, 1), (-1, 1), (0, 3)):
            with pytest.raises(ValueError):
                bs.profile(lo, hi, 1, True)
        with pytest.raises(ValueError):
            bs.profile(0, 1, -1, True)


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
