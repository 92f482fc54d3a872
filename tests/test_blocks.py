import random

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import (
    BlockSet,
    CompactionStuck,
    InfeasibleAtom,
    is_convex,
    partition_blocks,
)
from pipecut.costs import CostModel, CostModelConfig
from pipecut.generators import gen_bert_like
from pipecut.graph import ClusterSpec, TaskGraph

from helpers import chain_graph, random_layered_graph, task, value

BIG = ClusterSpec(num_nodes=2, devices_per_node=2,
                  device_memory_bytes=2**40, bw_intra=50e9, bw_inter=10e9)


def make_blockset(g, k, mem=2**40):
    cluster = ClusterSpec(num_nodes=2, devices_per_node=2,
                          device_memory_bytes=mem, bw_intra=50e9, bw_inter=10e9)
    p = build_atomic_subcomponents(g)
    model = CostModel(p.graph, CostModelConfig(device_flops_per_sec=1e9), cluster)
    return partition_blocks(p, model, k=k)


def weighted_chain(flops_list, sizes=None):
    """Chain of tasks with given per-task flops and boundary value sizes."""
    sizes = sizes or [4.0] * len(flops_list)
    nodes = [value("x", per_sample=4.0)]
    edges = []
    prev = "x"
    for i, (f, s) in enumerate(zip(flops_list, sizes)):
        tid, vid = f"t{i:02d}", f"v{i:02d}"
        nodes += [task(tid, flops=f), value(vid, per_sample=s)]
        edges += [(prev, tid), (tid, vid)]
        prev = vid
    return TaskGraph(nodes, edges, ["x"], [prev])


def param_chain(flops_list, param_bytes):
    """Chain where every task carries its own weight value."""
    nodes = [value("x", per_sample=4.0)]
    edges = []
    prev = "x"
    for i, f in enumerate(flops_list):
        tid, vid, wid = f"t{i:02d}", f"v{i:02d}", f"w{i:02d}"
        nodes += [task(tid, flops=f), value(vid, per_sample=4.0),
                  value(wid, fixed=param_bytes, param=True)]
        edges += [(prev, tid), (wid, tid), (tid, vid)]
        prev = vid
    return TaskGraph(nodes, edges, ["x"], [prev])


def convexity_oracle(block_atoms, deps, n_atoms):
    """A group is convex iff no outside atom is both reached from it and
    reaches back into it. Checked by plain DFS, independent of the module."""
    succ = {i: [] for i in range(n_atoms)}
    for a, b in deps:
        succ[a].append(b)

    def reach(seeds):
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            for b in succ[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        return seen

    for grp in block_atoms:
        members = set(grp)
        downstream = reach(members) - members
        for x in downstream:
            if reach([x]) & members:
                return False
    return True


def check_blockset(bs: BlockSet):
    p = bs.partition
    n = len(p.atoms)
    covered = [a for grp in bs.block_atoms for a in grp]
    assert sorted(covered) == list(range(n))
    deps = p.dependencies()
    assert convexity_oracle(bs.block_atoms, deps, n)
    block_of = {a: bi for bi, grp in enumerate(bs.block_atoms) for a in grp}
    for a, b in deps:
        assert block_of[a] <= block_of[b], "block list must respect dependencies"
    budget = bs.model.cluster.device_memory_bytes
    for rec in bs.costs:
        assert rec.mem_bytes < budget


class TestConvexity:
    CHAIN_SUCC = [[1], [2], [3], []]

    def test_contiguous_fast_path(self):
        assert is_convex((1, 2, 3), self.CHAIN_SUCC)

    def test_gap_in_chain_is_not_convex(self):
        assert not is_convex((0, 2), self.CHAIN_SUCC)
        assert not is_convex((0, 1, 3), self.CHAIN_SUCC)

    def test_noncontiguous_but_disconnected_is_convex(self):
        succ = [[2], [3], [], []]  # two independent chains 0->2, 1->3
        assert is_convex((0, 3), succ) is False or True  # indices interleave
        assert is_convex((0, 2), succ)
        assert is_convex((1, 3), succ)
        # 0 and 3 share no path at all, so the pair is convex too
        assert is_convex((0, 3), succ)

    def test_diamond_needs_both_arms(self):
        succ = [[1, 2], [3], [3], []]
        assert not is_convex((0, 1, 3), succ)
        assert not is_convex((0, 2, 3), succ)
        assert is_convex((0, 1, 2, 3), succ)
        assert is_convex((1,), succ)

    def test_matches_oracle_on_random_groups(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randrange(4, 10)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.3]
            succ = [[] for _ in range(n)]
            for a, b in edges:
                succ[a].append(b)
            size = rng.randrange(1, n + 1)
            grp = tuple(sorted(rng.sample(range(n), size)))
            assert is_convex(grp, succ) == convexity_oracle([grp], edges, n)


class TestCoarsening:
    def test_cheap_atoms_pair_first(self):
        # comps 1,1,10,1: the two cheap leaders pair up, then the tail pair
        # forms, reaching k=2 exactly.
        bs = make_blockset(weighted_chain([1e9, 1e9, 10e9, 1e9]), k=2)
        assert bs.block_atoms == ((0, 1), (2, 3))

    def test_stops_mid_pass_at_target(self):
        bs = make_blockset(weighted_chain([1e9, 1e9, 10e9, 1e9]), k=3)
        assert bs.block_atoms == ((0, 1), (2,), (3,))

    def test_uniform_chain_balances_perfectly(self):
        bs = make_blockset(weighted_chain([1e9] * 16), k=4)
        assert len(bs) == 4
        comps = [r.t_fwd_sec + r.t_bwd_sec for r in bs.costs]
        assert max(comps) == pytest.approx(min(comps))
        assert all(len(grp) == 4 for grp in bs.block_atoms)

    def test_target_not_below_atom_count(self):
        bs = make_blockset(chain_graph(3), k=8)
        assert len(bs) == 3
        assert bs.block_atoms == ((0,), (1,), (2,))

    def test_memory_bound_stalls_merging(self):
        # 150 B of weights costs 600 B with gradient and optimizer state, so
        # one atom fits a 1 KB device but any pair overflows; coarsening
        # stalls at 4 groups and compaction cannot fold them either.
        g = param_chain([1e9] * 4, param_bytes=150)
        with pytest.raises(CompactionStuck) as exc:
            make_blockset(g, k=2, mem=1000)
        assert exc.value.n_groups == 4
        assert exc.value.target == 2

    def test_infeasible_atom_reported(self):
        g = weighted_chain([1e9] * 3, sizes=[64.0, 5000.0, 64.0])
        with pytest.raises(InfeasibleAtom) as exc:
            make_blockset(g, k=2, mem=2000)
        assert exc.value.mem_bytes >= 2000
        assert exc.value.budget_bytes == 2000

    def test_bad_k(self):
        with pytest.raises(ValueError):
            make_blockset(chain_graph(2), k=0)


class TestRefinement:
    def test_moves_across_heavy_boundary(self):
        # coarsening by compute pairs (0,1) and (2,3), leaving the huge v01
        # value on the cut; moving atom 1 rightward shrinks traffic 100x.
        g = weighted_chain([1e9, 1e9, 10e9, 1e9], sizes=[1.0, 100.0, 1.0, 1.0])
        bs = make_blockset(g, k=2)
        assert bs.block_atoms == ((0,), (1, 2, 3))

    def test_no_move_without_strict_gain(self):
        g = weighted_chain([1e9, 1e9, 10e9, 1e9])  # uniform sizes
        bs = make_blockset(g, k=2)
        assert bs.block_atoms == ((0, 1), (2, 3))


class TestCompaction:
    def test_folds_parallel_branches(self):
        # two disconnected chains share no values, so coarsening cannot pair
        # them; compaction folds across the gap.
        nodes = [value("x1", per_sample=4.0), task("ta", flops=1e9),
                 value("va", per_sample=4.0),
                 value("x2", per_sample=4.0), task("tb", flops=1e9),
                 value("vb", per_sample=4.0)]
        edges = [("x1", "ta"), ("ta", "va"), ("x2", "tb"), ("tb", "vb")]
        g = TaskGraph(nodes, edges, ["x1", "x2"], ["va", "vb"])
        bs = make_blockset(g, k=1)
        assert len(bs) == 1
        assert bs.block_atoms == ((0, 1),)

    def test_stuck_when_memory_refuses(self):
        # as above but each branch carries 160 B of weights: 640 B of state
        # alone per branch, 1280 B together, over the 1 KB budget.
        nodes = [value("x1", per_sample=4.0), task("ta", flops=1e9),
                 value("va", per_sample=4.0),
                 value("wa", fixed=160, param=True),
                 value("x2", per_sample=4.0), task("tb", flops=1e9),
                 value("vb", per_sample=4.0),
                 value("wb", fixed=160, param=True)]
        edges = [("x1", "ta"), ("wa", "ta"), ("ta", "va"),
                 ("x2", "tb"), ("wb", "tb"), ("tb", "vb")]
        g = TaskGraph(nodes, edges, ["x1", "x2"], ["va", "vb"])
        with pytest.raises(CompactionStuck):
            make_blockset(g, k=1, mem=1000)


class TestBlockSet:
    def test_boundary_bytes_on_chain(self):
        g = weighted_chain([1e9] * 4, sizes=[8.0, 16.0, 32.0, 64.0])
        bs = make_blockset(g, k=4)
        # cut i carries exactly the value between atom i-1 and atom i
        assert bs.boundary_bytes(1, 2) == 16
        assert bs.boundary_bytes(2, 2) == 32
        assert bs.boundary_bytes(3, 2) == 64
        assert bs.boundary_bytes(0, 2) == 0
        assert bs.boundary_bytes(4, 2) == 0

    def test_boundary_counts_skip_connection_once_per_cut(self):
        # x feeds t0 and t2: the forwarded input crosses cuts 1 and 2 once each
        nodes = [value("x", per_sample=8.0),
                 task("t0", flops=1e9), value("v0", per_sample=4.0),
                 task("t1", flops=1e9), value("v1", per_sample=4.0),
                 task("t2", flops=1e9), value("v2", per_sample=4.0)]
        edges = [("x", "t0"), ("t0", "v0"), ("v0", "t1"), ("t1", "v1"),
                 ("v1", "t2"), ("x", "t2"), ("t2", "v2")]
        g = TaskGraph(nodes, edges, ["x"], ["v2"])
        bs = make_blockset(g, k=3)
        assert len(bs) == 3
        assert bs.boundary_bytes(1, 1) == 4 + 8
        assert bs.boundary_bytes(2, 1) == 4 + 8

    def test_boundary_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(31)
        for _ in range(10):
            g = random_layered_graph(rng)
            p = build_atomic_subcomponents(g)
            if len(p.atoms) < 3:
                continue
            model = CostModel(p.graph, CostModelConfig(device_flops_per_sec=1e9), BIG)
            bs = partition_blocks(p, model, k=3)
            block_of = {a: bi for bi, grp in enumerate(bs.block_atoms) for a in grp}
            for cut in range(len(bs) + 1):
                expect = 0
                for vid in p.graph.value_ids():
                    owner = block_of[p.owner_of_value(vid)]
                    readers = [block_of[c] for c in p.consumer_atoms(vid)]
                    if owner < cut and any(r >= cut for r in readers):
                        expect += p.graph.value_size(vid, 3)
                assert bs.boundary_bytes(cut, 3) == expect

    def test_span_merges_block_range(self):
        g = weighted_chain([1e9] * 4)
        bs = make_blockset(g, k=4)
        whole = bs.span(0, 4)
        assert len(whole.node_ids) == len(bs.partition.graph.nodes)
        mid = bs.span(1, 3)
        assert mid.input_values == ("v00",)
        assert mid.output_values == ("v02",)
        assert bs.span(1, 3) == mid
        with pytest.raises(ValueError):
            bs.span(2, 2)

    def test_to_json_shape(self):
        bs = make_blockset(chain_graph(3), k=2)
        doc = bs.to_json()
        assert doc["num_blocks"] == len(bs)
        assert all(set(b) == {"id", "atoms", "t_fwd_sec", "t_bwd_sec", "mem_bytes"}
                   for b in doc["blocks"])


class TestInvariants:
    def test_random_graphs_all_invariants(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_layered_graph(rng)
            p = build_atomic_subcomponents(g)
            k = rng.choice([1, 2, 3, 5, 8])
            model = CostModel(p.graph, CostModelConfig(device_flops_per_sec=1e9), BIG)
            try:
                bs = partition_blocks(p, model, k=k)
            except CompactionStuck:
                continue
            assert len(bs) <= max(k, 1)
            check_blockset(bs)

    def test_deterministic(self):
        for seed in (5, 6):
            rng1, rng2 = random.Random(seed), random.Random(seed)
            g1, g2 = random_layered_graph(rng1), random_layered_graph(rng2)
            a = make_blockset(g1, k=3).block_atoms
            b = make_blockset(g2, k=3).block_atoms
            assert a == b

    def test_bert_scale_smoke(self):
        g = gen_bert_like(128, 6, 32, 200)
        p = build_atomic_subcomponents(g)
        model = CostModel(p.graph, CostModelConfig(), BIG)
        bs = partition_blocks(p, model, k=8)
        assert len(bs) == 8
        check_blockset(bs)
        comps = [r.t_fwd_sec + r.t_bwd_sec for r in bs.costs]
        total = sum(comps)
        # toy dimensions skew per-op weights, so only guard against collapse
        assert max(comps) / (total / len(comps)) < 3.0
