"""Block refinement from per-atom terms.

`_Grouping.mem` composes a group's memory from per-atom terms and must equal
`CostModel.profile` on the merged group; `_Grouping.gain` scores a move over
only the values that touch the mover and must equal the difference of two
whole-graph traffic recounts. Together they keep `partition_blocks` from
walking the graph: it profiles no group, not even the blocks it returns.
"""

import copy
import random

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import (
    _apply_move,
    _coarsen_pass,
    _group_index,
    _Grouping,
    _move_fits,
    _uncoarsen,
    partition_blocks,
)
from pipecut.costs import CostModel, CostModelConfig
from pipecut.generators import gen_bert_like
from pipecut.graph import ClusterSpec, TaskGraph

from helpers import random_layered_graph, task, value
from test_shared_rules import BIG, random_cost_table, rich_graph


def random_groups(rng: random.Random, n: int, count: int):
    """Contiguous ranges and arbitrary subsets of atoms; the subsets are
    mostly not convex."""
    for _ in range(count):
        if rng.random() < 0.3:
            lo = rng.randrange(n)
            yield tuple(range(lo, rng.randint(lo + 1, n)))
        else:
            yield tuple(sorted(rng.sample(range(n), rng.randint(1, n))))


def grouping(rng: random.Random, g, table: bool):
    p = build_atomic_subcomponents(g)
    cost_table = random_cost_table(rng, p.graph, (1, 2)) if table else None
    cfg = CostModelConfig(device_flops_per_sec=rng.choice([1e9, 3.3e12]),
                          bwd_fwd_ratio=rng.choice([2.0, 2.7]),
                          grad_factor=rng.choice([1.0, 0.3]),
                          optimizer_state_factor=rng.choice([2.0, 1.7]),
                          cost_table=cost_table)
    return p, _Grouping(p, CostModel(p.graph, cfg, BIG))


GRAPHS = [("layered", random_layered_graph), ("rich", rich_graph)]


class TestGroupMemory:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("table", [False, True])
    @pytest.mark.parametrize("name, make", GRAPHS)
    def test_equals_profile_of_merged_group(self, name, make, seed, table):
        rng = random.Random(seed)
        p, ctx = grouping(rng, make(rng), table)
        for group in random_groups(rng, len(p.atoms), 40):
            sub = p.merged(group, "probe")
            ref = ctx.model.profile(sub, 1, checkpointing=True).mem_bytes
            assert ctx.mem(group) == ref, group

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("table", [False, True])
    def test_atom_compute_and_memory_equal_profile(self, seed, table):
        rng = random.Random(seed)
        p, ctx = grouping(rng, rich_graph(rng), table)
        for i, atom in enumerate(p.atoms):
            rec = ctx.model.profile(atom, 1, checkpointing=True)
            assert ctx.atom_comp[i].hex() == (rec.t_fwd_sec + rec.t_bwd_sec).hex()
            assert ctx.mem((i,)) == rec.mem_bytes

    def test_atom_compute_is_rounded_once(self):
        # a chain of atoms, each an anchor of 1.0 s plus three constant tasks
        # of 1e-16 s; a running float sum drops the small times whenever at
        # most one of them comes before the anchor, which happens in half
        # the task orders an atom can iterate in
        nodes = [value("x", per_sample=4)]
        edges = []
        prev = "x"
        for a in range(12):
            nodes += [task(f"t{a}", flops=1.0), value(f"y{a}", per_sample=4),
                      value(f"w{a}", fixed=8, param=True)]
            edges += [(prev, f"t{a}"), (f"t{a}", f"y{a}")]
            src = f"w{a}"
            for i in range(3):
                nodes += [task(f"c{a}_{i}", flops=1e-16), value(f"k{a}_{i}", fixed=4)]
                edges += [(src, f"c{a}_{i}"), (f"c{a}_{i}", f"k{a}_{i}")]
                src = f"k{a}_{i}"
            edges.append((src, f"t{a}"))
            prev = f"y{a}"
        p = build_atomic_subcomponents(TaskGraph(nodes, edges, ["x"], [prev]))
        assert len(p.atoms) == 12
        model = CostModel(p.graph, CostModelConfig(device_flops_per_sec=1.0), BIG)
        ctx = _Grouping(p, model)
        for i, atom in enumerate(p.atoms):
            rec = model.profile(atom, 1, checkpointing=True)
            assert rec.t_fwd_sec > 1.0
            assert ctx.atom_comp[i].hex() == (rec.t_fwd_sec + rec.t_bwd_sec).hex()

    def test_corpus_covers_the_cases(self):
        """The random graphs above hold what the composition must get right:
        cloned constants, graph inputs read by several atoms, and cost-table
        entries that set act_bytes or omit t_bwd."""
        clones = multi_read_inputs = act_bytes = no_t_bwd = 0
        for seed in range(12):
            rng = random.Random(seed)
            g = rich_graph(rng)
            p = build_atomic_subcomponents(g)
            clones += bool(p.clone_origins)
            multi_read_inputs += any(len(p.consumer_atoms(v)) > 1 for v in g.inputs)
            table = random_cost_table(rng, p.graph, (1, 2))
            act_bytes += any(e.act_bytes is not None for e in table.values())
            no_t_bwd += any(e.t_bwd is None for e in table.values())
        assert min(clones, multi_read_inputs, act_bytes, no_t_bwd) > 0


def recount(p, table) -> int:
    """Bytes per sample shipped between groups over the whole graph: each
    value once per group other than its owner's that reads it."""
    g = p.graph
    total = 0
    for vid in g.value_ids():
        home = table[p.owner_of_value(vid)]
        readers = {table[c] for c in p.consumer_atoms(vid)} - {home}
        total += g.value_size(vid, 1) * len(readers)
    return total


class TestGainDelta:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("name, make", GRAPHS)
    def test_equals_whole_graph_recount(self, name, make, seed):
        rng = random.Random(seed)
        p, ctx = grouping(rng, make(rng), False)
        n = len(p.atoms)
        for _ in range(40):
            n_groups = rng.randint(1, n)
            table = [rng.randrange(n_groups) for _ in range(n)]
            if rng.random() < 0.5:
                # a mover from one group, as refinement makes them
                src = table[rng.randrange(n)]
                members = [a for a in range(n) if table[a] == src]
                mover = tuple(sorted(rng.sample(members, rng.randint(1, len(members)))))
            else:
                mover = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            dest = rng.randrange(n_groups + 1)
            moved = list(table)
            for a in mover:
                moved[a] = dest
            assert ctx.gain(mover, dest, table) == recount(p, table) - recount(p, moved)


def reference_uncoarsen(levels, transitions, ctx, p):
    """Refinement as first written: check every candidate for fit, then
    score it with two whole-graph recounts; the first strictly best wins."""
    tables = [_group_index(level, ctx.n_atoms) for level in levels]
    top = tables[-1]
    for li in range(len(transitions) - 1, -1, -1):
        for v, w in transitions[li]:
            best = None
            for mover in (v, w):
                for ti in sorted({tables[li][b] for a in mover for b in ctx.neighbors[a]}):
                    target = levels[li][ti]
                    if top[target[0]] == top[mover[0]]:
                        continue
                    if not _move_fits(mover, target, levels, tables, li, ctx):
                        continue
                    moved = list(top)
                    for a in mover:
                        moved[a] = top[target[0]]
                    saving = recount(p, top) - recount(p, moved)
                    if saving > 0 and (best is None or saving > best[0]):
                        best = (saving, mover, target)
            if best is not None:
                _apply_move(best[1], best[2], levels, tables, li)


class TestRefinementOrder:
    """Scoring before checking fit picks the same moves as the reference."""

    def coarsened(self, g, k, mem_factor):
        p = build_atomic_subcomponents(g)
        probe = CostModel(p.graph, CostModelConfig(), BIG)
        largest = max(probe.profile(a, 1, checkpointing=True).mem_bytes for a in p.atoms)
        cluster = ClusterSpec(1, 4, int(largest * mem_factor), 50e9, 10e9)
        ctx = _Grouping(p, CostModel(p.graph, CostModelConfig(), cluster))
        levels = [[(i,) for i in range(len(p.atoms))]]
        transitions = []
        while len(levels[-1]) > k:
            new_groups, merges = _coarsen_pass(levels[-1], k, ctx)
            if not merges:
                break
            levels.append(new_groups)
            transitions.append(merges)
        return p, ctx, levels, transitions

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("mem_factor", [2**20, 3, 1.5])
    def test_same_levels_as_fit_first_recount(self, seed, mem_factor):
        rng = random.Random(seed)
        g = rich_graph(rng) if seed % 2 else random_layered_graph(rng, branch=3)
        self.check(g, rng.choice([2, 3, 5]), mem_factor)

    @pytest.mark.parametrize("k", [3, 8])
    def test_bert(self, k):
        self.check(gen_bert_like(64, 4, 16, 100), k, 4)

    def check(self, g, k, mem_factor):
        p, ctx, levels, transitions = self.coarsened(g, k, mem_factor)
        expected = copy.deepcopy(levels)
        reference_uncoarsen(expected, transitions, ctx, p)
        _uncoarsen(levels, transitions, ctx)
        assert levels == expected


class TestProfileCalls:
    def test_block_phase_profiles_only_the_final_blocks(self, monkeypatch):
        p = build_atomic_subcomponents(gen_bert_like(64, 8, 16, 100))
        model = CostModel(p.graph, CostModelConfig(), BIG)
        calls = []
        real = CostModel.profile

        def counting(self, sub, microbatch, checkpointing=None):
            calls.append(sub.id)
            return real(self, sub, microbatch, checkpointing=checkpointing)

        monkeypatch.setattr(CostModel, "profile", counting)
        bs = partition_blocks(p, model, k=8)
        assert len(bs) == 8
        assert calls == []
