"""Group memory composed from summaries.

Coarsening and refinement check a merged or moved group against device
memory with a summary composed from smaller ones (`blocks._union`), not by
walking its atoms. Every summary that `_coarsen_pass` and `_move_fits` test
must equal `CostModel.profile` on the merged group, also where memory is
tight enough that merges and moves get refused. After refinement every
group of every level has a kept summary, so none is rebuilt.
"""

import random

import pytest

from pipecut import blocks
from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import _coarsen_pass, _Grouping, _uncoarsen
from pipecut.costs import CostModel, CostModelConfig
from pipecut.generators import gen_bert_like
from pipecut.graph import ClusterSpec

from helpers import random_layered_graph
from test_shared_rules import BIG, rich_graph


def checked_summaries(g, k, mem_factor, monkeypatch):
    """Coarsen and refine g on devices of `mem_factor` times its largest
    atom; return (phase, group, composed memory, fits) for each composed
    summary that a fit check tested, and the partition and model."""
    p = build_atomic_subcomponents(g)
    probe = CostModel(p.graph, CostModelConfig(), BIG)
    largest = max(probe.profile(a, 1, checkpointing=True).mem_bytes for a in p.atoms)
    model = CostModel(p.graph, CostModelConfig(),
                      ClusterSpec(1, 4, int(largest * mem_factor), 50e9, 10e9))
    ctx = _Grouping(p, model)

    composed = {}  # id -> (summary, group); holding the summary keeps ids unique
    tested = []
    phase = ["coarsen"]
    real_union, real_fits = blocks._union, _Grouping.fits

    def union(summaries, inside):
        s = real_union(summaries, inside)
        composed[id(s)] = (s, tuple(sorted(inside)))
        return s

    def fits(self, summary):
        ok = real_fits(self, summary)
        if id(summary) in composed:
            tested.append((phase[0], composed[id(summary)][1], self.mem_of(summary), ok))
        return ok

    monkeypatch.setattr(blocks, "_union", union)
    monkeypatch.setattr(_Grouping, "fits", fits)
    levels = [[(i,) for i in range(len(p.atoms))]]
    transitions = []
    while len(levels[-1]) > k:
        new_groups, merges = _coarsen_pass(levels[-1], k, ctx)
        if not merges:
            break
        levels.append(new_groups)
        transitions.append(merges)
    phase[0] = "refine"
    _uncoarsen(levels, transitions, ctx)
    return p, model, tested


def corpus():
    for seed in range(6):
        for name, make in (("rich", rich_graph),
                           ("layered", lambda rng: random_layered_graph(rng, branch=3))):
            yield f"{name}-{seed}", make(random.Random(seed)), random.Random(seed).choice([2, 3, 5])
    yield "bert-64x8", gen_bert_like(64, 8, 16, 100), 3


CASES = list(corpus())


def profile_mem(p, model, group):
    return model.profile(p.merged(group, "probe"), 1, checkpointing=True).mem_bytes


class TestComposedSummaries:
    @pytest.mark.parametrize("mem_factor", [3, 1.5])
    @pytest.mark.parametrize("name, g, k", CASES, ids=[c[0] for c in CASES])
    def test_every_tested_summary_equals_profile(self, name, g, k, mem_factor, monkeypatch):
        p, model, tested = checked_summaries(g, k, mem_factor, monkeypatch)
        assert tested
        for phase, group, mem, ok in tested:
            assert mem == profile_mem(p, model, group), (phase, group)
            assert ok == model.fits(mem)

    def test_corpus_refuses_merges_and_moves(self, monkeypatch):
        """The memory bounds above are tight enough that both phases see
        groups that fit and groups that do not."""
        seen = set()
        for mem_factor in (3, 1.5):
            for _, g, k in CASES:
                _, _, tested = checked_summaries(g, k, mem_factor, monkeypatch)
                seen |= {(phase, ok) for phase, _, _, ok in tested}
        assert seen == {("coarsen", True), ("coarsen", False),
                        ("refine", True), ("refine", False)}

    @pytest.mark.parametrize("mem_factor", [3, 1.5, 2**20])
    @pytest.mark.parametrize("name, g, k", CASES, ids=[c[0] for c in CASES])
    def test_every_group_of_every_level_keeps_its_summary(self, name, g, k, mem_factor):
        """After refinement every multi-atom group on every level, those that
        moves rewrote included, has a kept summary equal to its profile."""
        p = build_atomic_subcomponents(g)
        probe = CostModel(p.graph, CostModelConfig(), BIG)
        largest = max(probe.profile(a, 1, checkpointing=True).mem_bytes for a in p.atoms)
        model = CostModel(p.graph, CostModelConfig(),
                          ClusterSpec(1, 4, int(largest * mem_factor), 50e9, 10e9))
        ctx = _Grouping(p, model)
        levels = [[(i,) for i in range(len(p.atoms))]]
        transitions = []
        while len(levels[-1]) > k:
            new_groups, merges = _coarsen_pass(levels[-1], k, ctx)
            if not merges:
                break
            levels.append(new_groups)
            transitions.append(merges)
        _uncoarsen(levels, transitions, ctx)
        groups = {grp for level in levels for grp in level if len(grp) > 1}
        assert groups
        for group in groups:
            assert group in ctx.summaries, group
            assert ctx.mem_of(ctx.summaries[group]) == profile_mem(p, model, group), group
