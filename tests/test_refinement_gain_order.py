"""Refinement checks fit in gain order.

`_uncoarsen` scores every candidate move first, then checks the positive
ones for fit in falling gain order and applies the first that fits. The
loop it replaced checked a candidate for fit whenever its gain beat the best
fitting one so far. Both pick the first-scanned fitting candidate of the
largest gain, so the blocks must be the same, with no more fit checks.
"""

import random

import pytest

from pipecut import blocks
from pipecut.atoms import build_atomic_subcomponents
from pipecut.costs import CostModel, CostModelConfig
from pipecut.generators import gen_bert_like
from pipecut.graph import ClusterSpec

from helpers import random_layered_graph
from test_shared_rules import BIG


def best_so_far_uncoarsen(levels, transitions, ctx) -> None:
    """The loop as it was: a candidate is checked for fit only when its gain
    would make it the best so far."""
    tables = [blocks._group_index(level, ctx.n_atoms) for level in levels]
    top = tables[-1]
    for li in range(len(transitions) - 1, -1, -1):
        for v, w in transitions[li]:
            best = None  # (saving, mover, target group at level li)
            for mover in (v, w):
                for ti in sorted({tables[li][b] for a in mover for b in ctx.neighbors[a]}):
                    target = levels[li][ti]
                    dest = top[target[0]]
                    if dest == top[mover[0]]:
                        continue
                    saving = ctx.gain(mover, dest, top)
                    if saving <= 0 or (best is not None and saving <= best[0]):
                        continue
                    if blocks._move_fits(mover, target, levels, tables, li, ctx):
                        best = (saving, mover, target)
            if best is not None:
                blocks._apply_move(best[1], best[2], levels, tables, li)


def run(partition, model, k, monkeypatch, uncoarsen):
    """`partition_blocks` under the given refinement loop: the block atoms,
    or the error it raised, and the number of fit checks it made."""
    calls = []
    real = blocks._move_fits

    def counting(*args):
        calls.append(args[:2])
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(blocks, "_move_fits", counting)
        patch.setattr(blocks, "_uncoarsen", uncoarsen)
        try:
            result = blocks.partition_blocks(partition, model, k).block_atoms
        except blocks.CompactionStuck as exc:
            result = str(exc)
    return result, len(calls)


def models(partition):
    """Cost models with unlimited memory and with budgets of 3 and 1.5
    times the largest atom, where some moves no longer fit."""
    probe = CostModel(partition.graph, CostModelConfig(), BIG)
    largest = max(probe.profile(a, 1, checkpointing=True).mem_bytes for a in partition.atoms)
    yield probe
    for factor in (3, 1.5):
        cluster = ClusterSpec(1, 4, int(largest * factor), 50e9, 10e9)
        yield CostModel(partition.graph, CostModelConfig(), cluster)


def check(graph, ks, monkeypatch) -> int:
    """Same outcome as the old loop at every k and budget; returns the fit
    checks the old loop made beyond the new one."""
    p = build_atomic_subcomponents(graph)
    saved = 0
    for model in models(p):
        for k in ks:
            old, old_checks = run(p, model, k, monkeypatch, best_so_far_uncoarsen)
            new, new_checks = run(p, model, k, monkeypatch, blocks._uncoarsen)
            assert new == old, k
            assert new_checks <= old_checks, k
            saved += old_checks - new_checks
    return saved


@pytest.mark.parametrize("seed", range(0, 60, 6))
def test_random_corpus(seed, monkeypatch):
    for s in range(seed, seed + 6):
        rng = random.Random(s)
        graph = random_layered_graph(rng, n_layers=rng.randint(6, 14), branch=3)
        check(graph, (2, 3, 5), monkeypatch)


def test_bert(monkeypatch):
    assert check(gen_bert_like(64, 8, 16, 100), (3, 8, 32), monkeypatch) > 0
