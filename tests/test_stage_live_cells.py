"""The stage DP charges stages only for live cells, and keeps its visits.

A cell (b, d) of row s is live when a later row reads it (s < S_hi, b < nb,
d < D) or when it ends a plan ((b, d) == (nb, D)). Every other cell is dead:
it is still counted in `SearchStats.visits`, still checked against the
visit budget and, with pruning on, still tested for reachability, so the
pruning break it may trigger, the visit count and the budget are those of
a DP that builds every frontier.
"""

import random

import pytest

import pipecut.stages as stages
from pipecut.stages import SearchBudgetExceeded, SearchOptions, SearchStats, form_stage

from test_stage_search import random_case

# `stats.visits` of `form_stage` with pruning on for the 150 draws of
# `random_case(random.Random(2024))`, one `rng.random()` skipped after each
# draw as in `test_form_stage_equals_reference`; recorded from the DP that
# built a frontier for every cell
VISITS = (
    84, 42, 54, 3, 30, 0, 808, 105, 144, 42, 165, 1467, 130, 75, 18, 60, 153,
    30, 108, 48, 42, 384, 1251, 60, 60, 126, 40, 345, 336, 147, 77, 153, 120,
    291, 0, 0, 474, 120, 548, 0, 30, 12, 464, 342, 42, 42, 180, 72, 15, 63,
    180, 30, 72, 56, 240, 0, 223, 1686, 673, 855, 260, 33, 12, 36, 0, 0, 10,
    336, 232, 43, 240, 20, 18, 55, 9, 27, 280, 287, 84, 282, 113, 0, 30, 94, 6,
    75, 63, 48, 9, 361, 0, 63, 45, 39, 10, 187, 657, 185, 0, 0, 6, 357, 0, 0,
    0, 18, 239, 2898, 27, 573, 90, 66, 4, 804, 2, 56, 18, 186, 65, 298, 168,
    120, 0, 36, 0, 7, 2682, 84, 72, 168, 12, 18, 24, 482, 216, 671, 1013, 12,
    12, 0, 30, 10, 86, 20, 42, 264, 42, 613, 20, 150,
)

# the tight-memory draws among them where some dead cell finds no fitting
# stage and its pruning break fires
DEAD_BREAK_DRAWS = (10, 25, 27, 37, 48, 56, 60, 66, 69, 73, 77, 80, 83, 84,
                    89, 95, 106, 111, 123, 126, 133, 136, 141, 147)


def corpus(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        case = random_case(rng)
        yield case, rng.random() < 0.5


def record_charges(monkeypatch):
    """Record (nb, D, hi, d1) of every stage charge made inside a DP pass."""
    charges = []
    devices = []
    real_cost, real_pass = stages.stage_cost, stages._run_pass

    def charging(blocks, lo, hi, d0, d1, m, ckpt):
        if devices:
            charges.append((len(blocks), devices[-1], hi, d1))
        return real_cost(blocks, lo, hi, d0, d1, m, ckpt)

    def running(blocks, S_lo, S_hi, D, *args):
        devices.append(D)
        try:
            return real_pass(blocks, S_lo, S_hi, D, *args)
        finally:
            devices.pop()

    monkeypatch.setattr(stages, "stage_cost", charging)
    monkeypatch.setattr(stages, "_run_pass", running)
    return charges


class TestLiveCells:
    def test_form_stage_charges_only_live_cells(self, monkeypatch):
        charges = record_charges(monkeypatch)
        for (bs, nodes, dpn, batch, _), no_pruning in corpus(2024, 150):
            form_stage(batch, bs, SearchOptions(disable_pruning=no_pruning))
        assert len(charges) > 1000
        for nb, D, hi, d1 in charges:
            assert (hi, d1) == (nb, D) or (hi < nb and d1 < D), (nb, D, hi, d1)

    @pytest.mark.parametrize("no_pruning", [False, True])
    def test_two_device_pass_charges_at_most_two_per_block(self, monkeypatch,
                                                           no_pruning):
        # row 1 charges cells (b, 1) for b < nb and (nb, 2); row 2 charges
        # (nb, 2) from each (b, 1): 2 nb - 1 stages, where a frontier for
        # every cell charges 2 nb + nb (nb - 1) / 2
        charges = record_charges(monkeypatch)
        both_plans = 0
        for (bs, _, _, batch, _), _ in corpus(7, 60):
            nb = len(bs)
            if nb < 2:
                continue
            charges.clear()
            plans = stages._run_pass(bs, 1, 2, 2, max(batch, 2), 1, 1,
                                     SearchOptions(disable_pruning=no_pruning),
                                     SearchStats())
            # assembling a returned plan charges each of its stages once more
            assembled = sum(len(p.stages) for p in plans.values())
            assert len(charges) - assembled <= 2 * nb
            both_plans += len(plans) == 2
        assert both_plans >= 10


class TestVisitsAndBudget:
    def test_visits_are_pinned(self):
        got = tuple(form_stage(batch, bs).stats.visits
                    for (bs, nodes, dpn, batch, _), _ in corpus(2024, 150))
        assert got == VISITS

    def test_budget_stops_at_the_last_visit_where_a_dead_cell_breaks(self):
        draws = [case for i, (case, _) in enumerate(corpus(2024, 150))
                 if i in DEAD_BREAK_DRAWS]
        for (bs, nodes, dpn, batch, tight), i in zip(draws, DEAD_BREAK_DRAWS):
            assert tight
            visits = VISITS[i]
            unpruned = form_stage(batch, bs,
                                  SearchOptions(disable_pruning=True))
            assert unpruned.stats.visits > visits  # a break fired
            with pytest.raises(SearchBudgetExceeded) as exc:
                form_stage(batch, bs, SearchOptions(visit_budget=visits - 1))
            assert (exc.value.visits, exc.value.budget) == (visits, visits - 1)
            result = form_stage(batch, bs, SearchOptions(visit_budget=visits))
            assert result.stats.visits == visits
            assert result.plan == form_stage(batch, bs).plan
