"""Acceptance gate: eight end-to-end checks, one printed verdict line each.

Run with -s to see the verdict lines as they happen; without it they still
appear in captured output. Constants below are frozen reference values;
loosening them is not an option when a check goes red.
"""

import csv
import json
import math
import random
import sys
import time

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import InfeasibleAtom, is_convex, partition_blocks
from pipecut.cli import main as cli_main
from pipecut.costs import CostModel, CostModelConfig
from pipecut.generators import gen_bert_like, gen_resnet_like
from pipecut.graph import ClusterSpec, count_params
from pipecut.simulate import simulate
from pipecut.stages import (
    SearchBudgetExceeded,
    SearchOptions,
    brute_force_partition,
    form_stage,
    form_stage_dp,
    validate_plan,
)

from test_stages import stage_chain
from test_simulate import uniform_plan

# random-search family for the DP-vs-enumeration checks
SEARCH_SEED = 777
SEARCH_COUNT = 120
SEARCH_TIME_LIMIT_SEC = 60.0
STRICT_PRUNING_FRACTION = 0.90

# parameter-count targets
BERT_BASE_LIKE = ((1024, 24, 512, 30522), 340e6, 0.03)
BERT_LARGE_LIKE = ((2048, 256, 512, 30522), 12.9e9, 0.03)
RESNET_LIKE = ((152, 8), 3.7e9, 0.05)
PARAM_TIME_LIMIT_SEC = 5.0

# fill-drain identity grid
FORMULA_REL_TOL = 1e-9

# search-scale check: 96-layer transformer chain, 2 nodes x 2 devices
SCALE_GRAPH = (1024, 96, 512, 30522)
SCALE_CLUSTER = dict(num_nodes=2, devices_per_node=2,
                     device_memory_bytes=2 ** 35,
                     bw_intra=50e9, bw_inter=10e9)
SCALE_BATCH = 64
SCALE_K = 32
SCALE_TIME_LIMIT_SEC = 600.0
SCALE_BUDGET_FACTOR = 10

# balance check: 16-layer chain whose vocabulary projection dwarfs a layer
BALANCE_GRAPH = (1024, 16, 512, 30522)
BALANCE_K = 8
# ceiling for the partitioned split and floor for the equal-layer split,
# certified against the exhaustive contiguous-split minimax recomputed in
# the test body (observed: partitioned 1.475, naive 1.901, best 1.039)
BALANCE_MAX_OVER_MEAN = 1.50
NAIVE_MAX_OVER_MEAN = 1.66

# infeasibility-ordering sweep at a fixed 32 GB device budget
SWEEP_HIDDEN = 2048
SWEEP_LAYERS = (24, 48, 96, 192)
SWEEP_BATCH = 32
SWEEP_MEMORY_BYTES = 32 * 10 ** 9

# artifacts accumulated for the structural sweep (checked last)
PLANS = []        # (plan, blockset)
BLOCKSETS = []
SCHEDULES = []    # (schedule, plan)
_SEARCHES = []    # (blockset, S, D, BS, R, MB, result-with-pruning)


def _verdict(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest = sys.modules.get("conftest")
    if conftest is not None:
        conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _search_instance(rng):
    """One random chain with tight memory; budgets scale with its demand."""
    S = rng.randint(1, 4)
    n = rng.randint(max(6, S + 2), 10)
    nodes, dpn = rng.choice([(1, 6), (2, 3), (3, 2)])
    D = rng.randint(min(S + 1, 6), 6)
    R = rng.choice([1, 2])
    MB = rng.choice([1, 2, 4])
    BS = R * MB * D * rng.randint(2, 4)
    flops = [round(rng.uniform(0.5, 4.0), 3) for _ in range(n)]
    sizes = [rng.choice([64, 128, 256, 512, 1024]) for _ in range(n)]
    params = [rng.choice([0, 256, 1024]) for _ in range(n)]
    g = stage_chain(flops, sizes=sizes, params=params)
    m_max = BS // (MB * R)
    need = 4 * sum(params) + sum(sizes) * m_max
    budget = max(int(need * rng.uniform(0.25, 0.50)), 256)
    for _ in range(4):
        cluster = ClusterSpec(num_nodes=nodes, devices_per_node=dpn,
                              device_memory_bytes=budget,
                              bw_intra=1e3, bw_inter=5e2,
                              link_latency_sec=rng.choice([0.0, 0.01]))
        part = build_atomic_subcomponents(g)
        cfg = CostModelConfig(device_flops_per_sec=1.0, checkpointing=False)
        model = CostModel(part.graph, cfg, cluster)
        try:
            bs = partition_blocks(part, model, 10 ** 6)
        except InfeasibleAtom:
            budget *= 4
            continue
        return bs, S, D, BS, R, MB
    raise RuntimeError("could not build a feasible random instance")


def _ensure_searches():
    if _SEARCHES:
        return
    rng = random.Random(SEARCH_SEED)
    for _ in range(SEARCH_COUNT):
        bs, S, D, BS, R, MB = _search_instance(rng)
        res = form_stage_dp(bs, S, D, BS, R, MB)
        _SEARCHES.append((bs, S, D, BS, R, MB, res))
        BLOCKSETS.append(bs)
        if res.plan is not None:
            PLANS.append((res.plan, bs))


def test_criterion_1_search_matches_enumeration():
    t0 = time.monotonic()
    _ensure_searches()
    mismatches = []
    for i, (bs, S, D, BS, R, MB, res) in enumerate(_SEARCHES):
        ref = brute_force_partition(bs, S, D, BS, R, MB).plan
        got = None if res.plan is None else res.plan.objective
        want = None if ref is None else ref.objective
        if got != want:
            mismatches.append((i, got, want))
    elapsed = time.monotonic() - t0
    feasible = sum(1 for *_, r in _SEARCHES if r.plan is not None)
    ok = not mismatches and elapsed < SEARCH_TIME_LIMIT_SEC
    _verdict(1, "search equals enumeration", ok,
             f"{SEARCH_COUNT - len(mismatches)}/{SEARCH_COUNT} objectives "
             f"exactly equal ({feasible} feasible), {elapsed:.1f}s "
             f"< {SEARCH_TIME_LIMIT_SEC:.0f}s; mismatches: {mismatches[:3]}")


def test_criterion_2_pruning_only_skips_work():
    _ensure_searches()
    differing = []
    strict = 0
    for i, (bs, S, D, BS, R, MB, res) in enumerate(_SEARCHES):
        off = form_stage_dp(bs, S, D, BS, R, MB,
                            options=SearchOptions(disable_pruning=True))
        if off.plan != res.plan:
            differing.append(i)
        if res.stats.visits < off.stats.visits:
            strict += 1
        else:
            assert res.stats.visits == off.stats.visits, \
                f"instance {i}: pruning may never add visits"
    needed = math.ceil(STRICT_PRUNING_FRACTION * SEARCH_COUNT)
    ok = not differing and strict >= needed
    _verdict(2, "pruning soundness", ok,
             f"plans identical on {SEARCH_COUNT - len(differing)}/{SEARCH_COUNT}; "
             f"strictly fewer visits on {strict}/{SEARCH_COUNT} (need {needed}); "
             f"differing: {differing[:3]}")


def test_criterion_3_parameter_counts():
    t0 = time.monotonic()
    checks = []
    for args, target, tol in (BERT_BASE_LIKE, BERT_LARGE_LIKE):
        got = count_params(gen_bert_like(*args))
        checks.append((f"bert{args[:2]}", got, target, tol))
    args, target, tol = RESNET_LIKE
    got = count_params(gen_resnet_like(*args))
    checks.append((f"resnet{args}", got, target, tol))
    elapsed = time.monotonic() - t0
    worst = max(abs(got - target) / target for _, got, target, _ in checks)
    ok = (elapsed < PARAM_TIME_LIMIT_SEC
          and all(abs(got - target) / target <= tol
                  for _, got, target, tol in checks))
    detail = ", ".join(f"{name} {got / 1e9:.3f}B vs {target / 1e9:.2f}B"
                       for name, got, target, _ in checks)
    _verdict(3, "parameter counts", ok,
             f"{detail}; worst rel err {worst:.3%}, {elapsed:.2f}s")


def test_criterion_4_fill_drain_identity():
    worst = 0.0
    for S in (1, 2, 3, 4):
        for MB in (1, 2, 4, 8):
            bs, plan = uniform_plan(S, MB)
            sched = simulate(plan, bs)
            t_f = plan.stages[0].t_fwd
            t_b = plan.stages[0].t_bwd
            expected = (MB + S - 1) * (t_f + t_b)
            rel = abs(sched.iteration_time_sec - expected) / expected
            worst = max(worst, rel)
            PLANS.append((plan, bs))
            BLOCKSETS.append(bs)
            SCHEDULES.append((sched, plan))
    ok = worst <= FORMULA_REL_TOL
    _verdict(4, "fill-drain identity", ok,
             f"16 (stages, microbatch) grid points, worst rel err {worst:.2e} "
             f"<= {FORMULA_REL_TOL:.0e}")


def test_criterion_5_block_search_scale():
    g = gen_bert_like(*SCALE_GRAPH)
    cluster = ClusterSpec(**SCALE_CLUSTER)
    part = build_atomic_subcomponents(g)
    model = CostModel(part.graph, CostModelConfig(), cluster)
    blocks = partition_blocks(part, model, SCALE_K)
    t0 = time.monotonic()
    res = form_stage(SCALE_BATCH, blocks)
    elapsed = time.monotonic() - t0
    assert res.plan is not None
    PLANS.append((res.plan, blocks))
    BLOCKSETS.append(blocks)

    budget = SCALE_BUDGET_FACTOR * res.stats.visits
    atom_blocks = partition_blocks(part, model, len(part.atoms))
    BLOCKSETS.append(atom_blocks)
    with pytest.raises(SearchBudgetExceeded) as err:
        form_stage(SCALE_BATCH, atom_blocks, options=SearchOptions(visit_budget=budget))
    ok = elapsed < SCALE_TIME_LIMIT_SEC and err.value.visits > budget
    _verdict(5, "block search scale", ok,
             f"{SCALE_K}-block search took {elapsed:.1f}s "
             f"< {SCALE_TIME_LIMIT_SEC:.0f}s with {res.stats.visits} visits; "
             f"direct search over {len(part.atoms)} atoms exceeded the "
             f"{SCALE_BUDGET_FACTOR}x budget ({err.value.visits} > {budget})")


def _atom_layer_groups(part):
    """Atom indices grouped by model layer, in chain order.

    The first group absorbs everything before the first repeated layer
    (the embedding); the last group absorbs the trailing head tasks.
    """
    tags = []
    for atom in part.atoms:
        tag = None
        for nid in sorted(atom.node_ids):
            node = part.graph.nodes[nid]
            if node.is_task and nid.startswith("L") and "." in nid:
                tag = int(nid.split(".")[0][1:])
                break
        tags.append(tag)
    layers = sorted({t for t in tags if t is not None})
    groups = {layer: [] for layer in layers}
    for idx, tag in enumerate(tags):
        if tag is None:
            tag = layers[0] if idx < len(tags) / 2 else layers[-1]
        groups[tag].append(idx)
    return [groups[layer] for layer in layers]


def test_criterion_6_balance_beats_equal_layers():
    g = gen_bert_like(*BALANCE_GRAPH)
    cluster = ClusterSpec(num_nodes=1, devices_per_node=BALANCE_K,
                          device_memory_bytes=2 ** 35,
                          bw_intra=50e9, bw_inter=10e9)
    part = build_atomic_subcomponents(g)
    model = CostModel(part.graph, CostModelConfig(), cluster)
    comp = []
    for atom in part.atoms:
        rec = model.profile(atom, 1, checkpointing=False)
        comp.append(rec.t_fwd_sec + rec.t_bwd_sec)
    mean = sum(comp) / BALANCE_K

    blocks = partition_blocks(part, model, BALANCE_K)
    BLOCKSETS.append(blocks)
    times = [c.t_fwd_sec + c.t_bwd_sec for c in blocks.costs]
    ratio = max(times) / mean

    layer_groups = _atom_layer_groups(part)
    per_block = len(layer_groups) // BALANCE_K
    naive = []
    for i in range(BALANCE_K):
        lo = layer_groups[i * per_block][0]
        hi = (layer_groups[(i + 1) * per_block][0]
              if i < BALANCE_K - 1 else len(comp))
        naive.append(sum(comp[lo:hi]))
    naive_ratio = max(naive) / mean

    # exhaustive contiguous minimax over the atom chain certifies that the
    # partitioned ceiling is attainable at all
    n = len(comp)
    prefix = [0.0]
    for c in comp:
        prefix.append(prefix[-1] + c)
    best = [[math.inf] * (n + 1) for _ in range(BALANCE_K + 1)]
    best[0][0] = 0.0
    for parts in range(1, BALANCE_K + 1):
        for hi in range(parts, n + 1):
            b = math.inf
            for lo in range(parts - 1, hi):
                b = min(b, max(best[parts - 1][lo], prefix[hi] - prefix[lo]))
            best[parts][hi] = b
    oracle_ratio = best[BALANCE_K][n] / mean

    ok = (ratio <= BALANCE_MAX_OVER_MEAN
          and naive_ratio >= NAIVE_MAX_OVER_MEAN
          and oracle_ratio <= BALANCE_MAX_OVER_MEAN)
    _verdict(6, "block balance", ok,
             f"max/mean {ratio:.3f} <= {BALANCE_MAX_OVER_MEAN} for k={BALANCE_K} "
             f"blocks vs {naive_ratio:.3f} >= {NAIVE_MAX_OVER_MEAN} for the "
             f"equal-layer split; contiguous optimum {oracle_ratio:.3f}")


def test_criterion_8_data_parallel_fails_first(tmp_path):
    cluster_doc = dict(num_nodes=2, devices_per_node=2,
                       device_memory_bytes=SWEEP_MEMORY_BYTES,
                       bw_intra=50e9, bw_inter=10e9, link_latency_sec=0.0)
    cluster_path = tmp_path / "cluster.json"
    cluster_path.write_text(json.dumps(cluster_doc))
    rc = cli_main(["sweep", "--cluster", str(cluster_path),
                   "--hidden", str(SWEEP_HIDDEN),
                   "--layers", ",".join(str(n) for n in SWEEP_LAYERS),
                   "--batch-size", str(SWEEP_BATCH),
                   "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["layers"]) for r in rows] == list(SWEEP_LAYERS)

    dp_fail = min((int(r["layers"]) for r in rows
                   if r["data_parallel"] == "INFEASIBLE"), default=None)
    part_fail = min((int(r["layers"]) for r in rows
                     if r["status"] == "INFEASIBLE"), default=None)
    both_ok = [int(r["layers"]) for r in rows
               if r["status"] == "ok" and r["data_parallel"] == "ok"]
    rescued = [int(r["layers"]) for r in rows
               if r["status"] == "ok" and r["data_parallel"] == "INFEASIBLE"]
    ok = (dp_fail is not None and part_fail is not None
          and dp_fail < part_fail and rescued
          and all(n < dp_fail for n in both_ok))
    _verdict(8, "data parallelism fails first", ok,
             f"pure data parallelism infeasible from {dp_fail} layers, "
             f"partitioned plans from {part_fail}; sizes {rescued} train "
             f"only with partitioning")


def _atom_succ(part):
    succ = [[] for _ in part.atoms]
    for a, b in part.dependencies():
        succ[a].append(b)
    return succ


def _staleness_free(sched, plan):
    """Synchronous-schedule ordering: no result is consumed before it exists
    and no lane starts its gradient sync before all its own work is done."""
    by_lane = {}
    for e in sched.events:
        by_lane.setdefault(e.device, []).append(e)
    stage_fwd_start = {}
    stage_fwd_end = {}
    stage_bwd_end = {}
    for e in sched.events:
        key = (e.stage, e.microbatch)
        if e.phase == "fwd":
            stage_fwd_start[key] = min(stage_fwd_start.get(key, math.inf),
                                       e.start_sec)
            stage_fwd_end[key] = max(stage_fwd_end.get(key, 0.0), e.end_sec)
        elif e.phase == "bwd":
            stage_bwd_end[key] = max(stage_bwd_end.get(key, 0.0), e.end_sec)
    S = len(plan.stages)
    MB = plan.microbatches
    for dev, events in by_lane.items():
        events.sort(key=lambda e: (e.start_sec, e.end_sec))
        for prev, nxt in zip(events, events[1:]):
            if nxt.start_sec < prev.end_sec - 1e-12:
                return False
        if sum(1 for e in events if e.phase == "fwd") != MB:
            return False
        if sum(1 for e in events if e.phase == "bwd") != MB:
            return False
        fwd_end = {}
        sync_start = None
        for e in events:
            if e.phase in ("fwd", "recompute"):
                fwd_end[e.microbatch] = e.end_sec
            elif e.phase == "bwd":
                if e.microbatch not in fwd_end:
                    return False
                if e.start_sec < fwd_end[e.microbatch] - 1e-12:
                    return False
                if e.stage + 1 < S:
                    need = stage_bwd_end.get((e.stage + 1, e.microbatch))
                    if need is None or e.start_sec < need - 1e-12:
                        return False
            elif e.phase == "allreduce":
                sync_start = e.start_sec
        if sync_start is not None:
            last_comp = max((e.end_sec for e in events
                             if e.phase in ("fwd", "bwd", "recompute")),
                            default=0.0)
            if sync_start < last_comp - 1e-12:
                return False
    for (stage, mb), start in stage_fwd_start.items():
        if stage > 0:
            upstream = stage_fwd_end.get((stage - 1, mb))
            if upstream is None or start < upstream - 1e-12:
                return False
    return True


def test_criterion_7_structural_invariants():
    _ensure_searches()
    n_viol = 0
    for plan, bs in PLANS:
        n_viol += len(validate_plan(plan, bs))

    n_blocks = 0
    convex_bad = 0
    mem_bad = 0
    seen = set()
    for bs in BLOCKSETS:
        if id(bs) in seen:
            continue
        seen.add(id(bs))
        succ = _atom_succ(bs.partition)
        budget = bs.model.cluster.device_memory_bytes
        for atoms, cost in zip(bs.block_atoms, bs.costs):
            n_blocks += 1
            if not is_convex(atoms, succ):
                convex_bad += 1
            if cost.mem_bytes > budget:
                mem_bad += 1

    if not SCHEDULES:
        for plan, bs in PLANS[:40]:
            SCHEDULES.append((simulate(plan, bs), plan))
    else:
        for plan, bs in PLANS[:24]:
            SCHEDULES.append((simulate(plan, bs), plan))
    stale = sum(1 for sched, plan in SCHEDULES
                if not _staleness_free(sched, plan))

    ok = n_viol == 0 and convex_bad == 0 and mem_bad == 0 and stale == 0
    _verdict(7, "structural invariants", ok,
             f"{len(PLANS)} plans clean, {n_blocks} blocks convex and within "
             f"memory ({convex_bad}/{mem_bad} bad), {len(SCHEDULES)} schedules "
             f"staleness-free ({stale} bad)")
