"""Stage assignment over a block list, and the fill-drain replay of a plan.

A stage is a contiguous block range run on some device count and replicated
for data parallelism. The planner minimizes the slowest forward plus the
slowest backward stage time, including the transfer of boundary values, via
a dynamic program over (stages so far, blocks covered, devices spent). A
search on top picks the replica factor R (largest first of those dividing the
node count), stage count, and microbatch count, ranking complete plans by
replayed iteration time. The search, the sends and the replay all read the
cluster shape from the block set (`blocks.model.cluster`), and place devices
by one node rule: device d sits on node d // devices_per_node, a send after
cumulative device c crosses nodes when devices c - 1 and c do, and a stage's
gradient sync when its first and last devices do, or when R > 1.

The stage count is a dimension of the table, as in Alpa's inter-operator DP
(arXiv 2201.12023) and PipeDream's partitioner: one pass (`_run_pass`)
answers every S in [S_lo, S_hi] from cell (nb, D) of row S, where row s
covers b <= nb - g blocks and d <= D - g devices, g = max(S_lo - s, 0).
`form_stage_dp` runs a range of one S: the plain S-stage DP, which the
brute-force enumerator cross-checks.

A pass charges stages and builds a Pareto frontier only for live cells:
those a later row reads (s < S_hi, b < nb and d < D) and the cell (nb, D)
that ends a plan. Every other cell is dead: the rest of the last row, and
in earlier rows the cells that have used every block or every device. A
dead cell still counts its visits and meets the visit budget, and with
pruning on it gets a reachability test: the same share, profile and
memory rule, stopping at the first stage that fits, with no sends and no
frontier. Its answer drives the pruning break exactly as an empty frontier
would, so pruning, visits and the budget keep the meaning they have in a
DP that builds every frontier.

`stage_cost` is the one rule that charges a stage: its span's profile,
composed from per-block terms (`BlockSet.profile`), at the per-device
microbatch share, plus the forward send across its upper cut and the
backward send across its lower cut (`_send`, from `BlockSet.boundary_bytes`);
the stage fits when `CostModel.fits` accepts the profile's memory. The
dynamic program, the brute-force enumerator that cross-checks it,
`validate_plan` and `replay` all charge stages this way.

Memory assumption: a stage is charged one microbatch slice's activations.
Fill-drain keeps the inputs (checkpointing on) or all activations
(checkpointing off) of every microbatch in flight until its backward pass;
that residency is not charged.

`replay` is GPipe's fill-drain schedule (arXiv 1811.06965): all microbatches
forward through the stages, then backward in reverse microbatch order, then
a gradient sync on every stage whose parameters live on several devices.
One lane step serves every phase: a stage starts it when its lane is free
and its input has arrived, then runs its send, which occupies the sender.
So devices never overlap their own work, a stage's cadence matches its
charged time, and a microbatch's arrival is carried from stage to stage
rather than kept in a table. Pipeline replicas behave alike: one replica's
stage lanes are replayed, and the replica count only enters the gradient
sync. A stage on r devices syncs `2 * params * (r - 1) // r` bytes: the
ring-allreduce volume, rounded down to a whole byte.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import NamedTuple, get_type_hints

from .blocks import BlockSet
from .costs import CostRecord
from .graph import ParseError, Violation, check_keys, parse_amount


class InvalidArgs(ValueError):
    pass


class TooLarge(ValueError):
    pass


class SearchBudgetExceeded(RuntimeError):
    def __init__(self, visits: int, budget: int):
        super().__init__(f"candidate visits {visits} exceeded budget {budget}")
        self.visits = visits
        self.budget = budget


class StagePlan(NamedTuple):
    blocks: tuple[int, int]  # half-open block range [from, to)
    devices: int             # devices per pipeline replica
    replicas: int            # devices x replica factor
    t_fwd: float             # compute profile at the plan microbatch, no comm
    t_bwd: float
    mem: int


class Plan(NamedTuple):
    stages: tuple[StagePlan, ...]
    microbatches: int        # microbatch count per iteration
    replica_factor: int
    objective: float         # max stage forward + max stage backward, with comm
    batch_size: int
    devices_total: int       # devices per pipeline replica, summed over stages

    def to_json(self) -> dict:
        return {**self._asdict(), "stages": [{**st._asdict(), "blocks": list(st.blocks)}
                                             for st in self.stages]}

    @staticmethod
    def from_json(doc: dict) -> "Plan":
        """Key sets and check order follow the record fields, and a field
        annotated `int` must be a whole number."""
        def amounts(raw: dict, cls, what: str) -> dict:
            return {name: parse_amount(raw[name], f"{what} {name}", whole=kind is int)
                    for name, kind in get_type_hints(cls).items()
                    if name not in ("blocks", "stages")}

        top = set(Plan._fields)
        check_keys(doc, top, top, "plan")
        if not isinstance(doc["stages"], list):
            raise ParseError("plan stages must be an array")
        stage_keys = set(StagePlan._fields)
        stages = []
        for i, st in enumerate(doc["stages"]):
            check_keys(st, stage_keys, stage_keys, f"plan stage {i}")
            if not isinstance(st["blocks"], list) or len(st["blocks"]) != 2:
                raise ParseError("plan stage blocks must be a [from, to) pair")
            blocks = tuple(parse_amount(b, "plan stage blocks", whole=True)
                           for b in st["blocks"])
            stages.append(StagePlan(blocks=blocks, **amounts(st, StagePlan, "plan stage")))
        return Plan(stages=tuple(stages), **amounts(doc, Plan, "plan"))


class SearchStats:
    """Counters of one search, which the DP passes add to."""

    def __init__(self, visits: int = 0, dp_calls: int = 0):
        # candidate (predecessor cut, device split) pairs of every cell the
        # DP passes scanned: (b-s+1)(d-s+1) for cell (s, b, d), dead cells
        # included, though only live cells build a frontier
        self.visits = visits
        self.dp_calls = dp_calls  # DP passes, each over a range of stage counts


class SearchOptions(NamedTuple):
    disable_pruning: bool = False
    visit_budget: int | None = None


class SearchResult(NamedTuple):
    plan: Plan | None   # None means no feasible assignment exists
    stats: SearchStats


class InvalidPlan(ValueError):
    def __init__(self, violations):
        super().__init__("; ".join(v.detail for v in violations))
        self.violations = tuple(violations)


def _share(batch_size: int, microbatches: int, replica_factor: int,
           devices: int) -> int:
    """Samples each of a stage's devices gets from one microbatch."""
    return batch_size // (microbatches * replica_factor * devices)


def _ckpt(blocks: BlockSet, S: int) -> bool:
    """Recomputation is modelled only when there is more than one stage."""
    return blocks.model.config.checkpointing and S > 1


def _send(blocks: BlockSet, cut: int, m: int, cum_devices: int) -> float:
    """Transfer time of the boundary at `cut` for one microbatch slice of m
    samples per device. The cut sits after cumulative device cum_devices,
    so by the node rule it crosses nodes exactly when that count is a whole
    number of nodes."""
    inter = cum_devices % blocks.model.cluster.devices_per_node == 0
    return blocks.model.comm_time(blocks.boundary_bytes(cut, m), inter_node=inter)


def stage_cost(blocks: BlockSet, lo: int, hi: int, d0: int, d1: int, m: int,
               ckpt: bool) -> tuple[CostRecord, float, float]:
    """Charge of blocks [lo, hi) on the devices after cumulative count d0 up
    to d1, at m samples per device: the span's profile, its forward send
    across `hi` and its backward send across `lo` (0.0 at the graph ends)."""
    rec = blocks.profile(lo, hi, m, ckpt)
    fwd = _send(blocks, hi, m, d1) if hi < len(blocks) else 0.0
    bwd = _send(blocks, lo, m, d0) if lo > 0 else 0.0
    return rec, fwd, bwd


def _stage_costs(blocks: BlockSet, spans, batch_size: int, MB: int, R: int):
    """`stage_cost` of each (lo, hi, devices) stage of a full assignment;
    the record is None where a device's share of a microbatch is zero."""
    ckpt = _ckpt(blocks, len(spans))
    d1 = 0
    for lo, hi, dev in spans:
        d0, d1 = d1, d1 + dev
        m = _share(batch_size, MB, R, dev)
        if m == 0:
            yield None, 0.0, 0.0
        else:
            yield stage_cost(blocks, lo, hi, d0, d1, m, ckpt)


def _assemble(blocks: BlockSet, spans, batch_size: int, MB: int, R: int,
              objective: float) -> Plan:
    costs = _stage_costs(blocks, spans, batch_size, MB, R)
    stages = tuple(StagePlan(blocks=(lo, hi), devices=dev, replicas=dev * R,
                             t_fwd=rec.t_fwd_sec, t_bwd=rec.t_bwd_sec, mem=rec.mem_bytes)
                   for (lo, hi, dev), (rec, _, _) in zip(spans, costs))
    return Plan(stages=stages, microbatches=MB, replica_factor=R,
                objective=objective, batch_size=batch_size,
                devices_total=sum(dev for _, _, dev in spans))


def _check_args(blocks: BlockSet, S: int, D: int, batch_size: int,
                replica_factor: int, microbatches: int) -> None:
    if S < 1 or D < 1 or batch_size < 1 or replica_factor < 1 or microbatches < 1:
        raise InvalidArgs("stage count, devices, batch size, replicas and "
                          "microbatches must all be at least 1")
    if S > D:
        raise InvalidArgs(f"cannot run {S} stages on {D} devices")
    if S > len(blocks):
        raise InvalidArgs(f"cannot cut {len(blocks)} blocks into {S} stages")


# frontier entry: (max fwd time so far, max bwd time so far,
#                  predecessor block cut, predecessor device count,
#                  predecessor entry, None at the empty prefix)
_Entry = tuple[float, float, int, int, "_Entry | None"]


def _pareto(cands: list[_Entry]) -> list[_Entry]:
    """Non-dominated (tf, tb) pairs, tf ascending; first entry wins ties."""
    out: list[_Entry] = []
    best_tb = math.inf
    for entry in sorted(cands, key=lambda e: (e[0], e[1])):
        if entry[1] < best_tb:
            out.append(entry)
            best_tb = entry[1]
    return out


def _fewest_stages(D: int, batch_size: int, MB: int, R: int) -> int:
    """Fewest stages that can hold D devices: every stage's devices need a
    positive share of a microbatch, so S stages hold at most S x share(1)."""
    share = _share(batch_size, MB, R, 1)
    return -(-D // share) if share else D + 1


def _run_pass(blocks: BlockSet, S_lo: int, S_hi: int, D: int, batch_size: int,
              R: int, MB: int, opts: SearchOptions,
              stats: SearchStats) -> dict[int, Plan]:
    """Optimal S-stage assignment onto D devices, by S, for each S in
    [S_lo, S_hi] that has one; the S must share one `_ckpt` mode."""
    nb = len(blocks)
    fits = blocks.model.fits
    ckpt = _ckpt(blocks, S_hi)
    stats.dp_calls += 1
    # the last cell of row S needs all D devices, each with a positive share
    S_lo = max(S_lo, _fewest_stages(D, batch_size, MB, R))
    if S_lo > S_hi:
        return {}

    # Each cell keeps every non-dominated (running max tf, running max tb)
    # pair instead of a single value: a prefix with the larger forward
    # bottleneck can still win once a later stage raises it anyway, so
    # collapsing to one pair per cell loses exactness against enumeration.
    prev: dict[tuple[int, int], list[_Entry]] = {(0, 0): [(0.0, 0.0, -1, -1, None)]}
    plans: dict[int, Plan] = {}
    # per-device share of a stage on d - dp devices, indexed by that width
    shares = [0, *(_share(batch_size, MB, R, w) for w in range(1, D + 1))]
    for s in range(1, S_hi + 1):
        # the carried floor only speaks about single-stage prefixes; a finer
        # multi-stage split of the same prefix can fit where the one-stage
        # form did not, so each row starts fresh
        d_min = 1
        # a cell on any S-stage path, S >= S_lo, leaves a block and a device
        # to each later stage, so it lies inside; its predecessors are the
        # ones a pass for S alone scans
        g = max(S_lo - s, 0)
        cur: dict[tuple[int, int], list[_Entry]] = {}
        prev_cells = sorted(prev.items())
        for b in range(s, nb - g + 1):
            for d in range(D - g, max(d_min, s) - 1, -1):
                stats.visits += (b - s + 1) * (d - s + 1)
                if opts.visit_budget is not None and stats.visits > opts.visit_budget:
                    raise SearchBudgetExceeded(stats.visits, opts.visit_budget)
                # a live cell: a later row reads it, or it ends a plan
                live = (b, d) == (nb, D) or (s < S_hi and b < nb and d < D)
                if not live and opts.disable_pruning:
                    continue
                cands: list[_Entry] = []
                saw_zero_share = reached = False
                for (bp, dp), entries in prev_cells:
                    if bp >= b:
                        break
                    if dp >= d:
                        continue
                    m = shares[d - dp]
                    if m == 0:
                        # fewer devices would get a positive share back, so
                        # this failure does not persist toward smaller d
                        saw_zero_share = True
                        continue
                    if not live:
                        # nothing reads a dead cell's frontier: the pruning
                        # below only asks whether some stage reaches it
                        reached = fits(blocks.profile(bp, b, m, ckpt).mem_bytes)
                        if reached:
                            break
                        continue
                    rec, fwd, bwd = stage_cost(blocks, bp, b, dp, d, m, ckpt)
                    if not fits(rec.mem_bytes):
                        continue
                    tf = rec.t_fwd_sec + fwd
                    tb = rec.t_bwd_sec + bwd
                    for entry in entries:
                        cands.append((max(entry[0], tf), max(entry[1], tb), bp, dp, entry))
                if cands:
                    cur[(b, d)] = _pareto(cands)
                elif not reached and not opts.disable_pruning and not saw_zero_share:
                    # every candidate failed for a reason that persists when
                    # d shrinks (memory over budget, or an infeasible
                    # predecessor), so the rest of this d range is dead; for
                    # single-stage prefixes the floor also holds as b grows
                    if s == 1:
                        d_min = d + 1
                    break
        if (nb, D) in cur:  # rows below S_lo stop short of it
            best = min(cur[(nb, D)], key=lambda e: e[0] + e[1])
            spans = []
            hi, d1, entry = nb, D, best
            while entry[4] is not None:
                _, _, lo, d0, entry = entry
                spans.append((lo, hi, d1 - d0))
                hi, d1 = lo, d0
            plans[s] = _assemble(blocks, spans[::-1], batch_size, MB, R, best[0] + best[1])
        prev = cur
    return plans


def form_stage_dp(blocks: BlockSet, S: int, D: int, batch_size: int,
                  replica_factor: int, microbatches: int,
                  options: SearchOptions | None = None) -> SearchResult:
    """Optimal S-stage assignment of the block list onto D devices."""
    _check_args(blocks, S, D, batch_size, replica_factor, microbatches)
    stats = SearchStats()
    plans = _run_pass(blocks, S, S, D, batch_size, replica_factor, microbatches,
                      options or SearchOptions(), stats)
    return SearchResult(plans.get(S), stats)


def brute_force_partition(blocks: BlockSet, S: int, D: int, batch_size: int,
                          replica_factor: int, microbatches: int) -> SearchResult:
    """Exhaustive reference search; same candidate rules as the DP."""
    _check_args(blocks, S, D, batch_size, replica_factor, microbatches)
    nb = len(blocks)
    if nb > 12 or D > 8:
        raise TooLarge(f"{nb} blocks on {D} devices is past the enumeration guard")
    fits = blocks.model.fits
    stats = SearchStats()

    def splits(n: int):
        """Each way to cut 0..n into S positive parts, as S + 1 bounds."""
        return [(0, *cuts, n) for cuts in combinations(range(1, n), S - 1)]

    # visits run in (block cuts, device cuts) order, so keeping the first
    # best makes ties go to the smallest cuts
    best = None
    for bounds, dev_bounds in product(splits(nb), splits(D)):
        stats.visits += 1
        devs = [d1 - d0 for d0, d1 in zip(dev_bounds, dev_bounds[1:])]
        spans = tuple(zip(bounds, bounds[1:], devs))
        tfs: list[float] = []
        tbs: list[float] = []
        for rec, fwd, bwd in _stage_costs(blocks, spans, batch_size,
                                          microbatches, replica_factor):
            if rec is None or not fits(rec.mem_bytes):
                break
            tfs.append(rec.t_fwd_sec + fwd)
            tbs.append(rec.t_bwd_sec + bwd)
        if len(tfs) < S:
            continue
        objective = max(tfs) + max(tbs)
        if best is None or objective < best[0]:
            best = (objective, spans)
    if best is None:
        return SearchResult(None, stats)
    objective, spans = best
    plan = _assemble(blocks, spans, batch_size, microbatches, replica_factor,
                     objective)
    return SearchResult(plan, stats)


def form_stage(batch_size: int, blocks: BlockSet,
               options: SearchOptions | None = None) -> SearchResult:
    """Search replica factor, stage count, and microbatch count together.

    The cluster is the block set's (`blocks.model.cluster`). Levels are the
    replica factors R <= batch_size that divide its node count, largest
    first, each with node count / R nodes per pipeline. Each level runs one
    DP pass per microbatch count over its stage counts; with checkpointing
    on, a single stage, which drops it, gets a pass of its own. The first
    level with any feasible assignment wins; within it, candidates are checked
    with `validate_plan` and ranked by replayed iteration time, then objective,
    then fewer microbatches, then (stage count, microbatch count) order.
    """
    if batch_size < 1:
        raise InvalidArgs("batch size must be at least 1")
    cluster = blocks.model.cluster
    opts = options or SearchOptions()
    stats = SearchStats()
    nb = len(blocks)
    for R in range(min(cluster.num_nodes, batch_size), 0, -1):
        if cluster.num_nodes % R == 0:
            n = cluster.num_nodes // R
            D = cluster.devices_per_node * n
            S_last = min(D, nb)
            found: list[tuple[int, int, Plan]] = []
            MB = 1
            while MB * R <= batch_size:
                S_first = max(cluster.devices_per_node * (n - 1) + 1,
                              _fewest_stages(D, batch_size, MB, R))
                ranges = [(S_first, S_last)]
                if blocks.model.config.checkpointing and S_first == 1:
                    ranges = [(1, 1), (2, S_last)]
                for lo, hi in ranges:
                    if lo <= hi:
                        for S, plan in _run_pass(blocks, lo, hi, D, batch_size,
                                                 R, MB, opts, stats).items():
                            found.append((S, MB, plan))
                MB *= 2
            if found:
                def rank(p: Plan):
                    violations = validate_plan(p, blocks)
                    if violations:
                        raise InvalidPlan(violations)
                    return (replay(p, blocks)[0], p.objective, p.microbatches)

                found.sort(key=lambda c: c[:2])
                return SearchResult(min((p for _, _, p in found), key=rank), stats)
    return SearchResult(None, stats)


def _spans(plan: Plan) -> list[tuple[int, int, int]]:
    return [(st.blocks[0], st.blocks[1], st.devices) for st in plan.stages]


def validate_plan(plan: Plan, blocks: BlockSet) -> list[Violation]:
    """Recheck a plan from scratch; empty list iff it is sound."""
    out: list[Violation] = []
    nb = len(blocks)
    if not plan.stages:
        return [Violation("empty-plan", (), "plan has no stages")]
    if plan.microbatches < 1 or plan.replica_factor < 1 or plan.batch_size < 1:
        return [Violation("counts", (), "microbatches, replica factor and batch "
                                        "size must be at least 1")]

    expected = 0
    for i, st in enumerate(plan.stages):
        lo, hi = st.blocks
        if lo != expected or hi <= lo:
            out.append(Violation("boundary", (f"stage {i}",),
                                 f"stage {i} covers [{lo}, {hi}) but the "
                                 f"previous stage ended at {expected}"))
        expected = hi
        if st.devices < 1:
            out.append(Violation("devices", (f"stage {i}",),
                                 f"stage {i} has {st.devices} devices"))
        if st.replicas != st.devices * plan.replica_factor:
            out.append(Violation("replicas", (f"stage {i}",),
                                 f"stage {i} replicas {st.replicas} != devices "
                                 f"x replica factor"))
    if expected != nb:
        out.append(Violation("boundary", ("stage last",),
                             f"stages end at block {expected}, not {nb}"))
    total_dev = sum(st.devices for st in plan.stages)
    if total_dev != plan.devices_total:
        out.append(Violation("devices", (), f"stage devices sum to {total_dev}, "
                                            f"plan says {plan.devices_total}"))
    if out:
        return out

    budget = blocks.model.cluster.device_memory_bytes
    tfs: list[float] = []
    tbs: list[float] = []
    costs = _stage_costs(blocks, _spans(plan), plan.batch_size,
                         plan.microbatches, plan.replica_factor)
    for i, (st, (rec, fwd, bwd)) in enumerate(zip(plan.stages, costs)):
        if rec is None:
            out.append(Violation("microbatch", (f"stage {i}",),
                                 f"stage {i} gets zero samples per device"))
            continue
        if not blocks.model.fits(rec.mem_bytes):
            out.append(Violation("memory", (f"stage {i}",),
                                 f"stage {i} needs {rec.mem_bytes} bytes, "
                                 f"device holds {budget}"))
        if rec.mem_bytes != st.mem or not (
                math.isclose(rec.t_fwd_sec, st.t_fwd, rel_tol=1e-9, abs_tol=1e-15)
                and math.isclose(rec.t_bwd_sec, st.t_bwd, rel_tol=1e-9, abs_tol=1e-15)):
            out.append(Violation("profile", (f"stage {i}",),
                                 f"stage {i} stored profile does not match "
                                 f"a fresh one"))
        tfs.append(rec.t_fwd_sec + fwd)
        tbs.append(rec.t_bwd_sec + bwd)
    if tfs and not out:
        v = max(tfs) + max(tbs)
        if not math.isclose(v, plan.objective, rel_tol=1e-9, abs_tol=1e-15):
            out.append(Violation("objective", (),
                                 f"recomputed objective {v} != stored "
                                 f"{plan.objective}"))
    return out


def replay(plan: Plan, blocks: BlockSet) -> tuple[float, list[list]]:
    """Fill-drain replay of one pipeline replica of a validated plan.

    Returns the iteration time and, per stage, its work in order as
    (microbatch, phase, start, end), where the gradient sync has microbatch
    -1. Compute takes the plan's stored stage times; `stage_cost` charges
    the sends.
    """
    cluster = blocks.model.cluster
    S = len(plan.stages)
    MB = plan.microbatches
    R = plan.replica_factor
    ckpt = _ckpt(blocks, S)
    tf = [st.t_fwd for st in plan.stages]
    tb = [st.t_bwd for st in plan.stages]
    _, c_fwd, c_bwd = zip(*_stage_costs(blocks, _spans(plan), plan.batch_size,
                                        MB, R))

    lane_free = [0.0] * S
    lanes: list[list[tuple[int, str, float, float]]] = [[] for _ in range(S)]

    def step(s: int, mb: int, phase: str, dur: float, ready: float = 0.0,
             send: float = 0.0) -> float:
        """Run one phase and its send on stage s; returns when both end."""
        start = max(lane_free[s], ready)
        end = start + dur
        lanes[s].append((mb, phase, start, end))
        if send > 0.0:
            lanes[s].append((mb, "comm", end, end + send))
            end += send
        lane_free[s] = end
        return end

    for mb in range(MB):
        ready = 0.0
        for s in range(S):
            ready = step(s, mb, "fwd", tf[s], ready, c_fwd[s])
    for mb in range(MB - 1, -1, -1):
        ready = 0.0
        for s in range(S - 1, -1, -1):
            if ckpt:
                step(s, mb, "recompute", tf[s])
            ready = step(s, mb, "bwd", tb[s], ready, c_bwd[s])

    d1 = 0
    for s, st in enumerate(plan.stages):
        d0, d1 = d1, d1 + st.devices
        params = blocks.param_bytes(*st.blocks)
        if st.replicas <= 1 or params == 0:
            continue
        # at least one byte over a finite bandwidth: the sync takes time
        nbytes = 2 * params * (st.replicas - 1) // st.replicas
        first_node = d0 // cluster.devices_per_node
        last_node = (d1 - 1) // cluster.devices_per_node
        step(s, -1, "allreduce", blocks.model.comm_time(
            nbytes, inter_node=R > 1 or first_node != last_node))

    return max(lane_free), lanes
