"""Block formation over atomic subcomponents.

Folds atoms into at most k convex blocks, listed in dependency order, with a
METIS-style multilevel scheme (Karypis & Kumar 1998): greedy pairwise
coarsening that grows the cheapest groups first; a refinement sweep that
revisits every recorded merge and moves one side next door when that
strictly lowers cross-block traffic; a dependency-order listing that folds
any cycle of groups into one group; and a compaction that folds
list-adjacent groups whenever coarsening stalled short of the target.

Every group must fit device memory (`CostModel.fits`) at microbatch 1 with
checkpointing on, the floor any later stage assignment has to clear too.
One walk (`_home_terms`) gives the terms of a home, an atom or a block:
parameter bytes, source bytes, and each task's working set with its reads
keyed by owning home. A group's memory is composed from its atoms' terms
by the working-set rule (`_peak`) that spans use too; it equals
`CostModel.profile` on the merged group, which runs on final blocks only.
A candidate move is scored by its traffic gain over only the values the
mover's atoms own or read, the Fiduccia-Mattheyses gain (1982), which equals
the difference of two whole-graph recounts. `BlockSet` holds the span
profiles and cut times that stage search, plan checking and replay share.

`BlockSet.profile` composes a span's `CostRecord` from per-block terms in
constant time instead of walking the span's nodes, the way PipeDream's
partitioner sums per-layer costs (Narayanan et al., SOSP'19). Times,
parameter bytes and resident bytes are prefix sums; span input bytes come
from a table over (lo, hi); the checkpointing footprint is a running max
over hi. The terms are built once per microbatch size over distinct task
classes: a block's tasks with the same op signature, FLOPs and value sizes
are costed once and counted, so a model of repeated layers costs a few
dozen tasks per microbatch size, not every task. The record is equal, bit
for bit, to `CostModel.profile` on the merged span.
"""

from __future__ import annotations

import graphlib
import heapq
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .atoms import AtomicPartition, Subcomponent
from .costs import CostModel, CostRecord, op_signature
from .graph import TaskInfo


class InfeasibleAtom(Exception):
    """One atom alone exceeds device memory at the cheapest setting."""

    def __init__(self, atom_id: str, mem_bytes: int, budget_bytes: int):
        super().__init__(
            f"atom {atom_id} needs {mem_bytes} bytes at microbatch 1 with "
            f"checkpointing; a device holds {budget_bytes}")
        self.atom_id = atom_id
        self.mem_bytes = mem_bytes
        self.budget_bytes = budget_bytes


class CompactionStuck(Exception):
    """Leftover groups cannot be folded to the target count within memory."""

    def __init__(self, n_groups: int, target: int,
                 why: str = "no adjacent merge fits device memory"):
        super().__init__(f"stuck at {n_groups} groups with target {target}; {why}")
        self.n_groups = n_groups
        self.target = target


def is_convex(group, succ) -> bool:
    """True if no dependency path leaves the group and re-enters it.

    Atom indices form a topological order, so a contiguous index range is
    convex outright and any violating path stays strictly inside the span.
    """
    members = set(group)
    lo, hi = min(members), max(members)
    if hi - lo + 1 == len(members):
        return True
    frontier: list[int] = []
    seen: set[int] = set()
    for a in members:
        for b in succ[a]:
            if b not in members and lo < b < hi and b not in seen:
                seen.add(b)
                frontier.append(b)
    while frontier:
        x = frontier.pop()
        for b in succ[x]:
            if b in members:
                return False
            if b < hi and b not in seen:
                seen.add(b)
                frontier.append(b)
    return True


class _Grouping:
    """Shared state for the three phases: adjacency, costs, feasibility.

    Group memory and move gains are composed from per-atom terms built once
    here, so neither walks the graph or materializes a subcomponent."""

    def __init__(self, partition: AtomicPartition, model: CostModel):
        self.model = model
        self.budget = model.cluster.device_memory_bytes
        n = len(partition.atoms)
        self.n_atoms = n
        self.succ: list[list[int]] = [[] for _ in range(n)]
        self.pred: list[list[int]] = [[] for _ in range(n)]
        for a, b in partition.dependencies():
            self.succ[a].append(b)
            self.pred[b].append(a)
        self.neighbors: list[list[int]] = [
            sorted(set(self.succ[i]) | set(self.pred[i])) for i in range(n)]

        # per atom, at microbatch 1 with checkpointing on: parameter bytes;
        # (value index, bytes, owner atom or -1 for a graph input) of each
        # input; the largest working set of its tasks that read nothing
        # another atom owns, and (own working set, reads) of the others
        g = partition.graph
        value_index = {vid: i for i, vid in enumerate(g.value_ids())}
        owner_of = partition.owner_of_value
        self.atom_comp: list[float] = []
        self._params: list[int] = []
        self._inputs: list[tuple[tuple[int, int, int], ...]] = []
        self._own_peak: list[int] = []
        self._reaching: list[list[tuple[int, list[tuple[int, int]]]]] = []
        home_terms = _home_terms(partition, [(a,) for a in range(n)])
        for atom, (params, _, shapes) in zip(partition.atoms, home_terms):
            t_fwd, t_bwd, _, own_peak, reaching = _task_terms(
                model, [(shape, 1) for shape in shapes], 1)
            self.atom_comp.append(math.fsum(t for t, _ in t_fwd)
                                  + math.fsum(t for t, _ in t_bwd))
            self._params.append(params)
            self._inputs.append(tuple(
                (value_index[vid], g.value_size(vid, 1),
                 -1 if vid in g.inputs else owner_of(vid))
                for vid in atom.input_values))
            self._own_peak.append(own_peak)
            self._reaching.append(reaching)

        # (bytes, owner atom, foreign consumer atoms) of each value read
        # outside its owner, and per atom the entries it owns or reads
        self._value_traffic: list[tuple[int, int, tuple[int, ...]]] = []
        self._touching: list[list[int]] = [[] for _ in range(n)]
        for vid in g.value_ids():
            consumers = partition.consumer_atoms(vid)
            owner = owner_of(vid)
            foreign = tuple(sorted(consumers - {owner}))
            if foreign:
                vi = len(self._value_traffic)
                self._value_traffic.append((g.value_size(vid, 1), owner, foreign))
                for a in (owner, *foreign):
                    self._touching[a].append(vi)

    def rank(self, group: tuple[int, ...]) -> tuple[float, int]:
        """Merge order: cheapest compute first, ties by smallest atom."""
        return sum(self.atom_comp[i] for i in group), group[0]

    def mem(self, group: tuple[int, ...]) -> int:
        """`CostModel.profile` memory of the merged group at microbatch 1
        with checkpointing on, from the members' terms: each input from
        outside the group once, plus the largest task working set, where a
        read of a value another member owns stays in the working set."""
        members = set(group)
        seen: set[int] = set()
        params = input_bytes = peak = 0
        for a in group:
            params += self._params[a]
            for vi, size, owner in self._inputs[a]:
                if owner not in members and vi not in seen:
                    seen.add(vi)
                    input_bytes += size
            peak = _peak(peak, self._own_peak[a], self._reaching[a], members)
        return self.model.training_bytes(params, input_bytes + peak)

    def fits(self, group: tuple[int, ...]) -> bool:
        return self.model.fits(self.mem(group))

    def gain(self, mover: tuple[int, ...], dest: int, table: list[int]) -> int:
        """Traffic saved by moving the mover's atoms into group `dest` of the
        atom -> group `table`: bytes per sample shipped between groups, one
        copy per foreign group, before the move minus after it. Only values
        the mover's atoms own or read can change, so only those are summed
        (the Fiduccia-Mattheyses gain)."""
        moved = set(mover)
        saving = 0
        for vi in {vi for a in mover for vi in self._touching[a]}:
            size, owner, consumers = self._value_traffic[vi]
            home = table[owner]
            before = len({table[c] for c in consumers} - {home})
            home = dest if owner in moved else home
            after = len({dest if c in moved else table[c] for c in consumers} - {home})
            saving += size * (before - after)
        return saving


def _group_index(groups: list[tuple[int, ...]], n_atoms: int) -> list[int]:
    """Atom -> index of its group in `groups`."""
    table = [0] * n_atoms
    for gi, grp in enumerate(groups):
        for a in grp:
            table[a] = gi
    return table


def _coarsen_pass(groups: list[tuple[int, ...]], k: int, ctx: _Grouping):
    """One level of pairwise merges, cheapest groups first."""
    gmap = _group_index(groups, ctx.n_atoms)
    order = sorted(range(len(groups)), key=lambda gi: ctx.rank(groups[gi]))
    used: set[int] = set()
    partner: dict[int, int] = {}
    count = len(groups)
    for gi in order:
        if count <= k:
            break
        if gi in used:
            continue
        v = groups[gi]
        cand_ids = {gmap[b] for a in v for b in ctx.neighbors[a]}
        cand_ids.discard(gi)
        cands = sorted((c for c in cand_ids if c not in used),
                       key=lambda c: ctx.rank(groups[c]))
        for gj in cands:
            merged = tuple(sorted(v + groups[gj]))
            if is_convex(merged, ctx.succ) and ctx.fits(merged):
                partner[gi] = gj
                used.add(gi)
                used.add(gj)
                count -= 1
                break
    merges = [(groups[gi], groups[gj]) for gi, gj in sorted(partner.items())]
    new_groups = [grp for gi, grp in enumerate(groups) if gi not in used]
    new_groups += [tuple(sorted(v + w)) for v, w in merges]
    new_groups.sort(key=lambda grp: grp[0])
    return new_groups, merges


def _uncoarsen(levels, transitions, ctx: _Grouping) -> None:
    """Walk merges back from coarsest to finest, moving one side of a pair
    into a neighboring group when that strictly cuts total traffic.

    Each candidate is scored by its gain first and checked for convexity and
    memory only when it would become the best so far; the checks change
    nothing, so this picks the same move as checking every candidate first.
    A move rewrites each coarser level's table and group tuples in place; a
    group keeps its index. Level li changes only under moves at finer levels,
    which come later, so its groups are still the ones its merges recorded.
    """
    tables = [_group_index(level, ctx.n_atoms) for level in levels]
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
                    if _move_fits(mover, target, levels, tables, li, ctx):
                        best = (saving, mover, target)
            if best is not None:
                _apply_move(best[1], best[2], levels, tables, li)


def _move_fits(mover, target, levels, tables, li, ctx: _Grouping) -> bool:
    """Both touched groups stay convex and inside memory at every coarser level."""
    mover_set = set(mover)
    for level, table in zip(levels[li + 1:], tables[li + 1:]):
        src = level[table[mover[0]]]
        dst = level[table[target[0]]]
        shrunk = tuple(a for a in src if a not in mover_set)
        grown = tuple(sorted(dst + mover))
        if not shrunk:
            return False
        if not (is_convex(grown, ctx.succ) and is_convex(shrunk, ctx.succ)):
            return False
        if not (ctx.fits(grown) and ctx.fits(shrunk)):
            return False
    return True


def _apply_move(mover, target, levels, tables, li) -> None:
    mover_set = set(mover)
    for level, table in zip(levels[li + 1:], tables[li + 1:]):
        si, di = table[mover[0]], table[target[0]]
        level[si] = tuple(a for a in level[si] if a not in mover_set)
        level[di] = tuple(sorted(level[di] + mover))
        for a in mover:
            table[a] = di


def _topo_groups(groups: list[tuple[int, ...]], k: int,
                 ctx: _Grouping) -> list[tuple[int, ...]]:
    """Group list in dependency order, ties broken by smallest atom index.

    Convex groups can still depend on each other in a cycle; each cycle the
    sorter reports is folded into one group before sorting again. Once the
    group graph is acyclic, every group is convex as well."""
    while True:
        table = _group_index(groups, ctx.n_atoms)
        preds: dict[int, set[int]] = {gi: set() for gi in range(len(groups))}
        for a in range(ctx.n_atoms):
            for b in ctx.succ[a]:
                if table[a] != table[b]:
                    preds[table[b]].add(table[a])
        sorter = graphlib.TopologicalSorter(preds)
        try:
            sorter.prepare()
        except graphlib.CycleError as exc:
            cycle = set(exc.args[1])
            union = tuple(sorted(a for gi in cycle for a in groups[gi]))
            if not ctx.fits(union):
                raise CompactionStuck(len(groups), k, f"folding a cycle of "
                                      f"{len(cycle)} groups exceeds device memory")
            groups = [grp for gi, grp in enumerate(groups) if gi not in cycle] + [union]
            continue
        heap: list[tuple[int, int]] = []
        order = []
        while sorter.is_active():
            for gi in sorter.get_ready():
                heapq.heappush(heap, (groups[gi][0], gi))
            _, gi = heapq.heappop(heap)
            order.append(groups[gi])
            sorter.done(gi)
        return order


def _compact(glist: list[tuple[int, ...]], k: int, ctx: _Grouping) -> list[tuple[int, ...]]:
    """Fold list-adjacent groups, cheapest first, until at most k remain.

    Merging neighbors in a topological listing keeps every group convex, so
    only memory can refuse a merge here.
    """
    glist = list(glist)

    def rank(gi):
        return ctx.rank(glist[gi])

    while len(glist) > k:
        pairs = ((pos, side) for pos in sorted(range(len(glist)), key=rank)
                 for side in sorted((s for s in (pos - 1, pos + 1)
                                     if 0 <= s < len(glist)), key=rank))
        for pos, side in pairs:
            union = tuple(sorted(glist[pos] + glist[side]))
            if ctx.fits(union):
                lo = min(pos, side)
                glist[lo:lo + 2] = [union]
                break
        else:
            raise CompactionStuck(len(glist), k)
    return glist


class _TaskShape(NamedTuple):
    """What a task adds to the memory terms of its home (an atom or a block),
    independent of the microbatch; sizes are (fixed bytes, bytes per sample)
    pairs. Parameters and graph inputs are in none of them."""

    info: TaskInfo
    produced: tuple             # non-parameter values it writes
    local_reads: tuple          # values it reads that its home owns
    foreign_reads: tuple        # (owner, fixed, per sample) of the others


def _home_terms(partition: AtomicPartition, homes) -> Iterator[tuple]:
    """The one walk over a home's nodes, for atoms and blocks alike. Yields per
    home (a tuple of atom indices): parameter bytes; source bytes, (fixed, per
    sample) of the non-parameter values with no producer that are not graph
    inputs some task reads (those live with their first reader), such as
    constants; and each task's `_TaskShape`, with foreign reads keyed by home."""
    g = partition.graph
    home_of = _group_index(homes, len(partition.atoms))
    owner_of = partition.owner_of_value

    def sizes(vid):
        info = g.nodes[vid].value
        return None if info.is_param else (info.fixed_bytes, info.bytes_per_sample)

    for h, atoms in enumerate(homes):
        params = fixed = per_sample = 0
        shapes: list[_TaskShape] = []
        for nid in (nid for a in atoms for nid in partition.atoms[a].node_ids):
            node = g.nodes[nid]
            if node.is_task:
                produced = tuple(sz for sz in map(sizes, g.succ(nid)) if sz is not None)
                local, foreign = [], []
                for vid in g.pred(nid):
                    sz = sizes(vid)
                    if sz is not None and vid not in g.inputs:
                        owner = home_of[owner_of(vid)]
                        if owner == h:
                            local.append(sz)
                        else:
                            foreign.append((owner, *sz))
                shapes.append(_TaskShape(node.task, produced, tuple(local), tuple(foreign)))
            elif node.value.is_param:
                params += node.value.fixed_bytes
            elif g.producer(nid) is None and not (nid in g.inputs and g.consumers(nid)):
                fixed += node.value.fixed_bytes
                per_sample += node.value.bytes_per_sample
        yield params, (fixed, per_sample), shapes


def _task_classes(shapes: list[_TaskShape]) -> list[tuple[_TaskShape, int]]:
    """(shape, count) per class of tasks that add the same terms at every
    microbatch: same op signature, FLOPs and sizes. The signature, not
    `TaskInfo` equality, decides, since `{"n": 1} == {"n": 1.0}` while their
    signatures, and so their cost-table entries, differ."""
    classes: dict[tuple, list] = {}
    for shape in shapes:
        key = (op_signature(shape.info, 0), shape.info.flops_per_sample, *shape[1:])
        classes.setdefault(key, [shape, 0])[1] += 1
    return [(shape, count) for shape, count in classes.values()]


def _task_terms(model: CostModel, classes: list[tuple[_TaskShape, int]], m: int):
    """The terms a home's tasks add to `CostModel.profile` at microbatch m,
    from (shape, count) pairs: (forward, count) and (backward, count)
    seconds per pair; the bytes they produce (a cost-table `act_bytes`
    replaces a task's own); the largest checkpointing working set (produced
    plus local reads) of the tasks that read nothing another home owns; and
    (own working set, [(owner, bytes)]) of the others, whose foreign reads
    join the working set only where their owner shares the task's group or
    span. The last two are maxima, so a count does not enter them."""
    t_fwd: list[tuple[float, int]] = []
    t_bwd: list[tuple[float, int]] = []
    produced_total = own_peak = 0
    reaching: list[tuple[int, list[tuple[int, int]]]] = []
    for shape, count in classes:
        tf, tb, produced = model.task_cost(shape.info, m)
        t_fwd.append((tf, count))
        t_bwd.append((tb, count))
        if produced is None:
            produced = sum(f + m * s for f, s in shape.produced)
        produced_total += count * produced
        own = produced + sum(f + m * s for f, s in shape.local_reads)
        if shape.foreign_reads:
            reaching.append((own, [(ob, f + m * s) for ob, f, s in shape.foreign_reads]))
        else:
            own_peak = max(own_peak, own)
    return t_fwd, t_bwd, produced_total, own_peak, reaching


def _peak(peak: int, own_peak: int, reaching, inside) -> int:
    """The one working-set rule: the larger of `peak` and a home's largest
    task working set, which a foreign read joins only if its owner is
    `inside` the group or span; any other read is an input of it."""
    peak = max(peak, own_peak)
    for own, reads in reaching:
        peak = max(peak, own + sum(size for owner, size in reads if owner in inside))
    return peak


def _exact_prefix(per_block: list[list[tuple[float, int]]]) -> tuple[int, list[int]]:
    """Prefix sums of float totals, from (float, count) pairs, held exactly
    as integers over one power-of-two denominator; dividing a difference
    rounds once, so a span total equals `math.fsum` of its floats."""
    ratios = [[(x.as_integer_ratio(), c) for x, c in xs] for xs in per_block]
    denom = max((d for rs in ratios for (_, d), _ in rs), default=1)
    prefix = [0]
    for rs in ratios:
        prefix.append(prefix[-1] + sum(c * n * (denom // d) for (n, d), c in rs))
    return denom, prefix


class _SpanTerms:
    """Per-block terms of `CostModel.profile` at one microbatch size."""

    def __init__(self, blocks: "BlockSet", microbatch: int):
        if microbatch < 0:
            raise ValueError("microbatch must be non-negative")
        m = microbatch
        n = len(blocks)
        model = blocks.model
        t_fwd: list[list[float]] = []
        t_bwd: list[list[float]] = []
        self.resident = [0] * (n + 1)   # prefix sums, checkpointing off
        # largest working set of a block's tasks that read nothing from an
        # earlier block, and (own working set, earlier reads) of the others
        self.own_peak: list[int] = []
        self.reaching: list[list[tuple[int, list[tuple[int, int]]]]] = []
        self._peak_rows: dict[int, list[int]] = {}
        for b, classes in enumerate(blocks._task_classes):
            fixed, per_sample = blocks._source_bytes[b]
            tfs, tbs, produced, own_peak, reaching = _task_terms(model, classes, m)
            t_fwd.append(tfs)
            t_bwd.append(tbs)
            self.resident[b + 1] = self.resident[b] + fixed + m * per_sample + produced
            self.own_peak.append(own_peak)
            self.reaching.append(reaching)
        self.fwd_denom, self.t_fwd = _exact_prefix(t_fwd)
        self.bwd_denom, self.t_bwd = _exact_prefix(t_bwd)

    def peak_row(self, lo: int) -> list[int]:
        """Largest single-task working set in [lo, hi), indexed by hi. A read
        from a block below lo is a span input, so it leaves the working set."""
        row = self._peak_rows.get(lo)
        if row is None:
            n = len(self.own_peak)
            row = [0] * (n + 1)
            for b in range(lo, n):
                row[b + 1] = _peak(row[b], self.own_peak[b], self.reaching[b], range(lo, n))
            self._peak_rows[lo] = row
        return row


@dataclass
class BlockSet:
    """Final blocks in dependency order with their baseline profiles."""

    partition: AtomicPartition
    model: CostModel
    block_atoms: tuple[tuple[int, ...], ...]
    blocks: tuple[Subcomponent, ...]
    costs: tuple[CostRecord, ...]  # microbatch 1, checkpointing on

    def __post_init__(self) -> None:
        n = len(self.blocks)
        self._cut_fixed = [0] * (n + 1)
        self._cut_per_sample = [0] * (n + 1)
        self._span_cache: dict[tuple[int, int], Subcomponent] = {}
        # per lo: (first reader block at or after lo, fixed, per sample) of
        # each value that a span starting at lo reads as an input
        self._input_reads: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        block_of = {a: bi for bi, grp in enumerate(self.block_atoms) for a in grp}
        g = self.partition.graph
        for vid in g.value_ids():
            owner = block_of[self.partition.owner_of_value(vid)]
            readers = sorted({block_of[c] for c in self.partition.consumer_atoms(vid)})
            last = readers[-1] if readers else owner
            info = g.nodes[vid].value
            for cut in range(owner + 1, last + 1):
                self._cut_fixed[cut] += info.fixed_bytes
                self._cut_per_sample[cut] += info.bytes_per_sample
            # a graph input is read as an input by every span holding a
            # reader; any other value only by spans that start above its owner
            first = 0 if vid in g.inputs else owner + 1
            i = 0
            for lo in range(first, last + 1 if readers else 0):
                while readers[i] < lo:
                    i += 1
                self._input_reads[lo].append(
                    (readers[i], info.fixed_bytes, info.bytes_per_sample))

        self._input_rows: dict[int, tuple[list[int], list[int]]] = {}
        self._terms: dict[int, _SpanTerms] = {}  # by microbatch size
        self._profiles: dict[tuple[int, int, int, bool], CostRecord] = {}
        self._params = [0]
        # per block: (fixed, per sample) of its source values, resident with
        # checkpointing off, and (shape, count) of each class of its tasks
        self._source_bytes: list[tuple[int, int]] = []
        self._task_classes: list[list[tuple[_TaskShape, int]]] = []
        for params, source, shapes in _home_terms(self.partition, self.block_atoms):
            self._params.append(self._params[-1] + params)
            self._source_bytes.append(source)
            self._task_classes.append(_task_classes(shapes))

    def __len__(self) -> int:
        return len(self.blocks)

    def boundary_bytes(self, cut: int, microbatch: int) -> int:
        """Bytes crossing between blocks [0, cut) and [cut, n) for one
        microbatch, each value counted once however many readers it has."""
        if not 0 <= cut <= len(self.blocks):
            raise ValueError(f"cut {cut} out of range")
        return self._cut_fixed[cut] + microbatch * self._cut_per_sample[cut]

    def span(self, lo: int, hi: int) -> Subcomponent:
        """Union of blocks [lo, hi) as one subcomponent."""
        self._check_span(lo, hi)
        key = (lo, hi)
        sub = self._span_cache.get(key)
        if sub is None:
            atoms = [a for grp in self.block_atoms[lo:hi] for a in grp]
            sub = self.partition.merged(atoms, f"S{lo:03d}_{hi:03d}")
            self._span_cache[key] = sub
        return sub

    def _check_span(self, lo: int, hi: int) -> None:
        if not 0 <= lo < hi <= len(self.blocks):
            raise ValueError(f"span [{lo}, {hi}) out of range")

    def param_bytes(self, lo: int, hi: int) -> int:
        """Parameter bytes of blocks [lo, hi)."""
        self._check_span(lo, hi)
        return self._params[hi] - self._params[lo]

    def _input_row(self, lo: int) -> tuple[list[int], list[int]]:
        """Input bytes of span [lo, hi) as (fixed, per sample), indexed by hi."""
        row = self._input_rows.get(lo)
        if row is None:
            n = len(self.blocks)
            fixed = [0] * (n + 1)
            per_sample = [0] * (n + 1)
            for reader, f, s in self._input_reads[lo]:
                fixed[reader + 1] += f
                per_sample[reader + 1] += s
            for hi in range(lo + 1, n + 1):
                fixed[hi] += fixed[hi - 1]
                per_sample[hi] += per_sample[hi - 1]
            row = self._input_rows[lo] = (fixed, per_sample)
        return row

    def profile(self, lo: int, hi: int, microbatch: int, ckpt: bool) -> CostRecord:
        """Profile of blocks [lo, hi): `CostModel.profile` of `span(lo, hi)`,
        composed from per-block terms built once per microbatch size and
        kept per (lo, hi, microbatch, ckpt) key."""
        key = (lo, hi, microbatch, ckpt)
        rec = self._profiles.get(key)
        if rec is not None:
            return rec
        self._check_span(lo, hi)
        terms = self._terms.get(microbatch)
        if terms is None:
            terms = self._terms[microbatch] = _SpanTerms(self, microbatch)
        fixed, per_sample = self._input_row(lo)
        acts = fixed[hi] + microbatch * per_sample[hi]
        if ckpt:
            acts += terms.peak_row(lo)[hi]
        else:
            acts += terms.resident[hi] - terms.resident[lo]
        rec = self._profiles[key] = CostRecord(
            t_fwd_sec=(terms.t_fwd[hi] - terms.t_fwd[lo]) / terms.fwd_denom,
            t_bwd_sec=(terms.t_bwd[hi] - terms.t_bwd[lo]) / terms.bwd_denom,
            mem_bytes=self.model.training_bytes(
                self._params[hi] - self._params[lo], acts))
        return rec

    def cut_time(self, cut: int, microbatch: int, cum_devices: int) -> float:
        """Transfer time of the boundary at `cut` for one microbatch slice.

        The cut sits between cumulative device cum_devices and the next one;
        with contiguous placement it crosses nodes exactly when that count is
        a whole number of nodes.
        """
        cluster = self.model.cluster
        inter = (cluster.num_nodes > 1
                 and cum_devices % cluster.devices_per_node == 0)
        return self.model.comm_time(self.boundary_bytes(cut, microbatch),
                                    inter_node=inter)

    def to_json(self) -> dict:
        return {
            "num_blocks": len(self.blocks),
            "blocks": [
                {
                    "id": sub.id,
                    "atoms": [self.partition.atoms[i].id for i in grp],
                    "t_fwd_sec": rec.t_fwd_sec,
                    "t_bwd_sec": rec.t_bwd_sec,
                    "mem_bytes": rec.mem_bytes,
                }
                for sub, grp, rec in zip(self.blocks, self.block_atoms, self.costs)
            ],
        }


def partition_blocks(partition: AtomicPartition, model: CostModel, k: int = 32) -> BlockSet:
    """Group atoms into at most k convex, memory-feasible blocks."""
    if k < 1:
        raise ValueError("k must be at least 1")
    ctx = _Grouping(partition, model)
    for i, atom in enumerate(partition.atoms):
        if not ctx.fits((i,)):
            raise InfeasibleAtom(atom.id, ctx.mem((i,)), ctx.budget)

    levels: list[list[tuple[int, ...]]] = [[(i,) for i in range(ctx.n_atoms)]]
    transitions: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
    while len(levels[-1]) > k:
        new_groups, merges = _coarsen_pass(levels[-1], k, ctx)
        if not merges:
            break
        levels.append(new_groups)
        transitions.append(merges)
    _uncoarsen(levels, transitions, ctx)

    glist = _topo_groups(levels[-1], k, ctx)
    if len(glist) > k:
        glist = _compact(glist, k, ctx)
        glist = _topo_groups(glist, k, ctx)

    width = max(3, len(str(len(glist))))
    blocks = tuple(
        partition.merged(grp, f"B{idx:0{width}d}") for idx, grp in enumerate(glist))
    costs = tuple(model.profile(sub, 1, checkpointing=True) for sub in blocks)
    return BlockSet(
        partition=partition,
        model=model,
        block_atoms=tuple(tuple(grp) for grp in glist),
        blocks=blocks,
        costs=costs,
    )
