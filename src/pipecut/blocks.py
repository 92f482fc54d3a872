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
Memory terms come from each atom's terms (`AtomicPartition.terms`), and a
block's are its atoms' with each read keyed by its owner's block. One rule
(`_peak`) resolves a read: it joins the working set if its owner is inside
the home (atom or block), group or span, and is an input otherwise. Each
home resolves its own reads once, when its terms are built, and groups and
spans resolve the rest. A group's memory terms are kept as a summary, and a
merge composes the summaries of its two sides (`_union`) instead of walking
every member. The result equals `CostModel.profile` on the merged group,
which only tests run. Coarsening keeps the summary of every group it forms,
and a move check keeps those of the groups it would grow and shrink, so
refinement composes each summary from kept ones and never walks or rebuilds
a group.
A candidate move is scored by its traffic gain over only the values the
mover's atoms own or read, the Fiduccia-Mattheyses gain (1982), which equals
the difference of two whole-graph recounts. `BlockSet` holds the span
profiles and boundary bytes that stage search, plan checking and replay
share; `stages` turns boundary bytes into send times. Adjacency, inputs,
traffic, cut bytes and span inputs come from the partition's table of
values that cross between atoms (`AtomicPartition.crossing`).

`BlockSet.profile` composes a span's `CostRecord` from per-block terms in
constant time instead of walking the span's nodes, the way PipeDream's
partitioner sums per-layer costs (Narayanan et al., SOSP'19). Times,
parameter bytes and resident bytes are prefix sums; span input bytes come
from a table over (lo, hi); the checkpointing footprint is a running max
over hi. `BlockSet` keys each task by its op signature and FLOPs, the pair
that fixes `CostModel.task_cost` at every microbatch, and keeps per block
each key's task count and produced bytes; a new microbatch size then costs
each distinct key once (a dozen for a model of repeated layers), and builds
the working sets only when a checkpointing span first asks for them. The
record is equal, bit for bit, to `CostModel.profile` on the merged span.
"""

from __future__ import annotations

import graphlib
import heapq
import itertools
import math

from .atoms import AtomicPartition, Subcomponent, TaskShape
from .costs import CostModel, CostRecord, op_signature


class InfeasibleAtom(Exception):
    """One atom alone exceeds device memory at the cheapest setting."""

    def __init__(self, atom_id: str, mem_bytes: int, budget_bytes: int):
        super().__init__(
            f"atom {atom_id} needs {mem_bytes} bytes at microbatch 1 with "
            f"checkpointing; a device holds {budget_bytes}")
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
    """Shared state for the four phases: adjacency, costs, feasibility.

    Group memory and move gains are composed from per-atom summaries built
    once here, so neither walks the graph or materializes a subcomponent. A
    group's memory terms are a summary, a tuple of: parameter bytes; its
    inputs, the (value index, bytes, owner atom or -1 for a graph input)
    entries of the values it reads from outside, each value once; the
    largest task working set so far; and the (working set, ((owner atom,
    bytes), ...)) terms whose reads from outside may still join it (`_peak`).
    `_union` composes the summaries of disjoint groups into their union's,
    so a merge costs two summaries, not a walk over every member."""

    def __init__(self, partition: AtomicPartition, model: CostModel):
        self.model = model
        n = len(partition.atoms)
        self.n_atoms = n
        g = partition.graph
        # the atom dependencies, sorted, as successor and neighbor lists
        self.succ: list[list[int]] = [[] for _ in range(n)]
        pred: list[list[int]] = [[] for _ in range(n)]
        for a, b in partition.dependencies():
            self.succ[a].append(b)
            pred[b].append(a)
        self.neighbors = [sorted({*s, *p}) for s, p in zip(self.succ, pred)]
        # one pass over the crossing table: each atom's input entries, shared
        # between atoms, and the (bytes, owner, foreign readers) of each value
        # read outside its owner, with per atom the traffic entries it touches
        inputs: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        self._value_traffic: list[tuple[int, int, tuple[int, ...]]] = []
        self._touching: list[list[int]] = [[] for _ in range(n)]
        for vi, (vid, (owner, readers)) in enumerate(partition.crossing.items()):
            size = g.value_size(vid, 1)
            entry = (vi, size, -1 if vid in g.inputs else owner)
            for a in readers:
                inputs[a].append(entry)
            foreign = tuple(a for a in readers if a != owner)
            if foreign:
                for a in (owner, *foreign):
                    self._touching[a].append(len(self._value_traffic))
                self._value_traffic.append((size, owner, foreign))

        # per atom, at microbatch 1 with checkpointing on: its compute time
        # and its summary, with its own reads resolved
        self.atom_comp: list[float] = []
        self._atoms: list[tuple] = []
        for a, (params, _, shapes) in enumerate(partition.terms):
            costs = [model.task_cost(shape.info, 1) for shape in shapes]
            self.atom_comp.append(math.fsum(tf for tf, _, _ in costs)
                                  + math.fsum(tb for _, tb, _ in costs))
            terms = _working_terms(shapes, [act for _, _, act in costs], 1)
            peak, still_open = _peak(0, terms, (a,))
            self._atoms.append((params, tuple(inputs[a]), peak, tuple(still_open)))
        # summaries of the groups that coarsening formed and that move checks
        # composed, exact for their key; cleared once refinement is over
        self.summaries: dict[tuple[int, ...], tuple] = {}

    def rank(self, group: tuple[int, ...]) -> tuple[float, int]:
        """Merge order: cheapest compute first, ties by smallest atom."""
        return sum(map(self.atom_comp.__getitem__, group)), group[0]

    def summary(self, group: tuple[int, ...]) -> tuple:
        """The group's summary: a kept one, else its atoms' folded."""
        if len(group) == 1:
            return self._atoms[group[0]]
        s = self.summaries.get(group)
        return s if s is not None else _union([self._atoms[a] for a in group], set(group))

    def mem_of(self, summary: tuple) -> int:
        """`CostModel.profile` memory at microbatch 1 with checkpointing on
        of the group with this summary: each input once, plus the largest
        task working set."""
        params, inputs, peak, _ = summary
        return self.model.training_bytes(params, sum(e[1] for e in inputs) + peak)

    def mem(self, group: tuple[int, ...]) -> int:
        """`CostModel.profile` memory of the merged group, from its summary."""
        return self.mem_of(self.summary(group))

    def fits(self, summary: tuple) -> bool:
        return self.model.fits(self.mem_of(summary))

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
    """One level of pairwise merges, cheapest groups first. A candidate's
    memory is composed from the two groups' summaries; an accepted merge
    keeps its summary for the next level and for refinement."""
    gmap = _group_index(groups, ctx.n_atoms)
    ranks = [ctx.rank(grp) for grp in groups]
    order = sorted(range(len(groups)), key=ranks.__getitem__)
    used: set[int] = set()
    partner: dict[int, tuple[int, tuple[int, ...]]] = {}  # gi -> (gj, merged)
    count = len(groups)
    for gi in order:
        if count <= k:
            break
        if gi in used:
            continue
        v = groups[gi]
        cand_ids = {gmap[b] for a in v for b in ctx.neighbors[a]}
        cand_ids.discard(gi)
        cands = sorted((c for c in cand_ids if c not in used), key=ranks.__getitem__)
        for gj in cands:
            w = groups[gj]
            merged = tuple(sorted(v + w))
            if not is_convex(merged, ctx.succ):
                continue
            summary = _union([ctx.summary(v), ctx.summary(w)], set(merged))
            if ctx.fits(summary):
                ctx.summaries[merged] = summary
                partner[gi] = gj, merged
                used.add(gi)
                used.add(gj)
                count -= 1
                break
    merges = [(groups[gi], groups[gj]) for gi, (gj, _) in sorted(partner.items())]
    new_groups = [grp for gi, grp in enumerate(groups) if gi not in used]
    new_groups += [merged for _, merged in partner.values()]
    new_groups.sort(key=lambda grp: grp[0])
    return new_groups, merges


def _uncoarsen(levels, transitions, ctx: _Grouping) -> None:
    """Walk merges back from coarsest to finest, moving one side of a pair
    into a neighboring group when that strictly cuts total traffic.

    Each candidate is scored by its gain first, once per (mover, top-level
    group), and the positive ones are checked for convexity and memory in
    falling gain order, ties in scan order; the first that fits is applied.
    That is the move checking every candidate first would pick. A neighbor
    already in the mover's top-level group is skipped before its level-li
    group is looked up: levels nest, so that group is in the same top group.
    A move rewrites each coarser level's table and group tuples in place; a
    group keeps its index. Level li changes only under moves at finer levels,
    which come later, so its groups are still the ones its merges recorded.
    """
    tables = [_group_index(level, ctx.n_atoms) for level in levels]
    top = tables[-1]
    for li in range(len(transitions) - 1, -1, -1):
        for v, w in transitions[li]:
            cands = []  # (saving, mover, target group at level li), in scan order
            for mover in (v, w):
                home = top[mover[0]]
                gains: dict[int, int] = {}  # top-level destination -> saving
                for ti in sorted({tables[li][b] for a in mover
                                  for b in ctx.neighbors[a] if top[b] != home}):
                    target = levels[li][ti]
                    dest = top[target[0]]
                    if dest not in gains:
                        gains[dest] = ctx.gain(mover, dest, top)
                    if gains[dest] > 0:
                        cands.append((gains[dest], mover, target))
            cands.sort(key=lambda cand: -cand[0])
            for _, mover, target in cands:
                if _move_fits(mover, target, levels, tables, li, ctx):
                    _apply_move(mover, target, levels, tables, li)
                    break


def _move_fits(mover, target, levels, tables, li, ctx: _Grouping) -> bool:
    """Both touched groups stay convex and inside memory at every coarser level.

    The grown group's summary composes the destination's and the mover's.
    Levels nest, so the shrunk group at level lj is the shrunk group one
    level finer (at li, nothing) plus the source's other constituents there.
    Both summaries are kept under their groups, so once the move is applied
    every group of every level still has its summary.
    """
    mover_set = set(mover)
    moving = ctx.summary(mover)
    kept = _union([], ())  # the shrunk group one level finer
    for lj in range(li + 1, len(levels)):
        level, table = levels[lj], tables[lj]
        src = level[table[mover[0]]]
        dst = level[table[target[0]]]
        shrunk = tuple(a for a in src if a not in mover_set)
        grown = tuple(sorted(dst + mover))
        if not shrunk:
            return False
        if not (is_convex(grown, ctx.succ) and is_convex(shrunk, ctx.succ)):
            return False
        grown_summary = ctx.summaries[grown] = _union([ctx.summary(dst), moving], set(grown))
        if not ctx.fits(grown_summary):
            return False
        parts = {tables[lj - 1][a] for a in src}
        parts.discard(tables[lj - 1][mover[0]])
        kept = ctx.summaries[shrunk] = _union(
            [kept, *(ctx.summary(levels[lj - 1][p]) for p in parts)], set(shrunk))
        if not ctx.fits(kept):
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
            if not ctx.fits(ctx.summary(union)):
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
            if ctx.fits(ctx.summary(union)):
                lo = min(pos, side)
                glist[lo:lo + 2] = [union]
                break
        else:
            raise CompactionStuck(len(glist), k)
    return glist


def _task_classes(terms, block_of, cost_keys: dict) -> tuple[list, list[int]]:
    """(shape, count) per class of the tasks in these atom terms, each read
    keyed by its owner's block: tasks that add the same terms at every
    microbatch, with the same op signature, FLOPs and sizes. The signature,
    not `TaskInfo` equality, decides, since `{"n": 1} == {"n": 1.0}` while
    their signatures, and so their cost-table entries, differ. Also each
    class's key index: `cost_keys` maps each (op signature, FLOPs) pair to
    (its index, a task with that pair), and gains the pairs first seen here."""
    classes: dict[tuple, list] = {}
    for _, _, shapes in terms:
        for info, produced, reads in shapes:
            keyed = tuple([(block_of[owner], f, s) for owner, f, s in reads])
            cost_key = (op_signature(info, 0), info.flops_per_sample)
            key = (cost_key, produced, keyed)
            if key not in classes:
                classes[key] = [TaskShape(info, produced, keyed), 0,
                                cost_keys.setdefault(cost_key, (len(cost_keys), info))[0]]
            classes[key][1] += 1
    entries = classes.values()
    return [(shape, count) for shape, count, _ in entries], [key for _, _, key in entries]


def _working_terms(shapes, acts, m: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """One checkpointing working-set term per task shape at microbatch m,
    (produced bytes, ((owner home, bytes), ...) of its reads), which `_peak`
    resolves; an `acts` entry that is not None, a cost-table `act_bytes`,
    replaces the shape's produced bytes. A working set is a maximum, so a
    class's count does not enter it."""
    return [(sum(f + m * s for f, s in shape.produced) if act is None else act,
             tuple([(home, f + m * s) for home, f, s in shape.reads]))
            for shape, act in zip(shapes, acts)]


def _peak(peak: int, terms, inside) -> tuple[int, list]:
    """The one working-set rule, and the only place a read resolves: the
    larger of `peak` and the working sets of `terms`, which a read joins
    only if its owner is `inside` the home, group or span; any other read
    is an input of it. Each home resolves its own reads once, when its
    terms are built; groups (`_union`) and spans (`peak_row`) then resolve
    what is still open.

    Also returns the terms still open, each with the reads inside added to
    its working set and only the others left, which a merge that brings
    their owners inside resolves; a term that gained no read is kept as it
    is. A span only grows upward, so spans ignore them."""
    still_open = []
    for term in terms:
        own, reads = term
        outside = []
        for read in reads:
            if read[0] in inside:
                own += read[1]
            else:
                outside.append(read)
        if len(outside) < len(reads):
            term = (own, tuple(outside))
        if own > peak:
            peak = own
        if outside:
            still_open.append(term)
    return peak, still_open


def _union(summaries, inside) -> tuple:
    """The summary of `inside`, the union of disjoint groups, from theirs: an
    input owned inside is no input of the union, a value read by several
    groups is one input, and reads owned inside join their working sets."""
    params = peak = 0
    inputs: dict[int, tuple[int, int, int]] = {}
    still_open: list = []
    for part_params, part_inputs, part_peak, part_open in summaries:
        params += part_params
        for entry in part_inputs:
            if entry[2] not in inside:
                inputs[entry[0]] = entry
        peak, part_open = _peak(max(peak, part_peak), part_open, inside)
        still_open += part_open
    return params, tuple(inputs.values()), peak, tuple(still_open)


def _exact(times: list[float]) -> tuple[int, list[int]]:
    """Floats held exactly as integers over one power-of-two denominator, so
    that sums of them are exact and dividing a difference rounds once: a
    span total equals `math.fsum` of its floats."""
    ratios = [t.as_integer_ratio() for t in times]
    denom = max((d for _, d in ratios), default=1)
    return denom, [n * (denom // d) for n, d in ratios]


class _SpanTerms:
    """Per-block terms of `CostModel.profile` at one microbatch size, from
    the block set's tables, costing each distinct task key once. It keeps
    the class lists, not the block set, so the set holds it without a
    reference cycle."""

    def __init__(self, blocks: "BlockSet", microbatch: int):
        if microbatch < 0:
            raise ValueError("microbatch must be non-negative")
        m = self.microbatch = microbatch
        costs = [blocks.model.task_cost(info, m) for info in blocks._cost_infos]
        self.fwd_denom, fwd = _exact([tf for tf, _, _ in costs])
        self.bwd_denom, bwd = _exact([tb for _, tb, _ in costs])
        self._acts = acts = [act for _, _, act in costs]
        # prefix sums: times as integers over their denominators, and
        # resident bytes with checkpointing off
        self.t_fwd, self.t_bwd, self.resident = [0], [0], [0]
        for (fixed, per_sample), rows in zip(blocks._source_bytes, blocks._key_rows):
            tf = tb = 0
            produced = fixed + m * per_sample
            for key, count, f, s in rows:
                tf += count * fwd[key]
                tb += count * bwd[key]
                produced += f + m * s if acts[key] is None else count * acts[key]
            self.t_fwd.append(self.t_fwd[-1] + tf)
            self.t_bwd.append(self.t_bwd[-1] + tb)
            self.resident.append(self.resident[-1] + produced)
        self._classes, self._class_keys = blocks._task_classes, blocks._class_keys
        # per block, its reads resolved: the largest working set closed
        # within it, and the terms still reading from earlier blocks; built
        # by the first `peak_row`
        self.peak: list[int] | None = None
        self.open: list[list[tuple[int, tuple[tuple[int, int], ...]]]] = []
        self._peak_rows: dict[int, list[int]] = {}

    def peak_row(self, lo: int) -> list[int]:
        """Largest single-task working set in [lo, hi), indexed by hi. A read
        from a block below lo is a span input, so it leaves the working set."""
        row = self._peak_rows.get(lo)
        if row is None:
            if self.peak is None:
                self.peak = []
                for b, (classes, keys) in enumerate(zip(self._classes, self._class_keys)):
                    terms = _working_terms([shape for shape, _ in classes],
                                           [self._acts[key] for key in keys], self.microbatch)
                    peak, still_open = _peak(0, terms, (b,))
                    self.peak.append(peak)
                    self.open.append(still_open)
            n = len(self.peak)
            row = [0] * (n + 1)
            for b in range(lo, n):
                row[b + 1] = _peak(max(row[b], self.peak[b]), self.open[b], range(lo, n))[0]
            self._peak_rows[lo] = row
        return row


class BlockSet:
    """Blocks in dependency order as atom-index tuples; the rest is derived.

    Raises ValueError unless every atom is in exactly one block, every block
    holds at least one atom and no block reads a value that a later block
    owns."""

    def __init__(self, partition: AtomicPartition, model: CostModel,
                 block_atoms: tuple[tuple[int, ...], ...]) -> None:
        self.partition, self.model, self.block_atoms = partition, model, block_atoms
        n = len(block_atoms)
        if sorted(itertools.chain(*self.block_atoms)) != list(range(len(self.partition.atoms))):
            raise ValueError("every atom must be in exactly one block")
        if not all(self.block_atoms):
            raise ValueError("every block must hold at least one atom")
        self._cut_fixed = [0] * (n + 1)
        self._cut_per_sample = [0] * (n + 1)
        # input bytes of span [lo, hi), fixed and per sample, indexed
        # [lo][hi]: each value a span starting at lo reads as an input is
        # added where its first reader at or after lo ends, then summed over hi
        self._in_fixed = [[0] * (n + 1) for _ in range(n)]
        self._in_per_sample = [[0] * (n + 1) for _ in range(n)]
        block_of = _group_index(self.block_atoms, len(self.partition.atoms))
        g = self.partition.graph
        for vid, (owner, readers) in self.partition.crossing.items():
            owner = block_of[owner]
            readers = sorted({block_of[a] for a in readers})
            if readers[0] < owner and vid not in g.inputs:
                raise ValueError(f"block {readers[0]} reads {vid!r} from the later "
                                 f"block {owner}; blocks must be in dependency order")
            last = readers[-1]
            info = g.nodes[vid].value
            for cut in range(owner + 1, last + 1):
                self._cut_fixed[cut] += info.fixed_bytes
                self._cut_per_sample[cut] += info.bytes_per_sample
            # a graph input is read as an input by every span holding a
            # reader; any other value only by spans that start above its owner
            first = 0 if vid in g.inputs else owner + 1
            i = 0
            for lo in range(first, last + 1):
                while readers[i] < lo:
                    i += 1
                self._in_fixed[lo][readers[i] + 1] += info.fixed_bytes
                self._in_per_sample[lo][readers[i] + 1] += info.bytes_per_sample
        for row in (*self._in_fixed, *self._in_per_sample):
            row[:] = itertools.accumulate(row)

        self._terms: dict[int, _SpanTerms] = {}  # by microbatch size
        self._profiles: dict[tuple[int, int, int, bool], CostRecord] = {}
        self._params = [0]
        # per block, from its atoms' terms: source bytes (fixed, per sample),
        # resident with checkpointing off; (shape, count) per task class and
        # each class's cost key; and (key, count, produced fixed, produced
        # per sample) per cost key, summed over the key's tasks
        self._source_bytes: list[tuple[int, int]] = []
        self._task_classes: list[list[tuple[TaskShape, int]]] = []
        self._class_keys: list[list[int]] = []
        self._key_rows: list[list[tuple[int, int, int, int]]] = []
        cost_keys: dict[tuple[str, float], tuple] = {}  # -> (index, a task)
        for atoms in self.block_atoms:
            terms = [self.partition.terms[a] for a in atoms]
            sources = [source for _, source, _ in terms]
            self._params.append(self._params[-1] + sum(params for params, _, _ in terms))
            self._source_bytes.append((sum(f for f, _ in sources), sum(s for _, s in sources)))
            classes, keys = _task_classes(terms, block_of, cost_keys)
            self._task_classes.append(classes)
            self._class_keys.append(keys)
            rows: dict[int, list[int]] = {}
            for (shape, count), key in zip(classes, keys):
                row = rows.setdefault(key, [key, 0, 0, 0])
                row[1] += count
                row[2] += count * sum(f for f, _ in shape.produced)
                row[3] += count * sum(s for _, s in shape.produced)
            self._key_rows.append([tuple(row) for row in rows.values()])
        # one task per cost key, in key order
        self._cost_infos = [info for _, info in cost_keys.values()]

    def __len__(self) -> int:
        return len(self.block_atoms)

    @property
    def blocks(self) -> tuple[Subcomponent, ...]:
        """Each block merged into one subcomponent, for reference walks."""
        return tuple(self.span(i, i + 1) for i in range(len(self)))

    @property
    def costs(self) -> tuple[CostRecord, ...]:
        """Each block's profile at microbatch 1 with checkpointing on."""
        return tuple(self.profile(i, i + 1, 1, True) for i in range(len(self)))

    def boundary_bytes(self, cut: int, microbatch: int) -> int:
        """Bytes crossing between blocks [0, cut) and [cut, n) for one
        microbatch, each value counted once however many readers it has."""
        if not 0 <= cut <= len(self):
            raise ValueError(f"cut {cut} out of range")
        return self._cut_fixed[cut] + microbatch * self._cut_per_sample[cut]

    def span(self, lo: int, hi: int) -> Subcomponent:
        """Union of blocks [lo, hi) as one subcomponent, for reference walks."""
        self._check_span(lo, hi)
        atoms = [a for grp in self.block_atoms[lo:hi] for a in grp]
        return self.partition.merged(atoms, f"S{lo:03d}_{hi:03d}")

    def _check_span(self, lo: int, hi: int) -> None:
        if not 0 <= lo < hi <= len(self):
            raise ValueError(f"span [{lo}, {hi}) out of range")

    def param_bytes(self, lo: int, hi: int) -> int:
        """Parameter bytes of blocks [lo, hi)."""
        self._check_span(lo, hi)
        return self._params[hi] - self._params[lo]

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
        acts = self._in_fixed[lo][hi] + microbatch * self._in_per_sample[lo][hi]
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

    def to_json(self) -> dict:
        width = max(3, len(str(len(self))))
        return {
            "num_blocks": len(self),
            "blocks": [
                {
                    "id": f"B{idx:0{width}d}",
                    "atoms": [self.partition.atoms[i].id for i in grp],
                    "t_fwd_sec": rec.t_fwd_sec,
                    "t_bwd_sec": rec.t_bwd_sec,
                    "mem_bytes": rec.mem_bytes,
                }
                for idx, (grp, rec) in enumerate(zip(self.block_atoms, self.costs))
            ],
        }


def partition_blocks(partition: AtomicPartition, model: CostModel, k: int = 32) -> BlockSet:
    """Group atoms into at most k convex, memory-feasible blocks."""
    if k < 1:
        raise ValueError("k must be at least 1")
    ctx = _Grouping(partition, model)
    for i, atom in enumerate(partition.atoms):
        if not ctx.fits(ctx.summary((i,))):
            raise InfeasibleAtom(atom.id, ctx.mem((i,)), model.cluster.device_memory_bytes)

    levels: list[list[tuple[int, ...]]] = [[(i,) for i in range(ctx.n_atoms)]]
    transitions: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
    while len(levels[-1]) > k:
        new_groups, merges = _coarsen_pass(levels[-1], k, ctx)
        if not merges:
            break
        levels.append(new_groups)
        transitions.append(merges)
    _uncoarsen(levels, transitions, ctx)
    ctx.summaries.clear()

    glist = _topo_groups(levels[-1], k, ctx)
    if len(glist) > k:
        glist = _compact(glist, k, ctx)
        glist = _topo_groups(glist, k, ctx)

    return BlockSet(partition, model, tuple(glist))
