"""Block order when groups depend on each other in a cycle.

Coarsening and refinement keep every group convex, but two convex groups can
still feed each other (A -> B through one atom, B -> A through another). The
block listing folds such a cycle into one group; when the folded group does
not fit device memory the run is infeasible (exit 2), never a traceback.
"""

import json
import random

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import CompactionStuck, is_convex, partition_blocks
from pipecut.cli import main
from pipecut.costs import CostModel, CostModelConfig
from pipecut.graph import ClusterSpec, save_graph

from helpers import random_layered_graph
from test_cli import write_cluster
from test_shared_rules import rich_graph

UNLIMITED = 2**40


def largest_atom_mem(partition, config):
    model = CostModel(partition.graph, config, ClusterSpec(1, 1, UNLIMITED, 50e9, 10e9))
    return max(model.profile(a, 1, checkpointing=True).mem_bytes
               for a in partition.atoms)


def blocks_or_stuck(g, k, mem_factor=None):
    """Blocks of g, checked for order, convexity and memory; None when
    compaction is stuck, which only a finite memory budget allows."""
    p = build_atomic_subcomponents(g)
    config = CostModelConfig(device_flops_per_sec=1e9)
    mem = UNLIMITED if mem_factor is None else int(largest_atom_mem(p, config) * mem_factor)
    model = CostModel(p.graph, config, ClusterSpec(2, 2, mem, 50e9, 10e9))
    try:
        bs = partition_blocks(p, model, k=k)
    except CompactionStuck:
        assert mem_factor is not None
        return None
    assert len(bs) <= k
    block_of = {a: bi for bi, grp in enumerate(bs.block_atoms) for a in grp}
    assert sorted(block_of) == list(range(len(p.atoms)))
    succ = [[] for _ in p.atoms]
    for a, b in p.dependencies():
        assert block_of[a] <= block_of[b], (a, b)
        succ[a].append(b)
    for grp, rec in zip(bs.block_atoms, bs.costs):
        assert is_convex(grp, succ)
        assert model.fits(rec.mem_bytes)
    return bs


def test_rich_graph_seed_7_plans_at_every_k():
    # groups formed a cycle here at every k from 5 to 10
    for k in range(5, 11):
        assert blocks_or_stuck(rich_graph(random.Random(7)), k) is not None


def test_random_corpus_slice_never_hits_a_group_cycle():
    for seed in range(40):
        g = rich_graph(random.Random(seed))
        for mem_factor in (None, 2):
            for k in (2, 4, 6, 9):
                blocks_or_stuck(g, k, mem_factor)
    for seed in range(60, 100):
        g = random_layered_graph(random.Random(seed))
        for mem_factor in (None, 3, 1.5):
            for k in (1, 2, 3, 5, 8):
                blocks_or_stuck(g, k, mem_factor)


def test_cli_partition_plans_the_cyclic_case(tmp_path, capsys):
    graph = tmp_path / "g.json"
    save_graph(rich_graph(random.Random(7)), str(graph))
    assert main(["partition", "--graph", str(graph),
                 "--cluster", write_cluster(tmp_path / "c.json"),
                 "--k", "6", "--out", str(tmp_path / "out")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads((tmp_path / "out" / "blocks.json").read_text())["num_blocks"] <= 6


def test_folded_cycle_beyond_memory_is_infeasible(tmp_path, capsys):
    g = rich_graph(random.Random(0))
    mem = int(1.5 * largest_atom_mem(build_atomic_subcomponents(g), CostModelConfig()))
    graph = tmp_path / "g.json"
    save_graph(g, str(graph))
    assert main(["partition", "--graph", str(graph),
                 "--cluster", write_cluster(tmp_path / "c.json", nodes=1, dpn=1, mem=mem),
                 "--k", "2", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("infeasible: ") and "cycle" in err[0], err
