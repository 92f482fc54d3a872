"""A block's cost comes from the composed span profile, not a node walk.

`BlockSet.costs[i]`, the record `blocks.json` reports for block i, must equal
`CostModel.profile` on the merged block at microbatch 1 with checkpointing
on, whatever the config's own checkpointing setting. The planner itself
never calls `CostModel.profile`: not in `pipecut partition`, which writes
`blocks.json`, nor in `pipecut sweep`.
"""

import json
import random

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.blocks import partition_blocks
from pipecut.cli import main
from pipecut.costs import CostModel, CostModelConfig, CostTableEntry, op_signature
from pipecut.generators import gen_bert_like, gen_resnet_like
from pipecut.graph import save_graph

from helpers import random_layered_graph
from test_cli import write_cluster
from test_shared_rules import BIG, random_cost_table, rich_graph


def act_bytes_table(rng: random.Random, graph):
    """A random microbatch-1 table, plus an `act_bytes` entry for the first
    task's signature so that a measured activation size is always in play."""
    table = random_cost_table(rng, graph, (1,))
    sig = op_signature(graph.nodes[graph.task_ids()[0]].task, 1)
    table[sig] = CostTableEntry(microbatch=1, t_fwd=rng.random() * 1e-3,
                                act_bytes=rng.randint(0, 4096))
    return table


def assert_floor_equals_walk(g, rng, k, ckpt, table):
    p = build_atomic_subcomponents(g)
    cfg = CostModelConfig(checkpointing=ckpt,
                          cost_table=act_bytes_table(rng, p.graph) if table else None)
    bs = partition_blocks(p, CostModel(p.graph, cfg, BIG), k=k)
    assert len(bs.costs) == len(bs.blocks) == len(bs)
    for i, (sub, rec) in enumerate(zip(bs.blocks, bs.costs)):
        walk = bs.model.profile(sub, 1, checkpointing=True)
        assert rec == walk, i
        assert rec.t_fwd_sec.hex() == walk.t_fwd_sec.hex()
        assert rec.t_bwd_sec.hex() == walk.t_bwd_sec.hex()
    doc = bs.to_json()
    assert [(b["t_fwd_sec"], b["t_bwd_sec"], b["mem_bytes"]) for b in doc["blocks"]] == [
        (rec.t_fwd_sec, rec.t_bwd_sec, rec.mem_bytes) for rec in bs.costs]


@pytest.mark.parametrize("ckpt", [True, False])
@pytest.mark.parametrize("table", [False, True])
class TestBlockFloorEqualsWalk:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("make", [rich_graph, random_layered_graph])
    def test_random_corpus(self, make, seed, ckpt, table):
        rng = random.Random(seed)
        k = rng.choice([1, 2, 3, 5, 8])
        assert_floor_equals_walk(make(rng), rng, k, ckpt, table)

    def test_bert(self, ckpt, table):
        assert_floor_equals_walk(gen_bert_like(64, 4, 16, 100), random.Random(1),
                                 8, ckpt, table)

    def test_resnet(self, ckpt, table):
        assert_floor_equals_walk(gen_resnet_like(50, 1), random.Random(2),
                                 12, ckpt, table)


class TestNoWalkOnTheCliPath:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = CostModel.profile

        def counting(self, sub, microbatch, checkpointing=None):
            calls.append(sub.id)
            return real(self, sub, microbatch, checkpointing=checkpointing)

        monkeypatch.setattr(CostModel, "profile", counting)
        return calls

    def test_partition_writes_blocks_without_a_walk(self, tmp_path, calls):
        graph = tmp_path / "graph.json"
        save_graph(gen_bert_like(64, 2, 16, 100), str(graph))
        cluster = write_cluster(tmp_path / "cluster.json")
        out = tmp_path / "out"
        assert main(["partition", "--graph", str(graph), "--cluster", cluster,
                     "--batch-size", "16", "--k", "6", "--oracle-check",
                     "--out", str(out)]) == 0
        assert json.loads((out / "blocks.json").read_text())["num_blocks"] > 1
        assert main(["simulate", "--graph", str(graph), "--cluster", cluster,
                     "--batch-size", "16", "--k", "6",
                     "--plan", str(out / "plan.json")]) == 0
        assert calls == []

    def test_sweep_of_two_rows_without_a_walk(self, tmp_path, calls):
        cluster = write_cluster(tmp_path / "cluster.json")
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--cluster", cluster, "--hidden", "64",
                     "--layers", "2,3", "--seq", "16", "--vocab", "100",
                     "--batch-size", "16", "--out", str(csv_path)]) == 0
        assert len(csv_path.read_text().strip().split("\n")) == 3
        assert calls == []
