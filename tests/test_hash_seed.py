"""`pipecut partition` writes the same bytes under any string hash seed.

The block phase walks the atoms' `frozenset` node sets, whose iteration
order follows PYTHONHASHSEED; no output may. Each run is a fresh
interpreter in its own directory, with the same relative paths, because
`report.txt` prints the `--graph` argument."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pipecut.graph
from pipecut.generators import gen_bert_like
from pipecut.graph import save_graph

from test_cli import write_cluster
from test_shared_rules import random_cost_table, rich_graph

SRC = Path(pipecut.graph.__file__).resolve().parents[1]
OUTPUTS = ("plan.json", "blocks.json", "report.txt")


def write_rich(path: Path) -> list[str]:
    """The cyclic rich graph of seed 7: at k=6 its groups form a cycle that
    the dependency-order listing folds. A cost table covers about half the
    signatures at every microbatch size the search can try."""
    g = rich_graph(random.Random(7))
    save_graph(g, str(path / "graph.json"))
    table = random_cost_table(random.Random(7), g, (1, 2, 4, 8))
    (path / "costs.json").write_text(json.dumps({
        sig: {"microbatch": e.microbatch, "t_fwd": e.t_fwd, "t_bwd": e.t_bwd,
              "act_bytes": e.act_bytes} for sig, e in table.items()}))
    write_cluster(path / "cluster.json", nodes=2, dpn=2)
    return ["--graph", "graph.json", "--cluster", "cluster.json", "--batch-size", "8",
            "--k", "6", "--cost-table", "costs.json"]


def write_bert(path: Path) -> list[str]:
    """bert 64x4 on 2x2 devices of 1.5 MiB, small enough for the oracle."""
    save_graph(gen_bert_like(64, 4, 16, 100), str(path / "graph.json"))
    write_cluster(path / "cluster.json", nodes=2, dpn=2, mem=1572864)
    return ["--graph", "graph.json", "--cluster", "cluster.json", "--batch-size", "8",
            "--k", "8", "--oracle-check"]


@pytest.mark.parametrize("write", [write_rich, write_bert])
def test_outputs_do_not_depend_on_the_hash_seed(write, tmp_path):
    outputs = []
    for seed in ("0", "1"):
        run_dir = tmp_path / f"hashseed{seed}"
        run_dir.mkdir()
        args = write(run_dir)
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-m", "pipecut.cli", "partition", *args,
                               "--out", "run"], env=env, cwd=run_dir,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append({name: (run_dir / "run" / name).read_bytes() for name in OUTPUTS})
    assert outputs[0] == outputs[1]
    if "--oracle-check" in args:
        assert "oracle_check: passed" in outputs[0]["report.txt"].decode()
