"""CLI output files, byte for byte. A refactor of the planner must leave
every plan, block list, report, sweep row and Gantt chart as it was; these
sha256 digests fail on any changed byte, including the search counters
`report.txt` prints. A change that alters plans on purpose updates them.

Each case runs from a temp directory with relative paths, because
`report.txt` prints the `--graph` argument and `simulate` prints the Gantt
path."""

import hashlib
import json
import pathlib

import pytest

from pipecut.cli import main
from pipecut.generators import gen_bert_like, gen_resnet_like
from pipecut.graph import save_graph

from test_cli import write_cluster

BERT = ["--graph", "graph.json", "--batch-size", "8", "--k", "8"]
# 1.5 MiB devices on 2 nodes x 2: one node cannot hold the bert graph, so
# the plan takes four 1-device stages and its middle cut crosses nodes
TIGHT = ["--cluster", "tight.json"]
ROOMY = ["--cluster", "roomy.json"]
# one entry that overrides activation bytes, one that leaves t_bwd to the
# forward/backward ratio
COST_TABLE = {
    "gelu||mb=1": {"microbatch": 1, "t_fwd": 2e-6, "act_bytes": 4096},
    "softmax||mb=1": {"microbatch": 1, "t_fwd": 3e-6},
}
# entries past microbatch 1, where the search's larger microbatch sizes look
# them up: cheap enough to move the plan off microbatch 1, with activation
# bytes that override three ops' outputs
COST_TABLE_MB = {
    "matmul||mb=2": {"microbatch": 2, "t_fwd": 1e-9, "act_bytes": 4096},
    "gelu||mb=2": {"microbatch": 2, "t_fwd": 1e-9, "act_bytes": 8192},
    "matmul||mb=4": {"microbatch": 4, "t_fwd": 2e-9, "t_bwd": 3e-9, "act_bytes": 16384},
    "add_layernorm||mb=4": {"microbatch": 4, "t_fwd": 1e-9, "act_bytes": 0},
}

CASES = {
    "bert-ckpt-oracle": [["partition", *BERT, *TIGHT, "--oracle-check", "--out", "run"]],
    "bert-no-ckpt": [["partition", *BERT, *TIGHT, "--checkpointing", "off",
                      "--out", "run"]],
    "bert-cost-table": [["partition", *BERT, *TIGHT, "--cost-table", "costs.json",
                         "--out", "run"]],
    "bert-cost-table-mb": [["partition", *BERT, *TIGHT, "--cost-table", "costs_mb.json",
                            "--out", "run"]],
    "resnet-50": [["partition", "--graph", "resnet.json", *ROOMY, "--batch-size", "32",
                   "--out", "run"]],
    "sweep": [["sweep", *TIGHT, "--hidden", "64", "--layers", "2,4", "--seq", "16",
               "--vocab", "100", "--batch-size", "8", "--k", "8", "--out", "run"]],
    # the benchmark's sweep mode
    "sweep-no-ckpt": [["sweep", *TIGHT, "--hidden", "64", "--layers", "2,4", "--seq", "16",
                       "--vocab", "100", "--batch-size", "8", "--k", "8",
                       "--checkpointing", "off", "--out", "run"]],
    "simulate": [["partition", *BERT, *TIGHT, "--out", "plan"],
                 ["simulate", *BERT, *TIGHT, "--plan", "plan/plan.json",
                  "--gantt", "text", "--out", "run"]],
}

DIGESTS = {
    "bert-ckpt-oracle": {
        "stdout": "88aeab4ec6dc2d661cec5ed1c700b99a15d758b167d747237ba24d1583583240",
        "blocks.json": "1f931ecc954b91252bf4e04e7755c06a75e3de66fe3cb386d8a0c5d120872b84",
        "plan.json": "16262ada7b5ab5310e01b833c8adc405b8a8d5708eb94945badb5190ebfcfe68",
        "report.txt": "f8811654290399e5315b5ae9f8a80c4d2477ee2fe1581e1322e6a3012cf532bf",
    },
    "bert-cost-table": {
        "stdout": "5259b6166c8440d4b4a1ab2790557a5db6db1d11f146edc55a3ddf8c052a0fdd",
        "blocks.json": "e123975f573a6603e0e09bcef9760105742532d26150a8ac62be08f70df95249",
        "plan.json": "44eb084a18be7ee5a5b6242c67bb262ce4d27db1d59ab54dbef87f8e063c8c91",
        "report.txt": "f9dfae9247ce921658a884c15f4fcc1ff08d11b99fe9403853dac51024af5914",
    },
    "bert-cost-table-mb": {
        "stdout": "f9f11f7a597bae2b3b89edc8c6dc9223c0fe5cbcbfce4ab6bce4addd68e38d55",
        "blocks.json": "1f931ecc954b91252bf4e04e7755c06a75e3de66fe3cb386d8a0c5d120872b84",
        "plan.json": "cb59b6cb91414bd5586c8dcf02cbfc00c71fb48b3a498cca075844a0c1368bb6",
        "report.txt": "f852689206e3a3a0d2e7c17694b6c195b735f7e1175cced2e23c36bdaec7702c",
    },
    "bert-no-ckpt": {
        "stdout": "243de35ddbd5e9b7588d0689738b6d2bb78cbcadd8dc2671eb4ac3395cf60fca",
        "blocks.json": "1f931ecc954b91252bf4e04e7755c06a75e3de66fe3cb386d8a0c5d120872b84",
        "plan.json": "bddb4aa1e09d4b121fa4857c0b948a0f8b304c00623811ad63bb7d7ab662eb0e",
        "report.txt": "1e7c892c59570b3fc8095c67db244b5e3b359099fdb74b5a6b006a92c840f44b",
    },
    "resnet-50": {
        "stdout": "bed042a66e1afaece2cdc598bc59704b321015e3e9ea104b2bd40d06ba4b6af8",
        "blocks.json": "56954308d31de20a4a9545f7a636120da03a6d884e9ec56bfba26c0bcac08e2a",
        "plan.json": "9288722011f2383653965c382cee0e60744c1600db359fcce587ac8482cd3344",
        "report.txt": "5426a660d3911a21a4477d042d1492a59ebcbd90116eec8f430541e8faa912dc",
    },
    "simulate": {
        "stdout": "a9d1de44b10532c19d8a82ed112a73b3c997960e13b2a79d015d2ed7b67ae577",
        "gantt.txt": "adb8864c1cd13c64b057604baf7b53f0e56b4c286c41a2fdb05b4887ca64cee0",
    },
    "sweep": {
        "stdout": "ea023e2f5e7c23c0b56dfc1532903d22551a2e36a358159d4f8e9bd09766b743",
        "sweep.csv": "4fbfbfe2abfe502fd23e3b7fd72243ca26c92ea180d99ecae768d5c31d1f55dc",
    },
    "sweep-no-ckpt": {
        "stdout": "ea023e2f5e7c23c0b56dfc1532903d22551a2e36a358159d4f8e9bd09766b743",
        "sweep.csv": "05a4d2a33832889b3b21501909c0f96d19a26327fdca26f0d97839a752a91eeb",
    },
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_graph(gen_bert_like(64, 4, 16, 100), "graph.json")
    save_graph(gen_resnet_like(50, 1), "resnet.json")
    write_cluster(tmp_path / "tight.json", nodes=2, dpn=2, mem=1572864)
    write_cluster(tmp_path / "roomy.json", nodes=2, dpn=2)
    (tmp_path / "costs.json").write_text(json.dumps(COST_TABLE))
    (tmp_path / "costs_mb.json").write_text(json.dumps(COST_TABLE_MB))
    return tmp_path


def run_case(name: str, capsys) -> dict[str, str]:
    """sha256 of each file the case writes under run/, and of the last
    command's stdout."""
    for argv in CASES[name]:
        capsys.readouterr()
        assert main(argv) == 0
    outputs = {"stdout": capsys.readouterr().out.encode()}
    outputs.update((p.name, p.read_bytes()) for p in sorted(pathlib.Path("run").iterdir()))
    return {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_digests(name, workdir, capsys):
    assert run_case(name, capsys) == DIGESTS[name]


def test_tight_plan_crosses_nodes(workdir, capsys):
    run_case("bert-ckpt-oracle", capsys)
    plan = json.loads(pathlib.Path("run/plan.json").read_text())
    cuts = [sum(st["devices"] for st in plan["stages"][:i + 1])
            for i in range(len(plan["stages"]) - 1)]
    assert len(plan["stages"]) >= 3 and 2 in cuts  # 2 devices per node
    assert "oracle_check: passed" in pathlib.Path("run/report.txt").read_text()
