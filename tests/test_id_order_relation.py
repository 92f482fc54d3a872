"""Metamorphic relation: node ids matter only through their order.

Rename every node id by an order-preserving map and shuffle the nodes and
edges in the graph JSON. `pipecut partition` must then write the same
`blocks.json` and `plan.json`, byte for byte. Neither file names a node:
`blocks.json` lists each block's atoms by atom id, in order, so equal files
mean equal `block_atoms`. The relation needs no oracle, so it holds at any
size: here on random graphs from `helpers.py`, on graphs whose constant
support the atoms clone, and on a bert and a resnet.
"""

import json
import random

import pytest

from pipecut.cli import main
from pipecut.generators import gen_bert_like, gen_resnet_like
from pipecut.graph import graph_to_json

from helpers import random_layered_graph
from test_cli import write_cluster
from test_shared_rules import rich_graph


def renamed_and_shuffled(g, rng):
    """The JSON of `g` with the node at rank r in id order renamed to a
    fixed-width `n{r}`, and nodes and edges in a random order."""
    new = {old: f"n{rank:06d}" for rank, old in enumerate(sorted(g.nodes))}
    doc = graph_to_json(g)
    nodes = [{**node, "id": new[node["id"]]} for node in doc["nodes"]]
    edges = [[new[src], new[dst]] for src, dst in doc["edges"]]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return {"nodes": nodes, "edges": edges,
            "inputs": [new[vid] for vid in doc["inputs"]],
            "outputs": [new[vid] for vid in doc["outputs"]]}


def partition_files(tmp_path, tag, doc, cluster, batch):
    graph = tmp_path / f"{tag}.json"
    graph.write_text(json.dumps(doc))
    out = tmp_path / tag
    assert main(["partition", "--graph", str(graph), "--cluster", cluster,
                 "--batch-size", str(batch), "--k", "8", "--out", str(out)]) == 0
    return [(out / name).read_bytes() for name in ("blocks.json", "plan.json")]


def assert_relation(g, seed, tmp_path, batch=8, **cluster):
    cluster_path = write_cluster(tmp_path / "cluster.json", **cluster)
    want = partition_files(tmp_path, "original", graph_to_json(g), cluster_path, batch)
    got = partition_files(tmp_path, "renamed",
                          renamed_and_shuffled(g, random.Random(seed)), cluster_path, batch)
    assert got == want


@pytest.mark.parametrize("chunk", range(4))
def test_random_layered_graphs(chunk, tmp_path, capsys):
    for seed in range(25 * chunk, 25 * chunk + 25):
        assert_relation(random_layered_graph(random.Random(seed)), seed, tmp_path)


def test_graphs_with_cloned_support(tmp_path, capsys):
    for seed in range(20):
        assert_relation(rich_graph(random.Random(seed)), seed, tmp_path, dpn=4)


@pytest.mark.parametrize("g, batch, cluster", [
    (gen_bert_like(64, 2, 16, 100), 8, {"dpn": 2}),
    (gen_resnet_like(50), 32, {"nodes": 2, "dpn": 2, "mem": 2**33}),
], ids=["bert-64x2", "resnet-50"])
def test_bert_and_resnet(g, batch, cluster, tmp_path, capsys):
    assert_relation(g, 0, tmp_path, batch, **cluster)
