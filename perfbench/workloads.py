"""Workload definitions for the planner benchmark, and the set-up step.

Each workload is one pipecut CLI invocation on generated inputs. Seed 0 is
the workload exactly as documented in README.md; any other seed nudges the
generator dimensions (layer counts by one, sequence length by eight), which
gives a held-out input of the same scale and the same plan shape.

Run as a script, this module is the benchmark's set-up step: it imports
pipecut and writes the workload's graph and cluster JSON.

    PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import json
import os
import random
import sys

GB = 10**9
BW_INTRA = 50e9
BW_INTER = 10e9

WORKLOADS = {
    "partition-search": {
        "kind": "partition", "hidden": 2048, "layers": 96, "seq": 512,
        "nodes": 2, "devices": 4, "mem_gb": 32, "batch": 64, "k": 32,
        "oracle": False,
    },
    "partition-coarsen": {
        "kind": "partition", "hidden": 2048, "layers": 256, "seq": 512,
        "nodes": 1, "devices": 4, "mem_gb": 80, "batch": 32, "k": 8,
        "oracle": True,
    },
    "sweep-nockpt": {
        "kind": "sweep", "hiddens": (1024, 2048), "layers": (6, 12, 24, 48),
        "seq": 512, "nodes": 2, "devices": 2, "mem_gb": 32, "batch": 32,
        "k": 32,
    },
}

# Expected sweep grid, by (hidden, index into the layer list): every row
# plans, and plain data parallelism runs out of memory only on the largest
# model (2048 x 48 is about 2.5B parameters, whose weights, gradients and
# optimizer state alone exceed 32 GB). Layer counts move by at most one
# under any seed, which leaves this grid unchanged.
SWEEP_EXPECTED = {
    (hidden, li): ("ok", "INFEASIBLE" if (hidden, li) == (2048, 3) else "ok")
    for hidden in (1024, 2048) for li in range(4)
}


def spec(name: str, seed: int) -> dict:
    """Dimensions of one workload under one seed."""
    out = dict(WORKLOADS[name])
    if seed != 0:
        rng = random.Random(seed)
        if out["kind"] == "sweep":
            out["layers"] = tuple(n + rng.randint(-1, 1) for n in out["layers"])
        else:
            out["layers"] += rng.randint(-1, 1)
        out["seq"] += 8 * rng.randint(-1, 1)
    return out


def describe(name: str, sp: dict) -> str:
    cluster = (f"{sp['nodes']}x{sp['devices']} devices of {sp['mem_gb']} GB, "
               f"batch {sp['batch']}, k {sp['k']}")
    if sp["kind"] == "sweep":
        grid = (",".join(map(str, sp["hiddens"])) + " x "
                + ",".join(map(str, sp["layers"])))
        return f"{name}: sweep bert {grid} seq {sp['seq']}, {cluster}"
    return (f"{name}: bert {sp['hidden']}x{sp['layers']} seq {sp['seq']}, "
            f"{cluster}")


def write_inputs(name: str, seed: int, out_dir: str) -> None:
    from pipecut.generators import gen_bert_like
    from pipecut.graph import save_graph

    sp = spec(name, seed)
    cluster = {"num_nodes": sp["nodes"], "devices_per_node": sp["devices"],
               "device_memory_bytes": sp["mem_gb"] * GB,
               "bw_intra": BW_INTRA, "bw_inter": BW_INTER}
    with open(os.path.join(out_dir, "cluster.json"), "w") as fh:
        json.dump(cluster, fh, sort_keys=True)
    if sp["kind"] == "partition":
        graph = gen_bert_like(sp["hidden"], sp["layers"], sp["seq"], 30522)
        save_graph(graph, os.path.join(out_dir, "graph.json"))


if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
