"""Random-mutation fuzz of the CLI's JSON inputs.

Each case takes a valid graph, cluster, cost table or plan, applies one to
three random mutations (drop a field, add an unknown one, duplicate a list
item, rescale a number, put an odd value anywhere, cut the text short) and
runs `partition` or `simulate` on it. Whatever the input, `cli.main`
returns 0, 1 or 2 and raises nothing, and an input error (1) prints exactly
one line. The seed and the case count are fixed, so a failure replays.
"""

import contextlib
import copy
import io
import json
import random
import signal

import pytest

from pipecut.cli import main
from pipecut.costs import op_signature
from pipecut.generators import gen_bert_like
from pipecut.graph import graph_to_json

CASES = 80          # per document kind
CASE_SECONDS = 10   # a case that runs longer than this has hung

ODD_VALUES = [None, True, False, 0, 1, -1, 2, 0.5, -0.5, 1e308, -1e308, 10**400,
              float("inf"), float("nan"), "x", "", [], {}, [1, 2], {"a": 1}, 2**63]


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def mutate(doc, rng: random.Random):
    """One random edit somewhere in a JSON document; returns the document."""
    path = rng.choice(list(_paths(doc)))
    odd = copy.deepcopy(rng.choice(ODD_VALUES))
    if not path:
        return odd
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    cur = parent[key]
    roll = rng.random()
    if roll < 0.15:
        del parent[key]
    elif roll < 0.25 and isinstance(parent, dict):
        parent[f"{key}_extra"] = odd
    elif roll < 0.35 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(cur))
    elif roll < 0.5 and isinstance(cur, int) and not isinstance(cur, bool):
        parent[key] = cur * rng.choice([-1, 0, 2, 1000, 10**300])
    elif roll < 0.5 and isinstance(cur, float):
        parent[key] = cur * rng.choice([-1.0, 0.0, 2.0, 1e300, 1e-300])
    elif roll < 0.6 and isinstance(cur, str):
        parent[key] = rng.choice([cur + "_", "", cur[::-1]])
    else:
        parent[key] = odd
    return doc


@pytest.fixture(scope="module")
def base_docs(tmp_path_factory):
    """A valid graph, cluster, cost table and the plan `partition` writes."""
    work = tmp_path_factory.mktemp("fuzz_base")
    g = gen_bert_like(64, 1, 8, 50)
    docs = {
        "graph": graph_to_json(g),
        "cluster": {"num_nodes": 1, "devices_per_node": 2,
                    "device_memory_bytes": 2**34, "bw_intra": 5e10, "bw_inter": 1e10},
        "table": {op_signature(g.nodes[t].task, 8): {"microbatch": 8, "t_fwd": 1e-4,
                                                     "t_bwd": 2e-4, "act_bytes": 4096}
                  for t in g.task_ids()[:6]},
    }
    args = write_inputs(work, docs)
    assert main(["partition", *args, "--out", str(work / "out")]) == 0
    docs["plan"] = json.loads((work / "out" / "plan.json").read_text())
    return docs


def write_inputs(work, docs, texts=None):
    """Write each document as JSON (or as given text) and return the flags."""
    texts = texts or {}
    for kind, doc in docs.items():
        (work / f"{kind}.json").write_text(
            texts[kind] if kind in texts else json.dumps(doc))
    return ["--graph", str(work / "graph.json"), "--cluster", str(work / "cluster.json"),
            "--cost-table", str(work / "table.json"), "--batch-size", "16", "--k", "4"]


def _hung(signum, frame):
    raise TimeoutError(f"case ran past {CASE_SECONDS} s")


@pytest.mark.parametrize("kind", ["graph", "cluster", "table", "plan"])
def test_mutated_input_exits_cleanly(kind, base_docs, tmp_path):
    rng = random.Random(f"fuzz-{kind}")
    failures = []
    previous = signal.signal(signal.SIGALRM, _hung)
    try:
        for case in range(CASES):
            docs = copy.deepcopy(base_docs)
            for _ in range(rng.randint(1, 3)):
                docs[kind] = mutate(docs[kind], rng)
            text = json.dumps(docs[kind])
            if rng.random() < 0.05:
                text = text[:rng.randrange(len(text))]
            args = write_inputs(tmp_path, docs, {kind: text})
            if kind == "plan":
                argv = ["simulate", *args, "--plan", str(tmp_path / "plan.json")]
            else:
                argv = ["partition", *args]
            argv += ["--out", str(tmp_path / "out")]
            err = io.StringIO()
            signal.alarm(CASE_SECONDS)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    rc = main(argv)
            except Exception as exc:  # any raise is a finding
                failures.append((case, text[:300], repr(exc)))
                continue
            finally:
                signal.alarm(0)
            lines = err.getvalue().strip().splitlines()
            if rc not in (0, 1, 2) or (rc == 1 and len(lines) != 1):
                failures.append((case, text[:300], rc, lines))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, failures
