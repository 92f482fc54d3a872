"""The fill-drain replay, the brute-force enumerator and the plan and cost
table readers each follow one rule; copies of shared support get ids no
node has; `simulate --plan` refuses a plan its cluster cannot hold."""

import json
import math
import random

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.cli import main
from pipecut.costs import load_cost_table
from pipecut.generators import gen_bert_like
from pipecut.graph import ParseError, TaskGraph, graph_to_json, save_graph
from pipecut.stages import (
    Plan,
    StagePlan,
    brute_force_partition,
    replay,
    stage_cost,
)

from helpers import task, value
from test_cli import write_cluster
from test_inputs import one_error_line
from test_stages import blockset_for, stage_chain


def reference_replay(plan, blocks):
    """Fill-drain replay written out as two loops over per-microbatch
    arrival tables: forward in microbatch order, then recompute and
    backward in reverse order, then the gradient sync."""
    cluster = blocks.model.cluster
    S, MB, R = len(plan.stages), plan.microbatches, plan.replica_factor
    ckpt = blocks.model.config.checkpointing and S > 1
    tf = [st.t_fwd for st in plan.stages]
    tb = [st.t_bwd for st in plan.stages]
    c_fwd, c_bwd = [], []
    d1 = 0
    for st in plan.stages:
        d0, d1 = d1, d1 + st.devices
        m = plan.batch_size // (MB * R * st.devices)
        _, fwd, bwd = stage_cost(blocks, *st.blocks, d0, d1, m, ckpt)
        c_fwd.append(fwd)
        c_bwd.append(bwd)

    lane_free = [0.0] * S
    lanes = [[] for _ in range(S)]
    arrival = [[0.0] * S for _ in range(MB)]
    for mb in range(MB):
        for s in range(S):
            start = max(lane_free[s], arrival[mb][s])
            end = start + tf[s]
            lanes[s].append((mb, "fwd", start, end))
            lane_free[s] = end
            if s < S - 1:
                send_end = end + c_fwd[s]
                if c_fwd[s] > 0.0:
                    lanes[s].append((mb, "comm", end, send_end))
                lane_free[s] = send_end
                arrival[mb][s + 1] = send_end

    grad_arrival = [[0.0] * S for _ in range(MB)]
    for mb in range(MB - 1, -1, -1):
        for s in range(S - 1, -1, -1):
            if ckpt:
                start = lane_free[s]
                end = start + tf[s]
                lanes[s].append((mb, "recompute", start, end))
                lane_free[s] = end
            start = max(lane_free[s], grad_arrival[mb][s])
            end = start + tb[s]
            lanes[s].append((mb, "bwd", start, end))
            lane_free[s] = end
            if s > 0:
                send_end = end + c_bwd[s]
                if c_bwd[s] > 0.0:
                    lanes[s].append((mb, "comm", end, send_end))
                lane_free[s] = send_end
                grad_arrival[mb][s - 1] = send_end

    d1 = 0
    for s, st in enumerate(plan.stages):
        d0, d1 = d1, d1 + st.devices
        group = st.replicas
        if group <= 1:
            continue
        params = blocks.param_bytes(*st.blocks)
        if params == 0:
            continue
        nbytes = 2 * params * (group - 1) // group
        first_node = d0 // cluster.devices_per_node
        last_node = (d1 - 1) // cluster.devices_per_node
        spans_nodes = R > 1 or first_node != last_node
        dur = blocks.model.comm_time(nbytes, inter_node=spans_nodes)
        if dur > 0.0:
            start = lane_free[s]
            lanes[s].append((-1, "allreduce", start, start + dur))
            lane_free[s] = start + dur
    return max(lane_free), lanes


def random_replay_case(rng):
    """A block chain and a plan over it with random stored stage times."""
    S = rng.randint(1, 5)
    nb = rng.randint(S, S + 3)
    sends = rng.random() < 0.7
    sizes = [rng.choice([0, rng.randint(1, 4096)]) if sends else 0
             for _ in range(nb)]
    params = [rng.choice([0, 0, rng.randint(1, 2**20)]) for _ in range(nb)]
    nodes = rng.randint(1, 2)
    dpn = rng.randint(1, 4)
    bw_inter = rng.uniform(1e3, 1e6)
    blocks = blockset_for(
        stage_chain([rng.uniform(0.1, 3.0) for _ in range(nb)], sizes=sizes,
                    params=params, x_bytes=rng.randint(0, 64)),
        nodes=nodes, dpn=dpn, bw=(bw_inter * rng.uniform(1, 10), bw_inter),
        latency=rng.choice([0.0, 0.0, rng.uniform(0, 1e-3)]),
        ckpt=rng.random() < 0.5)
    nb = len(blocks)
    bounds = [0, *sorted(rng.sample(range(1, nb), S - 1)), nb]
    devs = [rng.randint(1, 3) for _ in range(S)]
    MB, R = rng.randint(1, 16), rng.randint(1, 3)
    batch = MB * R * max(devs) * rng.randint(1, 4)
    stages = tuple(StagePlan(blocks=(lo, hi), devices=dev, replicas=dev * R,
                             t_fwd=rng.uniform(0.0, 2.0),
                             t_bwd=rng.uniform(0.0, 4.0), mem=0)
                   for lo, hi, dev in zip(bounds, bounds[1:], devs))
    plan = Plan(stages=stages, microbatches=MB, replica_factor=R,
                objective=0.0, batch_size=batch, devices_total=sum(devs))
    return blocks, plan


class TestReplayParity:
    def test_matches_the_arrival_table_replay_bit_for_bit(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(160):
            blocks, plan = random_replay_case(rng)
            got = replay(plan, blocks)
            # repr round-trips every float, so equal text is equal bits
            assert repr(got) == repr(reference_replay(plan, blocks))
            phases = {ph for lane in got[1] for _, ph, _, _ in lane}
            seen.add(("stages", len(plan.stages)))
            seen.add(("nodes", blocks.model.cluster.num_nodes))
            seen.add(("mb", plan.microbatches))
            seen.add(("ckpt", "recompute" in phases))
            seen.add(("sends", "comm" in phases))
            seen.add(("sync", "allreduce" in phases))
            for st in plan.stages:
                if st.replicas > 1:
                    seen.add(("replicated params", blocks.param_bytes(*st.blocks) > 0))
        want = ({("stages", s) for s in range(1, 6)}
                | {("nodes", 1), ("nodes", 2), ("mb", 1), ("mb", 16)}
                | {(k, flag) for k in ("ckpt", "sends", "sync", "replicated params")
                   for flag in (True, False)})
        assert want <= seen


class TestEnumeratorVisits:
    @pytest.mark.parametrize("nb, S, D", [(1, 1, 1), (3, 1, 4), (4, 2, 2),
                                          (5, 3, 4), (6, 3, 8), (8, 4, 6),
                                          (7, 7, 7)])
    @pytest.mark.parametrize("batch", ["4D", "1"])
    def test_one_visit_per_block_and_device_split(self, nb, S, D, batch):
        blocks = blockset_for(stage_chain([1.0] * nb), dpn=D)
        assert len(blocks) == nb
        # at batch 1 a stage on several devices gets no samples, so only
        # one device per stage plans, but every split is still visited
        result = brute_force_partition(blocks, S, D, 4 * D if batch == "4D" else 1, 1, 1)
        assert result.stats.visits == math.comb(nb - 1, S - 1) * math.comb(D - 1, S - 1)
        assert (result.plan is None) == (batch == "1" and D > S)


def plan_doc():
    return {"stages": [{"blocks": [0, 2], "devices": 1, "replicas": 1,
                        "t_fwd": 0.5, "t_bwd": 1.0, "mem": 100}],
            "microbatches": 1, "replica_factor": 1, "objective": 1.5,
            "batch_size": 4, "devices_total": 1}


def _drop(doc, key):
    return {k: v for k, v in doc.items() if k != key}


PLAN_CASES = [
    ("non-object plan", lambda d: [d], "plan: expected an object, got list"),
    ("unknown plan field", lambda d: dict(d, note=1), "plan: unknown fields ['note']"),
    ("missing plan field", lambda d: _drop(d, "objective"),
     "plan: missing fields ['objective']"),
    ("non-object stage", lambda d: dict(d, stages=[7]),
     "plan stage 0: expected an object, got int"),
    ("unknown stage field", lambda d: dict(d, stages=[dict(d["stages"][0], x=1)]),
     "plan stage 0: unknown fields ['x']"),
    ("missing stage field", lambda d: dict(d, stages=[_drop(d["stages"][0], "mem")]),
     "plan stage 0: missing fields ['mem']"),
]

SIG = "mm||mb=4"
TABLE_CASES = [
    ("non-object entry", [4], f"cost table entry {SIG!r}: expected an object, got list"),
    ("unknown entry field", {"microbatch": 4, "t_fwd": 0.5, "speed": 3},
     f"cost table entry {SIG!r}: unknown fields ['speed']"),
    ("missing entry field", {"microbatch": 4},
     f"cost table entry {SIG!r}: missing fields ['t_fwd']"),
]


class TestKeyErrors:
    @pytest.mark.parametrize("name, edit, message", PLAN_CASES,
                             ids=[c[0] for c in PLAN_CASES])
    def test_plan(self, name, edit, message):
        assert Plan.from_json(plan_doc()).objective == 1.5
        with pytest.raises(ParseError) as exc:
            Plan.from_json(edit(plan_doc()))
        assert str(exc.value) == message

    @pytest.mark.parametrize("name, entry, message", TABLE_CASES,
                             ids=[c[0] for c in TABLE_CASES])
    def test_cost_table(self, tmp_path, name, entry, message):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({SIG: entry}))
        with pytest.raises(ParseError) as exc:
            load_cost_table(str(path))
        assert str(exc.value) == message

    @pytest.fixture
    def cli_inputs(self, tmp_path):
        graph = tmp_path / "g.json"
        save_graph(gen_bert_like(64, 2, 16, 100), str(graph))
        return ["--graph", str(graph), "--cluster",
                write_cluster(tmp_path / "c.json"), "--batch-size", "4",
                "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("name, edit, message", PLAN_CASES,
                             ids=[c[0] for c in PLAN_CASES])
    def test_simulate_plan(self, tmp_path, capsys, cli_inputs, name, edit, message):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(edit(plan_doc())))
        assert main(["simulate", *cli_inputs, "--plan", str(path)]) == 1
        assert one_error_line(capsys) == f"error: {message}"

    @pytest.mark.parametrize("name, entry, message", TABLE_CASES,
                             ids=[c[0] for c in TABLE_CASES])
    def test_simulate_cost_table(self, tmp_path, capsys, cli_inputs, name,
                                 entry, message):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_doc()))
        table = tmp_path / "t.json"
        table.write_text(json.dumps({SIG: entry}))
        assert main(["simulate", *cli_inputs, "--plan", str(plan),
                     "--cost-table", str(table)]) == 1
        assert one_error_line(capsys) == f"error: {message}"


def shared_support_graph(extra):
    """x -> a -> y -> b -> z, with parameter `w` read by both tasks, plus
    the parameters in `extra` with the tasks that read them."""
    nodes = [value("x", per_sample=4), value("y", per_sample=4),
             value("z", per_sample=4), task("a", flops=1.0),
             task("b", flops=1.0), value("w", fixed=16, param=True)]
    edges = [("x", "a"), ("a", "y"), ("y", "b"), ("b", "z"), ("w", "a"),
             ("w", "b")]
    for pid, readers in extra.items():
        nodes.append(value(pid, fixed=16, param=True))
        edges += [(pid, t) for t in readers]
    return TaskGraph(nodes, edges, ["x"], ["z"])


# a node already named like a copy: read by one atom, or shared itself
COLLIDING = {"copy-named parameter": {"w::c0": ["b"]},
             "shared copy-named parameter": {"w::c0": ["a", "b"]}}


class TestCloneIds:
    def test_copies_skip_taken_ids(self):
        p = build_atomic_subcomponents(shared_support_graph(COLLIDING["copy-named parameter"]))
        assert p.clone_origins == {"w::c1": "w", "w::c2": "w"}
        p = build_atomic_subcomponents(
            shared_support_graph(COLLIDING["shared copy-named parameter"]))
        assert p.clone_origins == {"w::c1": "w", "w::c2": "w",
                                   "w::c0::c0": "w::c0", "w::c0::c1": "w::c0"}

    def test_ids_without_a_collision_are_unchanged(self):
        p = build_atomic_subcomponents(shared_support_graph({"v": ["a", "b"]}))
        assert p.clone_origins == {"w::c0": "w", "w::c1": "w",
                                   "v::c0": "v", "v::c1": "v"}

    @pytest.mark.parametrize("extra", COLLIDING.values(), ids=COLLIDING.keys())
    def test_cli_plans_and_replays(self, tmp_path, capsys, extra):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(graph_to_json(shared_support_graph(extra))))
        common = ["--graph", str(graph), "--cluster",
                  write_cluster(tmp_path / "c.json"), "--batch-size", "4",
                  "--out", str(tmp_path / "out")]
        assert main(["partition", *common]) == 0
        assert main(["simulate", *common, "--plan",
                     str(tmp_path / "out" / "plan.json")]) == 0
        assert "iteration_time_sec" in capsys.readouterr().out


class TestSimulateDeviceCount:
    def test_plan_must_fit_the_cluster(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        save_graph(gen_bert_like(64, 2, 16, 100), str(graph))
        out = tmp_path / "out"
        common = ["--graph", str(graph), "--batch-size", "8", "--out", str(out)]
        assert main(["partition", *common, "--cluster",
                     write_cluster(tmp_path / "big.json", nodes=2, dpn=4)]) == 0
        plan = json.loads((out / "plan.json").read_text())
        assert plan["devices_total"] * plan["replica_factor"] == 8
        capsys.readouterr()
        assert main(["simulate", *common, "--plan", str(out / "plan.json"),
                     "--cluster", write_cluster(tmp_path / "one.json", dpn=1)]) == 1
        line = one_error_line(capsys)
        assert "8 devices" in line and "has 1" in line
