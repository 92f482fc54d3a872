"""Bad input exits with code 1 and a one-line message, never a traceback."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pipecut
from pipecut.cli import main
from pipecut.costs import load_cost_table
from pipecut.generators import gen_bert_like
from pipecut.graph import (ClusterSpec, ParseError, ValidationError, graph_from_json,
                           graph_to_json, save_graph)
from pipecut.stages import Plan, brute_force_partition, form_stage_dp

from test_cli import write_cluster
from test_stages import blockset_for, stage_chain


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def chain_doc(flops=1.0, fixed=0, per_sample=4):
    return {
        "nodes": [
            {"id": "x", "kind": "value", "value": {"bytes_per_sample": 4}},
            {"id": "t", "kind": "task", "task": {"op": "mm", "flops_per_sample": flops}},
            {"id": "y", "kind": "value",
             "value": {"fixed_bytes": fixed, "bytes_per_sample": per_sample}},
        ],
        "edges": [["x", "t"], ["t", "y"]],
        "inputs": ["x"],
        "outputs": ["y"],
    }


BAD_NUMBERS = [-1, -1.5, float("inf"), float("nan"), "12", True, None]


class TestGraphNumbers:
    @pytest.mark.parametrize("bad", BAD_NUMBERS)
    @pytest.mark.parametrize("field", ["flops", "fixed", "per_sample"])
    def test_rejected_at_load(self, field, bad):
        with pytest.raises(ParseError, match=field if field != "fixed" else "fixed_bytes"):
            graph_from_json(chain_doc(**{field: bad}))

    def test_byte_sizes_must_be_whole(self):
        with pytest.raises(ParseError, match="whole"):
            graph_from_json(chain_doc(per_sample=4.5))
        g = graph_from_json(chain_doc(flops=2.5, per_sample=8.0))
        assert g.nodes["y"].value.bytes_per_sample == 8
        assert g.nodes["t"].task.flops_per_sample == 2.5

    def test_negative_flops_is_an_input_error(self, tmp_path, capsys):
        # this used to load and then fail the plan's own objective check
        doc = graph_to_json(gen_bert_like(64, 2, 16, 100))
        task = next(n for n in doc["nodes"] if n["kind"] == "task")
        task["task"]["flops_per_sample"] = -1e9
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(doc))
        cluster = write_cluster(tmp_path / "c.json")
        assert main(["partition", "--graph", str(graph), "--cluster", cluster,
                     "--out", str(tmp_path / "out")]) == 1
        assert "flops_per_sample must be finite and non-negative" in one_error_line(capsys)

    def test_non_finite_bytes_in_json_text(self, tmp_path, capsys):
        # Python's json module reads the non-standard literal Infinity
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(chain_doc(per_sample=float("inf"))))
        cluster = write_cluster(tmp_path / "c.json")
        assert main(["partition", "--graph", str(graph), "--cluster", cluster,
                     "--out", str(tmp_path / "out")]) == 1
        assert "bytes_per_sample" in one_error_line(capsys)


class TestCostTableNumbers:
    SIG = "mm||mb=4"

    def load(self, tmp_path, sig=SIG, **fields):
        rec = {"microbatch": 4, "t_fwd": 0.5}
        rec.update(fields)
        path = tmp_path / "table.json"
        path.write_text(json.dumps({sig: rec}))
        return load_cost_table(str(path))

    # null means absent for the optional t_bwd and act_bytes
    @pytest.mark.parametrize("field, bad", [
        (field, bad) for field in ("t_fwd", "t_bwd", "act_bytes", "microbatch")
        for bad in BAD_NUMBERS if bad is not None or field in ("t_fwd", "microbatch")])
    def test_rejected_at_load(self, tmp_path, field, bad):
        with pytest.raises(ParseError, match=field):
            self.load(tmp_path, **{field: bad})

    def test_whole_numbers_for_counts(self, tmp_path):
        with pytest.raises(ParseError, match="act_bytes"):
            self.load(tmp_path, act_bytes=7.5)
        entry = self.load(tmp_path, act_bytes=7.0, t_bwd=None)[self.SIG]
        assert entry.act_bytes == 7 and entry.t_bwd is None

    @pytest.mark.parametrize("sig", ["mm||mb=2", "mm||mb=44", "mm||", "mm"])
    def test_microbatch_must_match_key(self, tmp_path, sig):
        with pytest.raises(ParseError, match="does not match"):
            self.load(tmp_path, sig=sig)

    def test_cli_exit_code(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        save_graph(gen_bert_like(64, 2, 16, 100), str(graph))
        table = tmp_path / "t.json"
        table.write_text(json.dumps({self.SIG: {"microbatch": 4, "t_fwd": "fast"}}))
        assert main(["partition", "--graph", str(graph), "--cluster",
                     write_cluster(tmp_path / "c.json"), "--cost-table", str(table),
                     "--out", str(tmp_path / "out")]) == 1
        assert "t_fwd must be a number" in one_error_line(capsys)


class TestEnvironmentDefaults:
    @pytest.mark.parametrize("name, flag", [("PIPECUT_K", "--k"),
                                            ("PIPECUT_BATCH_SIZE", "--batch-size")])
    def test_non_integer_is_an_input_error(self, monkeypatch, capsys, name, flag):
        monkeypatch.setenv(name, "abc")
        with pytest.raises(SystemExit) as exc:
            main(["partition", "--graph", "g.json", "--cluster", "c.json"])
        assert exc.value.code == 1
        assert f"argument {flag}: invalid int value: 'abc'" in capsys.readouterr().err

    def test_command_line_wins_over_a_bad_environment_value(
            self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("PIPECUT_K", "abc")
        cluster = write_cluster(tmp_path / "c.json")
        assert main(["partition", "--graph", str(tmp_path / "missing.json"),
                     "--cluster", cluster, "--k", "4"]) == 1
        assert "missing.json" in one_error_line(capsys)


class TestPlanTypes:
    @pytest.fixture
    def plan_doc(self):
        return {"stages": [{"blocks": [0, 2], "devices": 1, "replicas": 1,
                            "t_fwd": 0.5, "t_bwd": 1.0, "mem": 100}],
                "microbatches": 1, "replica_factor": 1, "objective": 1.5,
                "batch_size": 4, "devices_total": 1}

    @pytest.mark.parametrize("path, bad", [
        (("stages",), 5),
        (("stages", 0, "blocks"), 5),
        (("stages", 0, "blocks"), [0, "x"]),
        (("stages", 0, "devices"), "x"),
        (("stages", 0, "devices"), 1.5),
        (("stages", 0, "mem"), None),
        (("stages", 0, "t_fwd"), "x"),
        (("stages", 0), 7),
        (("microbatches",), True),
        (("objective",), [1.5]),
        (("batch_size",), "4"),
    ])
    def test_wrong_types_raise_parse_error(self, plan_doc, path, bad):
        assert Plan.from_json(plan_doc).objective == 1.5
        target = plan_doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        with pytest.raises(ParseError):
            Plan.from_json(plan_doc)

    @pytest.mark.parametrize("field, bad", [("stages", 5), ("blocks", 5),
                                            ("devices", "x")])
    def test_simulate_rejects_plan(self, tmp_path, capsys, field, bad):
        graph = tmp_path / "g.json"
        save_graph(gen_bert_like(64, 2, 16, 100), str(graph))
        cluster = write_cluster(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["partition", "--graph", str(graph), "--cluster", cluster,
                     "--out", str(out)]) == 0
        doc = json.loads((out / "plan.json").read_text())
        if field == "stages":
            doc["stages"] = bad
        else:
            doc["stages"][0][field] = bad
        plan = tmp_path / "bad_plan.json"
        plan.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["simulate", "--plan", str(plan), "--graph", str(graph),
                     "--cluster", cluster]) == 1
        assert "plan" in one_error_line(capsys)


class TestSweepOut:
    ARGS = ["sweep", "--hidden", "64", "--layers", "2", "--seq", "16",
            "--vocab", "100", "--batch-size", "16"]

    def test_missing_directory_is_created(self, tmp_path):
        cluster = write_cluster(tmp_path / "c.json")
        out = tmp_path / "new" / "dir"
        assert main(self.ARGS + ["--cluster", cluster, "--out", str(out)]) == 0
        assert out.is_dir()
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 2 and ",ok," in lines[1]

    def test_csv_path_is_a_file(self, tmp_path):
        cluster = write_cluster(tmp_path / "c.json")
        out = tmp_path / "grid.csv"
        assert main(self.ARGS + ["--cluster", cluster, "--out", str(out)]) == 0
        assert out.is_file()


class TestClusterNumbers:
    # JSON text, not json.dumps: 1e400 is a literal that reads as infinity
    @pytest.mark.parametrize("field, text", [("num_nodes", "null"),
                                             ("device_memory_bytes", "1e400"),
                                             ("num_nodes", "1.9")])
    def test_bad_number_is_an_input_error(self, tmp_path, capsys, field, text):
        doc = {"num_nodes": 1, "devices_per_node": 2, "device_memory_bytes": 2**34,
               "bw_intra": 50e9, "bw_inter": 10e9, field: "@"}
        cluster = tmp_path / "c.json"
        cluster.write_text(json.dumps(doc).replace('"@"', text))
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(chain_doc()))
        assert main(["partition", "--graph", str(graph), "--cluster", str(cluster),
                     "--out", str(tmp_path / "out")]) == 1
        assert f"cluster {field}" in one_error_line(capsys)


class TestZeroCountClusters:
    """`ClusterSpec` is the one guard on the cluster shape: stage search
    reads the shape from the block set and checks no count of its own."""

    @pytest.mark.parametrize("nodes, dpn", [(0, 1), (1, 0)])
    def test_cluster_spec_rejects_zero(self, nodes, dpn):
        with pytest.raises(ValueError, match="at least one node and one device"):
            ClusterSpec(nodes, dpn, 2**34, 50e9, 10e9)

    @pytest.mark.parametrize("nodes, dpn", [(0, 1), (1, 0)])
    def test_partition_rejects_zero(self, tmp_path, capsys, nodes, dpn):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(chain_doc()))
        out = tmp_path / "out"
        assert main(["partition", "--graph", str(graph), "--cluster",
                     write_cluster(tmp_path / "c.json", nodes=nodes, dpn=dpn),
                     "--out", str(out)]) == 1
        assert "at least one node and one device" in one_error_line(capsys)
        assert not out.exists()


class TestCounts:
    @pytest.mark.parametrize("flag", ["--k", "--batch-size", "--seq", "--vocab"])
    def test_sweep_rejects_zero(self, tmp_path, capsys, flag):
        assert main(["sweep", "--cluster", write_cluster(tmp_path / "c.json"),
                     "--hidden", "64", "--layers", "2", "--seq", "16", "--vocab", "100",
                     flag, "0", "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {flag} must be at least 1"]


class TestHugeClusters:
    """A device count far past the batch used to make stage search loop
    over every device count; now such a run is infeasible at once."""

    @pytest.mark.parametrize("field", ["devices_per_node", "num_nodes"])
    def test_partition_and_sweep_exit_2(self, tmp_path, field):
        src = Path(pipecut.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        path = tmp_path / "c.json"
        write_cluster(path)
        cluster = json.loads(path.read_text())
        cluster[field] = 1e308
        path.write_text(json.dumps(cluster))
        graph = tmp_path / "g.json"
        save_graph(gen_bert_like(64, 2, 16, 100), str(graph))
        runs = {
            "partition": ["--graph", str(graph)],
            "sweep": ["--hidden", "64", "--layers", "2", "--seq", "16", "--vocab", "100"],
        }
        for cmd, args in runs.items():
            proc = subprocess.run(
                [sys.executable, "-m", "pipecut.cli", cmd, *args,
                 "--cluster", str(path), "--out", str(tmp_path / cmd)],
                env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 2, (cmd, proc.stderr)
            if cmd == "partition":
                err = proc.stderr.strip().splitlines()
                assert len(err) == 1 and err[0].startswith("infeasible: "), err

    def test_dp_skips_more_devices_than_samples(self):
        # two stages, batch 4: each device needs at least one sample, so at
        # most 2 x 4 devices can hold a share
        bs = blockset_for(stage_chain([1.0, 1.0, 1.0]))
        fits = form_stage_dp(bs, 2, 8, 4, 1, 1)
        assert fits.plan == brute_force_partition(bs, 2, 8, 4, 1, 1).plan
        assert fits.plan is not None
        over = form_stage_dp(bs, 2, 9, 4, 1, 1)
        assert over.plan is None
        assert (over.stats.dp_calls, over.stats.visits) == (1, 0)


class TestFuzzFindings:
    """Inputs the fuzz in test_fuzz.py turned up: each used to raise."""

    def run(self, tmp_path, capsys, graph_doc=None, cluster_text=None, table=None):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(graph_doc or chain_doc()))
        cluster = write_cluster(tmp_path / "c.json")
        if cluster_text is not None:
            (tmp_path / "c.json").write_text(cluster_text)
        argv = ["partition", "--graph", str(graph), "--cluster", cluster,
                "--out", str(tmp_path / "out")]
        if table is not None:
            (tmp_path / "t.json").write_text(json.dumps(table))
            argv += ["--cost-table", str(tmp_path / "t.json")]
        assert main(argv) == 1
        return one_error_line(capsys)

    def test_integer_past_the_float_range(self, tmp_path, capsys):
        text = json.dumps({"num_nodes": 1, "devices_per_node": 2,
                           "device_memory_bytes": 10**400, "bw_intra": 5e10,
                           "bw_inter": 1e10})
        assert "finite" in self.run(tmp_path, capsys, cluster_text=text)

    def test_integer_too_long_to_read(self, tmp_path, capsys):
        text = '{"num_nodes": ' + "9" * 5000 + "}"
        assert "c.json" in self.run(tmp_path, capsys, cluster_text=text)

    def test_inputs_not_an_array_of_ids(self, tmp_path, capsys):
        doc = chain_doc()
        doc["inputs"] = 7
        assert "inputs" in self.run(tmp_path, capsys, graph_doc=doc)

    def test_output_fed_only_by_constants(self, tmp_path, capsys):
        # a dangling output used to print a warning and then raise
        doc = chain_doc()
        doc["nodes"].append({"id": "c", "kind": "value", "value": {"fixed_bytes": 4}})
        doc["outputs"].append("c")
        assert "'c'" in self.run(tmp_path, capsys, graph_doc=doc)

    def test_several_violations_share_one_line(self, tmp_path, capsys):
        doc = chain_doc()
        doc["nodes"].append({"id": "w", "kind": "value",
                             "value": {"is_param": True, "bytes_per_sample": 4}})
        doc["edges"] += [["w", "t"], ["y", "t"]]
        line = self.run(tmp_path, capsys, graph_doc=doc)
        assert "param-batch-scaling" in line and "cycle" in line

    def test_task_times_summing_past_the_float_range(self, tmp_path, capsys):
        doc = chain_doc()
        doc["nodes"] += [{"id": "t2", "kind": "task", "task": {"op": "mm"}},
                         {"id": "z", "kind": "value", "value": {"bytes_per_sample": 4}}]
        doc["edges"] += [["y", "t2"], ["t2", "z"]]
        doc["outputs"] = ["z"]
        table = {f"mm||mb={m}": {"microbatch": m, "t_fwd": 1e308} for m in (1, 2, 4, 8)}
        assert "out of range" in self.run(tmp_path, capsys, graph_doc=doc, table=table)


def write_and_partition(tmp_path, doc) -> int:
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(doc))
    return main(["partition", "--graph", str(graph), "--cluster",
                 write_cluster(tmp_path / "c.json"), "--out", str(tmp_path / "out")])


class TestProducedInput:
    """A declared model input that a task also writes used to load, and its
    value then landed in two atoms."""

    def produced_input_doc(self):
        doc = chain_doc()
        doc["nodes"] += [{"id": "a", "kind": "value", "value": {"bytes_per_sample": 4}},
                         {"id": "t0", "kind": "task", "task": {"op": "mm"}}]
        doc["edges"] += [["a", "t0"], ["t0", "x"]]
        doc["inputs"] = ["a", "x"]
        return doc

    def test_rejected_at_load(self):
        with pytest.raises(ValidationError, match=r"produced-input \[x, t0\]"):
            graph_from_json(self.produced_input_doc())

    def test_cli_exit_code(self, tmp_path, capsys):
        assert write_and_partition(tmp_path, self.produced_input_doc()) == 1
        assert "produced-input" in one_error_line(capsys)


def set_node_field(doc, nid, field, raw):
    node = next(n for n in doc["nodes"] if n["id"] == nid)
    node[node["kind"]][field] = raw
    return doc


class TestNodeFields:
    """`is_param` must be a JSON boolean and `op` a non-empty string; they
    used to be coerced, so "false" loaded as a parameter and 7 as op "7"."""

    BAD = [("y", "is_param", "false"), ("y", "is_param", 0), ("y", "is_param", None),
           ("t", "op", None), ("t", "op", 7), ("t", "op", ""), ("t", "op", ["mm"])]

    @pytest.mark.parametrize("nid, field, raw", BAD)
    def test_rejected_at_load(self, nid, field, raw):
        with pytest.raises(ParseError, match=f"'{nid}': {field} must be"):
            graph_from_json(set_node_field(chain_doc(), nid, field, raw))

    @pytest.mark.parametrize("nid, field, raw", BAD)
    def test_cli_exit_code(self, tmp_path, capsys, nid, field, raw):
        doc = set_node_field(chain_doc(), nid, field, raw)
        assert write_and_partition(tmp_path, doc) == 1
        assert f"{field} must be" in one_error_line(capsys)

    def test_well_typed_fields_load(self):
        doc = set_node_field(chain_doc(), "y", "is_param", False)
        g = graph_from_json(set_node_field(doc, "t", "op", "matmul"))
        assert g.nodes["y"].value.is_param is False
        assert g.nodes["t"].task.op == "matmul"
