import json
import pathlib
import re
import time

import pytest

from pipecut.cli import SWEEP_COLUMNS, main
from pipecut.generators import gen_bert_like
from pipecut.graph import save_graph
from pipecut.stages import Plan


def write_cluster(path, *, nodes=1, dpn=2, mem=2**34, intra=50e9, inter=10e9):
    doc = {"num_nodes": nodes, "devices_per_node": dpn,
           "device_memory_bytes": mem, "bw_intra": intra, "bw_inter": inter}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def small_setup(tmp_path):
    graph_path = tmp_path / "graph.json"
    save_graph(gen_bert_like(64, 2, 16, 100), str(graph_path))
    cluster_path = write_cluster(tmp_path / "cluster.json")
    out = tmp_path / "out"
    return str(graph_path), cluster_path, str(out)


class TestGenerate:
    def test_bert_graph_is_written_and_loadable(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["generate", "bert", "--hidden", "64", "--layers", "2",
                     "--seq", "16", "--vocab", "100", "--out", str(out)]) == 0
        assert "parameters" in capsys.readouterr().out
        from pipecut.graph import load_graph
        assert len(load_graph(str(out))) > 0

    def test_resnet_graph(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["generate", "resnet", "--layers", "50", "--width", "1",
                     "--out", str(out)]) == 0
        assert "parameters" in capsys.readouterr().out

    def test_zero_layers_is_an_input_error(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["generate", "bert", "--layers", "0",
                     "--out", str(out)]) == 1
        assert not out.exists()


class TestPartition:
    def test_writes_plan_blocks_and_report(self, small_setup, capsys):
        graph, cluster, out = small_setup
        code = main(["partition", "--graph", graph, "--cluster", cluster,
                     "--batch-size", "32", "--out", out])
        assert code == 0
        assert "wrote" in capsys.readouterr().out

        plan_doc = json.loads((pathlib.Path(out)
                               / "plan.json").read_text())
        plan = Plan.from_json(plan_doc)
        assert sum(st.devices for st in plan.stages) <= 2

        blocks_doc = json.loads((pathlib.Path(out)
                                 / "blocks.json").read_text())
        assert blocks_doc["num_blocks"] >= 1

        report = (pathlib.Path(out)
                  / "report.txt").read_text()
        assert "objective_sec" in report
        assert "stage" in report

    def test_missing_cluster_file(self, small_setup):
        graph, _, out = small_setup
        assert main(["partition", "--graph", graph, "--cluster",
                     "/nonexistent/cluster.json", "--out", out]) == 1

    def test_missing_required_flag(self, small_setup, capsys):
        _, cluster, out = small_setup
        assert main(["partition", "--cluster", cluster, "--out", out]) == 1
        assert "--graph" in capsys.readouterr().err

    def test_corrupt_graph_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        cluster = write_cluster(tmp_path / "c.json")
        assert main(["partition", "--graph", str(bad), "--cluster", cluster,
                     "--out", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err

    def test_oversized_atom_is_infeasible(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        save_graph(gen_bert_like(64, 2, 16, 100), str(graph_path))
        cluster = write_cluster(tmp_path / "c.json", mem=1000)
        assert main(["partition", "--graph", str(graph_path), "--cluster",
                     cluster, "--out", str(tmp_path / "o")]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_oracle_check_passes(self, small_setup):
        graph, cluster, out = small_setup
        code = main(["partition", "--graph", graph, "--cluster", cluster,
                     "--k", "8", "--batch-size", "16", "--oracle-check",
                     "--out", out])
        assert code == 0
        report = (pathlib.Path(out)
                  / "report.txt").read_text()
        assert "oracle_check: passed" in report

    def test_env_variables_supply_paths(self, small_setup, monkeypatch):
        graph, cluster, out = small_setup
        monkeypatch.setenv("PIPECUT_GRAPH", graph)
        monkeypatch.setenv("PIPECUT_CLUSTER", cluster)
        monkeypatch.setenv("PIPECUT_BATCH_SIZE", "16")
        assert main(["partition", "--out", out]) == 0

    def test_disable_pruning_same_plan(self, small_setup, tmp_path):
        graph, cluster, _ = small_setup
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["partition", "--graph", graph, "--cluster", cluster,
                     "--out", str(a)]) == 0
        assert main(["partition", "--graph", graph, "--cluster", cluster,
                     "--disable-pruning", "--out", str(b)]) == 0
        assert (a / "plan.json").read_text() == (b / "plan.json").read_text()


class TestSimulate:
    def partitioned(self, small_setup):
        graph, cluster, out = small_setup
        assert main(["partition", "--graph", graph, "--cluster", cluster,
                     "--batch-size", "32", "--out", out]) == 0
        return graph, cluster, out

    def test_prints_metrics(self, small_setup, capsys):
        graph, cluster, out = self.partitioned(small_setup)
        code = main(["simulate", "--plan", f"{out}/plan.json", "--graph",
                     graph, "--cluster", cluster, "--out", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "iteration_time_sec" in text
        assert "throughput_samples_per_sec" in text
        assert "bubble_fraction" in text

    def test_gantt_files(self, small_setup):
        graph, cluster, out = self.partitioned(small_setup)
        assert main(["simulate", "--plan", f"{out}/plan.json", "--graph",
                     graph, "--cluster", cluster, "--gantt", "svg",
                     "--out", out]) == 0
        svg = pathlib.Path(out) / "gantt.svg"
        assert svg.exists() and svg.read_text().startswith("<svg")
        assert main(["simulate", "--plan", f"{out}/plan.json", "--graph",
                     graph, "--cluster", cluster, "--gantt", "text",
                     "--out", out]) == 0
        txt = pathlib.Path(out) / "gantt.txt"
        assert "dev" in txt.read_text()

    def test_tampered_plan_rejected(self, small_setup, capsys):
        graph, cluster, out = self.partitioned(small_setup)
        plan_file = pathlib.Path(out) / "plan.json"
        doc = json.loads(plan_file.read_text())
        doc["objective"] = doc["objective"] * 2 + 1
        plan_file.write_text(json.dumps(doc))
        assert main(["simulate", "--plan", str(plan_file), "--graph", graph,
                     "--cluster", cluster, "--out", out]) == 1
        assert "error" in capsys.readouterr().err


class TestSimulateBatchSize:
    def test_plan_batch_must_match_flag(self, small_setup, capsys):
        graph, cluster, out = small_setup
        assert main(["partition", "--graph", graph, "--cluster", cluster,
                     "--batch-size", "32", "--out", out]) == 0
        report = (pathlib.Path(out) / "report.txt").read_text()
        want = next(line.split()[-1] for line in report.splitlines()
                    if line.startswith("simulated_iteration_sec:"))
        plan_file = pathlib.Path(out) / "plan.json"
        sim = ["simulate", "--graph", graph, "--cluster", cluster,
               "--out", out, "--batch-size", "32"]
        capsys.readouterr()
        assert main(sim + ["--plan", str(plan_file)]) == 0
        assert f"iteration_time_sec: {want}\n" in capsys.readouterr().out

        # scaling batch and microbatches keeps a plan valid; its replay
        # would grow with the scale, so the mismatch is caught first
        doc = json.loads(plan_file.read_text())
        doc["batch_size"] *= 1000
        doc["microbatches"] *= 1000
        scaled = pathlib.Path(out) / "scaled.json"
        scaled.write_text(json.dumps(doc))
        t0 = time.monotonic()
        assert main(sim + ["--plan", str(scaled)]) == 1
        assert time.monotonic() - t0 < 1.0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and {"32000", "32"} <= set(re.findall(r"\d+", err[0])), err

        assert main(sim[:-1] + ["64", "--plan", str(plan_file)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and {"32", "64"} <= set(re.findall(r"\d+", err[0])), err


class TestSweep:
    def test_grid_rows_and_columns(self, tmp_path):
        cluster = write_cluster(tmp_path / "c.json")
        csv_path = tmp_path / "sweep.csv"
        code = main(["sweep", "--cluster", cluster, "--hidden", "64",
                     "--layers", "2,3", "--seq", "16", "--vocab", "100",
                     "--batch-size", "16", "--out", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3
        assert all(",ok," in line for line in lines[1:])

    def test_byte_identical_reruns(self, tmp_path):
        cluster = write_cluster(tmp_path / "c.json")
        args = ["sweep", "--cluster", cluster, "--hidden", "64", "--layers",
                "2", "--seq", "16", "--vocab", "100", "--batch-size", "16"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_infeasible_rows(self, tmp_path):
        cluster = write_cluster(tmp_path / "c.json", mem=1000)
        csv_path = tmp_path / "s.csv"
        code = main(["sweep", "--cluster", cluster, "--hidden", "64",
                     "--layers", "2", "--seq", "16", "--vocab", "100",
                     "--out", str(csv_path)])
        assert code == 2
        body = csv_path.read_text().strip().split("\n")[1]
        assert "INFEASIBLE" in body

    def test_bad_layer_list(self, tmp_path, capsys):
        cluster = write_cluster(tmp_path / "c.json")
        assert main(["sweep", "--cluster", cluster, "--layers", "two",
                     "--out", str(tmp_path / "s.csv")]) == 1
        assert "error" in capsys.readouterr().err


class TestParsing:
    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["partition", "--nope"])
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
