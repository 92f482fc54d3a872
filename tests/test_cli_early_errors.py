"""Input faults that no planning can cure are reported before planning:
an environment value outside a choice flag's choices, an --out that is a
file or lies below one, and (by creating it) a missing directory for the
sweep's CSV."""

import pytest

from pipecut import cli
from pipecut.cli import main
from pipecut.generators import gen_bert_like
from pipecut.graph import save_graph

from test_cli import write_cluster

SWEEP = ["--hidden", "64", "--layers", "2", "--seq", "16", "--vocab", "100"]


@pytest.fixture
def inputs(tmp_path):
    graph = tmp_path / "g.json"
    save_graph(gen_bert_like(64, 2, 16, 100), str(graph))
    return ["--graph", str(graph), "--cluster", write_cluster(tmp_path / "c.json"),
            "--batch-size", "8"]


class TestEnvironmentChoices:
    def test_bad_checkpointing_stops_partition(self, inputs, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PIPECUT_CHECKPOINTING", "bogus")
        out = tmp_path / "out"
        assert main(["partition", *inputs, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: PIPECUT_CHECKPOINTING must be one of on, off, "
                                "got 'bogus'\n")
        assert not out.exists()

    def test_bad_gantt_stops_simulate(self, inputs, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert main(["partition", *inputs, "--out", str(out)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("PIPECUT_GANTT", "bogus")
        assert main(["simulate", *inputs, "--plan", str(out / "plan.json"),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: PIPECUT_GANTT must be one of text, svg, got 'bogus'\n"

    def test_good_values_and_command_line_still_win(self, inputs, tmp_path, monkeypatch):
        monkeypatch.setenv("PIPECUT_CHECKPOINTING", "off")
        monkeypatch.setenv("PIPECUT_GANTT", "bogus")
        out = tmp_path / "out"
        assert main(["partition", *inputs, "--out", str(out)]) == 0
        assert "checkpointing: off" in (out / "report.txt").read_text()
        assert main(["simulate", *inputs, "--plan", str(out / "plan.json"),
                     "--gantt", "text", "--out", str(out)]) == 0
        assert (out / "gantt.txt").exists()

    def test_generate_ignores_the_planning_variables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PIPECUT_CHECKPOINTING", "bogus")
        monkeypatch.setenv("PIPECUT_GANTT", "bogus")
        assert main(["generate", "bert", "--hidden", "64", "--layers", "2", "--seq", "16",
                     "--vocab", "100", "--out", str(tmp_path / "g.json")]) == 0


class TestSweepOutDirectory:
    def test_missing_directory_of_a_csv_path_is_created(self, tmp_path):
        path = tmp_path / "missing" / "deeper" / "x.csv"
        assert main(["sweep", "--cluster", write_cluster(tmp_path / "c.json"), *SWEEP,
                     "--batch-size", "8", "--out", str(path)]) == 0
        assert path.read_text().startswith("hidden,layers,")


class TestOutIsAFile:
    def test_partition_stops_before_loading(self, inputs, tmp_path, capsys, monkeypatch):
        out_file = tmp_path / "F"
        out_file.write_text("keep")
        monkeypatch.setattr(cli, "_load_blocks", lambda args: pytest.fail("inputs loaded"))
        assert main(["partition", *inputs, "--out", str(out_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {out_file} exists and is not a directory\n"
        assert out_file.read_text() == "keep"

    @pytest.mark.parametrize("suffix", ["", "/x.csv"])
    def test_sweep_stops_before_planning(self, tmp_path, capsys, monkeypatch, suffix):
        # a directory name or a CSV path under it: either way the CSV's
        # directory is the file F
        out_file = tmp_path / "F"
        out_file.write_text("keep")
        monkeypatch.setattr(cli, "_plan_blocks", lambda *args: pytest.fail("graph planned"))
        assert main(["sweep", "--cluster", write_cluster(tmp_path / "c.json"), *SWEEP,
                     "--batch-size", "8", "--out", f"{out_file}{suffix}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {out_file} exists and is not a directory\n"
        assert out_file.read_text() == "keep"

    def test_simulate_with_gantt_stops_before_replay(self, inputs, tmp_path, capsys):
        plan = tmp_path / "run" / "plan.json"
        assert main(["partition", *inputs, "--out", str(plan.parent)]) == 0
        out_file = tmp_path / "F"
        out_file.write_text("keep")
        capsys.readouterr()
        argv = ["simulate", *inputs, "--plan", str(plan), "--out", str(out_file)]
        assert main([*argv, "--gantt", "text"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {out_file} exists and is not a directory\n"
        # without --gantt, simulate writes nothing, so --out is not read
        assert main(argv) == 0
        assert out_file.read_text() == "keep"

    def test_infeasible_partition_leaves_no_directory(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        save_graph(gen_bert_like(64, 2, 16, 100), str(graph))
        out = tmp_path / "out"
        assert main(["partition", "--graph", str(graph), "--out", str(out), "--cluster",
                     write_cluster(tmp_path / "c.json", mem=1000)]) == 2
        assert not out.exists()


class TestOutBelowAFile:
    """An --out below an existing file F can never be made: each command
    names it before loading anything and writes nothing to stdout."""

    @pytest.fixture
    def out_file(self, tmp_path):
        path = tmp_path / "F"
        path.write_text("keep")
        yield path
        assert path.read_text() == "keep"

    def test_partition_stops_before_loading(self, inputs, out_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_load_blocks", lambda args: pytest.fail("inputs loaded"))
        assert main(["partition", *inputs, "--out", f"{out_file}/sub"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --out {out_file}/sub lies below {out_file}, "
                                f"which is not a directory\n")

    def test_simulate_with_gantt_stops_before_loading(self, inputs, tmp_path, out_file,
                                                       capsys, monkeypatch):
        plan = tmp_path / "run" / "plan.json"
        assert main(["partition", *inputs, "--out", str(plan.parent)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_load_blocks", lambda args: pytest.fail("inputs loaded"))
        assert main(["simulate", *inputs, "--plan", str(plan), "--gantt", "text",
                     "--out", f"{out_file}/sub/deeper"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --out {out_file}/sub/deeper lies below {out_file}, "
                                f"which is not a directory\n")

    def test_sweep_stops_before_planning(self, tmp_path, out_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_plan_blocks", lambda *args: pytest.fail("graph planned"))
        assert main(["sweep", "--cluster", write_cluster(tmp_path / "c.json"), *SWEEP,
                     "--batch-size", "8", "--out", f"{out_file}/sub/x.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --out {out_file}/sub lies below {out_file}, "
                                f"which is not a directory\n")
