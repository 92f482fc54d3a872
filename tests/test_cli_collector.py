"""The CLI runs one command with the cyclic garbage collector paused, gives
the caller back the collector as it found it on every exit, and leaves no
cyclic garbage that grows with the model."""

import gc

import pytest

from pipecut import cli
from pipecut.cli import main
from pipecut.generators import gen_bert_like
from pipecut.graph import save_graph

from test_cli import write_cluster


@pytest.fixture(autouse=True)
def collector_state():
    """Give the next test the collector as this one found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def bert_graph(tmp_path, layers):
    path = tmp_path / f"bert{layers}.json"
    save_graph(gen_bert_like(64, layers, 16, 100), str(path))
    return str(path)


@pytest.fixture
def partition_args(tmp_path):
    def args(layers=2, mem=2**34, graph=None):
        return ["partition", "--graph", graph or bert_graph(tmp_path, layers),
                "--cluster", write_cluster(tmp_path / f"c{mem}.json", mem=mem),
                "--batch-size", "8", "--out", str(tmp_path / "out")]
    return args


class TestCollectorPause:
    def test_command_runs_with_the_collector_paused(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_generate", lambda args: seen.append(gc.isenabled()) or 0)
        gc.enable()
        assert main(["generate", "bert", "--layers", "1"]) == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("exit_code", [0, 1, 2])
    def test_collector_is_enabled_again_after_exit(self, exit_code, partition_args,
                                                   tmp_path, capsys):
        argv = {0: partition_args(),
                1: partition_args(graph=str(tmp_path / "missing.json")),
                2: partition_args(mem=1000)}[exit_code]
        gc.enable()
        assert main(argv) == exit_code
        assert gc.isenabled()

    def test_collector_is_enabled_again_after_an_uncaught_error(self, monkeypatch):
        def fail(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_generate", fail)
        gc.enable()
        with pytest.raises(RuntimeError):
            main(["generate", "bert", "--layers", "1"])
        assert gc.isenabled()

    @pytest.mark.parametrize("exit_code", [0, 1])
    def test_disabled_collector_stays_disabled(self, exit_code, partition_args, tmp_path):
        argv = partition_args() if exit_code == 0 else partition_args(
            graph=str(tmp_path / "missing.json"))
        gc.disable()
        assert main(argv) == exit_code
        assert not gc.isenabled()

    def test_cyclic_garbage_does_not_grow_with_the_model(self, partition_args, capsys):
        gc.disable()
        small, large = partition_args(layers=2), partition_args(layers=64)
        assert main(small) == 0  # the first run also leaves one-time garbage
        gc.collect()
        assert main(small) == 0
        freed_small = gc.collect()
        assert main(large) == 0
        freed_large = gc.collect()
        assert freed_large <= freed_small
