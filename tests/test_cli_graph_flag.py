"""Only the commands that read a graph file take --graph: sweep generates
its own graphs, so the flag is an unrecognized argument there."""

import pytest

from pipecut.cli import build_parser, main

from test_cli import write_cluster


def test_sweep_rejects_graph(tmp_path, capsys):
    cluster = write_cluster(tmp_path / "c.json")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--graph", str(tmp_path / "missing.json"), "--cluster", cluster,
              "--hidden", "64", "--layers", "2", "--seq", "16", "--vocab", "100",
              "--batch-size", "16", "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 1
    assert "unrecognized arguments: --graph" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command,listed", [("partition", True), ("simulate", True),
                                            ("sweep", False)])
def test_help_lists_graph_where_it_is_read(command, listed, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    assert ("--graph" in capsys.readouterr().out) == listed
