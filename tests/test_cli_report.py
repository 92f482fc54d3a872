"""The partition report carries only values the planner reads."""

import pathlib

import pytest

from pipecut.cli import main

from test_cli import small_setup  # noqa: F401  (fixture)


def test_report_has_no_seed_and_seed_flag_is_gone(small_setup, capsys):
    graph, cluster, out = small_setup
    assert main(["partition", "--graph", graph, "--cluster", cluster,
                 "--out", out]) == 0
    report = (pathlib.Path(out) / "report.txt").read_text()
    assert "seed: " not in report
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--graph", graph, "--cluster", cluster,
              "--seed", "1", "--out", out])
    assert exc.value.code == 1
