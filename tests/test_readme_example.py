"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_verbatim(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    # the example prints the iteration time and the bubble fraction
    iteration, bubble = map(float, capsys.readouterr().out.split())
    assert iteration > 0 and 0 <= bubble < 1
