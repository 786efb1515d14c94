"""The README's Python quick start runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["x1", "x2"]
    for line in lines:  # "x1: +0.1234 +- 0.5678"
        mean, std = map(float, line.split(":")[1].split("+-"))
        assert np.isfinite(mean) and np.isfinite(std) and std >= 0.0
