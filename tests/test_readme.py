"""The README quick start runs and prints the values its comments promise."""

import contextlib
import io
import pathlib
import re

import numpy as np
import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1, "README should hold exactly one python block"
    return blocks[0]


def test_readme_quick_start_prints_the_documented_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    assert float(lines[0]) == pytest.approx(0.5, abs=1e-12)  # c = cos(pi/3)
    errors = np.array(lines[1].strip("[]").split(), dtype=float)
    assert errors == pytest.approx([1.0, 0.5, 0.125], abs=1e-12)
    ell_lo, ell_hi = map(float, lines[3].split())
    assert ell_lo == pytest.approx(0.28395, abs=5e-6)
    assert ell_lo <= ell_hi
