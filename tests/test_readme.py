"""The README's "Library use" snippet runs and gives the values it documents."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_snippet_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env: dict = {}
    exec(compile(code, "README.md", "exec"), env)
    assert abs(env["q"].c - 0.25) <= 1e-6
    assert abs(env["srp"].value - 2 / math.sqrt(3)) <= 1e-3
