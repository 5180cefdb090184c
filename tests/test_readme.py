"""The README "Library quick tour" block runs from the repository root and
gives the values its comments state.

It imports only the public mobiuskit API, so it also runs against an
installed package: python -m pytest -q tests/test_readme.py from the root.
"""

import math
import os
import re
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tour_block() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    section = readme.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_gives_the_values_its_comments_state(monkeypatch):
    monkeypatch.chdir(ROOT)
    tour = {}
    exec(compile(tour_block(), "README.md quick tour", "exec"), tour)
    assert tour["mu"] == {"1a": 1, "1b": 2, "s": -1, "i": -1, "e": 0}
    assert tour["coarse"] == ((1, -1), (-1, 2))
    assert tour["chi"] == 1
    assert tour["patch"] == tour["table"] == Fraction(-10)
    assert math.isclose(tour["size"], 2 / (1 + math.exp(-1)), rel_tol=1e-12)
