"""No module of the package sums with the builtin ``sum()`` or ``math.fsum``.

The builtin adds floats left to right on Python 3.10 and 3.11 but
compensates them from 3.12 on, and ``math.fsum`` rounds the exact sum once;
either would make a total weight or a degree, and so a partition and its Q,
depend on the Python version.  The package sums with numpy in a fixed order
instead.  Every ``src/pwrkit/*.py`` is read with ``ast``, and any use of
either function, called or passed on, fails the test.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pwrkit

PACKAGE = Path(pwrkit.__file__).parent


def interpreter_sums(source: str) -> list[int]:
    """Lines of ``source`` that name ``sum``, ``fsum``, ``builtins.sum`` or ``<x>.fsum``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found = node.id in ("sum", "fsum")
        elif isinstance(node, ast.Attribute):
            builtin = isinstance(node.value, ast.Name) and node.value.id == "builtins"
            found = node.attr == "fsum" or (builtin and node.attr == "sum")
        else:
            found = False
        if found:
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_sums_with_the_interpreter():
    found = {
        path.stem: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := interpreter_sums(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_every_form_of_the_interpreter_sums_is_seen():
    source = (
        "import builtins, math\n"
        "from math import fsum\n"
        "a = sum(xs)\n"
        "b = math.fsum(xs)\n"
        "c = fsum(xs)\n"
        "d = builtins.sum(xs)\n"
        "e = list(map(sum, rows))\n"
        "f = np.sum(xs) + xs.sum() + np.add.reduce(xs)\n"
    )
    assert interpreter_sums(source) == [3, 4, 5, 6, 7]
