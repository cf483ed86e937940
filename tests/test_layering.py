"""The package's modules import only the modules below them.

Every ``src/pwrkit/*.py`` is read with ``ast``, function-level imports
included, and each import of a pwrkit module must name a module of a lower
layer than the importer's own.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pwrkit

PACKAGE = Path(pwrkit.__file__).parent
# bottom first; a module may import from the layers before its own
LAYERS = (
    ("matrix",),
    ("engine",),
    ("comparators", "components", "decomposition", "plotting"),
    ("formats",),
    ("datasets",),
    ("__init__",),
    ("cli",),
)
LAYER_OF = {module: i for i, layer in enumerate(LAYERS) for module in layer}


def pwrkit_imports(source: str) -> set[str]:
    """The pwrkit modules that ``source``, a module of the package, imports anywhere."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [(alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "pwrkit" if node.level else ""
            dotted = ".".join(filter(None, (base, node.module)))
            targets = [(dotted, [alias.name for alias in node.names])]
        else:
            continue
        for dotted, names in targets:
            parts = dotted.split(".")
            if parts[0] != "pwrkit":
                continue
            if len(parts) > 1:
                found.add(parts[1])
            else:  # "from . import x": a submodule, or a name of __init__
                found.update(name if name in LAYER_OF else "__init__" for name in names)
    return found


def test_the_layers_cover_every_module():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(LAYER_OF)


def test_every_module_imports_only_lower_layers():
    upward = [
        (path.stem, imported)
        for path in sorted(PACKAGE.glob("*.py"))
        for imported in sorted(pwrkit_imports(path.read_text(encoding="utf-8")))
        if LAYER_OF[imported] >= LAYER_OF[path.stem]
    ]
    assert upward == []


def test_imports_inside_functions_and_every_import_form_are_seen():
    source = (
        "import numpy\n"
        "import pwrkit.cli\n"
        "from pwrkit import formats\n"
        "from . import __version__, datasets\n"
        "def f():\n"
        "    from .engine import bounded_list\n"
        "class C:\n"
        "    def g(self):\n"
        "        from .plotting.sub import x\n"
    )
    assert pwrkit_imports(source) == {"cli", "formats", "__init__", "datasets", "engine", "plotting"}
