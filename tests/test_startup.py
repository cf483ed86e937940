"""Start-up cost guard.

Most runs are one short subcommand on a small matrix, so the import of
``pwrkit.cli`` is a large share of each.  A matrix of up to ``DENSE_LIMIT``
nodes is stored dense and runs on numpy alone, whether it was read from CSV
or from a Pajek network, so no scipy module may load at start-up or during
a dense run of any subcommand but ``scc``.  ``scipy.sparse``, which costs as
much to import as numpy, loads on the first CSR matrix (one above
``DENSE_LIMIT`` nodes, whatever the file format); ``scipy.sparse.csgraph``
loads when ``scc`` runs; ``scipy.stats`` is never used.  The argument
parser is not built at import either, but on the first ``main`` call, and
only once however many calls follow.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pwrkit
from pwrkit import data_path

# the package under test, importable from the scratch directory the runs use
SOURCE_ROOT = str(Path(pwrkit.__file__).resolve().parent.parent)

HELPERS = """
import sys

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))[:3]
"""

DENSE_RUN = HELPERS + """
import argparse

# the prog of every parser built: the CLI's own is "pwrkit"
built = []
init = argparse.ArgumentParser.__init__

def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting_init
import pwrkit
assert not scipy_modules(), f"imported by pwrkit: {scipy_modules()}"
import pwrkit.cli
assert not scipy_modules(), f"imported by pwrkit.cli: {scipy_modules()}"
assert not built, f"parsers built by importing pwrkit.cli: {built}"
commands = [
    ["pwr", "--input", "jasist_plus.csv", "--self-citations", "exclude", "--tol", "0.01",
     "--plot", "chart.svg"],
    ["subset", "--input", "jasist_plus.csv", "--target", "JASIST", "--min", "300"],
    ["decompose", "--input", "jasist_plus.csv", "--cosine-threshold", "0.01"],
    ["compare", "--input", "jasist_plus.csv", "--self-citations", "exclude",
     "--external", "sjr=sjr2013.csv"],
    ["convert", "--input", "jasist_plus.csv", "--output", "matrix.net"],
    ["pwr", "--input", "matrix.net", "--self-citations", "exclude", "--plot", "net.svg"],
    ["subset", "--input", "matrix.net", "--target", "JASIST", "--min", "300"],
    ["decompose", "--input", "matrix.net", "--cosine-threshold", "0.01"],
    ["compare", "--input", "matrix.net", "--self-citations", "exclude"],
    ["convert", "--input", "matrix.net", "--output", "back.csv"],
]
for argv in commands:
    code = pwrkit.cli.main(argv)
    assert code == 0, f"{argv[0]} exited {code}"
    assert not scipy_modules(), f"imported by {argv[0]}: {scipy_modules()}"
assert built.count("pwrkit") == 1, f"the CLI parser was built {built.count('pwrkit')} times"
"""

SPARSE_RUN = HELPERS + """
import pwrkit.cli
from pwrkit import DENSE_LIMIT, read_pajek
n = DENSE_LIMIT + 1
vertices = "".join(f'{v} "J{v}"\\n' for v in range(1, n + 1))
read_pajek(f"*Vertices {n}\\n{vertices}*Arcs\\n1 2 3\\n")
assert "scipy.sparse" in sys.modules
assert "scipy.sparse.csgraph" not in sys.modules
assert "scipy.stats" not in sys.modules
code = pwrkit.cli.main(["scc", "--input", "jasist_plus.csv"])
assert code == 0, f"scc exited {code}"
assert "scipy.sparse.csgraph" in sys.modules
assert "scipy.stats" not in sys.modules, "scipy.stats is never needed"
"""


def run_fresh(script: str, cwd) -> None:
    for name in ("jasist_plus.csv", "sjr2013.csv"):
        shutil.copy(data_path(name), cwd / name)
    path = os.pathsep.join(filter(None, [SOURCE_ROOT, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr


def test_import_and_dense_commands_load_no_scipy(tmp_path):
    run_fresh(DENSE_RUN, tmp_path)


def test_cli_import_leaves_stats_and_csgraph_unloaded_until_scc(tmp_path):
    # a network above DENSE_LIMIT loads scipy.sparse, but neither stats nor csgraph
    run_fresh(SPARSE_RUN, tmp_path)
