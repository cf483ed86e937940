"""Start-up cost guard.

Most runs are one short subcommand on a small matrix, so the import of
``pwrkit.cli`` is a large share of each.  ``scipy.stats`` alone costs more
than the rest of that import, and ``scipy.sparse.csgraph`` is needed by
``scc`` only; neither may load before a command asks for it.
"""

from __future__ import annotations

import subprocess
import sys

from pwrkit import data_path

CHECK = """
import sys
import pwrkit.cli
loaded = [name for name in ("scipy.stats", "scipy.sparse.csgraph") if name in sys.modules]
assert not loaded, f"imported at start-up: {loaded}"
code = pwrkit.cli.main(["scc", "--input", sys.argv[1]])
assert "scipy.sparse.csgraph" in sys.modules
sys.exit(code)
"""


def test_cli_import_leaves_stats_and_csgraph_unloaded_until_scc():
    result = subprocess.run(
        [sys.executable, "-c", CHECK, str(data_path("jasist_plus.csv"))],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
