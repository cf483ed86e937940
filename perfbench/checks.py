"""Output checks, run after each timed call and never inside it.

Each check returns ``None`` when the call's outputs are right, otherwise a
one-line reason.  The generated workloads are checked against facts the
benchmark computes itself from the generated arcs (row and column sums, the
largest strong component from scipy); the bundled workload is checked against
sha256 digests frozen from the seed code.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

K_MAX = 20  # the CLI default every generated workload runs with


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def output_files(argv: list[str]) -> list[str]:
    """Paths a command writes: the values of ``--output`` and ``--plot``."""
    return [argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in ("--output", "--plot")]


@dataclass
class Facts:
    """What the benchmark knows about a generated input, independent of pwrkit."""

    labels: list[str]
    cited: np.ndarray
    citing: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.labels)
        self.row_sums = np.bincount(self.cited, weights=self.weight, minlength=n)
        self.col_sums = np.bincount(self.citing, weights=self.weight, minlength=n)
        self._largest_scc: int | None = None

    @property
    def largest_scc(self) -> int:
        if self._largest_scc is None:
            n = len(self.labels)
            graph = sparse.csr_array((self.weight, (self.cited, self.citing)), shape=(n, n))
            _, comp = connected_components(graph, directed=True, connection="strong")
            self._largest_scc = int(np.bincount(comp).max())
        return self._largest_scc


def check_digests(argv: list[str], stdout: str, expected: dict[str, str]) -> str | None:
    got = {"stdout": sha256(stdout)}
    for name in output_files(argv):
        path = Path(name)
        got[name] = sha256(path.read_bytes()) if path.is_file() else "missing"
    bad = sorted(key for key in expected if got.get(key) != expected[key])
    return f"digest mismatch: {', '.join(bad)}" if bad else None


def _check_pwr(argv: list[str], stdout: str, facts: Facts) -> str | None:
    n = len(facts.labels)
    trace_path, plot_path = Path(argv[argv.index("--output") + 1]), Path(argv[argv.index("--plot") + 1])
    if not plot_path.is_file() or "<svg" not in plot_path.read_text(encoding="utf-8")[:200]:
        return "no SVG chart written"
    rows = list(csv.reader(io.StringIO(trace_path.read_text(encoding="utf-8"))))
    if rows[0] != ["label", "k", "power", "weakness", "ratio"] or len(rows) - 1 != n * K_MAX:
        return f"trace has {len(rows) - 1} rows, expected n*{K_MAX} = {n * K_MAX}"
    first = {row[0]: float(row[4]) for row in rows[1:] if row[1] == "1"}
    if sorted(first) != facts.labels:
        return "k=1 rows do not cover every label exactly once"
    got = np.array([first[name] for name in facts.labels])
    cols = facts.col_sums
    want = np.divide(facts.row_sums, cols, out=np.zeros(n), where=cols > 0)
    if not np.array_equal(got[cols == 0], want[cols == 0]):
        return "k=1 ratio is not 0 where the weakness is 0"
    if not np.allclose(got, want, rtol=1e-12, atol=0.0):
        return "k=1 ratio differs from row sums / column sums"
    return None


def _check_decompose(argv: list[str], stdout: str, facts: Facts) -> str | None:
    rows = list(csv.reader(io.StringIO(Path(argv[argv.index("--output") + 1]).read_text("utf-8"))))
    if rows[0] != ["label", "community"]:
        return "partition header is not label,community"
    labels = [row[0] for row in rows[1:]]
    if sorted(labels) != facts.labels:
        return "partition does not cover every label exactly once"
    ids = {int(row[1]) for row in rows[1:]}
    if ids != set(range(len(ids))):
        return "community ids are not contiguous from 0"
    if f"communities={len(ids)}" not in stdout:
        return "summary community count disagrees with the partition"
    return None


def _check_scc(argv: list[str], stdout: str, facts: Facts) -> str | None:
    with open(argv[argv.index("--output") + 1], encoding="utf-8") as handle:
        header = handle.readline().split()
    size = int(header[1]) if len(header) == 2 and header[0] == "*Vertices" else -1
    if size != facts.largest_scc:
        return f"core has {size} nodes, scipy's largest strong component has {facts.largest_scc}"
    return None


def _check_compare(argv: list[str], stdout: str, facts: Facts) -> str | None:
    text = Path(argv[argv.index("--output") + 1]).read_text(encoding="utf-8")
    if text != stdout:
        return "table file differs from standard output"
    table, _, pairs = text.partition("\n\n")
    rows = list(csv.reader(io.StringIO(table)))
    m = len(rows[0]) - 1
    if rows[0][0] != "label" or [row[0] for row in rows[1:]] != facts.labels:
        return f"metric table has {len(rows) - 1} rows, expected one per label ({len(facts.labels)})"
    pair_rows = list(csv.reader(io.StringIO(pairs)))
    if pair_rows[0] != ["metric_x", "metric_y", "pearson", "spearman"]:
        return "pair table header is not metric_x,metric_y,pearson,spearman"
    if len(pair_rows) - 1 != math.comb(m, 2):
        return f"{len(pair_rows) - 1} pair rows, expected C({m},2) = {math.comb(m, 2)}"
    if any(not abs(float(value)) <= 1.0 for row in pair_rows[1:] for value in row[2:]):
        return "a correlation lies outside [-1, 1]"
    return None


GENERATED_CHECKS = {
    "pwr": _check_pwr,
    "decompose": _check_decompose,
    "scc": _check_scc,
    "compare": _check_compare,
}


def check_generated(argv: list[str], stdout: str, facts: Facts) -> str | None:
    return GENERATED_CHECKS[argv[0]](argv, stdout, facts)
