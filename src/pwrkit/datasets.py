"""Bundled example data: a seven-journal citation matrix and SJR values.

The matrix covers the journals that cited JASIST at least one hundred times
in 2013 (the JASIST+ set); the companion file carries the published SJR 2013
value for each of those journals.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .comparators import MetricVector
from .formats import read_csv_matrix, read_metric_csv, read_text
from .matrix import CitationMatrix


def data_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    candidate = resources.files(__package__) / "data" / name
    path = Path(str(candidate))
    if not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path


def jasist_plus_matrix() -> CitationMatrix:
    """The seven-journal cross-citation matrix."""
    return read_csv_matrix(read_text(data_path("jasist_plus.csv")))


def sjr_2013() -> MetricVector:
    """Published SJR 2013 values for the bundled journals."""
    return read_metric_csv(read_text(data_path("sjr2013.csv")), name="sjr")
