"""Bundled dataset integrity tests."""

from __future__ import annotations

import pytest

import pwrkit.datasets
from pwrkit import column_sums, data_path, grand_total, jasist_plus_matrix, row_sums, sjr_2013

from .conftest import GRAND_TOTAL_REFERENCE

EXPECTED_LABELS = (
    "INFORM PROCESS MANAG",
    "JASIST",
    "J INF SCI",
    "SCIENTOMETRICS",
    "INFORM RES",
    "J DOC",
    "J INFORMETR",
)


def test_matrix_shape_and_labels():
    z = jasist_plus_matrix()
    assert z.labels == EXPECTED_LABELS
    assert z.n == 7
    assert not z.is_sparse


def test_matrix_totals():
    z = jasist_plus_matrix()
    assert grand_total(z) == GRAND_TOTAL_REFERENCE
    assert row_sums(z).tolist() == [569.0, 2125.0, 321.0, 2534.0, 230.0, 500.0, 700.0]
    assert column_sums(z).tolist() == [381.0, 1537.0, 354.0, 2541.0, 521.0, 386.0, 1259.0]


def test_spot_entries():
    z = jasist_plus_matrix()
    assert z.entry(z.index_of("SCIENTOMETRICS"), z.index_of("SCIENTOMETRICS")) == 1542.0
    # row JASIST, column J INFORMETR: citations J INFORMETR gave to JASIST
    assert z.entry(z.index_of("JASIST"), z.index_of("J INFORMETR")) == 319.0
    assert z.entry(z.index_of("J INFORMETR"), z.index_of("J INF SCI")) == 2.0


def test_sjr_values():
    sjr = sjr_2013()
    assert sjr.name == "sjr"
    assert sjr.labels == EXPECTED_LABELS
    assert sjr.value_of("JASIST") == 1.745
    assert sjr.value_of("J INFORMETR") == 2.541
    assert sjr.value_of("INFORM RES") == 0.475


def test_data_path_resolves():
    path = data_path("jasist_plus.csv")
    assert path.is_file()


def test_data_path_unknown_name():
    with pytest.raises(FileNotFoundError):
        data_path("missing.csv")


def test_bundled_loader_decodes_as_the_cli_does(monkeypatch, tmp_path):
    # a byte order mark, and a quoted label whose CR LF universal newlines would rewrite
    data = tmp_path / "matrix.csv"
    data.write_bytes('\ufeff,"A\r\nB",C\r\n"A\r\nB",0,1\r\nC,1,0\r\n'.encode("utf-8"))
    monkeypatch.setattr(pwrkit.datasets, "data_path", lambda name: data)
    assert jasist_plus_matrix().labels == ("A\r\nB", "C")
