"""Parser and writer tests for the text formats."""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from pwrkit import (
    CitationMatrix,
    MetricVector,
    ParseError,
    PwrOptions,
    TraceTable,
    formats,
    pwr_trace,
    read_csv_matrix,
    read_metric_csv,
    read_pajek,
    read_trace_csv,
    write_csv_matrix,
    write_metric_csv,
    write_pajek,
    write_trace_csv,
)
from pwrkit.cli import main
from pwrkit.formats import _format_number, csv_cell
from pwrkit.matrix import DENSE_LIMIT, nonzero_entries

from .conftest import build


class TestPajekReader:
    def test_basic_network(self):
        text = '*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n1 2 3\n'
        z = read_pajek(text)
        assert z.labels == ("A", "B")
        # arc "1 2 3": cited journal 1 receives 3 citations from journal 2
        assert z.entry(0, 1) == 3.0
        assert z.entry(1, 0) == 0.0

    def test_comments_blank_lines_and_case(self):
        text = '% header comment\n\n*vertices 2\n\n1 "A"\n% mid comment\n2 "B"\n*ARCS\n2 1 5\n'
        z = read_pajek(text)
        assert z.entry(1, 0) == 5.0

    def test_bare_labels(self):
        z = read_pajek("*Vertices 2\n1 Alpha\n2 Beta\n*Arcs\n1 1 2\n")
        assert z.labels == ("Alpha", "Beta")
        assert z.entry(0, 0) == 2.0

    def test_duplicate_arcs_accumulate(self):
        z = read_pajek('*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n1 2 3\n1 2 4\n')
        assert z.entry(0, 1) == 7.0

    def test_missing_arcs_section_is_zero_matrix(self, caplog):
        with caplog.at_level(logging.WARNING, logger="pwrkit.formats"):
            z = read_pajek('*Vertices 2\n1 "A"\n2 "B"\n')
        assert z.to_dense().tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert "no *Arcs" in caplog.text

    @pytest.mark.parametrize("n", [3, DENSE_LIMIT + 1], ids=["dense", "csr"])
    def test_reading_the_same_text_twice_gives_the_same_matrix(self, n):
        # the reader makes its ids 0-based in place, on arrays only it holds
        vertices = "".join(f'{v} "J{v}"\n' for v in range(1, n + 1))
        text = f"*Vertices {n}\n{vertices}*Arcs\n1 2 3\n{n} 1 2.5\n1 2 1\n"
        first, second = read_pajek(text), read_pajek(text)
        assert first == second
        assert (first.entry(0, 1), first.entry(n - 1, 0), first.entry(1, 0)) == (4.0, 2.5, 0.0)

    def test_a_file_without_arcs_leaves_the_empty_arcs_empty(self):
        for text in ('*Vertices 2\n1 "A"\n2 "B"\n', '*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n'):
            assert read_pajek(text) == build("A B", [[0, 0], [0, 0]])
        assert [(a.dtype.str, a.size) for a in formats._NO_ARCS] == [("<i8", 0), ("<i8", 0), ("<f8", 0)]

    def test_byte_order_mark_is_stripped(self):
        z = read_pajek('﻿*Vertices 1\n1 "A"\n*Arcs\n1 1 1\n')
        assert z.labels == ("A",)

    def test_quoted_label_with_spaces(self):
        z = read_pajek('*Vertices 1\n1 "J INF SCI"\n')
        assert z.labels == ("J INF SCI",)


class TestPajekErrors:
    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty input"):
            read_pajek("")

    def test_missing_header(self):
        with pytest.raises(ParseError, match=r"\*Vertices"):
            read_pajek('1 "A"\n')

    def test_duplicate_vertex_id(self):
        with pytest.raises(ParseError, match="duplicate vertex id 1"):
            read_pajek('*Vertices 2\n1 "A"\n1 "B"\n')

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError, match="outside 1..1"):
            read_pajek('*Vertices 1\n2 "B"\n')

    def test_undefined_vertex(self):
        with pytest.raises(ParseError, match=r"without a definition: \[2\]"):
            read_pajek('*Vertices 2\n1 "A"\n')

    def test_arc_wrong_arity(self):
        with pytest.raises(ParseError, match="src dst weight"):
            read_pajek('*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n1 2\n')

    def test_arc_endpoint_out_of_range(self):
        with pytest.raises(ParseError, match="outside 1..2"):
            read_pajek('*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n1 3 1\n')

    def test_negative_weight(self):
        with pytest.raises(ParseError, match=">= 0"):
            read_pajek('*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n1 2 -1\n')

    def test_unsupported_section(self):
        with pytest.raises(ParseError, match=r"\*Edges"):
            read_pajek('*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 2 1\n')

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            read_pajek('*Vertices 2\n1 "A"\nbroken line here extra\n')


class TestPajekWriter:
    def test_round_trip(self):
        z = build("A B C", [[0, 2, 0], [1, 0, 0.5], [0, 0, 3]])
        assert read_pajek(write_pajek(z)) == z

    def test_integer_weights_stay_integral(self):
        text = write_pajek(build("A B", [[0, 2], [0, 0]]))
        assert "1 2 2\n" in text
        assert "2.0" not in text

    def test_fractional_weights_survive(self):
        z = build("A B", [[0, 0.125], [0, 0]])
        assert read_pajek(write_pajek(z)).entry(0, 1) == 0.125

    @pytest.mark.parametrize("label", ['A"B', '"', "A\nB", "A\r", "A\x85B", "A\u2028B"])
    def test_label_that_cannot_read_back_is_refused(self, label):
        with pytest.raises(ValueError, match="vertex 2: label"):
            write_pajek(CitationMatrix(("ok", label), np.zeros((2, 2))))


class TestCsvMatrix:
    def test_round_trip(self):
        z = build("A B", [[1, 2], [3, 4]])
        assert read_csv_matrix(write_csv_matrix(z)) == z

    def test_labels_with_commas_survive(self):
        z = CitationMatrix(("J, A", "B"), np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert read_csv_matrix(write_csv_matrix(z)) == z

    def test_label_with_bare_carriage_return_round_trips(self):
        z = CitationMatrix(("\r", "B"), np.zeros((2, 2)))
        text = write_csv_matrix(z)
        assert text == ',"\r",B\n"\r",0,0\nB,0,0\n'
        assert read_csv_matrix(text) == z

    @pytest.mark.parametrize("label", ["A\r\nB", "A\rB,", 'A\r"'])
    def test_quoted_carriage_return_survives(self, label):
        z = CitationMatrix((label, "B"), np.zeros((2, 2)))
        assert read_csv_matrix(write_csv_matrix(z)) == z

    def test_header_must_start_empty(self):
        with pytest.raises(ParseError, match="empty cell"):
            read_csv_matrix("x,A\nA,1\n")

    def test_row_count_must_match(self):
        with pytest.raises(ParseError, match="expected 2 data rows"):
            read_csv_matrix(",A,B\nA,1,2\n")

    def test_ragged_row(self):
        with pytest.raises(ParseError, match="line 2: expected 3 cells"):
            read_csv_matrix(",A,B\nA,1\nB,1,2\n")

    def test_row_label_order_enforced(self):
        with pytest.raises(ParseError, match="position 0"):
            read_csv_matrix(",A,B\nB,1,2\nA,3,4\n")

    def test_non_numeric_cell(self):
        with pytest.raises(ParseError, match="line 2: column 2"):
            read_csv_matrix(",A,B\nA,x,2\nB,1,2\n")

    def test_negative_cell(self):
        with pytest.raises(ParseError, match=">= 0"):
            read_csv_matrix(",A,B\nA,-1,2\nB,1,2\n")

    def test_empty_text(self):
        with pytest.raises(ParseError, match="empty input"):
            read_csv_matrix("")

    def test_negative_zero_cell_reads_as_the_network_file_weight_does(self):
        # both readers build through from_arcs, so neither stores -0.0
        from_csv = read_csv_matrix(",A,B\nA,-0,1\nB,2,0\n")
        from_net = read_pajek('*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n1 1 -0\n1 2 1\n2 1 2\n')
        assert from_csv.to_dense().tobytes() == from_net.to_dense().tobytes()


TRACE_TEXT_HEADER = "label,k,power,weakness,ratio\n"


class TestTraceTable:
    def test_from_trace_and_series(self):
        # an engine trace is itself a trace table; no conversion step
        z = build("A B", [[1, 3], [2, 2]])
        trace = pwr_trace(z, PwrOptions(k_max=3))
        assert isinstance(trace, TraceTable)
        assert trace.k_max == 3
        assert trace.series("A") == [float(trace.ratio_at(k)[0]) for k in (1, 2, 3)]
        assert trace.series("B", column="power") == [
            float(trace.power_at(k)[1]) for k in (1, 2, 3)
        ]

    def test_series_unknown_label(self):
        table = read_trace_csv(TRACE_TEXT_HEADER + "A,1,1.0,1.0,1.0\n")
        with pytest.raises(KeyError):
            table.series("B")

    def test_rows_must_cover_same_iterations(self):
        text = TRACE_TEXT_HEADER + "A,1,1.0,1.0,1.0\nA,2,1.0,1.0,1.0\nB,1,1.0,1.0,1.0\n"
        with pytest.raises(ValueError, match="same iterations"):
            read_trace_csv(text)

    def test_iterations_must_start_at_one(self):
        with pytest.raises(ValueError, match="contiguous from k=1"):
            read_trace_csv(TRACE_TEXT_HEADER + "A,2,1.0,1.0,1.0\n")

    def test_duplicate_rows_rejected(self):
        # the first repeated (label, k) row is named, ahead of the coverage
        # and contiguity checks that a repeat would otherwise trip
        repeated = r"^line 3: repeated row for label 'A' at k=1$"
        for tail in ("", "B,1,1.0,1.0,1.0\n", "A,2,1.0,1.0,1.0\nB,1,1.0,1.0,1.0\n"):
            text = TRACE_TEXT_HEADER + "A,1,1.0,1.0,1.0\nA,1,2.0,2.0,2.0\n" + tail
            with pytest.raises(ParseError, match=repeated):
                read_trace_csv(text)
        text = TRACE_TEXT_HEADER + "a,1,0,0,0\na,2,0,0,0\nb,1,0,0,0\nb,1,0,0,0\n"
        with pytest.raises(ParseError, match=r"^line 5: repeated row for label 'b' at k=1$"):
            read_trace_csv(text)
        # the writer writes a trace whose labels repeat; it reads back as such
        trace = TraceTable(("a", "a"), *(np.ones((2, 2)) for _ in range(3)))
        with pytest.raises(ParseError, match=r"^line 4: repeated row for label 'a' at k=1$"):
            read_trace_csv(write_trace_csv(trace))

    def test_header_only_rejected(self):
        with pytest.raises(ParseError, match="same iterations"):
            read_trace_csv(TRACE_TEXT_HEADER)

    def test_rows_in_any_order(self):
        rows = ["B,2,6.0,7.0,8.0", "A,2,1.5,2.5,3.5", "B,1,5.0,6.0,7.0", "A,1,1.0,2.0,3.0"]
        text = TRACE_TEXT_HEADER + "\n".join(rows) + "\n"
        table = read_trace_csv(text)
        assert table.labels == ("B", "A")
        assert table.powers.tolist() == [[5.0, 1.0], [6.0, 1.5]]
        assert table.series("A", column="weakness") == [2.0, 2.5]
        assert table.series("B") == [7.0, 8.0]
        lines = write_trace_csv(table).splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["B", "1"], ["B", "2"], ["A", "1"], ["A", "2"]
        ]


class TestTraceCsv:
    def test_round_trip_is_exact(self):
        z = build("A B C", [[0, 2, 1], [1, 0, 3], [2, 1, 0]])
        trace = pwr_trace(z, PwrOptions(k_max=5))
        table = read_trace_csv(write_trace_csv(trace))
        assert table.labels == trace.labels
        for idx, name in enumerate(trace.labels):
            # repr round-trips doubles exactly
            assert table.series(name) == [float(trace.ratio_at(k)[idx]) for k in range(1, 6)]

    def test_header_enforced(self):
        with pytest.raises(ParseError, match="expected header"):
            read_trace_csv("a,b\n")

    def test_malformed_row(self):
        text = "label,k,power,weakness,ratio\nA,one,1.0,1.0,1.0\n"
        with pytest.raises(ParseError, match="line 2"):
            read_trace_csv(text)

    def test_short_row(self):
        text = "label,k,power,weakness,ratio\nA,1,1.0,1.0,1.0\nB,1,1.0\n"
        with pytest.raises(ParseError, match="^line 3: expected 5 cells, got 3$"):
            read_trace_csv(text)

    def test_label_major_ordering(self):
        z = build("A B", [[1, 3], [2, 2]])
        lines = write_trace_csv(pwr_trace(z, PwrOptions(k_max=2))).splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["A", "A", "B", "B"]


class TestMetricCsv:
    def test_round_trip(self):
        m = MetricVector("sjr", ("A", "B"), np.array([1.745, 0.475]))
        back = read_metric_csv(write_metric_csv(m), name="sjr")
        assert back.labels == m.labels
        assert back.values.tolist() == m.values.tolist()

    def test_duplicate_label(self):
        with pytest.raises(ParseError, match="duplicate"):
            read_metric_csv("label,value\nA,1\nA,2\n")

    def test_empty_label(self):
        with pytest.raises(ParseError, match="empty label"):
            read_metric_csv("label,value\n,1\n")

    def test_bad_number(self):
        with pytest.raises(ParseError, match="not a number"):
            read_metric_csv("label,value\nA,x\n")

    def test_header_required(self):
        with pytest.raises(ParseError, match="header"):
            read_metric_csv("")

    @pytest.mark.parametrize(
        ("labels", "refused", "message"),
        [
            (("a", "a"), "line 3: duplicate label 'a'", "duplicate label: 'a'"),
            (("a", ""), "line 3: empty label", "labels must be non-empty strings"),
        ],
    )
    def test_writer_refuses_a_label_the_reader_refuses(self, labels, refused, message):
        with pytest.raises(ParseError, match=refused):
            read_metric_csv("label,value\n" + "".join(f"{name},1.0\n" for name in labels))
        with pytest.raises(ValueError, match=message):
            write_metric_csv(MetricVector("m", labels, [1.0, 2.0]))


@pytest.mark.parametrize(
    ("reader", "text", "message"),
    [
        (read_csv_matrix, ',"A\nB",C\n"A\nB",1,2\nC,3,x\n', "line 5: column 3: not a number"),
        (read_metric_csv, 'label,value\n"A\nB",1\nC,x\n', "line 4: not a number"),
        (
            read_trace_csv,
            'label,k,power,weakness,ratio\n"A\nB",1,1,1,1\nC,1,1,1,x\n',
            "line 4: malformed trace row",
        ),
    ],
    ids=["matrix", "metric", "trace"],
)
def test_csv_error_names_the_line_its_record_starts_on(reader, text, message):
    # a quoted label holding a line break makes its record two lines long
    with pytest.raises(ParseError, match=f"^{message}"):
        reader(text)


def test_format_number_keeps_integers_compact():
    assert _format_number(3.0) == "3"
    assert _format_number(6979.0) == "6979"
    assert _format_number(0.5) == "0.5"
    assert _format_number(2.0**53) == repr(2.0**53)


# Integers, halves, values around 2**53 and a sum that is not a short decimal.
MIXED_WEIGHTS = [1.0, 3.0, 6979.0, 0.5, 1e-300, 0.1 + 0.2, 2.0**53 - 1, 2.0**53, 1e17]


def sparse_matrix(n: int, rows, cols, weights) -> CitationMatrix:
    entries = sparse.coo_array((weights, (rows, cols)), shape=(n, n)).tocsr()
    return CitationMatrix(tuple(f"J{i}" for i in range(n)), entries)


@st.composite
def mixed_weight_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    count = draw(st.integers(min_value=0, max_value=12))
    index = st.lists(st.integers(0, n - 1), min_size=count, max_size=count)
    weights = draw(
        st.one_of(
            st.lists(st.sampled_from(MIXED_WEIGHTS), min_size=count, max_size=count),
            st.lists(st.integers(1, 9).map(float), min_size=count, max_size=count),
        )
    )
    return sparse_matrix(n, draw(index), draw(index), weights)


def assert_bulk_writers_follow_format_number(z: CitationMatrix) -> None:
    arcs = write_pajek(z).splitlines()[z.n + 2 :]
    assert arcs == [f"{i + 1} {j + 1} {_format_number(w)}" for i, j, w in nonzero_entries(z)]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([""] + list(z.labels))
    for name, row in zip(z.labels, z.to_dense().tolist()):
        writer.writerow([name] + [_format_number(v) for v in row])
    assert write_csv_matrix(z) == buffer.getvalue()


@settings(max_examples=80, deadline=None)
@given(mixed_weight_matrices())
def test_bulk_writers_print_each_weight_as_format_number(z):
    assert_bulk_writers_follow_format_number(z)
    assert read_csv_matrix(write_csv_matrix(z)) == z
    assert read_pajek(write_pajek(z)) == z


@pytest.mark.parametrize("weights", [MIXED_WEIGHTS, [1.0, 3.0, 19.0]], ids=["mixed", "integers"])
def test_bulk_writers_on_csr_storage(weights):
    n = DENSE_LIMIT + 1
    k = len(weights)
    z = sparse_matrix(n, [0, n - 1, 5] * k, list(range(3 * k)), weights * 3)
    assert z.is_sparse
    assert_bulk_writers_follow_format_number(z)


@st.composite
def integer_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    cells = draw(
        st.lists(st.integers(min_value=0, max_value=50), min_size=n * n, max_size=n * n)
    )
    labels = tuple(f"J{i}" for i in range(n))
    return CitationMatrix(labels, np.asarray(cells, dtype=np.float64).reshape(n, n))


@st.composite
def trace_tables(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    k_max = draw(st.integers(min_value=1, max_value=6))
    # commas and quotes in labels exercise the CSV quoting
    names = st.text(alphabet='AB ,"x', min_size=1, max_size=4)
    labels = draw(st.lists(names, min_size=n, max_size=n, unique=True))
    cells = st.floats(allow_nan=False, allow_infinity=True, width=64)
    arrays = [
        np.asarray(draw(st.lists(cells, min_size=k_max * n, max_size=k_max * n))).reshape(k_max, n)
        for _ in range(3)
    ]
    return TraceTable(tuple(labels), *arrays)


@settings(max_examples=80, deadline=None)
@given(trace_tables())
def test_trace_csv_round_trip_is_bit_exact(table):
    back = read_trace_csv(write_trace_csv(table))
    assert back.labels == table.labels
    for column in ("powers", "weaknesses", "ratios"):
        # compare bit patterns so -0.0 and the inf sentinels must survive too
        got, want = getattr(back, column), getattr(table, column)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(integer_matrices())
def test_pajek_round_trip_identity(z):
    assert read_pajek(write_pajek(z)) == z


@settings(max_examples=60, deadline=None)
@given(integer_matrices())
def test_csv_round_trip_identity(z):
    assert read_csv_matrix(write_csv_matrix(z)) == z


@settings(max_examples=40, deadline=None)
@given(integer_matrices())
def test_cross_format_conversion_is_lossless(z):
    assert read_csv_matrix(write_csv_matrix(read_pajek(write_pajek(z)))) == z


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True))
def test_pajek_writer_round_trips_or_refuses_csv_labels(labels):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([""] + labels)
    writer.writerows([name] + ["1"] * len(labels) for name in labels)
    try:
        z = read_csv_matrix(buffer.getvalue())
    except ParseError:
        return
    try:
        text = write_pajek(z)
    except ValueError:
        return
    assert read_pajek(text) == z


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True))
def test_csv_writer_round_trips_or_refuses_labels(labels):
    try:
        z = CitationMatrix(tuple(labels), np.ones((len(labels), len(labels))))
    except ValueError:
        return
    assert read_csv_matrix(write_csv_matrix(z)) == z


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(',"\r\n \t\x85\u2028ab'), max_size=6) | st.text(max_size=6))
def test_csv_cell_matches_csv_module(text):
    # with a CR LF terminator the csv module quotes a bare carriage return too
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow([text, "x"])
    assert f"{csv_cell(text)},x\r\n" == buffer.getvalue()


@pytest.mark.parametrize(
    ("text", "cell"),
    [
        ("", ""),
        ("a b", "a b"),
        ("\x00\x85\x0b\t\u2028", "\x00\x85\x0b\t\u2028"),
        ("a,b", '"a,b"'),
        ('"', '""""'),
        ('a"b', '"a""b"'),
        ("\r", '"\r"'),
        ("a\rb", '"a\rb"'),
        ("\n", '"\n"'),
        ("\r\n", '"\r\n"'),
        (' ,"\r\n\x00', '" ,""\r\n\x00"'),
    ],
)
def test_csv_cell_writes_fixed_bytes(text, cell):
    assert csv_cell(text) == cell


# The characters a CSV writer must quote, and some it must leave bare.
LABEL_CHARS = list(',"\r\n\x00\x85 \xa0\u2028a')


def quote_all(cells: list[str]) -> str:
    """One matrix CSV row with every cell quoted, independent of ``csv_cell``."""
    return ",".join('"' + cell.replace('"', '""') + '"' for cell in cells) + "\n"


def cli_csv_labels(argv: list[str], workdir: Path, rows: slice) -> list[str]:
    """The first cells of the given rows of the CSV a CLI run writes to ``out.csv``."""
    files = ["--input", str(workdir / "m.csv"), "--output", str(workdir / "out.csv")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, *files]) == 0
    text = (workdir / "out.csv").read_bytes().decode("utf-8")
    return [row[0] for row in list(csv.reader(io.StringIO(text)))[rows]]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.text(st.sampled_from(LABEL_CHARS), min_size=1, max_size=4),
        min_size=2, max_size=4, unique=True,
    )
)
def test_every_label_the_matrix_reader_accepts_reads_back_from_every_csv_writer(labels):
    n = len(labels)
    cells = [[str(i * n + j + 1) for j in range(n)] for i in range(n)]
    source = quote_all(["", *labels])
    source += "".join(quote_all([name, *row]) for name, row in zip(labels, cells))
    z = read_csv_matrix(source)
    assert z.labels == tuple(labels)
    assert read_csv_matrix(write_csv_matrix(z)) == z
    assert read_trace_csv(write_trace_csv(pwr_trace(z, PwrOptions(k_max=2)))).labels == z.labels
    metric = MetricVector("m", z.labels, np.arange(n, dtype=np.float64))
    assert read_metric_csv(write_metric_csv(metric)).labels == z.labels
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "m.csv").write_bytes(source.encode("utf-8"))
        # every weight is positive, so the similarity graph has edges, and
        # they differ, so the metric has the variance its correlation needs
        assert cli_csv_labels(["decompose"], workdir, slice(1, None)) == labels
        assert cli_csv_labels(["compare", "--metrics", "cf"], workdir, slice(1, n + 1)) == labels
