"""Readers and writers for the supported text formats.

Three formats are exchanged: network files with explicit vertex and arc
sections, citation-matrix CSV mirroring the usual table layout (rows cited,
columns citing), and flat CSVs for iteration traces, per-journal metrics,
partitions and the ``compare`` table.  This module owns every layout and the
one decode rule for files, :func:`read_text`; the CLI only routes text.
Parsers reject malformed input with a positioned error instead of guessing;
writers emit deterministic LF-terminated UTF-8 so identical data produces
identical bytes.  Every CSV writer quotes by one rule, :func:`csv_cell`, so
every label reads back and the bytes are the same on every supported Python.

Arc orientation in network files follows the cited-to-citing convention:
an arc line ``src dst w`` adds w citations to ``Z[src-1][dst-1]``, i.e. src
is the cited journal and dst the citing one.  This is the transpose of the
common social-network reading and is applied symmetrically by the writer, so
round-trips are lossless.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

from .comparators import MetricVector, RankingComparison
from .decomposition import Partition
from .engine import TraceTable
from .matrix import _CHUNK, CitationMatrix, _check_labels, bounded_list, from_arcs, nonzero_arrays

log = logging.getLogger(__name__)

_QUOTED_VERTEX = re.compile(r'^(\d+)\s+"([^"]*)"$')
_BARE_VERTEX = re.compile(r"^(\d+)\s+(\S+)$")
# The line breaks of str.splitlines, CR LF first: each counts as one break, so
# making each a LF moves no line.
_BREAKS = ("\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# A line that opens a section: "*" behind what str.strip strips (\s), at the
# start or after a LF; after the first, one is found faster by the LF before it.
_SECTION = re.compile(r"^\s*\*", re.M)
_NEXT_SECTION = re.compile(r"\n\s*\*")
# The characters that make csv_cell quote a cell.
_CSV_SPECIAL = re.compile(r'[,"\r\n]')

TRACE_HEADER = ("label", "k", "power", "weakness", "ratio")
METRIC_HEADER = ("label", "value")

_NO_ARCS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
# The bytes of a plain arc slice: digits, space, tab and LF.
_PLAIN_ARC_BYTES = b"0123456789 \t\n"


class ParseError(ValueError):
    """Malformed input; the message carries the offending position."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def read_text(path: Path) -> str:
    """The file as UTF-8 without a leading byte order mark, its line breaks as
    stored: ``Path.read_text`` would rewrite a CR LF inside a quoted label."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


def _number_cells(values: np.ndarray) -> list[str]:
    """Finite values as :func:`_format_number` prints them, in bulk when all are integers."""
    whole = np.trunc(values)
    if (whole == values).all() and (np.abs(values) < 2**53).all():
        return list(map(str, whole.astype(np.int64).tolist()))
    return list(map(_format_number, values.tolist()))


def read_pajek(text: str) -> CitationMatrix:
    """Parse a network file with ``*Vertices`` and ``*Arcs`` sections.

    Lines may end in any break that ``str.splitlines`` knows.  The head, up
    to the line that opens the section after the vertex lines, is read one
    line at a time, whatever it holds.  The arc lines after its ``*Arcs``
    line are read a slice at a time, each slice by its own route: in bulk
    when each of its lines holds three ASCII digit runs of at most 15 digits,
    separated by spaces or tabs, with both endpoints in 1..n, else one line
    at a time.  Only the line-by-line reads raise errors, so each names the
    line it is on; on input both arc routes take, they return the same arrays.
    """
    text = text.lstrip("\ufeff")
    for brk in _BREAKS:
        if brk[0] in text:  # one scan; the CR LF search runs only past a CR
            text = text.replace(brk, "\n")
    # the head ends at the LF before the line that opens the second section
    first = _SECTION.search(text)
    second = first and _NEXT_SECTION.search(text, first.end())
    labels = _read_head((text[: second.start()] if second else text).splitlines())
    if not second:
        log.warning("network file has no *Arcs section; matrix is all zeros")
        return _stored(labels, *_NO_ARCS)
    # the section line runs from the matched "*" to its LF; the arcs start after it
    start = text.find("\n", second.end()) + 1 or len(text)
    keyword = text[second.end() - 1 : start].split()[0]
    if keyword.lower() != "*arcs":
        raise ParseError(f"unsupported section {keyword!r}", text.count("\n", 0, second.end()) + 1)
    src, dst, weight = _read_arcs(text, start, len(labels))
    # the arrays are the reader's own: 0-based ids without two more copies
    src -= 1
    dst -= 1
    return _stored(labels, src, dst, weight)


def _stored(labels: Sequence[str], *arcs: np.ndarray) -> CitationMatrix:
    """:func:`from_arcs` of a file's labels and arcs; what it refuses is a :class:`ParseError`."""
    try:
        return from_arcs(labels, *arcs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _read_head(lines: list[str]) -> tuple[str, ...]:
    """The labels of the head's lines: a ``*Vertices n`` line, then vertex
    lines, comments and blank lines, up to the next section line."""
    numbered = enumerate(lines, 1)
    for line_no, line in numbered:
        content = line.strip()
        if content and content[0] != "%":
            break
    else:
        raise ParseError("empty input; expected a *Vertices section")
    tokens = content.split()
    if tokens[0].lower() != "*vertices" or len(tokens) != 2:
        raise ParseError(f"expected '*Vertices n', got {content!r}", line_no)
    try:
        n = int(tokens[1])
    except ValueError:
        raise ParseError(f"vertex count is not an integer: {tokens[1]!r}", line_no) from None
    if n < 0:
        raise ParseError(f"vertex count must be >= 0, got {n}", line_no)
    names: dict[int, str] = {}
    for line_no, line in numbered:
        content = line.strip()
        if not content or content[0] == "%":
            continue
        match = _QUOTED_VERTEX.match(content) or _BARE_VERTEX.match(content)
        if match is None:
            raise ParseError(f"malformed vertex line: {content!r}", line_no)
        vid, name = int(match[1]), match[2]
        if not 1 <= vid <= n:
            raise ParseError(f"vertex id {vid} outside 1..{n}", line_no)
        if vid in names:
            raise ParseError(f"duplicate vertex id {vid}", line_no)
        if not name:
            raise ParseError(f"vertex {vid} has an empty label", line_no)
        names[vid] = name
    if len(names) < n:
        missing = bounded_list((vid for vid in range(1, n + 1) if vid not in names), n - len(names))
        raise ParseError(f"vertex ids without a definition: {missing}")
    return tuple(map(names.__getitem__, range(1, n + 1)))


def _read_arcs(text: str, start: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arc lines of ``text[start:]`` as new 1-based (src, dst) and weight arrays.

    Slices of ``8 * _CHUNK`` characters (about ``_CHUNK`` lines), each cut
    just after a LF, are read one at a time: in bulk when plain, else line
    by line.  Every break is a LF, so a slice read line by line starts at
    the line one past the LFs before it, which are counted only then.
    """
    parts, line_no, counted = [], 1, 0
    while start < len(text):
        stop = text.find("\n", start + 8 * _CHUNK) + 1 or len(text)
        arcs = _plain_arcs(text[start:stop], n)
        if arcs is None:
            line_no += text.count("\n", counted, start)
            counted = start
            arcs = _arc_lines(text[start:stop].splitlines(), line_no, n)
        parts.append(arcs)
        start = stop
    # the empty arrays keep the dtypes when the section has no arc lines
    src, dst, weight = (np.concatenate(column) for column in zip(*parts, _NO_ARCS))
    return src, dst, weight


def _plain_arcs(part: str, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """A plain slice's arcs as arrays, or None when the slice is not plain or
    an endpoint falls outside 1..n.

    Plain means ASCII digits, spaces and tabs only, with three digit runs of
    at most 15 digits on each line, so every number is an exact int64 and an
    exact float64.  The checks run on the slice's bytes, and one
    ``np.fromstring`` converts all its numbers.
    """
    raw = part.encode("ascii", "replace")  # "?" for any other character
    if raw.translate(None, _PLAIN_ARC_BYTES):
        return None
    # the LF that ends the last line separates no lines
    data = np.frombuffer(raw, dtype=np.uint8)[: len(raw) - raw.endswith(b"\n")]
    # digit runs start and stop where the digit flag flips; uint8 wraps below "0"
    flips = np.flatnonzero(np.diff((data - ord("0")) < 10, prepend=False, append=False))
    starts, stops = flips[0::2], flips[1::2]
    newlines = np.flatnonzero(data == ord("\n"))
    if len(starts) != 3 * (len(newlines) + 1) or (stops - starts).max() > 15:
        return None
    # line i holds runs 3i..3i+2: its newline falls after run 3i+2, before run 3i+3
    if not ((starts[2:-1:3] < newlines).all() and (newlines < starts[3::3]).all()):
        return None
    values = np.fromstring(part, dtype=np.int64, sep=" ")
    src, dst = values[0::3], values[1::3]
    if min(src.min(), dst.min()) < 1 or max(src.max(), dst.max()) > n:
        return None
    return src, dst, values[2::3].astype(np.float64)


def _arc_lines(lines: list[str], first: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arc lines as arrays, read one line at a time from line number ``first``;
    raises the positioned error for the first line rejected."""
    # arrays, not lists: 24 bytes an arc, however long the section
    src, dst, weight = array("q"), array("q"), array("d")
    for line_no, line in enumerate(lines, start=first):
        content = line.strip()
        if not content or content.startswith("%"):
            continue
        if content.startswith("*"):
            raise ParseError(f"unsupported section {content.split()[0]!r}", line_no)
        tokens = content.split()
        if len(tokens) != 3:
            raise ParseError(f"expected 'src dst weight', got {content!r}", line_no)
        try:
            s, d = int(tokens[0]), int(tokens[1])
            w = float(tokens[2])
        except ValueError:
            raise ParseError(f"malformed arc line: {content!r}", line_no) from None
        if not (1 <= s <= n and 1 <= d <= n):
            raise ParseError(f"arc endpoint outside 1..{n}: {content!r}", line_no)
        if not math.isfinite(w) or w < 0.0:
            raise ParseError(f"arc weight must be finite and >= 0: {content!r}", line_no)
        src.append(s)
        dst.append(d)
        weight.append(w)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(weight)


def write_pajek(z: CitationMatrix) -> str:
    """Emit vertices in label order and one arc line per nonzero entry.

    A label holding a quote or a line break cannot be read back as written,
    so it raises ``ValueError`` instead of being emitted.
    """
    out = [f"*Vertices {z.n}"]
    for i, name in enumerate(z.labels, start=1):
        if '"' in name or name.splitlines() != [name]:
            raise ValueError(f"vertex {i}: label {name!r} holds a quote or a line break")
        out.append(f'{i} "{name}"')
    out.append("*Arcs")
    rows, cols, weights = nonzero_arrays(z)
    out.extend(
        map("{} {} {}".format, (rows + 1).tolist(), (cols + 1).tolist(), _number_cells(weights))
    )
    return "\n".join(out) + "\n"


def _csv_rows(text: str) -> list[tuple[int, list[str]]]:
    """The records, each with the number of the line it starts on: one past
    the last line of the record before it, which a quoted line break moves."""
    # the LF-ended lines io.StringIO yields, without its 4-byte-a-character copy
    reader = csv.reader(re.findall(r"[^\n]*\n|[^\n]+", text.lstrip("\ufeff")))
    rows, line = [], 1
    try:
        for row in reader:
            rows.append((line, row))
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(str(exc), line) from exc
    return rows


def read_csv_matrix(text: str) -> CitationMatrix:
    """Parse a matrix CSV: header of citing labels, one row per cited label.

    The leading header cell must be empty and row labels must repeat the
    header labels in the same order.  The nonzero cells become arcs that
    ``from_arcs`` builds, as for a network file: no n x n array is filled,
    and a ``-0`` cell reads as ``+0.0``.
    """
    rows = _csv_rows(text)
    if not rows:
        raise ParseError("empty input; expected a header row")
    header = rows[0][1]
    if not header or header[0] != "":
        raise ParseError("header must start with an empty cell", line=1)
    citing = header[1:]
    n = len(citing)
    data_rows = rows[1:]
    if len(data_rows) != n:
        raise ParseError(f"expected {n} data rows to match the header, got {len(data_rows)}")
    cited: list[str] = []
    # arrays, not lists: 24 bytes a nonzero cell, as in _arc_lines
    src, dst, weight = array("q"), array("q"), array("d")
    for i, (r, row) in enumerate(data_rows):
        if len(row) != n + 1:
            raise ParseError(f"expected {n + 1} cells, got {len(row)}", line=r)
        cited.append(row[0])
        for c, cell in enumerate(row[1:], start=2):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"column {c}: not a number: {cell!r}", line=r) from None
            if not math.isfinite(value) or value < 0.0:
                raise ParseError(
                    f"column {c}: weights must be finite and >= 0, got {cell!r}", line=r
                )
            if value:
                src.append(i)
                dst.append(c - 2)
                weight.append(value)
    if cited != citing:
        mismatch = next(i for i, (a, b) in enumerate(zip(cited, citing)) if a != b)
        raise ParseError(
            f"row labels must match header labels in order; "
            f"position {mismatch}: {cited[mismatch]!r} vs {citing[mismatch]!r}"
        )
    return _stored(citing, *map(np.array, (src, dst, weight)))  # int64, int64, float64


def write_csv_matrix(z: CitationMatrix) -> str:
    """Inverse of :func:`read_csv_matrix`; integer weights stay integers."""
    # a lone empty header cell is quoted: a blank line would not read back
    header = ["", *map(csv_cell, z.labels)] if z.n else ['""']
    return _labelled_table(header, z.labels, [map(",".join, _row_cells(z))])


def csv_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, with quotes doubled, when it holds a
    comma, a quote, a carriage return or a line feed; else bare."""
    if not _CSV_SPECIAL.search(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _labelled_table(header: Iterable[str], labels: Iterable[str], columns: list, *tail: str) -> str:
    """The header line, one line per label (its cell, then its cell of each
    column) and the ``tail`` lines, LF-terminated and joined once."""
    rows = map(",".join, zip(map(csv_cell, labels), *columns))
    return "\n".join([",".join(header), *rows, *tail, ""])


def _row_cells(z: CitationMatrix) -> Iterator[list[str]]:
    """Each row's cells as :func:`_format_number` prints them, filled from the
    nonzero entries, so no n x n array is built."""
    rows, cols, weights = nonzero_arrays(z)
    bounds = np.searchsorted(rows, np.arange(z.n + 1)).tolist()
    cols, weights = cols.tolist(), _number_cells(weights)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cells = ["0"] * z.n
        for j, cell in zip(cols[lo:hi], weights[lo:hi]):
            cells[j] = cell
        yield cells


def write_trace_csv(trace: TraceTable) -> str:
    """Serialize a trace, label-major then k ascending, at full precision.

    Rows are built a block of labels (about ``_CHUNK`` rows) at a time: each
    label cell once, and each array's block in one ``repr`` pass.
    """
    ks = [str(k) for k in range(1, trace.k_max + 1)]
    step = max(1, _CHUNK // max(1, trace.k_max))
    arrays = (trace.powers, trace.weaknesses, trace.ratios)
    out = [",".join(TRACE_HEADER)]
    for lo in range(0, len(trace.labels) if ks else 0, step):  # k_max = 0 has no rows
        cells = itertools.chain.from_iterable(
            [cell] * trace.k_max for cell in map(csv_cell, trace.labels[lo : lo + step])
        )
        columns = [map(repr, a[:, lo : lo + step].T.ravel().tolist()) for a in arrays]
        out.append("\n".join(map(",".join, zip(cells, itertools.cycle(ks), *columns))))
    return "\n".join([*out, ""])  # not join + "\n", which copies the whole text once more


def read_trace_csv(text: str) -> TraceTable:
    """Inverse of :func:`write_trace_csv`; rows may come in any order."""
    rows = _csv_rows(text)
    if not rows or tuple(rows[0][1]) != TRACE_HEADER:
        raise ParseError(f"expected header {','.join(TRACE_HEADER)!r}", line=1)
    ks_of: dict[str, set[int]] = {}
    steps: list[int] = []
    cells: list[tuple[float, float, float]] = []
    for r, row in rows[1:]:
        if len(row) != 5:
            raise ParseError(f"expected 5 cells, got {len(row)}", line=r)
        try:
            k = int(row[1])
            cells.append((float(row[2]), float(row[3]), float(row[4])))
        except ValueError:
            raise ParseError(f"malformed trace row: {row!r}", line=r) from None
        ks = ks_of.setdefault(row[0], set())
        if k in ks:
            raise ParseError(f"repeated row for label {row[0]!r} at k={k}", line=r)
        ks.add(k)
        steps.append(k - 1)
    k_sets = {tuple(sorted(ks)) for ks in ks_of.values()}
    if len(k_sets) != 1:
        raise ParseError("every label must cover the same iterations")
    ks = k_sets.pop()
    if ks != tuple(range(1, len(ks) + 1)):
        raise ParseError("iterations must be contiguous from k=1")
    position = {name: i for i, name in enumerate(ks_of)}
    cols = [position[row[0]] for _, row in rows[1:]]
    arrays = np.empty((3, len(ks), len(position)), dtype=np.float64)
    arrays[:, steps, cols] = np.asarray(cells, dtype=np.float64).T
    return TraceTable(tuple(position), arrays[0], arrays[1], arrays[2])


def read_metric_csv(text: str, name: str = "external") -> MetricVector:
    """Parse a two-column ``label,value`` CSV with a header row."""
    rows = _csv_rows(text)
    if not rows or len(rows[0][1]) != 2:
        raise ParseError("expected a two-column header row", line=1)
    labels: list[str] = []
    seen: set[str] = set()
    values: list[float] = []
    for r, row in rows[1:]:
        if len(row) != 2:
            raise ParseError(f"expected 2 cells, got {len(row)}", line=r)
        if not row[0]:
            raise ParseError("empty label", line=r)
        if row[0] in seen:
            raise ParseError(f"duplicate label {row[0]!r}", line=r)
        try:
            values.append(float(row[1]))
        except ValueError:
            raise ParseError(f"not a number: {row[1]!r}", line=r) from None
        labels.append(row[0])
        seen.add(row[0])
    return MetricVector(name, tuple(labels), np.asarray(values, dtype=np.float64))


def write_metric_csv(metric: MetricVector) -> str:
    """Inverse of :func:`read_metric_csv`; an empty or repeated label raises
    ``ValueError``, since it would not read back."""
    _check_labels(metric.labels)
    return _labelled_table(METRIC_HEADER, metric.labels, [map(repr, metric.values.tolist())])


def write_partition_csv(partition: Partition) -> str:
    """One ``label,community`` row per node, in matrix order."""
    communities = map(str, partition.community_of)
    return _labelled_table(("label", "community"), partition.labels, [communities])


def write_compare_table(table: list[list[RankingComparison]]) -> str:
    """The table of :func:`~pwrkit.comparators.compare_rankings`: each metric
    per label at full precision, a blank line, then each pair's coefficients."""
    columns = [row[0].x for row in table]
    names = [csv_cell(m.name) for m in columns]
    pairs = (
        f"{names[i]},{names[j]},{table[i][j].pearson_r!r},{table[i][j].spearman_rho!r}"
        for i, j in itertools.combinations(range(len(names)), 2)
    )
    cells = [map(repr, m.values.tolist()) for m in columns]
    tail = ("", "metric_x,metric_y,pearson,spearman", *pairs)
    return _labelled_table(["label", *names], columns[0].labels, cells, *tail)
