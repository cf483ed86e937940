"""Readers and writers for the supported text formats.

Three formats are exchanged: network files with explicit vertex and arc
sections, citation-matrix CSV mirroring the usual table layout (rows cited,
columns citing), and flat CSVs for iteration traces and external per-journal
metrics.  Parsers reject malformed input with a positioned error instead of
guessing; writers emit deterministic LF-terminated UTF-8 so identical data
produces identical bytes.

Arc orientation in network files follows the cited-to-citing convention:
an arc line ``src dst w`` adds w citations to ``Z[src-1][dst-1]``, i.e. src
is the cited journal and dst the citing one.  This is the transpose of the
common social-network reading and is applied symmetrically by the writer, so
round-trips are lossless.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
import re
from collections.abc import Iterator

import numpy as np

from .comparators import MetricVector
from .engine import TraceTable
from .matrix import CitationMatrix, nonzero_arrays

log = logging.getLogger(__name__)

_QUOTED_VERTEX = re.compile(r'^(\d+)\s+"([^"]*)"$')
_BARE_VERTEX = re.compile(r"^(\d+)\s+(\S+)$")
# A quoted label within one line, and plain vertex lines with their labels
# cut out, each ended by a newline.
_QUOTED_LABEL = re.compile(r'"([^"\n]*)"')
_PLAIN_HEADS = re.compile(r'(?:[ \t]*[0-9]{1,15}[ \t]+""[ \t]*\n)*')
# The characters for which the csv module may quote a cell.
_CSV_SPECIAL = re.compile(r'[,"\r\n]')

TRACE_HEADER = ("label", "k", "power", "weakness", "ratio")
METRIC_HEADER = ("label", "value")

# Arc lines read per token list; bounds the reader's working memory.
_CHUNK = 1 << 16
_NO_ARCS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
# The bytes of a plain arc chunk: digits, space, tab and the newline between lines.
_PLAIN_ARC_BYTES = b"0123456789 \t\n"


class ParseError(ValueError):
    """Malformed input; the message carries the offending position."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


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

    Each vertex section and each chunk of arc lines is read either in bulk or
    one line at a time.  A vertex section is read in bulk when the n lines
    after its header read ``<id> "<label>"`` with ASCII ids 1..n in order,
    nonempty labels, spaces or tabs around the fields, and a section line (or
    the end) next.  A chunk of arc lines is read in bulk when it is ASCII and
    each line holds three digit runs of at most 15 digits, separated by spaces
    or tabs, with both endpoints in 1..n.  Any other section or chunk is read
    line by line, which also raises the positioned errors; on input both
    routes take, they return the same labels and arrays.
    """
    lines = text.lstrip("\ufeff").splitlines()
    first = _next_content(lines, 0)
    if first is None:
        raise ParseError("empty input; expected a *Vertices section")
    line_no, content = first
    tokens = content.split()
    if tokens[0].lower() != "*vertices" or len(tokens) != 2:
        raise ParseError(f"expected '*Vertices n', got {content!r}", line_no)
    try:
        n = int(tokens[1])
    except ValueError:
        raise ParseError(f"vertex count is not an integer: {tokens[1]!r}", line_no) from None
    if n < 0:
        raise ParseError(f"vertex count must be >= 0, got {n}", line_no)

    labels, section = _plain_vertices(lines, line_no, n) or _vertex_lines(lines, line_no, n)
    if section is None:
        log.warning("network file has no *Arcs section; matrix is all zeros")
        src, dst, weight = _NO_ARCS
    else:
        line_no, content = section
        if content.split()[0].lower() != "*arcs":
            raise ParseError(f"unsupported section {content.split()[0]!r}", line_no)
        src, dst, weight = _read_arcs(lines, line_no, n)

    # imported here: a network file always builds CSR, a dense run never does
    from scipy import sparse

    entries = sparse.coo_array((weight, (src - 1, dst - 1)), shape=(n, n)).tocsr()
    try:
        return CitationMatrix(labels, entries)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# A vertex section read: the labels, and the next section line as
# (line number, stripped text), or None at the end of the file.
_Vertices = tuple[tuple[str, ...], tuple[int, str] | None]


def _next_content(lines: list[str], pos: int) -> tuple[int, str] | None:
    """The first line from ``lines[pos]`` on that is neither blank nor a ``%``
    comment, as (line number, stripped text); its line number is also the
    index of the line after it."""
    for i in range(pos, len(lines)):
        stripped = lines[i].strip()
        if stripped and not stripped.startswith("%"):
            return i + 1, stripped
    return None


def _plain_vertices(lines: list[str], start: int, n: int) -> _Vertices | None:
    """The labels and the next section line, or None when the vertex section
    from ``lines[start]`` is not plain (see :func:`read_pajek`).

    The n lines are joined, the quoted labels are cut out, and one anchored
    pattern checks what is left of every line at once.  The labels come from
    ``findall``, not from a split on ``"``: a split leaves the freed parts
    between the kept labels, and that fragmented heap raised the benchmark's
    peak RSS at n = 100,000 from 249 to 269 MB.
    """
    block = lines[start : start + n]
    if len(block) < n:
        return None
    joined = "\n".join(block)
    labels = _QUOTED_LABEL.findall(joined)
    heads = _QUOTED_LABEL.sub('""', joined)
    if "" in labels or not _PLAIN_HEADS.fullmatch(heads + "\n"):
        return None
    ids = np.fromstring(heads.replace('"', " "), dtype=np.int64, sep=" ")
    if not np.array_equal(ids, np.arange(1, n + 1)):
        return None
    section = _next_content(lines, start + n)
    if section is not None and not section[1].startswith("*"):
        return None
    return tuple(labels), section


def _vertex_lines(lines: list[str], start: int, n: int) -> _Vertices:
    """The labels and the next section line, read one vertex line at a time."""
    names: dict[int, str] = {}
    while (item := _next_content(lines, start)) is not None:
        line_no, content = item
        start = line_no
        if content.startswith("*"):
            break
        match = _QUOTED_VERTEX.match(content) or _BARE_VERTEX.match(content)
        if match is None:
            raise ParseError(f"malformed vertex line: {content!r}", line_no)
        vid = int(match.group(1))
        name = match.group(2)
        if not 1 <= vid <= n:
            raise ParseError(f"vertex id {vid} outside 1..{n}", line_no)
        if vid in names:
            raise ParseError(f"duplicate vertex id {vid}", line_no)
        if not name:
            raise ParseError(f"vertex {vid} has an empty label", line_no)
        names[vid] = name
    if len(names) < n:
        raise ParseError(f"vertex ids without a definition: {_missing_ids(names, n)}")
    return tuple(names[vid] for vid in range(1, n + 1)), item


def _missing_ids(names: dict[int, str], n: int) -> str:
    # bounded whatever n is: the first ten ids, then a count of the rest
    first = list(itertools.islice((vid for vid in range(1, n + 1) if vid not in names), 10))
    more = n - len(names) - len(first)
    return f"{first} (and {more} more)" if more else str(first)


def _read_arcs(lines: list[str], start: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arc lines ``lines[start:]`` as 1-based (src, dst) and weight arrays.

    Each chunk of lines is read in bulk when plain, otherwise one line at a
    time.  Chunks are read in order and each passes every check before the
    next is read, so the first error raised names the section's first bad line.
    """
    parts = []
    for lo in range(start, len(lines), _CHUNK):
        chunk = lines[lo : lo + _CHUNK]
        parts.append(_plain_arcs(chunk, n) or _arc_lines(chunk, lo + 1, n))
    # the empty arrays keep the dtypes when the section has no arc lines
    src, dst, weight = (np.concatenate(column) for column in zip(*parts, _NO_ARCS))
    return src, dst, weight


def _plain_arcs(chunk: list[str], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """A plain chunk's arcs as arrays, or None when the chunk is not plain or
    an endpoint falls outside 1..n.

    Plain means ASCII digits, spaces and tabs only, with three digit runs of
    at most 15 digits on each line, so every number is an exact int64 and an
    exact float64.  The checks run on the chunk's bytes, and one
    ``np.fromstring`` converts all its numbers.
    """
    text = "\n".join(chunk)
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    if raw.translate(None, _PLAIN_ARC_BYTES):
        return None
    data = np.frombuffer(raw, dtype=np.uint8)
    # digit runs start and stop where the digit flag flips; uint8 wraps below "0"
    flips = np.flatnonzero(np.diff((data - ord("0")) < 10, prepend=False, append=False))
    starts, stops = flips[0::2], flips[1::2]
    if len(starts) != 3 * len(chunk) or (stops - starts).max() > 15:
        return None
    # line i holds runs 3i..3i+2: its newline falls after run 3i+2, before run 3i+3
    newlines = np.flatnonzero(data == ord("\n"))
    if not ((starts[2:-1:3] < newlines).all() and (newlines < starts[3::3]).all()):
        return None
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    src, dst = values[0::3], values[1::3]
    if min(src.min(), dst.min()) < 1 or max(src.max(), dst.max()) > n:
        return None
    return src, dst, values[2::3].astype(np.float64)


def _arc_lines(
    chunk: list[str], first_line_no: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A chunk's arcs as arrays, read one line at a time from line number
    ``first_line_no``; raises the positioned error for the first line rejected."""
    src: list[int] = []
    dst: list[int] = []
    weight: list[float] = []
    for line_no, line in enumerate(chunk, start=first_line_no):
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


def _csv_rows(text: str) -> list[list[str]]:
    try:
        return list(csv.reader(io.StringIO(text.lstrip("﻿"))))
    except csv.Error as exc:
        raise ParseError(str(exc)) from exc


def read_csv_matrix(text: str) -> CitationMatrix:
    """Parse a matrix CSV: header of citing labels, one row per cited label.

    The leading header cell must be empty and row labels must repeat the
    header labels in the same order.
    """
    rows = _csv_rows(text)
    if not rows:
        raise ParseError("empty input; expected a header row")
    header = rows[0]
    if not header or header[0] != "":
        raise ParseError("header must start with an empty cell", line=1)
    citing = header[1:]
    n = len(citing)
    data_rows = rows[1:]
    if len(data_rows) != n:
        raise ParseError(f"expected {n} data rows to match the header, got {len(data_rows)}")
    cited: list[str] = []
    values = np.zeros((n, n), dtype=np.float64)
    for r, row in enumerate(data_rows, start=2):
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
            values[r - 2, c - 2] = value
    if cited != citing:
        mismatch = next(i for i, (a, b) in enumerate(zip(cited, citing)) if a != b)
        raise ParseError(
            f"row labels must match header labels in order; "
            f"position {mismatch}: {cited[mismatch]!r} vs {citing[mismatch]!r}"
        )
    try:
        return CitationMatrix(tuple(citing), values)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_csv_matrix(z: CitationMatrix) -> str:
    """Inverse of :func:`read_csv_matrix`; integer weights stay integers.

    csv quotes only a label holding a comma, a quote or a newline; one with a
    bare carriage return would end its row, so it raises ``ValueError``.
    """
    for name in z.labels:
        if "\r" in name and not any(c in name for c in ',"\n'):
            raise ValueError(f"label {name!r} holds a carriage return csv would leave unquoted")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([""] + list(z.labels))
    for name, cells in zip(z.labels, _row_cells(z)):
        buffer.write(f"{csv_cell(name)},{','.join(cells)}\n")
    return buffer.getvalue()


def csv_cell(text: str) -> str:
    """``text`` as the csv module writes it in one cell of a row: quoted, with
    quotes doubled, when it holds a comma, a quote or a newline; else bare."""
    if not _CSV_SPECIAL.search(text):
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[:-2]


def _row_cells(z: CitationMatrix) -> Iterator[list[str]]:
    """Each row's cells as :func:`_format_number` prints them; CSR rows come
    from their ``indptr`` slice, so no n x n array is built."""
    if not z.is_sparse:
        yield from map(_number_cells, z.entries)
        return
    csr = z.entries
    bounds = csr.indptr.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cells = ["0"] * z.n
        for j, cell in zip(csr.indices[lo:hi].tolist(), _number_cells(csr.data[lo:hi])):
            cells[j] = cell
        yield cells


def write_trace_csv(trace: TraceTable) -> str:
    """Serialize a trace, label-major then k ascending, at full precision."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    ks = range(1, trace.k_max + 1)
    columns = zip(trace.powers.T, trace.weaknesses.T, trace.ratios.T)
    for name, (powers, weaknesses, ratios) in zip(trace.labels, columns):
        writer.writerows(
            [name, k, repr(p), repr(w), repr(r)]
            for k, p, w, r in zip(ks, powers.tolist(), weaknesses.tolist(), ratios.tolist())
        )
    return buffer.getvalue()


def read_trace_csv(text: str) -> TraceTable:
    """Inverse of :func:`write_trace_csv`; rows may come in any order."""
    rows = _csv_rows(text)
    if not rows or tuple(rows[0]) != TRACE_HEADER:
        raise ParseError(f"expected header {','.join(TRACE_HEADER)!r}", line=1)
    ks_of: dict[str, list[int]] = {}
    steps: list[int] = []
    cells: list[tuple[float, float, float]] = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != 5:
            raise ParseError(f"expected 5 cells, got {len(row)}", line=r)
        try:
            k = int(row[1])
            cells.append((float(row[2]), float(row[3]), float(row[4])))
        except ValueError:
            raise ParseError(f"malformed trace row: {row!r}", line=r) from None
        ks_of.setdefault(row[0], []).append(k)
        steps.append(k - 1)
    k_sets = {tuple(sorted(ks)) for ks in ks_of.values()}
    if len(k_sets) != 1:
        raise ParseError("every label must cover the same iterations")
    ks = k_sets.pop()
    if ks != tuple(range(1, len(ks) + 1)):
        raise ParseError("iterations must be contiguous from k=1")
    position = {name: i for i, name in enumerate(ks_of)}
    cols = [position[row[0]] for row in rows[1:]]
    arrays = np.empty((3, len(ks), len(position)), dtype=np.float64)
    arrays[:, steps, cols] = np.asarray(cells, dtype=np.float64).T
    return TraceTable(tuple(position), arrays[0], arrays[1], arrays[2])


def read_metric_csv(text: str, name: str = "external") -> MetricVector:
    """Parse a two-column ``label,value`` CSV with a header row."""
    rows = _csv_rows(text)
    if not rows or len(rows[0]) != 2:
        raise ParseError("expected a two-column header row", line=1)
    labels: list[str] = []
    seen: set[str] = set()
    values: list[float] = []
    for r, row in enumerate(rows[1:], start=2):
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
    try:
        return MetricVector(name, tuple(labels), np.asarray(values, dtype=np.float64))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_metric_csv(metric: MetricVector) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(METRIC_HEADER)
    for name, value in zip(metric.labels, metric.values):
        writer.writerow([name, repr(float(value))])
    return buffer.getvalue()
