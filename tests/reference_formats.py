"""Per-cell readers and writers, kept as oracles for the array versions.

``read_pajek`` is the line-by-line Pajek reader.  It reads one line at a
time: strip, skip blanks and ``%`` comments, split, convert with ``int`` and
``float``, check the range and the weight, and append to three Python lists.
The library reads every head line by line too, then its arc lines a slice
at a time, in bulk when the slice is plain and else line by line;
the differential tests require it to return the same matrix or raise the same
message as this reader on every input.

``write_csv_matrix`` is the cell-by-cell matrix CSV writer: every cell of the
dense matrix through ``_format_number``, whichever the storage.  The library
fills each row from the nonzero entries and must produce the same bytes.

``write_trace_csv`` is the row-by-row trace writer: one ``csv.writer`` row
and three ``repr`` calls per (label, k).  The library formats a block of
labels at a time, column by column, and must produce the same bytes.

Both writers quote through the csv module, not through ``csv_cell``: each
row is written by its own ``csv.writer(lineterminator="\\r\\n")``, whose
terminator makes it quote a cell holding a bare carriage return (an LF
terminator leaves one bare before Python 3.13), and the row end is then
rewritten to ``"\\n"``.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re

import numpy as np
from scipy import sparse

from pwrkit.engine import TraceTable
from pwrkit.formats import TRACE_HEADER, ParseError, _format_number
from pwrkit.matrix import CitationMatrix

log = logging.getLogger("pwrkit.formats")

_QUOTED_VERTEX = re.compile(r'^(\d+)\s+"([^"]*)"$')
_BARE_VERTEX = re.compile(r"^(\d+)\s+(\S+)$")


def read_pajek(text: str) -> CitationMatrix:
    """Parse a network file with ``*Vertices`` and ``*Arcs`` sections."""
    lines = text.lstrip("﻿").splitlines()
    pos = 0

    def next_content() -> tuple[int, str] | None:
        nonlocal pos
        while pos < len(lines):
            stripped = lines[pos].strip()
            pos += 1
            if stripped and not stripped.startswith("%"):
                return pos, stripped
        return None

    first = next_content()
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

    labels: list[str | None] = [None] * n
    arcs_line: tuple[int, str] | None = None
    while True:
        item = next_content()
        if item is None:
            break
        line_no, content = item
        if content.startswith("*"):
            arcs_line = (line_no, content)
            break
        match = _QUOTED_VERTEX.match(content) or _BARE_VERTEX.match(content)
        if match is None:
            raise ParseError(f"malformed vertex line: {content!r}", line_no)
        vid = int(match.group(1))
        name = match.group(2)
        if not 1 <= vid <= n:
            raise ParseError(f"vertex id {vid} outside 1..{n}", line_no)
        if labels[vid - 1] is not None:
            raise ParseError(f"duplicate vertex id {vid}", line_no)
        if not name:
            raise ParseError(f"vertex {vid} has an empty label", line_no)
        labels[vid - 1] = name
    missing = [i + 1 for i, name in enumerate(labels) if name is None]
    if missing:
        more = f" (and {len(missing) - 10} more)" if len(missing) > 10 else ""
        raise ParseError(f"vertex ids without a definition: {missing[:10]}{more}")

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    if arcs_line is not None:
        line_no, content = arcs_line
        section = content.split()[0].lower()
        if section != "*arcs":
            raise ParseError(f"unsupported section {content.split()[0]!r}", line_no)
        while True:
            item = next_content()
            if item is None:
                break
            line_no, content = item
            if content.startswith("*"):
                raise ParseError(f"unsupported section {content.split()[0]!r}", line_no)
            tokens = content.split()
            if len(tokens) != 3:
                raise ParseError(f"expected 'src dst weight', got {content!r}", line_no)
            try:
                src, dst = int(tokens[0]), int(tokens[1])
                weight = float(tokens[2])
            except ValueError:
                raise ParseError(f"malformed arc line: {content!r}", line_no) from None
            if not (1 <= src <= n and 1 <= dst <= n):
                raise ParseError(f"arc endpoint outside 1..{n}: {content!r}", line_no)
            if not math.isfinite(weight) or weight < 0.0:
                raise ParseError(f"arc weight must be finite and >= 0: {content!r}", line_no)
            rows.append(src - 1)
            cols.append(dst - 1)
            data.append(weight)
    else:
        log.warning("network file has no *Arcs section; matrix is all zeros")

    entries = sparse.coo_array(
        (np.asarray(data), (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp))),
        shape=(n, n),
    ).tocsr()
    try:
        return CitationMatrix(tuple(labels), entries)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc



def csv_row(cells: list) -> str:
    """One row as ``csv.writer(lineterminator="\\r\\n")`` writes it, ended by ``"\\n"``."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(cells)
    return buffer.getvalue()[:-2] + "\n"


def write_trace_csv(trace: TraceTable) -> str:
    """Serialize a trace, label-major then k ascending, at full precision."""
    rows = [csv_row(list(TRACE_HEADER))]
    ks = range(1, trace.k_max + 1)
    columns = zip(trace.powers.T, trace.weaknesses.T, trace.ratios.T)
    for name, (powers, weaknesses, ratios) in zip(trace.labels, columns):
        rows.extend(
            csv_row([name, k, repr(p), repr(w), repr(r)])
            for k, p, w, r in zip(ks, powers.tolist(), weaknesses.tolist(), ratios.tolist())
        )
    return "".join(rows)


def write_csv_matrix(z: CitationMatrix) -> str:
    """The matrix CSV writer cell by cell: one ``csv.writer`` row per cited
    label, every cell of the dense matrix through ``_format_number``."""
    rows = [csv_row([""] + list(z.labels))]
    for name, row in zip(z.labels, z.to_dense().tolist()):
        rows.append(csv_row([name] + [_format_number(value) for value in row]))
    return "".join(rows)
