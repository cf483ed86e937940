"""The chunked Pajek reader and the row-streamed writers against references.

A differential property holds ``read_pajek`` to the line-by-line reader in
``reference_formats``: on mutated arc sections both return the same matrix,
bit for bit, or raise the same message.  It runs at the default chunk size and
at one so small that every section spans several chunks and the first bad
line may sit in an earlier chunk than the one that fails.  Memory guards keep
the reader from holding a whole-file token list and the CSV writer from
holding an n x n array.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from pwrkit import CitationMatrix, ParseError, formats, read_pajek, write_csv_matrix, write_pajek

from . import reference_formats as ref

# Arc lines per token list: the default, and one small enough that every
# generated section spans several chunks.
CHUNKS = [
    pytest.param(formats._CHUNK, id="default"),
    pytest.param(4, id="small-chunk"),
]


def chunked(chunk: int):
    return mock.patch.object(formats, "_CHUNK", chunk)


# Tokens the per-line rule accepts in some position, rejects in another, or
# rejects everywhere: signs, underscores, Unicode digits, overflow to inf,
# nan, negatives, endpoints past int64, a stray comment or section marker.
ODD_TOKENS = [
    "+2", "1_0", "٣", "1e400", "nan", "inf", "-1", "-0", "0", "2.5", "1e-320",
    "12345678901234567890", "-12345678901234567890", "%", "*Edges", "x", "1.0", "0x1",
]
SEPARATORS = [" ", "  ", "\t", "\xa0", "  "]
NEWLINES = ["\n", "\r\n", "\r"]


@st.composite
def arc_token(draw, n: int, weight: bool) -> str:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(ODD_TOKENS))
    if weight:
        return draw(st.sampled_from(["1", "3", "0.5", "19", "1e3"]))
    return str(draw(st.integers(1, n)))


@st.composite
def arc_line(draw, n: int) -> str:
    kind = draw(st.sampled_from(["arc"] * 6 + ["comment", "blank", "short", "long", "section"]))
    if kind == "comment":
        return draw(st.sampled_from(["% note", "%", "  % 1 2 3"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\xa0"]))
    if kind == "section":
        return draw(st.sampled_from(["*Edges", "*Arcs", "*edges 3"]))
    count = {"arc": 3, "short": 2, "long": 4}[kind]
    tokens = [draw(arc_token(n, weight=i == 2)) for i in range(count)]
    line = tokens[0]
    for token in tokens[1:]:
        line += draw(st.sampled_from(SEPARATORS)) + token
    return draw(st.sampled_from(["", " ", "\xa0"])) + line + draw(st.sampled_from(["", " "]))


@st.composite
def pajek_texts(draw) -> str:
    n = draw(st.sampled_from([1, 3, 5, 1100]))
    head = [f"*Vertices {n}"] + [f'{i} "J{i}"' for i in range(1, n + 1)]
    section = draw(st.sampled_from(["*Arcs", "*Arcs", "*Arcs", "*arcs", "*Edges", None]))
    body = draw(st.lists(arc_line(n), max_size=24)) if section else []
    lines = head + ([section] if section else []) + body
    newline = draw(st.sampled_from(NEWLINES + ["mixed"]))
    ends = [draw(st.sampled_from(NEWLINES)) if newline == "mixed" else newline for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def outcome(reader, text: str):
    try:
        z = reader(text)
    except ParseError as exc:
        return "error", str(exc)
    dense = z.to_dense()
    return "matrix", z.labels, z.is_sparse, dense.tobytes()


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=150, deadline=None)
@given(text=pajek_texts())
@example(text='*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n1 2 3\n% c\n\n2 1 ٣\r\n+2 1_0 1e400\n')
@example(text='*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n1 2 3\n1 2\n1 2 3 4\n2 2 nan\n')
@example(text='*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n1 2 1\n2 1 1\n1 1 1\n2 2 1\n1 3 1\n1 2 x\n')
@example(text='*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n1 2 3\n1 % 2\n12345678901234567890 1 1\n')
def test_reader_matches_line_by_line_reference(chunk, text):
    with chunked(chunk):
        assert outcome(read_pajek, text) == outcome(ref.read_pajek, text)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_first_bad_line_is_found_across_chunks(chunk):
    # the range error sits in the first chunk, the token error in a later one
    arcs = ["1 2 1"] * 2 + ["3 1 1"] + ["1 2 1"] * 6 + ["1 2 x"]
    text = '*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n' + "\n".join(arcs) + "\n"
    with chunked(chunk), pytest.raises(ParseError, match=r"^line 7: arc endpoint outside 1\.\.2"):
        read_pajek(text)


def fields_text(n: int, seed: int) -> str:
    """Pajek text shaped like the benchmark's field graphs: fields of 200
    journals, ten draws per journal, Zipf-ranked cited journals."""
    rng = np.random.default_rng(seed)
    n_fields = n // 200
    citing = rng.integers(0, n, 10 * n)
    rank = np.minimum(rng.zipf(1.6, 10 * n) - 1, 199)
    cited = citing % n_fields + n_fields * rank
    weights = rng.integers(1, 20, 10 * n).astype(float)
    entries = sparse.coo_array((weights, (cited, citing)), shape=(n, n)).tocsr()
    return write_pajek(CitationMatrix(tuple(f"J{i:06d}" for i in range(n)), entries))


def test_reader_keeps_no_whole_file_token_list():
    text = fields_text(30_000, seed=0)
    assert text.count("\n") - 30_002 > 2 * formats._CHUNK
    tracemalloc.start()
    try:
        z = read_pajek(text)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert z.is_sparse
    # lines, one chunk of tokens and the matrix need about 12x; the line-by-line
    # reader needed 15.5x and a token list of the whole file needs 20x
    assert peak < 14 * len(text)


def test_csv_writer_holds_no_square_array():
    n = 5000
    rng = np.random.default_rng(0)
    entries = sparse.csr_array(
        (rng.integers(1, 6, 3 * n).astype(float), (rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n))),
        shape=(n, n),
    )
    z = CitationMatrix(tuple(f"J{i}" for i in range(n)), entries)
    square_bytes = n * n * 8
    tracemalloc.start()
    try:
        text = write_csv_matrix(z)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the text is about 2 n^2 bytes and is held twice while it is joined;
    # the rest of the writer must stay under a quarter of one n x n array
    assert peak - 2 * len(text) < square_bytes / 4
