"""The Pajek reader's two routes and the row-streamed writers against references.

``read_pajek`` reads the head of every file line by line, then its arc
section a slice at a time: in bulk when the slice is plain, else line by
line.  A differential property holds it to the line-by-line
reader in ``reference_formats``: on mutated vertex and arc sections both
return the same matrix, bit for bit, or raise the same message.  It runs at
the default chunk size and at one so small that every section spans several
slices and a bad line may sit in a slice after ones that were read in bulk.
At the default size, a section whose plain lines are followed by ones that
only the per-line route reads must match too, with that route reading just
the slices that hold such lines.
A benchmark-shaped file, its CR LF copy and a copy with a comment, a blank
line and a bare label in its head must take the bulk arc route.  A head
ends at its ``*Arcs`` line also when a vertical tab breaks the line before
it or a no-break space indents it.  Memory guards keep the reader from
holding a whole-file token list and the CSV reader and writer from holding
an n x n array.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from pwrkit import (
    CitationMatrix,
    ParseError,
    formats,
    read_csv_matrix,
    read_pajek,
    write_csv_matrix,
    write_pajek,
)
from pwrkit.matrix import DENSE_LIMIT

from . import reference_formats as ref

# Arc lines per slice, about: the default, and one small enough that every
# generated section spans several slices.
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


# Forms of vertex line i that the bulk path takes, that only the line-by-line
# rules accept, or that they reject: bare labels, labels holding a space, a tab
# or a quote, an empty label, leading zeros, Unicode digits, \xa0 separators,
# text after the closing quote, and ids that clash with another line's
# ({j}), fall outside 1..n ({m}) or are zero.
VERTEX_FORMS = [
    '{i} J{i}', '{i} "J {i}"', '{i} "J\t{i}"', '{i} "J"{i}"', '{i} J {i}', '{i} ""', '{i} "J{i}""',
    '\t{i}  "J{i}" \t', '0{i} "J{i}"', '{u} "J{i}"', '{i}\xa0"J{i}"', '\xa0{i} "J{i}"',
    '{i} "J{i}"\xa0', '{i} "J{i}" x', '{j} "J{i}"', '{m} "J{i}"', '0 "J{i}"',
]
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def vertex_section(draw, n: int) -> list[str]:
    """The n vertex lines, plain half the time, otherwise with a few mutated,
    swapped, interleaved with comments or blanks, or followed by one more."""
    lines = [f'{i} "J{i}"' for i in range(1, n + 1)]
    if draw(st.booleans()):
        return lines
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["form"] * 4 + ["swap", "insert", "extra"]))
        if kind == "form":
            i, j = at + 1, draw(st.integers(1, n))
            form = draw(st.sampled_from(VERTEX_FORMS))
            lines[at] = form.format(i=i, j=j, m=n + 1, u=str(i).translate(ARABIC_INDIC))
        elif kind == "swap":
            other = draw(st.integers(0, n - 1))
            lines[at], lines[other] = lines[other], lines[at]
        elif kind == "insert":
            lines.insert(at, draw(st.sampled_from(["% vertex", "", "   ", "\xa0"])))
        else:
            lines.append(draw(st.sampled_from([f'{n + 1} "X"', '1 "X"', "J", '1 "J1"'])))
    return lines


@st.composite
def pajek_texts(draw) -> str:
    n = draw(st.sampled_from([1, 3, 5, 1100]))
    head = [f"*Vertices {n}"] + draw(vertex_section(n))
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
@example(text='*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n1 2 1234567890123456\n2 1 999999999999999\n')
@example(text='*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n1 2 99999999999999999999\n')
@example(text='*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n1 2\n2 1 1 1\n')
@example(text='*Vertices 3\n1 "A"\n2 "B\tC"\n\n3 "D"\n*Arcs\n1\t2  3\n 2 3 007 \n')
@example(text='*Vertices 2\n2 "B"\n1 "A"\n*Arcs\n1 2 3\n')
@example(text='*Vertices 2\n1 "A"\n2 ""\n*Arcs\n1 2 3\n')
@example(text='*Vertices 2\n1 "A"\n2 "B"\n3 "C"\n*Arcs\n1 2 3\n')
# a label holding each line break splitlines knows besides LF, and a plain arc
# section up to a line with one: the bulk route must stop before the break, or
# the line numbers the per-line route starts from would be wrong
@example(text='*Vertices 2\n1 "A\rB"\n2 "C"\n*Arcs\n1 2 3\n')
@example(text='*Vertices 2\n1 "A\vB"\n2 "C"\n*Arcs\n1 2 3\n')
@example(text='*Vertices 2\n1 "A\fB"\n2 "C"\n*Arcs\n1 2 3\n')
@example(text='*Vertices 2\n1 "A\x1cB"\n2 "C"\n*Arcs\n1 2 3\n')
@example(text='*Vertices 2\n1 "A\x1dB"\n2 "C"\n*Arcs\n1 2 3\n')
@example(text='*Vertices 2\n1 "A\x1eB"\n2 "C"\n*Arcs\n1 2 3\n')
@example(text='*Vertices 2\n1 "A\x85B"\n2 "C"\n*Arcs\n1 2 3\n')
@example(text='*Vertices 2\n1 "A\u2028B"\n2 "C"\n*Arcs\n1 2 3\n')
@example(text='*Vertices 2\n1 "A\u2029B"\n2 "C"\n*Arcs\n1 2 3\n')
@example(text='*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n' + "1 2 3\n" * 8 + "2 1 1\x85\n1 1 x\n")
# CR CR LF is two breaks: CR LF made LF must not turn it into one CR LF
@example(text='*Vertices 2\r\r\n1 "A"\n2 "B"\n*Arcs\n1 2 x\n')
# section lines the head's pattern misses, or that end in a break other than
# LF, and a head with comments and blank lines
@example(text='\xa0*Vertices 2\n1 "A"\n2 "B"\n*Arcs\n1 2 3\n')
@example(text='*Vertices 2\n1 "A"\n2 "B"\x85*Arcs\n1 2 3\n2 1 x\n')
@example(text='*Vertices 2\n1 "A"\n2 "B"\n*Arcs\x851 2 3\n2 1 x\n')
@example(text='*Vertices 2\n1 "A"\n2 "B"\n\xa0*Arcs\n1 2 3\n2 1 x\n')
@example(text='% c\n\n*Vertices 2\n1 "A"\n% x\n2 "B"\n\n*Arcs\n1 2 3\n2 1 x\n')
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


def test_plain_sections_take_the_bulk_path():
    text = fields_text(30_000, seed=0)
    expected = ref.read_pajek(text)
    # the line-by-line arc route must not be needed, or a later edit could
    # fall back to it on plain input without a test noticing
    slow = AssertionError("a plain arc section took the line-by-line route")
    with mock.patch.object(formats, "_arc_lines", side_effect=slow):
        z = read_pajek(text)
    assert z.is_sparse and z.labels == expected.labels
    for part in ("indptr", "indices", "data"):
        assert getattr(z.entries, part).tobytes() == getattr(expected.entries, part).tobytes()


def test_cr_lf_copy_of_plain_sections_takes_the_bulk_path():
    text = fields_text(30_000, seed=0).replace("\n", "\r\n")
    expected = ref.read_pajek(text)
    slow = AssertionError("a plain CR LF arc section took the line-by-line route")
    with mock.patch.object(formats, "_arc_lines", side_effect=slow):
        z = read_pajek(text)
    assert z.is_sparse and z.labels == expected.labels
    for part in ("indptr", "indices", "data"):
        assert getattr(z.entries, part).tobytes() == getattr(expected.entries, part).tobytes()


def commented_head_text() -> str:
    """The benchmark-shaped file with a comment before ``*Vertices``, a blank
    line in the vertex section and one bare label there."""
    text = "% made elsewhere\n" + fields_text(30_000, seed=0)
    text = text.replace('\n2 "J000001"\n', '\n\n2 "J000001"\n', 1)
    return text.replace('\n3 "J000002"\n', "\n3 J000002\n", 1)


def test_commented_head_takes_the_bulk_arc_route():
    text = commented_head_text()
    expected = ref.read_pajek(text)
    slow = AssertionError("plain arcs after a commented head took the line-by-line route")
    with mock.patch.object(formats, "_arc_lines", side_effect=slow):
        z = read_pajek(text)
    assert z.is_sparse and z.labels == expected.labels
    for part in ("indptr", "indices", "data"):
        assert getattr(z.entries, part).tobytes() == getattr(expected.entries, part).tobytes()


@pytest.mark.parametrize("before", ["\x0b", "\n\xa0"], ids=["vertical-tab-break", "no-break-space"])
def test_head_ends_at_the_arcs_line_that_strip_finds(before):
    # splitlines breaks at the vertical tab and strip strips the no-break
    # space, so _read_head sees an *Arcs line; the head must end there too
    n = 4_000
    plain = fields_text(n, seed=0)  # about 20,000 arcs
    text = plain.replace("\n*Arcs\n", before + "*Arcs\n", 1)
    assert text != plain
    with mock.patch.object(formats, "_read_head", wraps=formats._read_head) as head:
        z = read_pajek(text)
    [call] = head.call_args_list
    assert len(call.args[0]) <= n + 3
    assert z == read_pajek(plain)


def mixed_chunks_text(bad_endpoint: bool = False) -> str:
    """A CSR-sized network whose arc section spans four slices of
    ``8 * formats._CHUNK`` characters at the default size: plain with CRLF
    ends, decimal weights and comments, plain (with one endpoint past n when
    ``bad_endpoint``), then a short tail with a comment.  Each stretch keeps
    an eighth of a slice clear of the slice's ends."""
    n, size = DENSE_LIMIT + 1, 8 * formats._CHUNK
    rng = np.random.default_rng(7)
    # an arc line and its LF average about 10 characters: these fill 3.4 slices
    ends = rng.integers(1, n + 1, size=(size // 3, 2)).tolist()
    arcs = [f"{s} {d} {w}" for (s, d), w in zip(ends, rng.integers(1, 20, len(ends)).tolist())]
    starts = np.cumsum([0] + [len(arc) + 1 for arc in arcs])

    def line_at(offset: float) -> int:
        """The first arc line that starts at or past ``offset`` LF-ended characters."""
        return int(np.searchsorted(starts, offset))

    for i in range(line_at(1.125 * size), line_at(1.875 * size), 997):
        arcs[i] = arcs[i].rsplit(" ", 1)[0] + " 2.5"
        arcs[i + 1] = "% a comment"
    if bad_endpoint:
        arcs[line_at(2.5 * size)] = f"1 {n + 1} 3"
    tail = line_at(3.125 * size)
    arcs[tail] = "  % tail"
    head = [f"*Vertices {n}"] + [f'{i} "J{i}"' for i in range(1, n + 1)] + ["*Arcs"]
    crlf, lf = "\r\n".join(arcs[: line_at(size)]), "\n".join(arcs[line_at(size) : tail + 50])
    return "\n".join(head) + "\n" + crlf + "\r\n" + lf + "\n"


def test_chunks_of_both_kinds_match_reference_at_default_size():
    # a plain stretch longer than a slice before the tail comment
    plain = "1 2 3\n" * (2 * formats._CHUNK)
    text = mixed_chunks_text().replace("\n  % tail\n", "\n" + plain + "  % tail\n")
    expected = ref.read_pajek(text)
    with mock.patch.object(formats, "_arc_lines", wraps=formats._arc_lines) as per_line:
        z = read_pajek(text)
    # the per-line route reads exactly the slices that hold a decimal weight
    # or a comment, one slice a call, each from its own first line number;
    # the plain slices before and between them are read in bulk
    lines = text.splitlines()
    odd = {i for i, line in enumerate(lines, 1) if "." in line or "%" in line}
    read = set()
    for call in per_line.call_args_list:
        part, first = call.args[:2]
        assert part == lines[first - 1 : first - 1 + len(part)]
        assert odd & set(range(first, first + len(part)))
        # a slice ends at the first LF past 8 * _CHUNK characters
        assert len("\n".join(part)) < 8 * formats._CHUNK + 20
        read.update(range(first, first + len(part)))
    assert odd <= read
    tail = max(odd)
    assert min(read) > DENSE_LIMIT + 4 and not read >= set(range(max(odd - {tail}), tail))
    assert z.is_sparse and z.labels == expected.labels
    for part in ("indptr", "indices", "data"):
        assert getattr(z.entries, part).tobytes() == getattr(expected.entries, part).tobytes()


def test_endpoint_past_n_in_plain_chunk_after_per_line_chunk():
    text = mixed_chunks_text(bad_endpoint=True)
    with pytest.raises(ParseError) as expected:
        ref.read_pajek(text)
    assert "arc endpoint outside" in str(expected.value)
    bad = f"1 {DENSE_LIMIT + 2} 3\n"
    plain_calls, bulk = [], formats._plain_arcs

    def plain_arcs(part, n):
        arcs = bulk(part, n)
        plain_calls.append((part, arcs))
        return arcs

    with mock.patch.object(formats, "_plain_arcs", plain_arcs), mock.patch.object(
        formats, "_arc_lines", wraps=formats._arc_lines
    ) as per_line, pytest.raises(ParseError) as got:
        read_pajek(text)
    assert str(got.value) == str(expected.value)
    # slices: plain, per-line (decimals and comments), then the plain slice
    # that holds the bad line, which the bulk route refuses, so the per-line
    # read of that slice alone raises the error
    assert [arcs is None for _part, arcs in plain_calls] == [False, True, True]
    assert "." not in plain_calls[2][0] and "%" not in plain_calls[2][0]
    assert bad in plain_calls[2][0] and bad not in plain_calls[1][0]
    assert [call.args[0] for call in per_line.call_args_list] == [
        part.splitlines() for part, _arcs in plain_calls[1:]
    ]


def test_reader_keeps_no_whole_file_token_list():
    plain = fields_text(30_000, seed=0)
    assert plain.count("\n") - 30_002 > 2 * formats._CHUNK
    commented_arcs = plain.replace("\n*Arcs\n", "\n*Arcs\n% note\n", 1)
    for text in (plain, commented_head_text(), commented_arcs):
        tracemalloc.start()
        try:
            z = read_pajek(text)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert z.is_sparse
        # one slice of tokens, the arc arrays and the matrix need about 5.5x;
        # a list of the file's lines took it to 11x (9.7x for the commented
        # head's copy read line by line whole, 8.35x for the commented arcs
        # read line by line from their first slice on), the line-by-line
        # reader needed 15.5x and a token list of the whole file needs 20x
        assert peak < 8 * len(text)


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


def test_csv_reader_holds_no_square_array():
    n = DENSE_LIMIT + 1
    rows = np.repeat(np.arange(n), 2)
    cols = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1).ravel()
    weights = np.tile([1.0, 2.0], n)
    # scipy.sparse is imported above, so its import is not traced with the read
    entries = sparse.csr_array((weights, (rows, cols)), shape=(n, n))
    z = CitationMatrix(tuple(f"J{i}" for i in range(n)), entries)
    text = write_csv_matrix(z)
    tracemalloc.start()
    try:
        got = read_csv_matrix(text)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.is_sparse and got == z
    # the records' cell pointers alone take 8 bytes a cell; an n x n float64
    # array, or a copy of the text at four bytes a character, goes past 12
    assert peak < 12 * n * n
