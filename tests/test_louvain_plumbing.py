"""Louvain's CSR plumbing against the int64 versions it replaced.

``_adjacency`` and ``_aggregate`` build their arrays in narrow dtypes, a
chunk of edges or a block of rows at a time; the properties here hold every
``indptr``, ``indices``, ``data`` and assignment value to the one-shot
oracles in ``reference_decomposition`` byte for byte, on shuffled and
row-major edge orders, isolated nodes, both ``_aggregate`` routes, chunk
sizes that split rows and edges, and node counts on either side of the
uint16 key width.  The chunked edge check and modularity are held to their
one-shot forms the same way: the same ids, the same error for the first bad
edge, the same bits of Q.  Memory tests bound ``louvain_partition``'s traced
peak per level-0 entry and the whole chain's per kept similarity pair.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pwrkit import (
    UndirectedGraph,
    citing_cosine_matrix,
    decomposition,
    louvain_partition,
    threshold_graph,
)

from . import reference_decomposition as ref
from .test_decomposition_arrays import chunked, fielded_matrix

# louvain_partition's traced peak may not exceed PEAK_BYTES_PER_ENTRY bytes
# per level-0 entry (the n loops plus both ends of every edge) on the
# one-chunk graph below, nor SEVERAL_CHUNK_PEAK_BYTES_PER_ENTRY on the
# five-chunk graph.  The level-0 arrays hold 10 bytes per entry (a float64
# weight and a uint16 id); placing a chunk of edges adds 18 bytes per end of
# the chunk.  On the one-chunk graph, where every end is in the chunk, the
# int64 plumbing peaked near 74 bytes, the one-shot narrow plumbing near
# 26.3 and the chunked plumbing near 29.4.  On the five-chunk graph the
# one-shot plumbing peaked near 26.1 and the chunked one near 14.9, for
# which 17 leaves about 15%.
PEAK_BYTES_PER_ENTRY = 32
SEVERAL_CHUNK_PEAK_BYTES_PER_ENTRY = 17

# The traced peak of cosine -> threshold -> Louvain on the five-chunk matrix
# may not exceed this many bytes per kept similarity pair.  The one-shot Gram
# matrix, with int64 ids in every stage, peaked near 79; blockwise and
# narrow, the chain peaks near 42 (a kept pair is 12 bytes: two uint16 ids
# and a float64 weight).  The bound leaves about 20% over that.
CHAIN_PEAK_BYTES_PER_PAIR = 50

# Chunk sizes for the properties: ones that split every row and edge list,
# and the default.
CHUNK_SIZES = st.sampled_from([1, 2, 3, 7, decomposition._CHUNK])


def assert_same_arrays(got, want) -> None:
    """Equal values, compared as int64 bytes for integers and raw bytes for floats."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if b.dtype.kind == "f":
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        else:
            assert a.dtype.kind in "iu"
            assert a.astype(np.int64).tobytes() == b.astype(np.int64).tobytes()


def random_graph(n: int, edges: int, rng: np.random.Generator, order: str) -> UndirectedGraph:
    """Distinct random pairs with decimal weights; nodes left unpaired stay isolated."""
    if n < 2:
        pairs = np.zeros((0, 2), dtype=np.int64)
    else:
        ends = rng.integers(0, n, size=(edges, 2))
        ends = ends[ends[:, 0] != ends[:, 1]]
        pairs = np.unique(np.sort(ends, axis=1), axis=0)
    if order == "shuffled":
        pairs = pairs[rng.permutation(len(pairs))]
        flip = rng.random(len(pairs)) < 0.5
        pairs[flip] = pairs[flip][:, ::-1]
    weights = rng.choice([0.1, 0.2, 0.3, 0.7, 1.0, 2.0], size=len(pairs))
    labels = tuple(f"v{k}" for k in range(n))
    i, j = pairs[:, 0], pairs[:, 1]
    return UndirectedGraph(labels, decomposition.EdgeList(i, j, weights))


def communities(level_n: int, k: int, rng: np.random.Generator) -> list[int]:
    """Exactly k communities with scattered, arbitrary ids."""
    ids = rng.permutation(10 * k)[:k]
    return ids[rng.permutation(np.arange(level_n) % k)].tolist()


def collapse(new, old, k: int, rng: np.random.Generator):
    """One _aggregate step on both sides with the same communities."""
    community = communities(len(new[0]) - 1, k, rng)
    got = decomposition._aggregate(*new[:3], community, new[3])
    want = ref.aggregate(*old[:3], community, old[3])
    assert_same_arrays(got, want)
    return got, want


@st.composite
def graphs(draw):
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=60))
    edges = draw(st.sampled_from([0, 1, n // 2, 2 * n, n * n]))
    order = draw(st.sampled_from(["shuffled", "row-major"]))
    return random_graph(n, edges, rng, order), rng


def level_zero(graph: UndirectedGraph):
    e = graph.edges
    return (
        decomposition._adjacency(graph) + (np.arange(graph.n),),
        ref.adjacency(graph.n, e.i, e.j, e.w) + (np.arange(graph.n),),
    )


@settings(max_examples=150, deadline=None)
@given(graphs(), CHUNK_SIZES)
def test_adjacency_matches_int64_oracle(drawn, chunk):
    graph, _rng = drawn
    with chunked(chunk):
        new, old = level_zero(graph)
    assert_same_arrays(new[:3], old[:3])
    assert new[1].dtype == np.uint16


@settings(max_examples=150, deadline=None)
@given(graphs(), st.sampled_from(["binned", "sorted"]), CHUNK_SIZES, st.data())
def test_aggregate_matches_int64_oracle_on_both_routes(drawn, route, chunk, data):
    graph, rng = drawn
    with chunked(chunk):
        new, old = level_zero(graph)
        for _level in range(2):
            level_n, entries = len(new[0]) - 1, len(new[1])
            if route == "binned":
                # every row holds its loop entry, so k^2 <= level_n bins never
                # outnumber the entries
                k = data.draw(st.integers(min_value=1, max_value=math.isqrt(level_n)))
            else:
                # more bins than entries of any kind
                low = math.isqrt(entries) + 1
                if low > level_n:
                    break
                k = data.draw(st.integers(min_value=low, max_value=level_n))
            new, old = collapse(new, old, k, rng)


def test_plumbing_past_the_uint16_key_width():
    rng = np.random.default_rng(7)
    graph = random_graph(65_540, 3000, rng, "shuffled")
    new, old = level_zero(graph)
    assert_same_arrays(new[:3], old[:3])
    assert new[1].dtype == np.uint32
    # 200^2 bins fit uint16 keys (binned), 300^2 need uint32 (sorted), and
    # one community per node needs uint64 keys (sorted)
    for k in (200, 300, graph.n):
        collapse(new, old, k, rng)


def edge_check(graph_edges, n: int):
    """The library's check and the one-shot one: ids as int64, or the message."""
    i, j, w = (np.array(column) for column in zip(*graph_edges))
    try:
        e = decomposition._validated(decomposition.EdgeList(i, j, w), n)
        assert e.i.dtype == e.j.dtype == decomposition._node_dtype(n)
        got = (e.i.astype(np.int64).tolist(), e.j.astype(np.int64).tolist())
    except ValueError as exc:
        got = str(exc)
    try:
        low, high = ref.validated(i, j, w, n)
        want = (low.tolist(), high.tolist())
    except ValueError as exc:
        want = str(exc)
    return got, want


@st.composite
def edges_with_faults(draw):
    """Random edges, sorted or not, with a few out-of-range ends, self-loops,
    repeats and bad weights dropped in anywhere."""
    n = draw(st.integers(min_value=2, max_value=30))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            max_size=40,
            unique_by=lambda p: (min(p), max(p)),
        )
    )
    if draw(st.booleans()):
        pairs.sort(key=lambda p: (min(p), max(p)))
        pairs = [(min(p), max(p)) for p in pairs]
    edges = [(a, b, 1.5) for a, b in pairs]
    for _fault in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(edges)))
        kind = draw(st.sampled_from(["range", "loop", "repeat", "weight"]))
        if kind == "range":
            edge = (draw(st.sampled_from([-1, n, n + 5])), 0, 1.5)
        elif kind == "loop":
            node = draw(st.integers(0, n - 1))
            edge = (node, node, 1.5)
        elif kind == "repeat" and edges:
            a, b, _w = edges[draw(st.integers(0, len(edges) - 1))]
            edge = (b, a, 2.5)
        else:
            a, b = draw(st.sampled_from(pairs or [(0, 1)]))
            edge = (a, b, draw(st.sampled_from([0.0, -1.0, float("nan"), float("inf")])))
        edges.insert(at, edge)
    return n, edges


@settings(max_examples=300, deadline=None)
@given(edges_with_faults(), CHUNK_SIZES)
def test_chunked_edge_check_matches_the_one_shot_check(drawn, chunk):
    n, edges = drawn
    assume(edges)
    with chunked(chunk):
        got, want = edge_check(edges, n)
    assert got == want


VALID = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]


@pytest.mark.parametrize(
    "fault, later, message",
    [
        ((9, 0, 1.0), (0, 0, 1.0), "edge (9, 0) out of range for 8 nodes"),
        ((5, 5, 1.0), (9, 0, 1.0), "self-loop on node 5 is not supported"),
        ((2, 0, 1.0), (9, 0, 1.0), "duplicate edge (0, 2)"),
        ((2, 0, -1.0), (6, 6, 1.0), "duplicate edge (0, 2)"),
        ((4, 6, 0.0), (1, 0, 1.0), "edge (4, 6) must have positive finite weight"),
    ],
    ids=["out-of-range", "self-loop", "duplicate", "duplicate-and-weight", "weight"],
)
def test_edge_check_names_the_first_bad_edge_past_the_first_chunk(fault, later, message):
    # chunks of three put the fault in the fourth chunk and a second fault,
    # of another kind, after it
    edges = VALID + [(4, 5, 1.0), (4, 7, 1.0), (5, 6, 1.0), fault, (5, 7, 1.0), later]
    with chunked(3):
        got, want = edge_check(edges, 8)
    assert got == want == message


@st.composite
def assignments(draw):
    graph, rng = draw(graphs())
    k = draw(st.integers(min_value=1, max_value=graph.n))
    return graph, communities(graph.n, k, rng)


@settings(max_examples=150, deadline=None)
@given(assignments(), CHUNK_SIZES, st.sampled_from([0.0, 1.0, 1.7]))
def test_chunked_modularity_has_the_bits_of_one_bincount(drawn, chunk, resolution):
    graph, assignment = drawn
    assume(len(graph.edges))
    e = graph.edges
    i, j = e.i.astype(np.int64), e.j.astype(np.int64)
    with chunked(chunk):
        q = decomposition.modularity(graph, assignment, resolution)
    assert repr(q) == repr(ref.bincount_modularity(graph.n, i, j, e.w, assignment, resolution))


def one_chunk_matrix():
    """34k kept similarity pairs (one default chunk of edges), 69k level-0 entries."""
    return fielded_matrix(2000, fields=10, per_column=6, seed=0)


def several_chunk_matrix():
    """264k kept similarity pairs (five default chunks of edges), 532k level-0 entries."""
    return fielded_matrix(4000, fields=4, per_column=12, seed=0)


def louvain_peak_per_entry(z) -> float:
    """louvain_partition's traced peak per level-0 entry on z's threshold graph."""
    graph = threshold_graph(citing_cosine_matrix(z), 0.01)
    entries = graph.n + 2 * len(graph.edges)
    tracemalloc.start()
    try:
        part = louvain_partition(graph)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert part.n_communities > 1
    return peak / entries


def test_louvain_peak_memory_is_a_small_multiple_of_the_entries():
    assert louvain_peak_per_entry(one_chunk_matrix()) < PEAK_BYTES_PER_ENTRY


def test_louvain_peak_memory_per_entry_is_lower_on_a_graph_of_several_chunks():
    peak = louvain_peak_per_entry(several_chunk_matrix())
    assert peak < SEVERAL_CHUNK_PEAK_BYTES_PER_ENTRY


def test_decompose_chain_peak_memory_is_a_small_multiple_of_the_kept_pairs():
    z = several_chunk_matrix()
    tracemalloc.start()
    try:
        graph = threshold_graph(citing_cosine_matrix(z), 0.01)
        part = louvain_partition(graph)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert part.n_communities > 1
    assert peak < CHAIN_PEAK_BYTES_PER_PAIR * len(graph.edges)
