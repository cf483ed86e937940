"""Louvain's CSR plumbing against the int64 versions it replaced.

``_adjacency`` and ``_aggregate`` build their arrays in narrow dtypes; the
properties here hold every ``indptr``, ``indices``, ``data`` and assignment
value to the oracles in ``reference_decomposition`` byte for byte, on
shuffled and row-major edge orders, isolated nodes, both ``_aggregate``
routes and node counts on either side of the uint16 key width.  A memory
test bounds ``louvain_partition``'s traced peak per level-0 entry.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pwrkit import (
    UndirectedGraph,
    citing_cosine_matrix,
    decomposition,
    louvain_partition,
    threshold_graph,
)

from . import reference_decomposition as ref
from .test_decomposition_arrays import fielded_matrix

# louvain_partition's traced peak may not exceed this many bytes per
# level-0 entry (the n loops plus both ends of every edge).  The int64
# plumbing peaked near 74 bytes on the graph below; one float64 weight per
# entry is 8.
PEAK_BYTES_PER_ENTRY = 32


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
@given(graphs())
def test_adjacency_matches_int64_oracle(drawn):
    graph, _rng = drawn
    new, old = level_zero(graph)
    assert_same_arrays(new[:3], old[:3])
    assert new[1].dtype == np.uint16


@settings(max_examples=150, deadline=None)
@given(graphs(), st.sampled_from(["binned", "sorted"]), st.data())
def test_aggregate_matches_int64_oracle_on_both_routes(drawn, route, data):
    graph, rng = drawn
    new, old = level_zero(graph)
    for _level in range(2):
        level_n, entries = len(new[0]) - 1, len(new[1])
        if route == "binned":
            # every row keeps its loop entry, so k^2 <= level_n bins never
            # outnumber the kept entries
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


def test_louvain_peak_memory_is_a_small_multiple_of_the_entries():
    z = fielded_matrix(2000, fields=10, per_column=6, seed=0)
    graph = threshold_graph(citing_cosine_matrix(z), 0.01)
    entries = graph.n + 2 * len(graph.edges)
    tracemalloc.start()
    try:
        part = louvain_partition(graph)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert part.n_communities > 1
    assert peak < PEAK_BYTES_PER_ENTRY * entries
