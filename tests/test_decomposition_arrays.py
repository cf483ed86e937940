"""The array-backed decomposition layer against plain references.

Differential tests hold the similarity, threshold, Louvain and modularity
routes to the dense and dict-based formulations in
``reference_decomposition`` bit for bit, on dense and CSR storage and with
the default and a tiny chunk size for the weight sums and the blockwise
Gram matrix, which is also held to the one-shot sparse product.  A memory guard
keeps the sparse route free of n x n arrays, and a networkx cross-check
ties modularity to an independent implementation.
"""

from __future__ import annotations

import builtins
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from pwrkit import (
    CitationMatrix,
    UndirectedGraph,
    citing_cosine_matrix,
    decomposition,
    louvain_partition,
    modularity,
    threshold_graph,
)
from pwrkit.matrix import DENSE_LIMIT

from . import reference_decomposition as ref

# Chunk size of the weight sums: the default, and one small enough that
# total weights and degrees are summed over several chunks.
CHUNKS = [
    pytest.param(decomposition._CHUNK, id="default"),
    pytest.param(4, id="small-chunk"),
]


def chunked(chunk: int):
    return mock.patch.object(decomposition, "_CHUNK", chunk)


@st.composite
def edge_lists(draw):
    """Shuffled, randomly oriented edges with few distinct weights.

    Integer weights make exact gain ties common; the decimal ones also make
    every float sum depend on its order.
    """
    n = draw(st.integers(min_value=1, max_value=40))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    weights = draw(st.sampled_from([(1.0, 2.0, 3.0), (0.1, 0.2, 0.3, 0.7)]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w = weights[rng.integers(len(weights))]
                edges.append((j, i, w) if rng.random() < 0.5 else (i, j, w))
    order = rng.permutation(len(edges))
    return n, [edges[k] for k in order]


def fielded_matrix(n: int, fields: int, per_column: int, seed: int) -> CitationMatrix:
    """Integer citations, 90% of them inside the citing journal's field."""
    rng = np.random.default_rng(seed)
    citing = np.repeat(np.arange(n), per_column)
    inside = rng.random(citing.size) < 0.9
    field = np.where(inside, citing % fields, rng.integers(0, fields, citing.size))
    cited = field + fields * rng.integers(0, n // fields, citing.size)
    weights = rng.integers(1, 6, citing.size).astype(float)
    entries = sparse.csr_array((weights, (cited, citing)), shape=(n, n))
    return CitationMatrix(tuple(f"J{i}" for i in range(n)), entries)


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=60, deadline=None)
@given(edge_lists(), st.sampled_from([0.0, 0.5, 1.0, 1.7]))
def test_louvain_matches_dict_reference(chunk, graph, resolution):
    n, edges = graph
    g = UndirectedGraph(tuple(f"v{i}" for i in range(n)), edges)
    with chunked(chunk):
        part = louvain_partition(g, resolution=resolution)
    community_of, q = ref.louvain(n, edges, resolution)
    assert part.community_of == community_of
    assert repr(part.q) == repr(q)
    if edges:
        assignment = list(community_of)
        assert repr(modularity(g, assignment, resolution)) == repr(
            ref.modularity(n, ref.normalized(edges), assignment, resolution)
        )


@pytest.mark.parametrize("chunk", CHUNKS)
def test_every_unit_weight_graph_up_to_six_nodes_matches(chunk):
    # unit weights tie almost every gain, so this pins the tie-breaking
    for n in range(2, 7):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        labels = tuple(f"v{i}" for i in range(n))
        for mask in range(0, 1 << len(pairs), 1 if n < 6 else 61):
            edges = [(i, j, 1.0) for bit, (i, j) in enumerate(pairs) if mask >> bit & 1]
            with chunked(chunk):
                part = louvain_partition(UndirectedGraph(labels, edges))
            assert (part.community_of, part.q) == ref.louvain(n, edges), (n, mask)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_weights_are_added_in_order_whatever_the_builtin_sum_does(chunk, monkeypatch):
    # math.fsum stands in for the compensated builtin sum() of Python 3.12 on,
    # which gives 1.5 plus 9 ulps here where in-order addition gives 1.5
    monkeypatch.setattr(builtins, "sum", lambda values, start=0: math.fsum(values) + start)
    weights = [1.0] + [1e-16] * 19 + [0.5]
    # a star: the hub's row holds every weight, in edge order
    edges = [(0, k, w) for k, w in enumerate(weights, start=1)]
    graph = UndirectedGraph(tuple(f"v{k}" for k in range(len(weights) + 1)), edges)
    with chunked(chunk):
        total = graph.total_weight
        indptr, _indices, data = decomposition._adjacency(graph)
        degree = decomposition._degrees(indptr, data)
    assert total.hex() == ref.in_order_sum(weights).hex() == (1.5).hex()
    assert [d.hex() for d in degree] == [w.hex() for w in [total, *weights]]


@settings(max_examples=60, deadline=None)
@given(
    edge_lists(),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_louvain_skips_isolated_nodes_with_the_bits_of_visiting_them(
    graph, isolated, seed, resolution
):
    # the reference visits every node; here isolated ids fall among the others
    n, edges = graph
    places = np.random.default_rng(seed).permutation(n + isolated)[:n].tolist()
    edges = [(places[i], places[j], w) for i, j, w in edges]
    g = UndirectedGraph(tuple(f"v{i}" for i in range(n + isolated)), edges)
    part = louvain_partition(g, resolution=resolution)
    community_of, q = ref.louvain(n + isolated, edges, resolution)
    assert part.community_of == community_of
    assert repr(part.q) == repr(q)


def test_louvain_sweeps_nodes_of_nonzero_degree_in_ascending_degree(monkeypatch):
    sweeps = []
    real = decomposition._local_moving

    def recording(indptr, indices, data, degree, sweep, *rest):
        sweeps.append((list(degree), list(sweep)))
        return real(indptr, indices, data, degree, sweep, *rest)

    monkeypatch.setattr(decomposition, "_local_moving", recording)
    # degrees 2, 3, 0, 2, 1, 0: nodes 2 and 5 are isolated, 0 and 3 tie
    edges = [(0, 1, 2.0), (1, 3, 1.0), (3, 4, 1.0)]
    louvain_partition(UndirectedGraph(tuple("abcdef"), edges))
    assert sweeps[0][1] == [4, 0, 3, 1]
    # the isolated nodes stay super-nodes of degree 0 on every later level
    assert len(sweeps) > 1
    for degree, sweep in sweeps:
        nonzero = [v for v in range(len(degree)) if degree[v] != 0.0]
        assert len(nonzero) < len(degree)
        assert sweep == sorted(nonzero, key=lambda v: (degree[v], v))


class CountedSweeps(list):
    """A sweep list that notes the recomputed-row count as each sweep starts."""

    def __init__(self, sweep, recomputed):
        super().__init__(sweep)
        self.recomputed, self.starts = recomputed, []

    def __iter__(self):
        self.starts.append(len(self.recomputed))
        return super().__iter__()


@pytest.mark.parametrize("resolution", [0.5, 1.0, 2.0])
def test_staying_nodes_reuse_unchanged_rows_with_the_bits_of_summing_them(
    monkeypatch, resolution
):
    # 300 nodes, 4,334 edges at the default threshold; level 0 takes 6-9 sweeps
    graph = threshold_graph(citing_cosine_matrix(fielded_matrix(300, 5, 6, seed=0)), 0.01)
    recomputed, levels = [], []
    real_moving, real_candidates = decomposition._local_moving, decomposition._candidates

    def moving(indptr, indices, data, degree, sweep, *rest):
        levels.append(CountedSweeps(sweep, recomputed))
        return real_moving(indptr, indices, data, degree, levels[-1], *rest)

    def candidates(comms, *rest):
        recomputed.append(len(comms))
        return real_candidates(comms, *rest)

    monkeypatch.setattr(decomposition, "_local_moving", moving)
    monkeypatch.setattr(decomposition, "_candidates", candidates)
    part = louvain_partition(graph, resolution=resolution)
    community_of, q = ref.louvain(graph.n, list(graph.edges), resolution)
    assert part.community_of == community_of
    assert repr(part.q) == repr(q)
    first = levels[0]
    assert len(first) == graph.n and len(first.starts) >= 3
    # the first sweep sums every row; the last, where nothing moves, reuses some
    assert first.starts[1] - first.starts[0] == graph.n
    last = (levels[1].starts[0] if len(levels) > 1 else len(recomputed)) - first.starts[-1]
    assert last < graph.n


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=40),
    st.sampled_from(["include", "exclude"]),
    st.sampled_from([0.0, 0.1, 0.5]),
)
def test_similarity_and_threshold_match_dense_reference(seed, n, policy, tau):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 6, size=(n, n)) * (rng.random((n, n)) < 0.3)
    z = CitationMatrix(tuple(f"J{i}" for i in range(n)), counts.astype(float))
    dense = z.to_dense()
    if policy == "exclude":
        np.fill_diagonal(dense, 0.0)
    expected = ref.dense_cosine(dense)
    sims = citing_cosine_matrix(z, policy)
    assert np.array_equal(sims.values, expected)
    assert list(threshold_graph(sims, tau).edges) == ref.threshold_edges(expected, tau)


@st.composite
def sparse_with_zero_columns(draw):
    """A CSR matrix past DENSE_LIMIT with decimal weights and runs of all-zero
    columns, and a block budget of a few products."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = DENSE_LIMIT + draw(st.integers(min_value=1, max_value=300))
    nnz = draw(st.sampled_from([0, n // 4, 3 * n, 12 * n]))
    rows, cols = rng.integers(0, n, nnz), rng.integers(0, n // 40 + 1, nnz) * 40
    cols += rng.integers(0, 31, nnz)  # columns 31..39 of every 40 stay empty
    weights = rng.choice([0.1, 0.2, 0.3, 0.7, 1.3, 2.5], size=nnz)
    entries = sparse.csr_array((weights, (rows, np.minimum(cols, n - 1))), shape=(n, n))
    return entries, draw(st.sampled_from([1, 5, 64, decomposition._CHUNK]))


@settings(max_examples=40, deadline=None)
@given(sparse_with_zero_columns())
def test_blockwise_gram_has_the_bits_of_the_one_shot_product(drawn):
    entries, chunk = drawn
    n = entries.shape[0]
    blocks = []
    row_blocks = decomposition._row_blocks

    def recorded(indptr, budget):
        made = list(row_blocks(indptr, budget))
        blocks.extend(made)
        return iter(made)

    with chunked(chunk), mock.patch.object(decomposition, "_row_blocks", recorded):
        sims = citing_cosine_matrix(CitationMatrix(tuple(map(str, range(n))), entries))
        got = decomposition._upper_gram(entries)
    rows, cols, dots, norms = want = ref.upper_gram(entries)
    for a, b in zip(got, want):
        assert a.astype(b.dtype).tobytes() == b.tobytes()
    assert got[0].dtype == got[1].dtype == decomposition._node_dtype(n)
    denom = norms[rows] * norms[cols]
    expected = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
    assert sims.pairs.w.tobytes() == expected.clip(0.0, 1.0).tobytes()
    assert sims.pairs.i.astype(np.int64).tobytes() == rows.astype(np.int64).tobytes()
    assert sims.pairs.j.astype(np.int64).tobytes() == cols.astype(np.int64).tobytes()
    # a budget of one product starts a block on each all-zero column that
    # follows a column with entries
    if chunk == 1 and entries.nnz:
        empty = np.flatnonzero(np.diff(entries.tocsc().indptr) == 0)
        assert set(empty.tolist()) & {a for a, _b in blocks}


@pytest.mark.parametrize("chunk", CHUNKS)
def test_csr_storage_matches_dense_reference(chunk):
    z = fielded_matrix(DENSE_LIMIT + 76, fields=11, per_column=6, seed=1)
    assert z.is_sparse
    expected = ref.dense_cosine(z.to_dense())
    sims = citing_cosine_matrix(z)
    graph = threshold_graph(sims, 0.1)
    edges = ref.threshold_edges(expected, 0.1)
    assert list(graph.edges) == edges
    with chunked(chunk):
        part = louvain_partition(graph)
    community_of, q = ref.louvain(z.n, edges)
    assert part.community_of == community_of
    assert repr(part.q) == repr(q)
    assert np.array_equal(sims.values, expected)


def test_sparse_route_allocates_no_square_array():
    n = 2000
    z = fielded_matrix(n, fields=20, per_column=3, seed=0)
    square_bytes = n * n * 8
    tracemalloc.start()
    try:
        graph = threshold_graph(citing_cosine_matrix(z), 0.05)
        part = louvain_partition(graph)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph.edges) > 0 and part.n_communities > 1
    assert peak < square_bytes / 4


def planted_graph(nx, seed: int, groups: int = 4, size: int = 25):
    g = nx.planted_partition_graph(groups, size, 0.5, 0.05, seed=seed)
    rng = np.random.default_rng(seed)
    for u, v in g.edges:
        g[u][v]["weight"] = float(rng.integers(1, 6))
    labels = tuple(f"v{i}" for i in range(g.number_of_nodes()))
    edges = tuple((u, v, d["weight"]) for u, v, d in g.edges(data=True))
    return g, UndirectedGraph(labels, edges)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("resolution", [0.5, 1.0, 1.5])
def test_modularity_and_quality_against_networkx(seed, resolution):
    nx = pytest.importorskip("networkx")
    community = nx.algorithms.community
    nx_graph, graph = planted_graph(nx, seed)
    part = louvain_partition(graph, resolution=resolution)
    groups = [set(members) for members in part.communities()]
    nx_q = community.modularity(nx_graph, groups, weight="weight", resolution=resolution)
    assert part.q == pytest.approx(nx_q, abs=1e-12)
    theirs = community.louvain_communities(
        nx_graph, weight="weight", resolution=resolution, seed=0
    )
    theirs_q = community.modularity(nx_graph, theirs, weight="weight", resolution=resolution)
    assert part.q >= theirs_q - 0.01
    assignment = [0] * graph.n
    for idx, members in enumerate(theirs):
        for node in members:
            assignment[node] = idx
    assert modularity(graph, assignment, resolution) == pytest.approx(theirs_q, abs=1e-12)
