"""Similarity, clustering, and subset selection tests."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from pwrkit import (
    CitationMatrix,
    ContractError,
    Partition,
    SimilarityMatrix,
    UndirectedGraph,
    citing_cosine_matrix,
    citing_threshold_subset,
    decomposition,
    extract_subgraph,
    louvain_partition,
    modularity,
    threshold_graph,
    union_subset,
)
from pwrkit.matrix import DENSE_LIMIT

from .conftest import build


def ring(labels, pairs):
    return UndirectedGraph(tuple(labels.split()), tuple((i, j, 1.0) for i, j in pairs))


TRIANGLE_PAIRS = [(0, 1), (0, 2), (1, 2)]
TWO_TRIANGLES = ring("a b c d e f", TRIANGLE_PAIRS + [(3, 4), (3, 5), (4, 5)])


class TestSimilarityMatrix:
    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            SimilarityMatrix(("A", "B"), [[1.0, 0.2], [0.3, 1.0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SimilarityMatrix(("A", "B"), [[1.0, 1.2], [1.2, 1.0]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            SimilarityMatrix(("A", "B"), np.zeros((3, 3)))

    def test_pairs_hold_narrow_node_ids(self):
        values = [[1.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]]
        sims = SimilarityMatrix(("A", "B", "C"), values)
        assert sims.pairs.i.dtype == sims.pairs.j.dtype == decomposition._node_dtype(3)
        assert sims.pairs == ((0, 1, 0.5), (1, 2, 0.2))


class TestCitingCosine:
    def test_identical_columns_score_one(self):
        z = build("A B", [[1, 1], [1, 1]])
        sims = citing_cosine_matrix(z)
        np.testing.assert_allclose(sims.values, np.ones((2, 2)), rtol=1e-12)
        # the diagonal is pinned to exactly 1 for nonzero columns
        assert sims.values[0, 0] == 1.0 and sims.values[1, 1] == 1.0

    def test_orthogonal_columns_score_zero(self):
        z = build("A B", [[0, 1], [1, 0]])
        sims = citing_cosine_matrix(z)
        assert sims.values[0, 1] == 0.0
        assert sims.values[0, 0] == 1.0

    def test_zero_column_scores_zero_even_against_itself(self):
        z = build("A B", [[0, 1], [0, 1]])
        sims = citing_cosine_matrix(z)
        assert sims.values[0, 0] == 0.0
        assert sims.values[0, 1] == 0.0
        assert sims.values[1, 1] == 1.0

    def test_hand_computed_pair(self):
        # columns (3, 4) and (4, 3): cos = 24 / 25
        z = build("A B", [[3, 4], [4, 3]])
        sims = citing_cosine_matrix(z)
        assert sims.values[0, 1] == pytest.approx(0.96, abs=1e-12)

    def test_diagonal_policy_changes_columns(self):
        z = build("A B", [[5, 1], [1, 5]])
        keep = citing_cosine_matrix(z)
        drop = citing_cosine_matrix(z, "exclude")
        # with the diagonal zeroed the columns become orthogonal
        assert drop.values[0, 1] == 0.0
        assert keep.values[0, 1] > 0.3

    def test_result_is_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        z = CitationMatrix(
            tuple(f"J{i}" for i in range(9)), rng.integers(0, 30, size=(9, 9)).astype(float)
        )
        sims = citing_cosine_matrix(z)
        assert np.array_equal(sims.values, sims.values.T)

    def test_dense_values_are_built_on_first_read(self):
        rng = np.random.default_rng(5)
        z = CitationMatrix(
            tuple(f"J{i}" for i in range(6)), rng.integers(0, 4, size=(6, 6)).astype(float)
        )
        sims = citing_cosine_matrix(z)
        assert sims._values is None
        values = sims.values
        assert values is sims.values and not values.flags.writeable
        for i, j, s in sims.pairs:
            assert i < j and values[i, j] == s == values[j, i] and s > 0.0

    def test_overflowing_gram_is_rejected(self):
        z = build("A B", [[1e200, 1e200], [1e200, 1e200]])
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            citing_cosine_matrix(z)

    def test_fixture_similarity_value(self, journals):
        sims = citing_cosine_matrix(journals)
        i = journals.index_of("J INFORMETR")
        j = journals.index_of("SCIENTOMETRICS")
        assert sims.values[i, j] == pytest.approx(0.94157, abs=5e-5)


class TestThresholdGraph:
    def test_strict_inequality(self):
        sims = SimilarityMatrix(("A", "B"), [[1.0, 0.5], [0.5, 1.0]])
        assert threshold_graph(sims, 0.5).edges == ()
        assert threshold_graph(sims, 0.49).edges == ((0, 1, 0.5),)

    def test_rejects_negative_threshold(self):
        sims = SimilarityMatrix(("A",), [[1.0]])
        with pytest.raises(ValueError, match=">= 0"):
            threshold_graph(sims, -0.1)

    def test_ignores_diagonal(self):
        sims = SimilarityMatrix(("A", "B"), [[1.0, 0.0], [0.0, 1.0]])
        assert threshold_graph(sims, 0.01).edges == ()

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_rejects_non_finite_threshold(self, tau):
        sims = SimilarityMatrix(("A", "B"), [[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            threshold_graph(sims, tau)

    def test_edges_come_in_row_major_order(self):
        sims = SimilarityMatrix(
            ("A", "B", "C"), [[1.0, 0.2, 0.7], [0.2, 1.0, 0.4], [0.7, 0.4, 1.0]]
        )
        assert threshold_graph(sims, 0.1).edges == ((0, 1, 0.2), (0, 2, 0.7), (1, 2, 0.4))


class TestUndirectedGraph:
    def test_normalizes_edge_orientation(self):
        g = UndirectedGraph(("a", "b"), ((1, 0, 2.0),))
        assert g.edges == ((0, 1, 2.0),)
        assert g.total_weight == 2.0

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            UndirectedGraph(("a",), ((0, 0, 1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            UndirectedGraph(("a", "b"), ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            UndirectedGraph(("a", "b"), ((0, 1, 0.0),))

    @pytest.mark.parametrize(
        "edges, message",
        [
            # the first bad edge in input order decides, whatever its fault
            (((0, 1, 1.0), (1, 0, 1.0), (0, 5, 1.0)), "duplicate edge (0, 1)"),
            (((0, 5, 1.0), (0, 1, 1.0), (1, 0, 1.0)), "edge (0, 5) out of range for 3 nodes"),
            (((2, -1, 1.0), (1, 1, 1.0)), "edge (2, -1) out of range for 3 nodes"),
            (((0, 1, 1.0), (2, 2, 1.0), (0, 1, 1.0)), "self-loop on node 2 is not supported"),
            (((2, 1, 0.0), (0, 1, 1.0), (1, 0, 1.0)), "edge (1, 2) must have positive finite weight"),
            (((0, 1, 1.0), (2, 0, float("nan")), (0, 9, 1.0)), "edge (0, 2) must have positive finite weight"),
            # an edge is reported by its first failing check
            (((0, 1, 1.0), (1, 0, -1.0)), "duplicate edge (0, 1)"),
            (((0, 1, 1.0), (7, 7, -1.0)), "edge (7, 7) out of range for 3 nodes"),
            (((0, 1, 1.0), (2**70, 1, 1.0)), f"edge ({2**70}, 1) out of range for 3 nodes"),
        ],
    )
    def test_first_bad_edge_message(self, edges, message):
        with pytest.raises(ValueError) as err:
            UndirectedGraph(("a", "b", "c"), edges)
        assert str(err.value) == message

    def test_edges_view_behaves_like_a_tuple(self):
        g = UndirectedGraph(("a", "b", "c"), ((2, 0, 1.5), (1, 2, 3)))
        assert list(g.edges) == [(0, 2, 1.5), (1, 2, 3.0)]
        assert g.edges[1] == (1, 2, 3.0) and g.edges[-1] == (1, 2, 3.0)
        assert g.edges[:1] == ((0, 2, 1.5),)
        assert len(g.edges) == 2 and bool(g.edges)
        assert g == UndirectedGraph(("a", "b", "c"), [(0, 2, 1.5), (2, 1, 3.0)])
        assert hash(g) == hash(UndirectedGraph(("a", "b", "c"), g.edges))
        assert isinstance(g.edges[0][0], int) and isinstance(g.edges[0][2], float)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=12),
        st.one_of(st.none(), st.integers(min_value=-15, max_value=15)),
        st.one_of(st.none(), st.integers(min_value=-15, max_value=15)),
        st.one_of(st.none(), st.integers(min_value=-4, max_value=4).filter(bool)),
    )
    def test_edge_slices_match_tuple_slices(self, n, start, stop, step):
        edges = [(k, k + 1 + k % 3, 0.5 + k) for k in range(n)]
        labels = tuple(f"v{k}" for k in range(n + 3))
        view = UndirectedGraph(labels, edges).edges
        s = slice(start, stop, step)
        got = view[s]
        assert got == tuple(edges)[s]
        assert all(type(i) is int and type(j) is int and type(w) is float for i, j, w in got)

    def test_edge_slice_converts_only_the_slice(self, monkeypatch):
        g = UndirectedGraph(("a", "b", "c"), ((2, 0, 1.5), (1, 2, 3.0)))
        monkeypatch.setattr(type(g.edges), "__iter__", None)
        assert g.edges[1:] == ((1, 2, 3.0),)


class TestModularity:
    def test_two_triangles_split_scores_half(self):
        assert modularity(TWO_TRIANGLES, [0, 0, 0, 1, 1, 1]) == 0.5

    def test_merged_triangles_score_zero(self):
        assert modularity(TWO_TRIANGLES, [0, 0, 0, 0, 0, 0]) == pytest.approx(0.0, abs=1e-15)

    def test_accepts_mapping_and_partition(self):
        assignment = {i: i // 3 for i in range(6)}
        assert modularity(TWO_TRIANGLES, assignment) == 0.5
        part = Partition(TWO_TRIANGLES.labels, (0, 0, 0, 1, 1, 1), 0.5)
        assert modularity(TWO_TRIANGLES, part) == 0.5

    def test_rejects_edgeless_graph(self):
        g = UndirectedGraph(("a", "b"), ())
        with pytest.raises(ValueError, match="no edges"):
            modularity(g, [0, 0])

    def test_rejects_incomplete_assignment(self):
        with pytest.raises(ValueError, match="covers"):
            modularity(TWO_TRIANGLES, [0, 0, 0])

    @pytest.mark.parametrize("resolution", [float("nan"), float("inf"), -0.5])
    def test_rejects_bad_resolution(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            modularity(TWO_TRIANGLES, [0, 0, 0, 1, 1, 1], resolution=resolution)

    def test_resolution_scales_null_model(self):
        # at resolution 2 the degree term doubles: 1 - 2 * 0.5 = 0
        assert modularity(TWO_TRIANGLES, [0, 0, 0, 1, 1, 1], resolution=2.0) == pytest.approx(
            0.0, abs=1e-15
        )


# a path of three equal edges: m past double range, and m finite with the
# degrees, which sum to 2m, past it
PATH_WEIGHTS = [
    pytest.param(1e308, math.inf, id="m-inf"),
    pytest.param(4e307, 4e307 + 4e307 + 4e307, id="2m-inf"),
]


@pytest.mark.parametrize(("w", "m"), PATH_WEIGHTS)
def test_weights_summing_past_double_range_are_refused(w, m):
    g = UndirectedGraph(tuple("abcd"), [(0, 1, w), (1, 2, w), (2, 3, w)])
    assert g.total_weight == m
    for call in (lambda: modularity(g, [0, 0, 1, 1]), lambda: louvain_partition(g)):
        with pytest.raises(ContractError, match="total edge weight overflows double range"):
            call()


class TestPartition:
    def test_rejects_gapped_ids(self):
        with pytest.raises(ValueError, match="contiguous"):
            Partition(("a", "b"), (0, 2), 0.0)

    def test_communities_grouping(self):
        part = Partition(("a", "b", "c"), (1, 0, 1), 0.0)
        assert part.n_communities == 2
        assert part.communities() == ((1,), (0, 2))


class TestLouvain:
    def test_two_triangles(self):
        part = louvain_partition(TWO_TRIANGLES)
        assert part.community_of == (0, 0, 0, 1, 1, 1)
        assert part.q == 0.5

    def test_single_clique(self):
        part = louvain_partition(ring("a b c d", [(i, j) for i in range(4) for j in range(i + 1, 4)]))
        assert part.community_of == (0, 0, 0, 0)

    def test_complete_bipartite_pairs_merge(self):
        # K2,2 has no better-than-zero split, and zero-gain ties resolve to
        # the lowest community id, pulling everything together
        part = louvain_partition(ring("a b c d", [(0, 2), (0, 3), (1, 2), (1, 3)]))
        assert part.community_of == (0, 0, 0, 0)
        assert part.q == pytest.approx(0.0, abs=1e-15)

    def test_edgeless_graph_is_singletons(self):
        part = louvain_partition(UndirectedGraph(("a", "b", "c"), ()))
        assert part.community_of == (0, 1, 2)
        assert part.q == 0.0

    def test_weighted_blocks(self):
        g = UndirectedGraph(
            tuple("abcde"),
            ((0, 1, 5.0), (0, 2, 5.0), (1, 2, 5.0), (3, 4, 5.0), (0, 3, 0.1)),
        )
        part = louvain_partition(g)
        assert part.community_of == (0, 0, 0, 1, 1)

    def test_high_resolution_prefers_singletons(self):
        part = louvain_partition(TWO_TRIANGLES, resolution=100.0)
        assert part.n_communities == 6
        assert part.q < 0.0

    def test_reported_q_matches_modularity_operation(self):
        part = louvain_partition(TWO_TRIANGLES, resolution=1.3)
        assert part.q == pytest.approx(
            modularity(TWO_TRIANGLES, part.community_of, resolution=1.3), abs=1e-15
        )

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(11)
        n = 14
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    edges.append((i, j, float(rng.integers(1, 5))))
        g = UndirectedGraph(tuple(f"v{i}" for i in range(n)), tuple(edges))
        first = louvain_partition(g)
        for _ in range(3):
            again = louvain_partition(g)
            assert again.community_of == first.community_of
            assert again.q == first.q

    @pytest.mark.parametrize("resolution", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_resolution(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            louvain_partition(TWO_TRIANGLES, resolution=resolution)

    def test_zero_resolution_merges_connected_nodes(self):
        assert louvain_partition(TWO_TRIANGLES, resolution=0.0).n_communities == 2

    def test_sweep_order_must_be_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            louvain_partition(TWO_TRIANGLES, sweep_order=[0, 1, 2, 3, 4, 4])

    def test_sweep_order_override_is_accepted(self):
        part = louvain_partition(TWO_TRIANGLES, sweep_order=[5, 4, 3, 2, 1, 0])
        assert part.q == 0.5

    def test_community_ids_follow_smallest_member(self):
        # the triangle on high indices is visited first under degree order,
        # but ids are renumbered by the smallest original node afterwards
        g = ring("a b c d e f", [(3, 4), (3, 5), (4, 5)] + TRIANGLE_PAIRS)
        part = louvain_partition(g)
        assert part.community_of == (0, 0, 0, 1, 1, 1)


class TestCitingThresholdSubset:
    def test_selects_by_row_threshold(self):
        # row of the target holds the citations it receives, per citing node
        z = build(
            "A B C",
            [
                [2, 7, 0],
                [0, 0, 0],
                [1, 1, 1],
            ],
        )
        picked = citing_threshold_subset(z, "A", 2.0)
        assert picked.labels == ("A", "B")

    def test_target_included_via_self_citations(self):
        z = build("A B", [[5, 0], [0, 0]])
        assert citing_threshold_subset(z, "A", 3.0).labels == ("A",)

    def test_unknown_target(self):
        z = build("A B", [[0, 0], [0, 0]])
        with pytest.raises(KeyError, match="NOPE"):
            citing_threshold_subset(z, "NOPE", 1.0)

    def test_empty_result_is_allowed(self):
        z = build("A B", [[0, 1], [0, 0]])
        assert len(citing_threshold_subset(z, "A", 99.0)) == 0

    def test_nan_threshold_rejected_and_infinite_one_is_empty(self):
        z = build("A B", [[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="min_count must be a number, got nan"):
            citing_threshold_subset(z, "A", float("nan"))
        assert len(citing_threshold_subset(z, "A", float("inf"))) == 0
        assert citing_threshold_subset(z, "A", -float("inf")).labels == ("A", "B")

    def test_extracts_consistent_subgraph(self, journals):
        picked = citing_threshold_subset(journals, "JASIST", 150.0)
        sub = extract_subgraph(journals, picked)
        assert sub.labels == picked.labels
        row = journals.to_dense()[journals.index_of("JASIST")]
        expected = [journals.labels[j] for j in range(journals.n) if row[j] >= 150.0]
        assert list(picked.labels) == expected


class TestUnionSubset:
    def test_keeps_first_order_then_new(self):
        z = build("A B C D", [[0] * 4] * 4)
        from pwrkit import NodeSet

        a = NodeSet.from_labels(z, ["C", "A"])
        b = NodeSet.from_labels(z, ["A", "D"])
        assert union_subset(a, b).labels == ("C", "A", "D")

    def test_rejects_different_parents(self):
        from pwrkit import NodeSet

        a = NodeSet(("A", "B"), (0,))
        b = NodeSet(("X", "Y"), (0,))
        with pytest.raises(ValueError, match="different matrices"):
            union_subset(a, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_raising_threshold_never_adds_edges(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    z = CitationMatrix(
        tuple(f"J{i}" for i in range(n)), rng.integers(0, 9, size=(n, n)).astype(float)
    )
    sims = citing_cosine_matrix(z)
    low = {(i, j) for i, j, _w in threshold_graph(sims, 0.2).edges}
    high = {(i, j) for i, j, _w in threshold_graph(sims, 0.6).edges}
    assert high <= low


@st.composite
def citation_matrices(draw):
    """A random dense or CSR citation matrix with integer or decimal weights."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    csr = draw(st.booleans())
    n = DENSE_LIMIT + draw(st.integers(1, 80)) if csr else draw(st.integers(1, 30))
    nnz = draw(st.sampled_from([0, n // 2, 3 * n]))
    if draw(st.booleans()):
        weights = rng.integers(1, 9, nnz).astype(float)
    else:
        weights = rng.choice([0.1, 0.3, 0.7, 1.3, 2.5], size=nnz)
    ends = (rng.integers(0, n, nnz), rng.integers(0, n, nnz))
    entries = sparse.csr_array((weights, ends), shape=(n, n))
    z = CitationMatrix(tuple(f"J{i}" for i in range(n)), entries if csr else entries.toarray())
    assert z.is_sparse == csr
    return z


@settings(max_examples=60, deadline=None)
@given(
    citation_matrices(),
    st.sampled_from(["include", "exclude"]),
    st.sampled_from([0.0, 0.01, 0.5, 1.0]),
)
def test_threshold_graph_edges_pass_the_edge_check_as_they_are(z, policy, tau):
    # threshold_graph does not check its edges; this pins why it need not
    graph = threshold_graph(citing_cosine_matrix(z, policy), tau)
    edges = graph.edges
    checked = decomposition._validated(edges, graph.n)
    assert edges.i.dtype == decomposition._node_dtype(z.n)
    for got, want in zip((edges.i, edges.j, edges.w), (checked.i, checked.j, checked.w)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_louvain_never_loses_to_singletons(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    edges = [
        (i, j, float(rng.integers(1, 6)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    g = UndirectedGraph(tuple(f"v{i}" for i in range(n)), tuple(edges))
    if not g.edges:
        assert louvain_partition(g).q == 0.0
        return
    singletons = modularity(g, list(range(n)))
    assert louvain_partition(g).q >= singletons - 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SimilarityMatrix(("A", "B"), [[1.0, np.nan], [np.nan, 1.0]]),
         "similarities must be finite"),
        (lambda: Partition(("a", "b"), (0,), 0.0), "community assignment must cover every node"),
        (lambda: modularity(TWO_TRIANGLES, {i: 0 for i in range(5)}),
         "partition is missing node 5"),
        (lambda: louvain_partition(UndirectedGraph((), ())), "graph must have at least one node"),
    ],
    ids=["similarity-nan", "partition-too-few-ids", "modularity-missing-node", "louvain-no-nodes"],
)
def test_malformed_input_is_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
