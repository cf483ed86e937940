"""Strong component extraction tests.

An arc runs from the citing journal to the cited one, i.e. Z[i][j] > 0 is an
arc j -> i, so mutual reachability means mutual citation paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from pwrkit import (
    CitationMatrix,
    ContractError,
    extract_subgraph,
    grand_total,
    largest_strong_component,
    nonzero_entries,
    strongly_connected_components,
)

from .conftest import build


def members(result):
    return [set(comp.indices) for comp in result.components]


def test_single_node():
    result = strongly_connected_components(build("A", [[0]]))
    assert members(result) == [{0}]
    assert result.component_of == (0,)


def test_self_loop_does_not_merge_anything():
    z = build("A B", [[5, 0], [0, 0]])
    assert members(strongly_connected_components(z)) == [{0}, {1}]


def test_mutual_citation_forms_one_component():
    z = build("A B", [[0, 1], [1, 0]])
    assert members(strongly_connected_components(z)) == [{0, 1}]


def test_one_way_citation_stays_separate():
    z = build("A B", [[0, 1], [0, 0]])
    result = strongly_connected_components(z)
    assert members(result) == [{0}, {1}]
    assert result.sizes() == (1, 1)


def test_classic_three_component_digraph():
    # 0<->1 cycle, 2<->3 cycle, 4 hangs off with one-way arcs to both
    z = build(
        "A B C D E",
        [
            [0, 1, 0, 0, 1],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 1, 1],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0],
        ],
    )
    result = strongly_connected_components(z)
    assert members(result) == [{0, 1}, {2, 3}, {4}]
    assert result.component_of == (0, 0, 1, 1, 2)


def test_components_ordered_by_smallest_member():
    # the cycle on high indices must come after the low singleton
    z = build("A B C", [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    result = strongly_connected_components(z)
    assert members(result) == [{0}, {1, 2}]
    assert [comp.labels for comp in result.components] == [("A",), ("B", "C")]


def test_component_members_are_sorted():
    z = build("A B C", [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    result = strongly_connected_components(z)
    comp = next(c for c in result.components if len(c) == 2)
    assert comp.indices == (0, 2)


def test_largest_strong_component_extracts_subgraph():
    z = build(
        "A B C D",
        [
            [0, 1, 0, 0],
            [1, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 0],
        ],
    )
    sub = largest_strong_component(z)
    assert sub.labels == ("A", "B", "C")
    assert sub == extract_subgraph(z, [0, 1, 2])


def test_largest_tie_goes_to_smallest_first_node():
    # two disjoint 2-cycles of equal size
    z = build(
        "A B C D",
        [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
    )
    assert largest_strong_component(z).labels == ("A", "B")


def test_network_without_vertices_has_no_largest_component():
    z = CitationMatrix((), np.zeros((0, 0)))
    assert strongly_connected_components(z).components == ()
    with pytest.raises(ContractError, match="^matrix has no nodes; there is no largest component"):
        largest_strong_component(z)


def test_long_path_needs_no_recursion():
    # a 5000-node directed path is 5000 singleton components; a recursive
    # implementation would blow the interpreter stack here
    n = 5000
    rows = np.arange(n - 1)
    mat = sparse.coo_array((np.ones(n - 1), (rows, rows + 1)), shape=(n, n)).tocsr()
    z = CitationMatrix(tuple(f"J{i}" for i in range(n)), mat)
    result = strongly_connected_components(z)
    assert len(result.components) == n
    assert result.sizes() == (1,) * n


def test_big_cycle_is_one_component():
    n = 2000
    rows = np.arange(n)
    cols = (rows + 1) % n
    mat = sparse.coo_array((np.ones(n), (rows, cols)), shape=(n, n)).tocsr()
    z = CitationMatrix(tuple(f"J{i}" for i in range(n)), mat)
    result = strongly_connected_components(z)
    assert len(result.components) == 1
    assert largest_strong_component(z).n == n


def test_partition_covers_all_nodes_once():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        dense = (rng.random((n, n)) < 0.3) * 1.0
        z = CitationMatrix(tuple(f"J{i}" for i in range(n)), dense)
        result = strongly_connected_components(z)
        seen = [i for comp in result.components for i in comp.indices]
        assert sorted(seen) == list(range(n))
        for comp_idx, comp in enumerate(result.components):
            for node in comp.indices:
                assert result.component_of[node] == comp_idx


def test_fixture_is_one_strong_component(journals):
    result = strongly_connected_components(journals)
    assert len(result.components) == 1
    assert largest_strong_component(journals) == journals
    assert grand_total(largest_strong_component(journals)) == grand_total(journals)


def assert_matches_networkx(z):
    """Components, labelling and largest subgraph agree with networkx."""
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    graph.add_nodes_from(range(z.n))
    graph.add_edges_from((j, i) for i, j, _w in nonzero_entries(z))
    # disjoint sorted lists sort by their smallest member
    expected = sorted(sorted(c) for c in nx.strongly_connected_components(graph))
    result = strongly_connected_components(z)
    assert [list(c.indices) for c in result.components] == expected
    component_of = [0] * z.n
    for comp_idx, comp in enumerate(expected):
        for node in comp:
            component_of[node] = comp_idx
    assert result.component_of == tuple(component_of)
    assert largest_strong_component(z) == extract_subgraph(z, max(expected, key=len))


@st.composite
def arc_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    node = st.integers(min_value=0, max_value=n - 1)
    # arcs may repeat and may be self-loops
    arcs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    dense = np.zeros((n, n))
    for i, j in arcs:
        dense[i, j] += 1.0
    return CitationMatrix(tuple(f"J{i}" for i in range(n)), dense)


@settings(max_examples=150, deadline=None)
@given(arc_matrices())
def test_dense_components_match_networkx(z):
    assert_matches_networkx(z)


def test_sparse_components_ignore_stored_zeros():
    # every arc is mirrored by a stored 0.0, which must not count as an arc
    n = 1500
    rng = np.random.default_rng(11)
    rows = rng.integers(0, n, size=2 * n)
    cols = rng.integers(0, n, size=2 * n)
    mat = sparse.csr_array(
        (
            np.concatenate([np.ones(2 * n), np.zeros(2 * n)]),
            (np.concatenate([rows, cols]), np.concatenate([cols, rows])),
        ),
        shape=(n, n),
    )
    z = CitationMatrix(tuple(f"J{i}" for i in range(n)), mat)
    assert z.is_sparse and not (z.entries.data == 0.0).any()
    assert_matches_networkx(z)


def test_repr_of_thousands_of_components_stays_bounded():
    n = 3000
    z = CitationMatrix(tuple(f"J{i}" for i in range(n)), sparse.csr_array((n, n)))
    result = strongly_connected_components(z)
    assert len(result.components) == n
    text = repr(result)
    assert len(text) < 1024
    assert text.startswith(f"SccResult({n} components of {n} nodes") and "(and 2990 more)" in text
