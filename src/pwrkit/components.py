"""Strongly connected components of a citation matrix.

A positive entry ``Z[i][j]`` is read as an arc from citing journal ``j`` to
cited journal ``i``; self-loops do not affect reachability.  Components come
from :func:`scipy.sparse.csgraph.connected_components` (no recursion, so deep
graphs are safe) and are reported in a deterministic order: sorted by the
smallest node index they contain, members ascending.  A graph and its
transpose have the same strong components, so the matrix is read as stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import ContractError
from .matrix import CitationMatrix, NodeSet, bounded_list, extract_subgraph


@dataclass(frozen=True)
class SccResult:
    """Partition of all nodes into strongly connected components."""

    components: tuple[NodeSet, ...]
    component_of: tuple[int, ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components)

    def __repr__(self) -> str:
        count = len(self.components)
        sizes = bounded_list(map(len, self.components), count)
        return f"SccResult({count} components of {len(self.component_of)} nodes, sizes {sizes})"


def _component_ids(z: CitationMatrix) -> np.ndarray:
    """Component id per node; ids ascend with each component's smallest member."""
    # imported here: csgraph pulls in scipy.linalg, a start-up cost only scc needs
    from scipy.sparse.csgraph import connected_components

    # csgraph counts a stored zero as an arc, and a matrix stores none
    _count, raw = connected_components(z.entries, directed=True, connection="strong")
    # raw ids are 0..count-1; first[c] is the smallest member of raw component c
    _ids, first = np.unique(raw, return_index=True)
    return np.argsort(np.argsort(first))[raw]


def strongly_connected_components(z: CitationMatrix) -> SccResult:
    """Strong components of the citing-to-cited arc graph."""
    ids = _component_ids(z)
    members = np.argsort(ids, kind="stable")
    # splitting at every cumulative size leaves one empty tail to drop
    groups = np.split(members, np.cumsum(np.bincount(ids)))[:-1]
    components = tuple(NodeSet(z.labels, group.tolist()) for group in groups)
    return SccResult(components, tuple(ids.tolist()))


def largest_strong_component(z: CitationMatrix) -> CitationMatrix:
    """Subgraph induced by the largest component.

    Size ties go to the component containing the smallest node index, which
    is the first one in the deterministic component order.
    """
    if z.n == 0:
        raise ContractError("matrix has no nodes; there is no largest component")
    ids = _component_ids(z)
    # argmax keeps the first maximum, the lowest id, so ties resolve as documented.
    best = np.argmax(np.bincount(ids))
    return extract_subgraph(z, np.flatnonzero(ids == best).tolist())
