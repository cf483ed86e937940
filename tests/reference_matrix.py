"""Storage-forked matrix operations, kept as oracles for the one-route versions.

``from_arcs`` is the CSR route: a ``coo_array`` turned into CSR, whose sum of
repeated arcs runs in scipy's ``coo -> csr`` order.  The library sums the arcs
of a matrix of up to ``DENSE_LIMIT`` nodes into a dense array instead, and
must give the same bits wherever both orders add the same numbers: integer
weights, or no repeated arc.

``zero_diagonal`` and ``citing_threshold_subset`` fork on the storage: on
dense storage they copy the array and fill its diagonal or read the target
row; on CSR storage they rebuild from the off-diagonal arcs or densify the
target row.  The library takes one route on both storages, through the
nonzero arcs, and must give an equal matrix and the same node set.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from pwrkit.matrix import CitationMatrix, NodeSet


def from_arcs(labels, rows, cols, weights) -> CitationMatrix:
    entries = sparse.coo_array((weights, (rows, cols)), shape=(len(labels),) * 2)
    return CitationMatrix(labels, entries.tocsr())


def zero_diagonal(z: CitationMatrix) -> CitationMatrix:
    if z.is_sparse:
        coo = z.entries.tocoo()
        keep = coo.row != coo.col
        return from_arcs(z.labels, coo.row[keep], coo.col[keep], coo.data[keep])
    cleaned = z.to_dense()
    np.fill_diagonal(cleaned, 0.0)
    return CitationMatrix(z.labels, cleaned)


def citing_threshold_subset(z: CitationMatrix, target: str, min_count: float) -> NodeSet:
    row_idx = z.index_of(target)
    if math.isnan(min_count):
        raise ValueError("min_count must be a number, got nan")
    if z.is_sparse:
        row = z.entries[[row_idx]].toarray().ravel()
    else:
        row = np.asarray(z.entries[row_idx])
    qualifying = tuple(int(j) for j in np.nonzero(row >= float(min_count))[0])
    return NodeSet(z.labels, qualifying)
