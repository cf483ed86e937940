"""Citation matrix data model and structural matrix operations.

The central type is :class:`CitationMatrix`, a square non-negative weighted
adjacency matrix over labelled journals.  Rows are the cited side, columns the
citing side: ``Z[i][j]`` counts citations from journal ``j`` to journal ``i``.
Matrices up to :data:`DENSE_LIMIT` nodes are stored dense (numpy); larger ones
switch to compressed sparse rows so complete-database-scale inputs stay
tractable.  All operations are pure: they return new objects and never mutate.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

# Above this node count matrices are held in CSR form instead of dense arrays.
DENSE_LIMIT = 1024

Entries = np.ndarray | sparse.csr_array


def _canonical_entries(values: object, n: int) -> Entries:
    """Validate raw entries and normalize storage by node count."""
    if sparse.issparse(values):
        mat = values.tocsr() if not isinstance(values, sparse.csr_array) else values
        mat = sparse.csr_array(mat, dtype=np.float64)
        if mat.shape != (n, n):
            raise ValueError(f"entries must be {n}x{n}, got {mat.shape}")
        if mat.nnz and not np.isfinite(mat.data).all():
            raise ValueError("matrix entries must be finite")
        if mat.nnz and mat.data.min() < 0.0:
            raise ValueError("matrix entries must be non-negative")
        if n <= DENSE_LIMIT:
            dense = mat.toarray()
            dense.flags.writeable = False
            return dense
        mat.sum_duplicates()
        mat.sort_indices()
        return mat
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (n, n):
        raise ValueError(f"entries must be {n}x{n}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    if arr.size and arr.min() < 0.0:
        raise ValueError("matrix entries must be non-negative")
    if n > DENSE_LIMIT:
        return sparse.csr_array(arr)
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _check_labels(labels: Sequence[str]) -> tuple[str, ...]:
    out = tuple(labels)
    seen: set[str] = set()
    for name in out:
        if not isinstance(name, str) or not name:
            raise ValueError("labels must be non-empty strings")
        if name in seen:
            raise ValueError(f"duplicate label: {name!r}")
        seen.add(name)
    return out


@dataclass(frozen=True, eq=False)
class CitationMatrix:
    """Square cited-by-citing weight matrix with one label per node."""

    labels: tuple[str, ...]
    entries: Entries = field(repr=False)

    def __post_init__(self) -> None:
        labels = _check_labels(self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", _canonical_entries(self.entries, len(labels)))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.entries)

    def to_dense(self) -> np.ndarray:
        """Entries as a writable dense array copy."""
        if self.is_sparse:
            return self.entries.toarray()
        return np.array(self.entries)

    def entry(self, i: int, j: int) -> float:
        if self.is_sparse:
            return float(self.entries[[i], [j]][0])
        return float(self.entries[i, j])

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label: {label!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CitationMatrix):
            return NotImplemented
        if self.labels != other.labels:
            return False
        if self.is_sparse or other.is_sparse:
            a = self.entries if self.is_sparse else sparse.csr_array(self.entries)
            b = other.entries if other.is_sparse else sparse.csr_array(other.entries)
            return (a != b).nnz == 0
        return bool(np.array_equal(self.entries, other.entries))


@dataclass(frozen=True)
class NodeSet:
    """Ordered duplicate-free subset of the nodes of a parent matrix."""

    parent_labels: tuple[str, ...]
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parent_labels", tuple(self.parent_labels))
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        n = len(self.parent_labels)
        for idx in self.indices:
            if not 0 <= idx < n:
                raise ValueError(f"node index {idx} out of range [0, {n})")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("node set contains duplicate indices")

    @classmethod
    def from_labels(cls, parent: CitationMatrix, names: Sequence[str]) -> NodeSet:
        position = {name: i for i, name in enumerate(parent.labels)}
        try:
            indices = tuple(position[name] for name in names)
        except KeyError as exc:
            raise KeyError(f"unknown label: {exc.args[0]!r}") from None
        return cls(parent.labels, indices)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.parent_labels[i] for i in self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)


def transpose(z: CitationMatrix) -> CitationMatrix:
    """Swap the cited and citing roles; labels are preserved."""
    if z.is_sparse:
        return CitationMatrix(z.labels, z.entries.T.tocsr())
    return CitationMatrix(z.labels, z.entries.T)


def zero_diagonal(z: CitationMatrix) -> CitationMatrix:
    """Drop within-journal self-citations (the main diagonal)."""
    if z.is_sparse:
        coo = z.entries.tocoo()
        keep = coo.row != coo.col
        cleaned = sparse.csr_array(
            (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape
        )
        return CitationMatrix(z.labels, cleaned)
    cleaned = z.to_dense()
    np.fill_diagonal(cleaned, 0.0)
    return CitationMatrix(z.labels, cleaned)


def row_sums(z: CitationMatrix) -> np.ndarray:
    """Total times each journal is cited within the set (inf past double range)."""
    with np.errstate(over="ignore"):
        return np.asarray(z.entries.sum(axis=1), dtype=np.float64).ravel()


def column_sums(z: CitationMatrix) -> np.ndarray:
    """Total references each journal gives within the set (inf past double range)."""
    with np.errstate(over="ignore"):
        return np.asarray(z.entries.sum(axis=0), dtype=np.float64).ravel()


def grand_total(z: CitationMatrix) -> float:
    # a sum past double range is inf, reported as such rather than warned about
    with np.errstate(over="ignore"):
        return float(z.entries.sum())


def matvec(z: CitationMatrix, v: Sequence[float] | np.ndarray) -> np.ndarray:
    """Multiply the matrix with a vector of length n."""
    vec = np.asarray(v, dtype=np.float64)
    if vec.shape != (z.n,):
        raise ValueError(f"vector length {vec.shape} does not match n={z.n}")
    return np.asarray(z.entries @ vec, dtype=np.float64).ravel()


def extract_subgraph(z: CitationMatrix, nodes: NodeSet | Sequence[int]) -> CitationMatrix:
    """Restrict the matrix to the given nodes, preserving their order."""
    if isinstance(nodes, NodeSet):
        if nodes.parent_labels != z.labels:
            raise ValueError("node set belongs to a different matrix")
        subset = nodes
    else:
        subset = NodeSet(z.labels, tuple(nodes))
    idx = np.asarray(subset.indices, dtype=np.intp)
    if z.is_sparse:
        picked = z.entries[idx][:, idx] if len(idx) else sparse.csr_array((0, 0))
    else:
        picked = z.entries[np.ix_(idx, idx)]
    return CitationMatrix(subset.labels, picked)


def nonzero_entries(z: CitationMatrix) -> Iterator[tuple[int, int, float]]:
    """Yield (row, column, weight) for every nonzero entry in row-major order."""
    coo = sparse.coo_array(z.entries)
    keep = coo.data != 0.0
    yield from zip(coo.row[keep].tolist(), coo.col[keep].tolist(), coo.data[keep].tolist())


def matrix_power_oracle(z: CitationMatrix, k: int) -> CitationMatrix:
    """Explicit Z^k by repeated dense multiplication.

    This is a deliberately simple reference for validating the iterative
    engine on small instances; weights that overflow double precision raise
    instead of silently saturating.
    """
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    base = z.to_dense()
    result = base.copy()
    # overflow is reported via the explicit raise below, not a warning
    with np.errstate(over="ignore"):
        for _ in range(k - 1):
            result = result @ base
    if not np.isfinite(result).all():
        raise OverflowError(f"matrix power {k} overflows double precision")
    return CitationMatrix(z.labels, result)
