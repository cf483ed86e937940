"""Homogeneity decomposition: citing-pattern similarity and clustering.

A citation set is split by building the cosine similarity of citing columns,
thresholding it into a weighted undirected graph, and clustering that graph
with a deterministic two-phase modularity optimizer (local moving followed by
community aggregation, after Blondel et al., arXiv:0803.0476).  Ego-style
subsets defined by a citation threshold on one target journal complement the
clustering route.

No step allocates or loops over all n^2 pairs; time and memory follow the
citation arcs and the pairs with nonzero similarity.  The Gram matrix Z^T Z
is formed on the matrix's own storage (one BLAS call for dense matrices, a
sparse product for CSR), only its nonzero strict upper triangle is stored,
the threshold graph is three arrays, and the modularity optimizer works on
CSR adjacency arrays.  Citation counts are integers, so the Gram entries,
and hence the similarities, are exact on either storage.

Those CSR arrays are built and collapsed in time and memory linear in the
directed entries (n loops plus both ends of every edge).  Node ids and
sort keys are held in the narrowest unsigned dtype that fits (uint16 up to
65,536 nodes, which numpy's stable sort orders by radix), and only the
weights are float64; they are summed in the same order as ever, so
partitions and Q do not depend on these choices.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engine import SelfCitations
from .matrix import CitationMatrix, NodeSet, zero_diagonal

# Gains closer than this are treated as equal so float noise cannot flip
# deterministic tie-breaks.
_GAIN_EPS = 1e-12

# At most this many array elements are held as Python objects at a time.
_CHUNK = 1 << 16


class EdgeList(Sequence):
    """Read-only ``(i, j, w)`` triples backed by three parallel arrays."""

    __slots__ = ("i", "j", "w")

    def __init__(self, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> None:
        self.i, self.j, self.w = i, j, w

    def __len__(self) -> int:
        return len(self.w)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(zip(self.i[k].tolist(), self.j[k].tolist(), self.w[k].tolist()))
        return (int(self.i[k]), int(self.j[k]), float(self.w[k]))

    def __iter__(self) -> Iterator[tuple[int, int, float]]:
        return zip(self.i.tolist(), self.j.tolist(), self.w.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (EdgeList, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"EdgeList({len(self)} edges)"


def _py_sum(values: np.ndarray) -> float:
    """``sum()`` over the values as Python floats, in order, in bounded memory.

    The builtin's float summation (compensated from Python 3.12 on) defines
    total weights and degrees, so it is reused rather than redone in numpy.
    """
    chunks = (values[k : k + _CHUNK].tolist() for k in range(0, len(values), _CHUNK))
    return float(sum(itertools.chain.from_iterable(chunks)))


class SimilarityMatrix:
    """Symmetric pairwise similarities in [0, 1] over labelled nodes.

    Stored sparsely: ``pairs`` holds the nonzero similarities above the
    diagonal in row-major order and ``diagonal`` the self-similarities.  The
    dense ``values`` matrix is built when first read.
    """

    def __init__(self, labels: Sequence[str], values: object) -> None:
        vals = np.asarray(values, dtype=np.float64)
        n = len(labels)
        if vals.shape != (n, n):
            raise ValueError(f"similarity matrix must be {n}x{n}, got {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("similarities must be finite")
        if vals.size and (vals.min() < 0.0 or vals.max() > 1.0):
            raise ValueError("similarities must lie in [0, 1]")
        if not np.array_equal(vals, vals.T):
            raise ValueError("similarity matrix must be symmetric")
        rows, cols = np.nonzero(np.triu(vals, k=1))
        self._init(labels, EdgeList(rows, cols, vals[rows, cols]), np.diag(vals).copy())
        self._values = vals.copy()
        self._values.flags.writeable = False

    @classmethod
    def _from_pairs(
        cls, labels: Sequence[str], pairs: EdgeList, diagonal: np.ndarray
    ) -> SimilarityMatrix:
        """Wrap row-major pairs with i < j and similarities in [0, 1]."""
        if not np.isfinite(pairs.w).all():
            raise ValueError("similarities must be finite")
        obj = cls.__new__(cls)
        obj._init(labels, pairs, diagonal)
        return obj

    def _init(self, labels: Sequence[str], pairs: EdgeList, diagonal: np.ndarray) -> None:
        self.labels = tuple(labels)
        self.pairs = pairs
        self.diagonal = diagonal
        self._values: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            dense = np.zeros((self.n, self.n))
            dense[self.pairs.i, self.pairs.j] = self.pairs.w
            dense[self.pairs.j, self.pairs.i] = self.pairs.w
            np.fill_diagonal(dense, self.diagonal)
            dense.flags.writeable = False
            self._values = dense
        return self._values


def _index_array(values: Sequence[int]) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:  # certainly out of range; kept exact for the message
        return np.array(values, dtype=object)


def _edge_arrays(edges: Iterable[tuple[int, int, float]]) -> EdgeList:
    triples = [(int(i), int(j), float(w)) for i, j, w in edges]
    if not triples:
        return EdgeList(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
    i, j, w = zip(*triples)
    return EdgeList(_index_array(i), _index_array(j), np.array(w, dtype=np.float64))


def _validated(edges: EdgeList, n: int) -> EdgeList:
    """Edges with i < j; otherwise the error for the first bad edge in input order."""
    i, j, w = edges.i, edges.j, edges.w
    low, high = np.minimum(i, j), np.maximum(i, j)
    out_of_range = (low < 0) | (high >= n)
    self_loop = i == j
    key = low * n + high
    duplicate = np.zeros(len(key), dtype=bool)
    if len(key) > 1 and not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        duplicate[order[1:][ordered[1:] == ordered[:-1]]] = True
    bad_weight = (w <= 0.0) | ~np.isfinite(w)
    bad = out_of_range | self_loop | duplicate | bad_weight
    if bad.any():
        k = int(np.argmax(bad))
        a, b = int(low[k]), int(high[k])
        if out_of_range[k]:
            raise ValueError(f"edge ({int(i[k])}, {int(j[k])}) out of range for {n} nodes")
        if self_loop[k]:
            raise ValueError(f"self-loop on node {a} is not supported")
        if duplicate[k]:
            raise ValueError(f"duplicate edge ({a}, {b})")
        raise ValueError(f"edge ({a}, {b}) must have positive finite weight")
    return EdgeList(low.astype(np.intp, copy=False), high.astype(np.intp, copy=False), w)


@dataclass(frozen=True)
class UndirectedGraph:
    """Weighted undirected graph as an edge list with i < j and w > 0.

    ``edges`` accepts any iterable of ``(i, j, w)`` triples and is stored as
    an :class:`EdgeList` over three arrays.
    """

    labels: tuple[str, ...]
    edges: EdgeList

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        edges = self.edges if isinstance(self.edges, EdgeList) else _edge_arrays(self.edges)
        object.__setattr__(self, "edges", _validated(edges, len(self.labels)))

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def total_weight(self) -> float:
        return _py_sum(self.edges.w)


@dataclass(frozen=True)
class Partition:
    """Community id per node plus the modularity the partition achieved."""

    labels: tuple[str, ...]
    community_of: tuple[int, ...]
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "community_of", tuple(int(c) for c in self.community_of))
        if len(self.community_of) != len(self.labels):
            raise ValueError("community assignment must cover every node")
        ids = sorted(set(self.community_of))
        if ids and ids != list(range(len(ids))):
            raise ValueError("community ids must be contiguous from 0")

    @property
    def n_communities(self) -> int:
        return len(set(self.community_of))

    def communities(self) -> tuple[tuple[int, ...], ...]:
        groups: dict[int, list[int]] = {}
        for node, comm in enumerate(self.community_of):
            groups.setdefault(comm, []).append(node)
        return tuple(tuple(groups[c]) for c in sorted(groups))


def citing_cosine_matrix(
    z: CitationMatrix, diagonal_policy: SelfCitations | str = SelfCitations.INCLUDE
) -> SimilarityMatrix:
    """Cosine similarity between citing columns of the matrix.

    All-zero columns have no direction, so their similarity to anything,
    including themselves, is defined as 0.
    """
    policy = SelfCitations(diagonal_policy)
    mat = zero_diagonal(z) if policy is SelfCitations.EXCLUDE else z
    entries = mat.entries
    # products past double range leave non-finite similarities, which
    # SimilarityMatrix refuses, so numpy need not warn about them as well
    with np.errstate(over="ignore", invalid="ignore"):
        if mat.is_sparse:
            gram = (entries.T @ entries).tocsr()
            gram.sort_indices()
            norms = np.sqrt(gram.diagonal())
            rows = np.repeat(np.arange(mat.n), np.diff(gram.indptr))
            keep = (gram.indices > rows) & (gram.data > 0.0)
            rows, cols, dots = rows[keep], gram.indices[keep], gram.data[keep]
        else:
            gram = entries.T @ entries
            norms = np.sqrt((entries * entries).sum(axis=0))
            rows, cols = np.nonzero(np.triu(gram, k=1))
            dots = gram[rows, cols]
        denom = norms[rows] * norms[cols]
        sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
    np.clip(sims, 0.0, 1.0, out=sims)
    diag = np.where(norms > 0.0, 1.0, 0.0)
    return SimilarityMatrix._from_pairs(z.labels, EdgeList(rows, cols, sims), diag)


def threshold_graph(similarities: SimilarityMatrix, tau: float) -> UndirectedGraph:
    """Keep an edge {i, j} wherever similarity strictly exceeds tau."""
    if not math.isfinite(tau):
        raise ValueError(f"threshold must be finite, got {tau}")
    if tau < 0.0:
        raise ValueError(f"threshold must be >= 0, got {tau}")
    pairs = similarities.pairs
    keep = pairs.w > tau
    return UndirectedGraph(
        similarities.labels, EdgeList(pairs.i[keep], pairs.j[keep], pairs.w[keep])
    )


def _checked_resolution(resolution: float) -> float:
    if not (math.isfinite(resolution) and resolution >= 0.0):
        raise ValueError(f"resolution must be finite and >= 0, got {resolution}")
    return float(resolution)


def modularity(
    graph: UndirectedGraph,
    partition: Partition | Mapping[int, int] | Sequence[int],
    resolution: float = 1.0,
) -> float:
    """Weighted Newman-Girvan modularity of a node-to-community assignment.

    Degrees and internal weights accumulate in edge order, and community
    terms are added in order of first appearance.
    """
    resolution = _checked_resolution(resolution)
    assignment = _assignment_vector(graph.n, partition)
    m = graph.total_weight
    if m == 0.0:
        raise ValueError("modularity is undefined for a graph with no edges")
    first_seen: dict[int, int] = {}
    comm = np.array([first_seen.setdefault(c, len(first_seen)) for c in assignment])
    e = graph.edges
    degree = np.bincount(_interleave(e.i, e.j), weights=e.w.repeat(2), minlength=graph.n)
    ci = comm[e.i]
    same = ci == comm[e.j]
    internal = np.bincount(ci[same], weights=e.w[same], minlength=len(first_seen)).tolist()
    totals = np.bincount(comm, weights=degree, minlength=len(first_seen)).tolist()
    two_m = 2.0 * m
    q = 0.0
    for inside, total in zip(internal, totals):
        q += inside / m - resolution * (total / two_m) ** 2
    return q


def _assignment_vector(
    n: int, partition: Partition | Mapping[int, int] | Sequence[int]
) -> list[int]:
    if isinstance(partition, Partition):
        assignment = list(partition.community_of)
    elif isinstance(partition, Mapping):
        try:
            assignment = [int(partition[i]) for i in range(n)]
        except KeyError as exc:
            raise ValueError(f"partition is missing node {exc.args[0]}") from None
    else:
        assignment = [int(c) for c in partition]
    if len(assignment) != n:
        raise ValueError(f"partition covers {len(assignment)} nodes, graph has {n}")
    return assignment


def _node_dtype(count: int) -> type[np.unsignedinteger]:
    """Narrowest unsigned dtype holding 0..count-1.

    Up to 65,536 values fit uint16, which numpy's stable sort orders by radix.
    """
    for dtype in (np.uint16, np.uint32):
        if count <= np.iinfo(dtype).max + 1:
            return dtype
    return np.uint64


def _adjacency(graph: UndirectedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level-0 CSR adjacency.

    Every level's rows start with the node's own loop weight (0.0 here),
    followed by its neighbours: in edge order at level 0, in order of first
    encounter after aggregation.

    The n loops, then both ends of every edge in edge order, are keyed by
    their row in the narrowest unsigned dtype (:func:`_node_dtype`), and one
    stable sort of those keys places every entry, whatever the edge order.
    ``indices`` keep that dtype; ``data`` is float64.
    """
    n, e = graph.n, graph.edges
    dtype = _node_dtype(n)
    src = np.empty(n + 2 * len(e), dtype=dtype)
    dst = np.empty_like(src)
    src[:n] = dst[:n] = np.arange(n)
    src[n::2] = dst[n + 1 :: 2] = e.i
    src[n + 1 :: 2] = dst[n::2] = e.j
    # each temporary is dropped once used: the sort order is the only
    # full-length int64 array
    order = src.argsort(kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.bincount(src, minlength=n).cumsum(out=indptr[1:])
    del src
    indices = dst[order]
    del dst
    weight = np.zeros(len(order))
    weight[n::2] = weight[n + 1 :: 2] = e.w
    return indptr, indices, weight[order]


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ...: both ends of every edge, in edge order."""
    out = np.empty(2 * len(a), dtype=np.intp)
    out[0::2] = a
    out[1::2] = b
    return out


def _degrees(indptr: np.ndarray, data: np.ndarray) -> list[float]:
    """Twice the loop weight plus the builtin ``sum()`` of the neighbour
    weights (see :func:`_py_sum`), per row."""
    ptr = indptr.tolist()
    loops = data[indptr[:-1]].tolist()
    return [
        2.0 * loop + sum(data[a + 1 : b].tolist())
        for loop, a, b in zip(loops, ptr[:-1], ptr[1:])
    ]


def _first_best(cands: Sequence[int], gains: Sequence[float]) -> int:
    """First candidate whose gain beats every earlier leader by more than eps."""
    best, best_gain = cands[0], gains[0]
    for cand, gain in zip(cands, gains):
        if gain > best_gain + _GAIN_EPS:
            best, best_gain = cand, gain
    return best


def _local_moving(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    degree: list[float],
    sweep: list[int],
    resolution: float,
    m: float,
) -> tuple[list[int], bool]:
    """Move nodes to their best neighbouring community until none moves.

    A visit costs O(degree): the weight towards each neighbouring community
    is summed in neighbour order and candidates are compared as if scanned
    in ascending community id.
    """
    level_n = len(degree)
    community = np.arange(level_n)
    sigma = np.array(degree)
    ptr = indptr.tolist()
    scale = 2.0 * m * m
    # A visit reads its whole row; the node's own entry, weighted 0.0 here,
    # puts its current community among the candidates.
    weights = data.copy()
    weights[indptr[:-1]] = 0.0
    widest = int((indptr[1:] - indptr[:-1]).max(initial=0))
    slot = np.zeros(level_n, dtype=np.intp)
    positions = np.arange(widest)
    compact = np.zeros(widest, dtype=np.intp)
    moved_any = False
    moved = True
    # Real inputs settle in a handful of sweeps; the budget only guards
    # against float near-ties cycling forever.
    sweeps_left = 100 + 10 * level_n
    # A resolution near the top of double range overflows the penalty term
    # to inf (inf * 0 to nan) and the gains compare as they are.  Entered once
    # per level: per visit, the context manager would cost more than the row.
    with np.errstate(over="ignore", invalid="ignore"):
        while moved and sweeps_left > 0:
            sweeps_left -= 1
            moved = False
            for v in sweep:
                current = community[v]
                kv = degree[v]
                a, b = ptr[v], ptr[v + 1]
                sigma[current] -= kv
                # Number the neighbouring communities without sorting: slot
                # ends up holding one neighbour position per community.
                pos = positions[: b - a]
                comms = community[indices[a:b]]
                slot[comms] = pos
                rep = slot[comms]
                is_rep = rep == pos
                found = comms[is_rep]
                compact[rep[is_rep]] = positions[: len(found)]
                sums = np.bincount(compact[rep], weights=weights[a:b])
                gain = sums / m - resolution * sigma[found] * kv / scale
                top = int(gain.argmax())
                # A leader ahead of every rival by more than eps wins the
                # ascending scan whatever the candidate order; else scan.
                if np.count_nonzero(gain + _GAIN_EPS >= gain[top]) == 1:
                    best = found[top]
                else:
                    asc = np.argsort(found)
                    best = _first_best(found[asc].tolist(), gain[asc].tolist())
                community[v] = best
                sigma[best] += kv
                if best != current:
                    moved = moved_any = True
    return community.tolist(), moved_any


def _aggregate(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    community: list[int],
    assignment: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse communities into super-nodes numbered by smallest member.

    Level nodes are numbered by smallest original member, so numbering
    communities by first appearance keeps that order.  Weights accumulate in
    row-major scan order.  An edge inside a community counts once, from its
    lower end, towards the super-node's loop weight; as every row starts
    with its own loop entry, that weight lands first in the new row too.

    Each kept entry is keyed ``cv * new_n + cu`` in the narrowest unsigned
    dtype that holds new_n^2 keys.  When there are no more possible keys
    than kept entries (a level that collapses well, such as 5000 nodes into
    25), one ``bincount`` into new_n^2 bins sums the weights and
    ``minimum.at`` finds each key's first position; otherwise ``np.unique``
    sorts the keys stably.  Either route sums each key's weights in scan
    order, and each new row lists its neighbours in order of first
    encounter.
    """
    level_n = len(community)
    first_seen: dict[int, int] = {}
    super_of = np.array([first_seen.setdefault(c, len(first_seen)) for c in community])
    new_n = len(first_seen)
    bins = new_n * new_n
    key_of = super_of.astype(_node_dtype(bins))
    counts = indptr[1:] - indptr[:-1]
    key = np.repeat(key_of, counts)  # cv, made cv * new_n + cu in place
    cu = key_of[indices]
    keep = (key != cu) | (indices >= np.repeat(np.arange(level_n, dtype=indices.dtype), counts))
    key *= new_n
    key += cu
    del cu
    key = key[keep]
    kept = data[keep]
    del keep
    if bins <= len(key):
        weights = np.bincount(key, weights=kept, minlength=bins)
        first = np.full(bins, len(key))
        np.minimum.at(first, key, np.arange(len(key)))
        key = np.flatnonzero(first < len(key))
        first, weights = first[key], weights[key]
    else:
        key, first, group = np.unique(key, return_index=True, return_inverse=True)
        weights = np.bincount(group, weights=kept)
    src = key // new_n
    by_row = np.lexsort((first, src))
    new_indptr = np.zeros(new_n + 1, dtype=np.intp)
    np.bincount(src, minlength=new_n).cumsum(out=new_indptr[1:])
    new_indices = (key % new_n)[by_row].astype(_node_dtype(new_n))
    return new_indptr, new_indices, weights[by_row], super_of[assignment]


def louvain_partition(
    graph: UndirectedGraph,
    resolution: float = 1.0,
    sweep_order: Sequence[int] | None = None,
) -> Partition:
    """Deterministic two-phase modularity clustering.

    Local moving visits nodes in ascending weighted-degree order (node index
    breaks degree ties); a node joins the neighbouring community with the
    largest insertion gain, where exact gain ties, including ties with its
    current community, go to the lowest community id.  Converged levels are
    aggregated into super-nodes and the process repeats until no move is
    left.  Final community ids are renumbered by their smallest original
    node.  An explicit ``sweep_order`` permutation overrides the visit order
    for the first level only.

    An edgeless graph has nothing to cluster and yields singletons with
    q = 0.0.
    """
    resolution = _checked_resolution(resolution)
    n = graph.n
    if n < 1:
        raise ValueError("graph must have at least one node")
    m = graph.total_weight
    if m == 0.0:
        return Partition(graph.labels, tuple(range(n)), 0.0)
    sweep = None
    if sweep_order is not None:
        sweep = [int(v) for v in sweep_order]
        if sorted(sweep) != list(range(n)):
            raise ValueError("sweep order must be a permutation of all nodes")

    indptr, indices, data = _adjacency(graph)
    assignment = np.arange(n)
    while True:
        degree = _degrees(indptr, data)
        if sweep is None:
            sweep = sorted(range(len(degree)), key=degree.__getitem__)
        community, moved_any = _local_moving(
            indptr, indices, data, degree, sweep, resolution, m
        )
        if not moved_any:
            break
        indptr, indices, data, assignment = _aggregate(
            indptr, indices, data, community, assignment
        )
        sweep = None

    q = modularity(graph, assignment, resolution)
    return Partition(graph.labels, tuple(assignment.tolist()), q)


def citing_threshold_subset(
    z: CitationMatrix, target: str, min_count: float
) -> NodeSet:
    """Journals citing the target at least min_count times, target included
    when its self-citations qualify."""
    row_idx = z.index_of(target)
    if math.isnan(min_count):
        raise ValueError("min_count must be a number, got nan")
    if z.is_sparse:
        row = z.entries[[row_idx]].toarray().ravel()
    else:
        row = np.asarray(z.entries[row_idx])
    qualifying = tuple(int(j) for j in np.nonzero(row >= float(min_count))[0])
    return NodeSet(z.labels, qualifying)


def union_subset(a: NodeSet, b: NodeSet) -> NodeSet:
    """Ordered union of two subsets of the same parent matrix."""
    if a.parent_labels != b.parent_labels:
        raise ValueError("node sets belong to different matrices")
    merged = dict.fromkeys(a.indices)
    merged.update(dict.fromkeys(b.indices))
    return NodeSet(a.parent_labels, tuple(merged))
