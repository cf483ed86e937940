"""Homogeneity decomposition: citing-pattern similarity and clustering.

A citation set is split by building the cosine similarity of citing columns,
thresholding it into a weighted undirected graph, and clustering that graph
with a deterministic two-phase modularity optimizer (local moving followed by
community aggregation, after Blondel et al., arXiv:0803.0476).  Ego-style
subsets defined by a citation threshold on one target journal complement the
clustering route.

No step allocates or loops over all n^2 pairs, and no stage holds a
temporary much larger than the result it builds: time and memory follow the
citation arcs and the pairs with nonzero similarity.  From the cosine step to
the clustering, node ids are held in the narrowest unsigned dtype that holds
n (uint16 up to 65,536 nodes, which numpy's stable sort orders by radix) and
only weights are float64, so with uint16 ids a similarity pair or an edge
takes 12 bytes.

- The cosine step forms the Gram matrix Z^T Z on the matrix's own storage:
  one BLAS call for a dense matrix; for CSR, a block of rows (about
  ``_CHUNK`` products) at a time, each block cut to its positive strict
  upper triangle as it is made.  The dots become similarities in place.
- The threshold graph keeps the pairs above tau and checks them a
  ``_CHUNK`` at a time.
- The modularity optimizer works on CSR adjacency arrays, 10 bytes per
  directed entry (n loops plus both ends of every edge), placed a chunk of
  edges at a time and collapsed a block of rows at a time; modularity
  accumulates a chunk of edges at a time.

Every float sum runs in the order the one-shot forms used: a Gram row over
its products in row order, degrees, internal and collapsed weights in edge or
scan order from 0.0.  So the similarities, partitions and Q do not depend on
the block and chunk sizes.  Citation counts are integers, so the Gram
entries, and hence the similarities, are exact on either storage.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engine import SelfCitations
from .matrix import CitationMatrix, Entries, NodeSet, zero_diagonal

# Gains closer than this are treated as equal so float noise cannot flip
# deterministic tie-breaks.
_GAIN_EPS = 1e-12

# At most this many array elements are held as Python objects at a time; the
# array stages work this many edges, entries or Gram products at a time.
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


def _pair_keys(low: np.ndarray, high: np.ndarray, n: int) -> np.ndarray:
    """``low * n + high`` in the narrowest unsigned dtype holding n^2 keys."""
    key = low.astype(_node_dtype(n * n))
    key *= n
    key += high
    return key


def _validated(edges: EdgeList, n: int) -> EdgeList:
    """Edges with i < j as ``_node_dtype(n)`` ids; otherwise the error for the
    first bad edge in input order.

    Edges are checked a ``_CHUNK`` at a time, up to the first one that is out
    of range, a self-loop or not of positive finite weight.  A duplicate is
    reported at its later occurrence, and keys ``low * n + high`` that rise
    strictly hold none, so keys are sorted only when they fail to rise, and
    only up to that first bad edge.
    """
    i, j, w = edges.i, edges.j, edges.w
    low = np.zeros(len(w), dtype=_node_dtype(n))
    high = np.zeros_like(low)
    rising, last, bad_at = True, None, None
    for start in range(0, len(w), _CHUNK):
        part = slice(start, start + _CHUNK)
        ci, cj, cw = i[part], j[part], w[part]
        lo, hi = np.minimum(ci, cj), np.maximum(ci, cj)
        out_of_range = (lo < 0) | (hi >= n)
        bad = out_of_range | (ci == cj) | (cw <= 0.0) | ~np.isfinite(cw)
        first_bad = int(np.argmax(bad)) if bad.any() else None
        stop = len(cw) if first_bad is None else first_bad + 1
        # ids out of range do not fit the narrow dtype; their edge is the last
        # one checked and is reported as out of range whatever its key
        checked = slice(start, start + stop)
        low[checked] = np.where(out_of_range, 0, lo)[:stop]
        high[checked] = np.where(out_of_range, 0, hi)[:stop]
        key = _pair_keys(low[checked], high[checked], n)
        rising = rising and (last is None or key[0] > last) and bool((key[1:] > key[:-1]).all())
        last = key[-1]
        if first_bad is not None:
            bad_at = start + first_bad
            break
    duplicate_at = None
    if not rising:
        end = len(w) if bad_at is None else bad_at + 1
        key = _pair_keys(low[:end], high[:end], n)
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        repeats = order[1:][ordered[1:] == ordered[:-1]]
        duplicate_at = int(repeats.min()) if len(repeats) else None
    if bad_at is None and duplicate_at is None:
        return EdgeList(low, high, w)
    k = min(at for at in (bad_at, duplicate_at) if at is not None)
    a, b = int(i[k]), int(j[k])
    lo, hi = min(a, b), max(a, b)
    if lo < 0 or hi >= n:
        raise ValueError(f"edge ({a}, {b}) out of range for {n} nodes")
    if a == b:
        raise ValueError(f"self-loop on node {lo} is not supported")
    if k == duplicate_at:
        raise ValueError(f"duplicate edge ({lo}, {hi})")
    raise ValueError(f"edge ({lo}, {hi}) must have positive finite weight")


@dataclass(frozen=True)
class UndirectedGraph:
    """Weighted undirected graph as an edge list with i < j and w > 0.

    ``edges`` accepts any iterable of ``(i, j, w)`` triples and is stored as
    an :class:`EdgeList` over three arrays: the ids in the narrowest unsigned
    dtype that holds n nodes (:func:`_node_dtype`), the weights as given.
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
            rows, cols, sims, norms = _upper_gram(entries)
        else:
            gram = entries.T @ entries
            norms = np.sqrt((entries * entries).sum(axis=0))
            rows, cols = np.nonzero(np.triu(gram, k=1))
            sims = gram[rows, cols]
            rows, cols = rows.astype(_node_dtype(mat.n)), cols.astype(_node_dtype(mat.n))
        # the dots become similarities in place
        for start in range(0, len(sims), _CHUNK):
            part = slice(start, start + _CHUNK)
            denom = norms[rows[part]] * norms[cols[part]]
            positive = denom > 0.0
            np.divide(sims[part], denom, out=sims[part], where=positive)
            sims[part][~positive] = 0.0
    np.clip(sims, 0.0, 1.0, out=sims)
    diag = np.where(norms > 0.0, 1.0, 0.0)
    return SimilarityMatrix._from_pairs(z.labels, EdgeList(rows, cols, sims), diag)


def _row_blocks(indptr: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges ``[a, b)`` covering every row, each holding
    ``budget`` entries or fewer plus its last row, by the cumulative counts
    in ``indptr``."""
    cuts = np.searchsorted(indptr, np.arange(budget, indptr[-1], budget)).tolist()
    bounds = sorted({0, *cuts, len(indptr) - 1})
    return zip(bounds[:-1], bounds[1:])


def _upper_gram(entries: Entries) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and dots of the positive strict upper triangle of the
    CSR Gram matrix Z^T Z in row-major order, and the column norms.

    The Gram matrix is formed a block of rows at a time, as row slices of
    ``entries.T.tocsr()`` times ``entries``, and each block is cut to its
    upper triangle as it is made.  A block makes about ``_CHUNK``
    products; each of its rows sums them in the order the one-shot
    ``entries.T @ entries`` does, so every dot and norm has the same bits.
    """
    n = entries.shape[0]
    dtype = _node_dtype(n)
    by_column = entries.T.tocsr()
    # products made by each row of the transpose: the entries of the rows it reaches
    products = np.zeros(by_column.nnz + 1, dtype=np.int64)
    np.cumsum(np.diff(entries.indptr)[by_column.indices], out=products[1:])
    norms = np.zeros(n)
    rows, cols, dots = [], [], []
    for a, b in _row_blocks(products[by_column.indptr], _CHUNK):
        gram = by_column[a:b] @ entries
        norms[a:b] = gram.diagonal(a)
        row = np.repeat(np.arange(a, b, dtype=dtype), np.diff(gram.indptr))
        keep = (gram.indices > row) & (gram.data > 0.0)
        row, col = row[keep], gram.indices[keep]
        # the product leaves each row's columns unsorted; only kept ones are sorted
        order = (row.astype(np.int64) * n + col).argsort()
        rows.append(row[order])
        cols.append(col[order].astype(dtype))
        dots.append(gram.data[keep][order])
    # each list of blocks is dropped once joined, the widest first
    dots = np.concatenate(dots)
    return np.concatenate(rows), np.concatenate(cols), dots, np.sqrt(norms, out=norms)


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
    degree = np.zeros(graph.n)
    internal = np.zeros(len(first_seen))
    # add.at adds in index order from 0.0, as one bincount over all edges would
    for start in range(0, len(e), _CHUNK):
        part = slice(start, start + _CHUNK)
        i, j, w = e.i[part], e.j[part], e.w[part]
        np.add.at(degree, _interleave(i, j), w.repeat(2))
        ci = comm[i]
        same = ci == comm[j]
        np.add.at(internal, ci[same], w[same])
    totals = np.bincount(comm, weights=degree, minlength=len(first_seen)).tolist()
    two_m = 2.0 * m
    q = 0.0
    for inside, total in zip(internal.tolist(), totals):
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

    Rows are counted first, and each row's loop is placed at its start.  Then
    a ``_CHUNK`` of edges at a time, both ends of every edge are keyed by
    their row in the narrowest unsigned dtype (:func:`_node_dtype`), and one
    stable sort of those keys places each end behind the entries its row
    already holds, whatever the edge order.  ``indices`` keep that dtype;
    ``data`` is float64.  Only the output spans every entry; of a chunk's
    temporaries, the sort order is the one int64 array, and its buffer is
    reused for the ends' destinations once their neighbours and weights are
    gathered (18 bytes per end in all).
    """
    n, e = graph.n, graph.edges
    dtype = _node_dtype(n)
    indptr = np.ones(n + 1, dtype=np.intp)  # row sizes, then their running sum
    indptr[0] = 0
    np.add.at(indptr[1:], e.i, 1)
    np.add.at(indptr[1:], e.j, 1)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=dtype)
    data = np.empty(indptr[-1])
    free = indptr[:-1].copy()  # each row's next empty position
    indices[free] = np.arange(n)
    data[free] = 0.0
    free += 1

    def place(part: slice) -> None:
        """Place both ends of the edges in ``part`` behind their rows' entries.

        A function, so that one chunk's temporaries are freed before the
        next chunk's are made."""
        src = _interleave(e.i[part], e.j[part], dtype)
        counts = np.bincount(src, minlength=n)
        order = src.argsort(kind="stable")
        order ^= 1  # the other end of the same edge
        neighbour = src[order]
        del src
        order >>= 1  # the end's edge
        weight = e.w[part].take(order)
        # The k-th sorted end of a row lands k slots past the row's free one,
        # so the slots rise by one except where a new row starts: a running
        # sum of steps, built in the sort order's buffer.
        rows = np.flatnonzero(counts)
        size = counts[rows]
        slot = free[rows]
        at = order
        at.fill(1)
        at[0] = slot[0]
        at[size[:-1].cumsum()] = slot[1:] - (slot[:-1] + size[:-1] - 1)
        np.cumsum(at, out=at)
        indices[at] = neighbour
        data[at] = weight
        free[rows] += size

    for start in range(0, len(e), _CHUNK):
        place(slice(start, start + _CHUNK))
    return indptr, indices, data


def _interleave(a: np.ndarray, b: np.ndarray, dtype: type = np.intp) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ...: both ends of every edge, in edge order."""
    out = np.empty(2 * len(a), dtype=dtype)
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
    # A visit reads its whole row; the node's own entry, weighted 0.0 until
    # the sweeps end, puts its current community among the candidates.
    loops = data[indptr[:-1]]
    data[indptr[:-1]] = 0.0
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
                sums = np.bincount(compact[rep], weights=data[a:b])
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
    data[indptr[:-1]] = loops
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
    dtype that holds new_n^2 keys, a block of rows (about ``_CHUNK``
    entries) at a time.  When there are no more possible keys than entries
    (a level that collapses well, such as 5000 nodes into 25), ``add.at``
    and ``minimum.at`` into new_n^2 bins sum the weights and find each key's
    first position, block by block; otherwise ``np.unique`` sorts all kept
    keys stably.  Either route sums each key's weights in scan order from
    0.0, and each new row lists its neighbours in order of first encounter.
    """
    first_seen: dict[int, int] = {}
    super_of = np.array([first_seen.setdefault(c, len(first_seen)) for c in community])
    new_n = len(first_seen)
    bins = new_n * new_n
    key_of = super_of.astype(_node_dtype(bins))

    def kept(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Keys and entry positions of the kept entries of rows a..b-1."""
        start, stop = indptr[a], indptr[b]
        counts = np.diff(indptr[a : b + 1])
        key = np.repeat(key_of[a:b], counts)  # cv, made cv * new_n + cu in place
        cu = key_of[indices[start:stop]]
        rows = np.repeat(np.arange(a, b, dtype=indices.dtype), counts)
        keep = (key != cu) | (indices[start:stop] >= rows)
        key *= new_n
        key += cu
        at = np.flatnonzero(keep)
        at += start
        return key[keep], at

    blocks = itertools.starmap(kept, _row_blocks(indptr, _CHUNK))
    if bins <= len(indices):
        weights = np.zeros(bins)
        first = np.full(bins, len(indices))
        for key, at in blocks:
            np.add.at(weights, key, data[at])
            np.minimum.at(first, key, at)
        key = np.flatnonzero(first < len(indices))
        first, weights = first[key], weights[key]
    else:
        key, at = map(np.concatenate, zip(*blocks))
        key, first, group = np.unique(key, return_index=True, return_inverse=True)
        weights = np.bincount(group, weights=data[at])
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
