"""Plain reference implementations of the decomposition layer.

These are the straightforward dense and dict-based formulations: the full
n x n cosine matrix, a pairwise threshold loop, and Louvain and modularity
over adjacency dicts.  They cost O(n^2) memory or a Python operation per
edge, so the library does not use them; the differential tests require the
library's array versions to reproduce them bit for bit.

``adjacency`` and ``aggregate`` are the first array versions of Louvain's
CSR plumbing: int64 keys, one stable sort per level and full-length
temporaries.  They fix the layout the library's narrow-dtype versions must
reproduce value for value.  ``upper_gram``, ``validated`` and
``bincount_modularity`` are the one-shot array forms of the cosine step's
Gram matrix, the edge check and modularity, which the library now runs a
block or chunk at a time; they fix the bits, errors and sums it must keep.
"""

from __future__ import annotations

import numpy as np

_GAIN_EPS = 1e-12


def dense_cosine(dense: np.ndarray) -> np.ndarray:
    """Cosine similarity of the columns, zero for all-zero columns."""
    norms = np.sqrt((dense * dense).sum(axis=0))
    gram = dense.T @ dense
    denom = np.outer(norms, norms)
    sims = np.divide(gram, denom, out=np.zeros_like(gram), where=denom > 0.0)
    np.clip(sims, 0.0, 1.0, out=sims)
    upper = np.triu(sims, k=1)
    diag = np.where(norms > 0.0, 1.0, 0.0)
    return upper + upper.T + np.diag(diag)


def threshold_edges(values: np.ndarray, tau: float) -> list[tuple[int, int, float]]:
    n = len(values)
    return [
        (i, j, float(values[i, j]))
        for i in range(n)
        for j in range(i + 1, n)
        if values[i, j] > tau
    ]


def normalized(edges) -> list[tuple[int, int, float]]:
    return [(min(i, j), max(i, j), float(w)) for i, j, w in edges]


def modularity(n: int, edges, assignment, resolution: float = 1.0) -> float:
    m = float(sum(w for _i, _j, w in edges))
    internal: dict[int, float] = {}
    degree = [0.0] * n
    for i, j, w in edges:
        degree[i] += w
        degree[j] += w
        if assignment[i] == assignment[j]:
            internal[assignment[i]] = internal.get(assignment[i], 0.0) + w
    totals: dict[int, float] = {}
    for node, comm in enumerate(assignment):
        totals[comm] = totals.get(comm, 0.0) + degree[node]
    two_m = 2.0 * m
    q = 0.0
    for comm, total in totals.items():
        q += internal.get(comm, 0.0) / m - resolution * (total / two_m) ** 2
    return q


def louvain(n: int, edges, resolution: float = 1.0, sweep_order=None):
    """(community_of, q) from the dict-based two-phase optimizer."""
    edges = normalized(edges)
    m = float(sum(w for _i, _j, w in edges))
    if m == 0.0:
        return tuple(range(n)), 0.0
    adjacency: list[dict[int, float]] = [{} for _ in range(n)]
    loops = [0.0] * n
    for i, j, w in edges:
        adjacency[i][j] = adjacency[i].get(j, 0.0) + w
        adjacency[j][i] = adjacency[j].get(i, 0.0) + w

    assignment = list(range(n))
    members: list[list[int]] = [[v] for v in range(n)]
    first_level = True
    while True:
        level_n = len(adjacency)
        weighted_degree = [
            2.0 * loops[v] + sum(adjacency[v].values()) for v in range(level_n)
        ]
        if first_level and sweep_order is not None:
            sweep = list(sweep_order)
        else:
            sweep = sorted(range(level_n), key=lambda v: (weighted_degree[v], v))
        first_level = False

        community = list(range(level_n))
        sigma = weighted_degree.copy()
        moved_any = False
        moved = True
        sweeps_left = 100 + 10 * level_n
        while moved and sweeps_left > 0:
            sweeps_left -= 1
            moved = False
            for v in sweep:
                current = community[v]
                weight_to: dict[int, float] = {}
                for u, w in adjacency[v].items():
                    weight_to[community[u]] = weight_to.get(community[u], 0.0) + w
                sigma[current] -= weighted_degree[v]
                best_comm = None
                best_gain = 0.0
                for cand in sorted(set(weight_to) | {current}):
                    gain = (
                        weight_to.get(cand, 0.0) / m
                        - resolution * sigma[cand] * weighted_degree[v] / (2.0 * m * m)
                    )
                    if best_comm is None or gain > best_gain + _GAIN_EPS:
                        best_comm = cand
                        best_gain = gain
                community[v] = best_comm
                sigma[best_comm] += weighted_degree[v]
                if best_comm != current:
                    moved = True
                    moved_any = True
        if not moved_any:
            break

        groups: dict[int, list[int]] = {}
        for v in range(level_n):
            groups.setdefault(community[v], []).append(v)
        ordered = sorted(groups, key=lambda c: min(min(members[v]) for v in groups[c]))
        new_id = {c: idx for idx, c in enumerate(ordered)}
        new_members: list[list[int]] = [[] for _ in ordered]
        for c, nodes in groups.items():
            for v in nodes:
                new_members[new_id[c]].extend(members[v])
        for group in new_members:
            group.sort()
        for idx, group in enumerate(new_members):
            for original in group:
                assignment[original] = idx

        new_n = len(ordered)
        new_adjacency: list[dict[int, float]] = [{} for _ in range(new_n)]
        new_loops = [0.0] * new_n
        for v in range(level_n):
            cv = new_id[community[v]]
            new_loops[cv] += loops[v]
            for u, w in adjacency[v].items():
                cu = new_id[community[u]]
                if cu == cv:
                    if u > v:
                        new_loops[cv] += w
                else:
                    new_adjacency[cv][cu] = new_adjacency[cv].get(cu, 0.0) + w
        adjacency = new_adjacency
        loops = new_loops
        members = new_members

    return tuple(assignment), modularity(n, edges, assignment, resolution)


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(a), dtype=np.intp)
    out[0::2] = a
    out[1::2] = b
    return out


def adjacency(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray):
    """Level-0 CSR arrays: each row is its loop (0.0), then neighbours in edge order."""
    nodes = np.arange(n)
    src = np.concatenate((nodes, _interleave(i, j)))
    order = src.argsort(kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.bincount(src, minlength=n).cumsum(out=indptr[1:])
    dst = np.concatenate((nodes, _interleave(j, i)))
    weight = np.concatenate((np.zeros(n), w.repeat(2)))
    return indptr, dst[order], weight[order]


def aggregate(indptr, indices, data, community, assignment):
    """Communities collapsed to super-nodes: rows in first-encounter order."""
    level_n = len(community)
    first_seen: dict[int, int] = {}
    super_of = np.array([first_seen.setdefault(c, len(first_seen)) for c in community])
    new_n = len(first_seen)
    rows = np.repeat(np.arange(level_n), indptr[1:] - indptr[:-1])
    cv, cu = super_of[rows], super_of[indices]
    keep = (cv != cu) | (indices >= rows)
    key = (cv * new_n + cu)[keep]
    order = key.argsort(kind="stable")
    ordered = key[order]
    starts = np.ones(len(key), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    group = np.empty(len(key), dtype=np.intp)
    group[order] = starts.cumsum() - 1
    weights = np.bincount(group, weights=data[keep])
    key = ordered[starts]
    src = key // new_n
    by_row = np.lexsort((order[starts], src))
    new_indptr = np.zeros(new_n + 1, dtype=np.intp)
    np.bincount(src, minlength=new_n).cumsum(out=new_indptr[1:])
    return new_indptr, (key % new_n)[by_row], weights[by_row], super_of[assignment]


def upper_gram(entries):
    """Rows, columns and dots of the positive strict upper triangle of the
    one-shot CSR Gram matrix, row-major, and the column norms."""
    gram = (entries.T @ entries).tocsr()
    gram.sort_indices()
    norms = np.sqrt(gram.diagonal())
    rows = np.repeat(np.arange(entries.shape[0]), np.diff(gram.indptr))
    keep = (gram.indices > rows) & (gram.data > 0.0)
    return rows[keep], gram.indices[keep], gram.data[keep], norms


def validated(i: np.ndarray, j: np.ndarray, w: np.ndarray, n: int):
    """(low, high) as int64, or the ValueError for the first bad edge in input order."""
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
    return low.astype(np.int64), high.astype(np.int64)


def bincount_modularity(n: int, i, j, w, assignment, resolution: float = 1.0) -> float:
    """Modularity from one ``bincount`` per sum over all edges."""
    m = float(sum(w.tolist()))
    first_seen: dict[int, int] = {}
    comm = np.array([first_seen.setdefault(c, len(first_seen)) for c in assignment])
    degree = np.bincount(_interleave(i, j), weights=w.repeat(2), minlength=n)
    ci = comm[i]
    same = ci == comm[j]
    internal = np.bincount(ci[same], weights=w[same], minlength=len(first_seen)).tolist()
    totals = np.bincount(comm, weights=degree, minlength=len(first_seen)).tolist()
    q = 0.0
    for inside, total in zip(internal, totals):
        q += inside / m - resolution * (total / (2.0 * m)) ** 2
    return q
