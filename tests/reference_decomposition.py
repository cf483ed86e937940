"""Plain reference implementations of the decomposition layer.

These are the straightforward dense and dict-based formulations: the full
n x n cosine matrix, a pairwise threshold loop, and Louvain and modularity
over adjacency dicts.  They cost O(n^2) memory or a Python operation per
edge, so the library does not use them; the differential tests require the
library's array versions to reproduce them bit for bit.
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
