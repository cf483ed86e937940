"""End-to-end acceptance checks.

Each test prints one verdict line (bypassing capture) so a full run reads as
a checklist.  Expected numbers come from the frozen tables in conftest, from
independent in-test oracles, or are frozen next to the check; tolerances are
stated next to each check.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

from pwrkit import (
    CitationMatrix,
    MetricVector,
    PwrOptions,
    UndirectedGraph,
    citation_factor,
    citing_cosine_matrix,
    column_sums,
    converged_pwr,
    convergence_report,
    extract_subgraph,
    grand_total,
    louvain_partition,
    matrix_power_oracle,
    modularity,
    nonzero_entries,
    pearson,
    pwr_trace,
    read_csv_matrix,
    read_pajek,
    row_sums,
    sjr_2013,
    strongly_connected_components,
    threshold_graph,
    transpose,
    write_csv_matrix,
    write_pajek,
)

from .conftest import (
    CITATION_FACTOR_REFERENCE,
    GRAND_TOTAL_REFERENCE,
    RATIOS_WITH_SELF,
    RATIOS_WITHOUT_SELF,
)


def _verdict(capsys, num: int, description: str, problems: list) -> None:
    ok = not problems
    with capsys.disabled():
        print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} ({description}): " + "; ".join(str(p) for p in problems[:8])


def _close_rel(a, b, rtol: float = 1e-9) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b))))


def _ratio_problems(trace, journals, reference, tol):
    problems = []
    for name, expected in reference.items():
        idx = journals.index_of(name)
        for k, want in enumerate(expected, start=1):
            got = float(trace.ratio_at(k)[idx])
            if abs(got - want) > tol + 1e-12:
                problems.append(f"{name} k={k}: got {got:.4f}, expected {want}")
    return problems


def test_01_reference_ratios_with_self_citations(capsys, journals):
    start = time.perf_counter()
    trace = pwr_trace(journals, PwrOptions(k_max=7))
    elapsed = time.perf_counter() - start
    problems = _ratio_problems(trace, journals, RATIOS_WITH_SELF, 0.01)
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.3f}s is not under 1s")
    _verdict(capsys, 1, "49 reference ratios with self-citations, within 0.01, under 1 s", problems)


def test_02_reference_ratios_without_self_citations(capsys, journals):
    trace = pwr_trace(journals, PwrOptions(k_max=7, self_citations="exclude"))
    problems = _ratio_problems(trace, journals, RATIOS_WITHOUT_SELF, 0.01)
    _verdict(capsys, 2, "49 reference ratios without self-citations, within 0.01", problems)


def test_03_homogeneous_set_is_stable_by_iteration_seven(capsys, journals):
    trace = pwr_trace(journals, PwrOptions(k_max=7, self_citations="exclude"))
    delta = float(np.abs(trace.ratio_at(7) - trace.ratio_at(6)).max())
    problems = []
    if delta > 0.01:
        problems.append(f"max |r(7) - r(6)| = {delta:.5f} > 0.01")
    full = pwr_trace(journals, PwrOptions(k_max=20, self_citations="exclude"))
    report = convergence_report(full, 0.01)
    if report.k_converged != 7:
        problems.append(f"reported k_converged {report.k_converged}, expected 7")
    _verdict(capsys, 3, "no-self ratios stable by k = 7 at tol 0.01", problems)


def test_04_correlation_with_shipped_sjr(capsys, journals):
    r_vec, _report = converged_pwr(journals, PwrOptions(self_citations="exclude"))
    r = pearson(MetricVector("pwr", journals.labels, r_vec), sjr_2013())
    problems = [] if -0.27 <= r <= -0.25 else [f"pearson {r:.5f} outside [-0.27, -0.25]"]
    _verdict(capsys, 4, "converged no-self ratios vs shipped SJR: r = -0.26 +- 0.01", problems)


def test_05_citation_factor_is_the_first_iteration(capsys, journals):
    cf = citation_factor(journals)
    problems = []
    for idx, want in enumerate(CITATION_FACTOR_REFERENCE):
        got = float(cf.values[idx])
        if abs(got - want) > 0.005:
            problems.append(f"{journals.labels[idx]}: got {got:.4f}, expected {want}")
    trace = pwr_trace(journals, PwrOptions(k_max=1))
    if not np.array_equal(cf.values, trace.ratio_at(1)):
        problems.append("citation factor is not bitwise identical to the k=1 ratio")
    _verdict(capsys, 5, "citation factor equals the k=1 ratio column, within 0.005", problems)


def test_06_iteration_matches_explicit_power_oracle(capsys):
    rng = np.random.default_rng(64290)
    problems = []
    trials = 200
    for trial in range(trials):
        dense = rng.uniform(0.0, 10.0, size=(5, 5))
        dense[rng.random((5, 5)) < 0.3] = 0.0
        z = CitationMatrix(tuple(f"J{i}" for i in range(5)), dense)
        trace = pwr_trace(z, PwrOptions(k_max=5, normalize_each_iteration=False))
        for k in range(1, 6):
            oracle = matrix_power_oracle(z, k)
            if not _close_rel(trace.power_at(k), row_sums(oracle)):
                problems.append(f"trial {trial} k={k}: power deviates")
            if not _close_rel(trace.weakness_at(k), column_sums(oracle)):
                problems.append(f"trial {trial} k={k}: weakness deviates")
    _verdict(
        capsys, 6, f"{trials} random 5x5 matrices match the explicit matrix-power oracle", problems
    )


def test_07_invariance_suite(capsys):
    rng = np.random.default_rng(8153)
    problems = []
    opts = PwrOptions(k_max=6)
    for trial in range(25):
        n = int(rng.integers(2, 8))
        dense = rng.uniform(0.1, 10.0, size=(n, n))
        labels = tuple(f"J{i}" for i in range(n))
        base = pwr_trace(CitationMatrix(labels, dense), opts)

        for c in (0.5, 3.0, 10.0):
            scaled = pwr_trace(CitationMatrix(labels, dense * c), opts)
            if not all(
                _close_rel(scaled.ratio_at(k), base.ratio_at(k)) for k in range(1, 7)
            ):
                problems.append(f"trial {trial}: scaling by {c} changed ratios")

        perm = rng.permutation(n)
        permuted = pwr_trace(
            CitationMatrix(tuple(labels[i] for i in perm), dense[np.ix_(perm, perm)]), opts
        )
        if not all(
            _close_rel(permuted.ratio_at(k), base.ratio_at(k)[perm]) for k in range(1, 7)
        ):
            problems.append(f"trial {trial}: permutation is not equivariant")

        flipped = pwr_trace(transpose(CitationMatrix(labels, dense)), opts)
        if not all(
            _close_rel(flipped.ratio_at(k), 1.0 / base.ratio_at(k)) for k in range(1, 7)
        ):
            problems.append(f"trial {trial}: transpose did not invert ratios")

        sym = pwr_trace(CitationMatrix(labels, dense + dense.T), opts)
        if not all(_close_rel(sym.ratio_at(k), np.ones(n)) for k in range(1, 7)):
            problems.append(f"trial {trial}: symmetric matrix ratios differ from 1")

        raw = pwr_trace(
            CitationMatrix(labels, dense), PwrOptions(k_max=6, normalize_each_iteration=False)
        )
        if not all(_close_rel(raw.ratio_at(k), base.ratio_at(k)) for k in range(1, 7)):
            problems.append(f"trial {trial}: normalization changed ratios")
    _verdict(
        capsys,
        7,
        "scale, permutation, transpose, symmetry, and normalization invariances at 1e-9",
        problems,
    )


def test_08_mixing_blocks_slows_convergence(capsys):
    # two internally homogeneous 4-node blocks plus strong one-way citation
    # from the second block's journals to the first block's (rows 4..7 receive
    # from columns 0..3)
    a = np.full((4, 4), 10.0)
    a[0, 1] = 12.0
    b = np.full((4, 4), 20.0)
    b[2, 3] = 23.0
    combined = np.zeros((8, 8))
    combined[:4, :4] = a
    combined[4:, 4:] = b
    combined[4:, :4] = 5.0

    def k_of(mat) -> int | None:
        labels = tuple(f"J{i}" for i in range(mat.shape[0]))
        trace = pwr_trace(CitationMatrix(labels, mat), PwrOptions(k_max=20, tol=1e-4))
        return convergence_report(trace, 1e-4).k_converged

    k_a, k_b, k_all = k_of(a), k_of(b), k_of(combined)
    problems = []
    if k_a is None or k_b is None:
        problems.append(f"a homogeneous block failed to converge (k_a={k_a}, k_b={k_b})")
    elif k_all is None:
        problems.append("combined matrix never converged within 20 iterations")
    elif not (k_all > k_a and k_all > k_b):
        problems.append(f"k_combined={k_all} does not exceed k_a={k_a} and k_b={k_b}")
    _verdict(
        capsys, 8, "combined heterogeneous set converges strictly later than its blocks", problems
    )


def _set_partitions(n: int):
    """All partitions of range(n) as canonical assignment vectors."""

    def grow(prefix: list[int], used: int):
        if len(prefix) == n:
            yield list(prefix)
            return
        for comm in range(used + 1):
            prefix.append(comm)
            yield from grow(prefix, max(used, comm + 1))
            prefix.pop()

    yield from grow([], 0)


def _direct_modularity(adj: np.ndarray, degree: np.ndarray, assignment) -> float:
    """Textbook double-sum modularity, independent of the library route."""
    two_m = float(adj.sum())
    q = 0.0
    for i in range(len(assignment)):
        for j in range(len(assignment)):
            if assignment[i] == assignment[j]:
                q += adj[i, j] - degree[i] * degree[j] / two_m
    return q / two_m


def test_09_component_and_clustering_properties(capsys):
    problems = []

    # (a) collapsing strong components must leave an acyclic graph
    rng = np.random.default_rng(40961)
    for trial in range(30):
        n = int(rng.integers(2, 12))
        dense = (rng.random((n, n)) < 0.25).astype(float)
        z = CitationMatrix(tuple(f"J{i}" for i in range(n)), dense)
        result = strongly_connected_components(z)
        m = len(result.components)
        condensed = np.zeros((m, m))
        for i, j, w in nonzero_entries(z):
            ci, cj = result.component_of[i], result.component_of[j]
            if ci != cj:
                condensed[ci, cj] += w
        meta = CitationMatrix(tuple(f"C{i}" for i in range(m)), condensed)
        if strongly_connected_components(meta).sizes() != (1,) * m:
            problems.append(f"condensation trial {trial}: cycle between components")

    # (b) two disjoint triangles split exactly at Q = 0.5
    two_triangles = UndirectedGraph(
        tuple("abcdef"),
        tuple((i, j, 1.0) for i, j in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
    )
    part = louvain_partition(two_triangles)
    if part.community_of != (0, 0, 0, 1, 1, 1):
        problems.append(f"two triangles split as {part.community_of}")
    if part.q != 0.5:
        problems.append(f"two-triangle quality {part.q!r} != 0.5")

    # (c) exhaustive check on every unit-weight graph with up to 5 nodes:
    # the found quality must reach the brute-force optimum over all
    # partitions, never fall below singletons, and both modularity routes
    # must agree
    graphs = 0
    for n in range(2, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        labels = tuple(f"v{i}" for i in range(n))
        partitions = list(_set_partitions(n))
        for mask in range(1, 1 << len(pairs)):
            edges = tuple(
                (i, j, 1.0) for bit, (i, j) in enumerate(pairs) if mask >> bit & 1
            )
            g = UndirectedGraph(labels, edges)
            graphs += 1
            adj = np.zeros((n, n))
            for i, j, w in g.edges:
                adj[i, j] += w
                adj[j, i] += w
            degree = adj.sum(axis=1)
            found = louvain_partition(g)
            best = max(_direct_modularity(adj, degree, p) for p in partitions)
            if found.q < best - 1e-9:
                problems.append(
                    f"n={n} mask={mask}: found {found.q:.6f} below optimum {best:.6f}"
                )
            if found.q < modularity(g, list(range(n))) - 1e-12:
                problems.append(f"n={n} mask={mask}: worse than singletons")
            if abs(_direct_modularity(adj, degree, found.community_of) - found.q) > 1e-12:
                problems.append(f"n={n} mask={mask}: modularity routes disagree")

    _verdict(
        capsys,
        9,
        f"condensation acyclic; optimum partition matched on all {graphs} small graphs",
        problems,
    )


def test_10_format_round_trips(capsys, journals):
    rng = np.random.default_rng(813200)
    problems = []
    trials = 100
    for trial in range(trials):
        n = int(rng.integers(1, 9))
        dense = rng.integers(0, 21, size=(n, n)).astype(np.float64)
        z = CitationMatrix(tuple(f"J{i}" for i in range(n)), dense)
        if read_csv_matrix(write_csv_matrix(z)) != z:
            problems.append(f"trial {trial}: csv round-trip lost data")
        if read_pajek(write_pajek(z)) != z:
            problems.append(f"trial {trial}: network round-trip lost data")
        if read_csv_matrix(write_csv_matrix(read_pajek(write_pajek(z)))) != z:
            problems.append(f"trial {trial}: cross-format conversion lost data")
    for route, back in (
        ("network", read_pajek(write_pajek(journals))),
        ("csv", read_csv_matrix(write_csv_matrix(journals))),
    ):
        if back != journals:
            problems.append(f"bundled dataset {route} round-trip lost data")
        if grand_total(back) != GRAND_TOTAL_REFERENCE:
            problems.append(f"bundled dataset {route} grand total drifted")
    _verdict(
        capsys,
        10,
        f"lossless round-trips on {trials} random matrices and the bundled dataset",
        problems,
    )


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _adjusted_rand_index(a, b) -> float:
    """Agreement of two labelings of the same items, 1 when they are the same
    partition and 0 in expectation for random ones (Hubert and Arabie 1985)."""
    _, a = np.unique(a, return_inverse=True)
    _, b = np.unique(b, return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1.0)

    def pairs(counts) -> float:
        return float((counts * (counts - 1) / 2).sum())

    index, rows, cols = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([a.size]))
    return (index - expected) / ((rows + cols) / 2 - expected)


def test_11_planted_fields_converge_faster_than_the_whole_set(capsys, monkeypatch):
    # the paper's finding: a heterogeneous set converges slowly, while each
    # similarity cluster of it converges within a few dozen iterations
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_fields", PERFBENCH / "fields.py")
    fields = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fields)
    workloads = json.loads((PERFBENCH / "spec.json").read_text(encoding="utf-8"))["workloads"]
    params = dict(workloads["fields-5k"]["generator"], n=1000)
    n, field_size = params.pop("n"), params["field_size"]
    z = read_pajek(fields.pajek_text(*fields.fields(n, 0, **params)))
    opts = PwrOptions(k_max=300, tol=1e-6)

    def k_converged(m: CitationMatrix) -> int | None:
        return convergence_report(pwr_trace(m, opts), opts.tol).k_converged

    # the CLI's default threshold and cosine diagonal
    partition = louvain_partition(threshold_graph(citing_cosine_matrix(z), 0.01))
    community_of = np.array(partition.community_of)
    ari = _adjusted_rand_index(community_of, np.arange(n) % (n // field_size))
    whole = k_converged(z)
    parts = [
        k_converged(extract_subgraph(z, np.flatnonzero(community_of == c).tolist()))
        for c in range(partition.n_communities)
    ]
    problems = []
    if partition.n_communities != 5:
        problems.append(f"{partition.n_communities} communities, expected 5")
    if abs(ari - 0.933) > 5e-4:
        problems.append(f"ARI {ari:.4f} against the planted fields, expected 0.933")
    if whole != 106:
        problems.append(f"whole set converged at k = {whole}, expected 106")
    if parts != [14, 17, 20, 20, 18]:
        problems.append(f"communities converged at k = {parts}, expected [14, 17, 20, 20, 18]")
    _verdict(
        capsys,
        11,
        "n = 1,000 planted fields: 5 communities (ARI 0.933), each converged by k = 20,"
        " the whole set at k = 106",
        problems,
    )


def _tournament(n: int, regular: bool) -> CitationMatrix:
    """Journal i "beats" journal j (Z[i][j] = 1) when (i - j) mod n is in
    1..(n-1)/2 (regular, odd n) or when i < j (transitive)."""
    i, j = np.ogrid[:n, :n]
    beats = ((i - j) % n >= 1) & ((i - j) % n <= (n - 1) // 2) if regular else i < j
    return CitationMatrix(tuple(f"J{v}" for v in range(n)), beats.astype(float))


def test_12_tournaments_reach_the_limits_that_theory_gives(capsys):
    # Ramanujacharyulu's (1964) tournament setting: in a regular tournament
    # every row and column sums to (n-1)/2, so Z^k 1 and (Z^T)^k 1 are equal
    # vectors of equal entries, ((n-1)/2)^k while that is below 2^53, and a
    # row's sum of equal entries has the same bits in any order
    problems = []
    for n, k_max in ((5, 20), (7, 20), (1025, 5)):
        z = _tournament(n, regular=True)
        if not np.array_equal(z.to_dense() + z.to_dense().T, 1.0 - np.eye(n)):
            problems.append(f"regular n={n}: not a tournament")
        if z.is_sparse != (n == 1025):
            problems.append(f"regular n={n}: storage is not the one intended")
        for normalize in (True, False):
            trace = pwr_trace(z, PwrOptions(k_max=k_max, normalize_each_iteration=normalize))
            if not (trace.ratios == 1.0).all():
                problems.append(f"regular n={n} normalize={normalize}: a ratio is not 1.0")
    # the 3-cycle is irreducible with period 3 and Z^k 1 = 1 at every k
    cycle = CitationMatrix(("A", "B", "C"), np.roll(np.eye(3), 1, axis=1))
    trace = pwr_trace(cycle, PwrOptions())
    report = convergence_report(trace, trace.options.tol)
    if not (trace.ratios == 1.0).all() or report.k_converged != 2:
        problems.append(f"3-cycle: ratios not all 1.0 or k_converged={report.k_converged}")
    # a transitive tournament is acyclic, so Z is nilpotent: Z^6 = 0 for n = 6
    trace = pwr_trace(_tournament(6, regular=False), PwrOptions(k_max=8))
    report = convergence_report(trace, trace.options.tol)
    if not trace.degenerate or report.converged or report.k_converged is not None:
        problems.append("transitive n=6: not degenerate, or reported as converged")
    if not min(report.deltas) <= report.tol:
        problems.append("transitive n=6: no delta below tol, so the degenerate flag is untested")
    _verdict(
        capsys,
        12,
        "regular tournaments (n = 5, 7 dense; 1,025 CSR) and the 3-cycle give every ratio"
        " exactly 1.0; a 6-node transitive tournament is degenerate and never converged",
        problems,
    )


def _perron(m: np.ndarray) -> tuple[float, float, np.ndarray]:
    """The Perron root of ``m``, |lambda_2 / lambda_1| (0 for one node) and the
    unit-sum Perron vector, from ``numpy.linalg.eig``."""
    values, vectors = np.linalg.eig(m)
    order = np.argsort(-np.abs(values))
    gap = abs(values[order[1]]) / abs(values[order[0]]) if len(values) > 1 else 0.0
    vector = np.abs(vectors[:, order[0]].real)
    return float(values[order[0]].real), float(gap), vector / vector.sum()


def test_12_primitive_ratios_reach_the_quotient_of_the_perron_vectors(capsys):
    # Z^k 1 and (Z^T)^k 1 turn to the right and left Perron vectors u and v
    # with an error of order |lambda_2 / lambda_1|^k, so at the k that takes
    # that below 1e-13 (two steps more) every ratio is u / v of the unit-sum
    # vectors; 1e-12 leaves room for the vectors' constants and rounding
    rng = np.random.default_rng(12)
    problems = []
    for case in range(200):
        n = int(rng.integers(2, 9))
        m = rng.integers(1, 10, size=(n, n)).astype(float)
        _, gap, u = _perron(m)
        _, _, v = _perron(m.T)
        k = int(np.ceil(np.log(1e-13) / np.log(gap))) + 2 if gap > 0.0 else 2
        z = CitationMatrix(tuple(f"J{i}" for i in range(n)), m)
        error = np.abs(pwr_trace(z, PwrOptions(k_max=k)).ratio_at(k) / (u / v) - 1.0).max()
        if not error < 1e-12:
            problems.append(f"case {case} (n={n}, k={k}): relative error {error:.3g}")
    _verdict(
        capsys,
        12,
        "200 all-positive integer matrices (n = 2..8) give ratios within 1e-12 of"
        " u / v, the quotient of their Perron vectors, once |lambda_2 / lambda_1|^k < 1e-13",
        problems,
    )


def test_12_reducible_block_triangular_powers_leave_the_weaker_block(capsys):
    # Z = [[A, B], [0, C]] with rho(A) > rho(C) and B > 0: block C's entries
    # of Z^k 1 are C^k 1 <= rho(C)^k u_C / min(u_C), and block A's sum is at
    # least that of A^k 1 >= rho(A)^k u_A / max(u_A), so C's share of the
    # power falls under a constant times (rho(C) / rho(A))^k
    rng = np.random.default_rng(1964)
    problems = []
    k_max = 40
    for case in range(50):
        p, q = (int(size) for size in rng.integers(1, 5, size=2))
        a = rng.integers(1, 10, size=(p, p)).astype(float)
        c = rng.integers(1, 10, size=(q, q)).astype(float)
        if _perron(a)[0] < _perron(c)[0]:
            a, c, p, q = c, a, q, p
        (rho_a, _, u_a), (rho_c, _, u_c) = _perron(a), _perron(c)
        if rho_a == rho_c:
            continue
        z = np.block([[a, rng.integers(1, 10, size=(p, q))], [np.zeros((q, p)), c]])
        labels = tuple(f"J{i}" for i in range(p + q))
        trace = pwr_trace(CitationMatrix(labels, z), PwrOptions(k_max=k_max))
        share = trace.powers[:, p:].sum(axis=1) / trace.powers.sum(axis=1)
        constant = (u_c.sum() / u_c.min()) / (u_a.sum() / u_a.max())
        bound = constant * (rho_c / rho_a) ** np.arange(1, k_max + 1)
        if not (share <= bound).all():
            k = int(np.argmax(share > bound)) + 1
            problems.append(f"case {case} (p={p}, q={q}): share {share[k - 1]:.3g} at k={k}")
    _verdict(
        capsys,
        12,
        "50 reducible [[A, B], [0, C]] matrices with rho(A) > rho(C) and B > 0: block C's"
        " share of the power stays under a constant times (rho(C) / rho(A))^k",
        problems,
    )
