"""Command-line interface tests.

Commands run in-process through main(argv) so stdout/stderr and exit codes
can be asserted directly; one subprocess test checks the module entry point
end to end.
"""

from __future__ import annotations

import csv
import hashlib
import io
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pwrkit import (
    CitationMatrix,
    MetricVector,
    data_path,
    engine,
    jasist_plus_matrix,
    read_csv_matrix,
    read_pajek,
    read_trace_csv,
    sjr_2013,
    write_csv_matrix,
    write_metric_csv,
    write_pajek,
)
from pwrkit.cli import main

FIXTURE = str(data_path("jasist_plus.csv"))

# sha256 of `pwr` standard output and of the --plot chart on the bundled set,
# frozen from the release before traces became (k_max, n) arrays; the chart
# needs k_max >= 2, so the k_max = 1 cases have none.
FROZEN_PWR_DIGESTS = {
    ("include", "1"): ("cfc55d39b74358483e222a21b4034c3c1a54beeae5430809cd6c02b11a9a9991", None),
    ("exclude", "1"): ("188a5062420c482c5bbea560fe12014c5d20ad94c5e8f2725a908f69abc21403", None),
    ("include", "20"): (
        "9b761b464e1d724986d764630d7d10f95729688e4a3e4742438b2b6d2208bbcb",
        "a0621ef6882901da64d6b7afa2fd522e857614bab1e6aaec84a5c690bde86521",
    ),
    ("exclude", "20"): (
        "882b336b4bd529a73295dc106e8029de73a1878a074cd21d72afb024232274e3",
        "5f9d7b1da5cea38593b8676a1d88e28d3b2489f6cd31eb77eaaa3f2718fabc6a",
    ),
}

# sha256 of `decompose` standard output and standard error on the bundled
# set, keyed by (--cosine-diagonal, --cosine-threshold, --resolution) and
# frozen from the release whose Louvain visited narrow rows in plain Python;
# they pin the exact partition and the repr of Q.
FROZEN_DECOMPOSE_DIGESTS = {
    ("include", "0.01", "1"): (
        "9dba988607d2620a3dd0f5ce87fcbf6f99b26f4089db306eb5eca826e311e2cf",
        "a55ab46871bb653031849994e1718d8025876a98aa644691258314ee474cee57",
    ),
    ("include", "0.2", "1.5"): (
        "4f7a0dd43aa209252e017d8e0c06866aaee4882fdf539f43aa2112abc43b7e9f",
        "69d718f5f94ec8a99c0d9f50654fd44950c33a64ebaf7997854cc484a5f1d8f4",
    ),
    ("exclude", "0.01", "1"): (
        "8202e15d723d74c08753112783354860e30d61a466c61fc925adf3b5ed1fc9f6",
        "d0306fc45555c9d5f91eaf1b0f1f5b5f58293ad64b5e5d7789432d5b8cd41747",
    ),
    ("exclude", "0.2", "1.5"): (
        "7b896fb079e365234d58ec2dbf76037309339c5a64db236bd5acb2f2bc651991",
        "0b822daa9c4ef19cbc99070dfe965bd45ed4b5804b5cd158cc65421ae4bec0d1",
    ),
}

# sha256 of `decompose --output` standard output and partition CSV on a
# seeded field-structured network of 1200 journals, keyed by seed.  n is
# above DENSE_LIMIT, so the matrix is CSR; frozen from the release whose
# Louvain built its adjacency with int64 keys and stable int64 sorts.
FROZEN_FIELDED_DECOMPOSE_DIGESTS = {
    0: (
        "79206cb03d6d0b1fd60674b4a633cbb0411713aa0a41786ea2b6e458782b9753",
        "098afb52ba62f014e2582a34ac6bc18b62d42dd60b9d43478a182d543f535292",
    ),
    1: (
        "692e9d4413302ed879b9d44c1733717d0e447f54b4d7f9c8ffb8692be0c0fd6e",
        "95b6ea1f01db2590faab9746a76b5fb6d077fb3d1730231225be32a6393d70a2",
    ),
}


def fielded_pajek(n: int, seed: int) -> str:
    """Pajek text: 12 fields, 8 references per journal, 85% of them in field."""
    rng = np.random.default_rng(seed)
    fields = 12
    citing = np.repeat(np.arange(n), 8)
    inside = rng.random(citing.size) < 0.85
    field = np.where(inside, citing % fields, rng.integers(0, fields, citing.size))
    cited = field + fields * rng.integers(0, n // fields, citing.size)
    weight = rng.integers(1, 10, citing.size)
    lines = [f"*Vertices {n}"] + [f'{v} "J{v:04d}"' for v in range(1, n + 1)]
    lines.append("*Arcs")
    arcs = zip(cited.tolist(), citing.tolist(), weight.tolist())
    lines += [f"{s + 1} {d + 1} {w}" for s, d, w in arcs]
    return "\n".join(lines) + "\n"


# Every row and column sum, and every cosine product, is past double range.
OVERFLOW_CSV = ",A,B\nA,1e308,1e308\nB,1e308,1e308\n"
PAGERANK_OVERFLOW = "error: column sums overflow double range; pagerank is undefined"


@pytest.fixture
def zero_weakness_csv(tmp_path):
    path = tmp_path / "zw.csv"
    path.write_text(",A,B\nA,0,5\nB,0,0\n", encoding="utf-8")
    return str(path)


def _csv_file(tmp_path, text: str) -> str:
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(("self_citations", "k_max"), sorted(FROZEN_PWR_DIGESTS))
def test_bundled_pwr_output_matches_frozen_digests(self_citations, k_max, capsys, tmp_path):
    stdout_digest, chart_digest = FROZEN_PWR_DIGESTS[(self_citations, k_max)]
    argv = ["pwr", "--input", FIXTURE, "--self-citations", self_citations, "--k-max", k_max]
    chart = tmp_path / "chart.svg"
    if chart_digest:
        argv += ["--plot", str(chart)]
    assert main(argv) == 0
    out, _err = capsys.readouterr()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_digest
    if chart_digest:
        assert hashlib.sha256(chart.read_bytes()).hexdigest() == chart_digest


@pytest.mark.parametrize(("diagonal", "threshold", "resolution"), sorted(FROZEN_DECOMPOSE_DIGESTS))
def test_bundled_decompose_output_matches_frozen_digests(diagonal, threshold, resolution, capsys):
    stdout_digest, stderr_digest = FROZEN_DECOMPOSE_DIGESTS[(diagonal, threshold, resolution)]
    argv = ["decompose", "--input", FIXTURE, "--cosine-diagonal", diagonal]
    argv += ["--cosine-threshold", threshold, "--resolution", resolution]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_digest
    assert hashlib.sha256(err.encode("utf-8")).hexdigest() == stderr_digest


@pytest.mark.parametrize("seed", sorted(FROZEN_FIELDED_DECOMPOSE_DIGESTS))
def test_fielded_csr_decompose_output_matches_frozen_digests(seed, capsys, tmp_path):
    stdout_digest, partition_digest = FROZEN_FIELDED_DECOMPOSE_DIGESTS[seed]
    net = tmp_path / "fields.net"
    net.write_text(fielded_pajek(1200, seed), encoding="utf-8")
    partition = tmp_path / "partition.csv"
    assert main(["decompose", "--input", str(net), "--output", str(partition)]) == 0
    out, _err = capsys.readouterr()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_digest
    assert hashlib.sha256(partition.read_bytes()).hexdigest() == partition_digest


class TestPwrCommand:
    def test_trace_to_stdout_summary_to_stderr(self, capsys):
        code = main(["pwr", "--input", FIXTURE, "--k-max", "7"])
        out, err = capsys.readouterr()
        assert code == 0
        assert out.startswith("label,k,power,weakness,ratio")
        assert "converged=" in err
        assert "converged=" not in out

    def test_output_file_moves_summary_to_stdout(self, capsys, tmp_path):
        target = tmp_path / "trace.csv"
        code = main(
            [
                "pwr",
                "--input",
                FIXTURE,
                "--self-citations",
                "exclude",
                "--tol",
                "0.01",
                "--output",
                str(target),
            ]
        )
        out, _err = capsys.readouterr()
        assert code == 0
        assert "converged=yes k_converged=7" in out
        table = read_trace_csv(target.read_text(encoding="utf-8"))
        assert table.k_max == 20
        assert set(table.labels) == set(jasist_plus_matrix().labels)

    def test_single_iteration_has_no_deltas(self, capsys):
        code = main(["pwr", "--input", FIXTURE, "--k-max", "1"])
        _out, err = capsys.readouterr()
        assert code == 0
        assert "converged=no k_converged=- final_delta=-" in err

    def test_plot_writes_svg(self, capsys, tmp_path):
        chart = tmp_path / "chart.svg"
        code = main(["pwr", "--input", FIXTURE, "--k-max", "7", "--plot", str(chart)])
        capsys.readouterr()
        assert code == 0
        assert chart.read_text(encoding="utf-8").startswith("<svg")

    def test_zero_division_error_policy_exits_2(self, capsys, zero_weakness_csv):
        code = main(["pwr", "--input", zero_weakness_csv, "--zero-div", "error"])
        _out, err = capsys.readouterr()
        assert code == 2
        assert "weakness of 'A' is zero" in err

    def test_infinite_policy_flags_node(self, capsys, zero_weakness_csv):
        code = main(["pwr", "--input", zero_weakness_csv, "--zero-div", "inf", "--k-max", "3"])
        out, err = capsys.readouterr()
        assert code == 0
        assert "inf" in out
        assert "flagged=A" in err

    def test_single_iteration_flags_like_longer_traces(self, capsys, zero_weakness_csv):
        code = main(["pwr", "--input", zero_weakness_csv, "--zero-div", "inf", "--k-max", "1"])
        _out, err = capsys.readouterr()
        assert code == 0
        assert "converged=no k_converged=- final_delta=-\nflagged=A\n" in err

    @pytest.mark.parametrize(
        ("zero_div", "summary"),
        [
            ("zero", "converged=no k_converged=- final_delta=0.0\n"),
            ("inf", "converged=no k_converged=- final_delta=nan\nflagged=A,B,C\n"),
        ],
    )
    def test_nilpotent_chain_does_not_converge(self, zero_div, summary, capsys, tmp_path):
        chain = _csv_file(tmp_path, ",A,B,C\nA,0,1,0\nB,0,0,1\nC,0,0,0\n")
        code = main(["pwr", "--input", chain, "--k-max", "5", "--zero-div", zero_div])
        _out, err = capsys.readouterr()
        assert code == 0
        assert err.endswith(summary)

    def test_overflow_does_not_converge(self, capsys, tmp_path):
        data = _csv_file(tmp_path, ",A,B\nA,1,3\nB,2,2\n")
        code = main(["pwr", "--input", data, "--no-normalize", "--k-max", "600"])
        out, err = capsys.readouterr()
        assert code == 0
        assert out.endswith("B,600,inf,inf,nan\n")
        assert err.endswith("converged=no k_converged=- final_delta=nan\nflagged=A,B\n")

    def test_plot_of_ratios_at_end_of_double_range_exits_2(self, capsys, tmp_path):
        # B's weakness is subnormal, so its k=1 ratio is about 1.7e308
        data = _csv_file(tmp_path, ",A,B\nA,1,0\nB,1,5.8e-309\n")
        chart = tmp_path / "chart.svg"
        code = main(["pwr", "--input", data, "--k-max", "2", "--plot", str(chart)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.endswith(
            "error: ratios reach the end of double range; the chart cannot scale them\n"
        )
        assert not chart.exists()

    def test_nan_tol_exits_1(self, capsys):
        code = main(["pwr", "--input", FIXTURE, "--tol", "nan"])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "error: tol must be positive and finite, got nan" in err

    def test_allocation_beyond_memory_exits_1(self, capsys, monkeypatch):
        # the trace array is (k_max, n); a real multi-TiB request could be
        # granted by an overcommitting host, so the refusal is simulated
        k_max = 100_000_000_000
        real_empty = np.empty
        asked = []

        def empty(shape, *args, **kwargs):
            if isinstance(shape, tuple) and shape[0] == k_max:
                asked.append(shape)
                raise MemoryError(f"Unable to allocate 5.09 TiB for an array with shape {shape}")
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        code = main(["pwr", "--input", FIXTURE, "--k-max", str(k_max)])
        out, err = capsys.readouterr()
        assert asked == [(k_max, 7)]
        assert code == 1
        assert out == ""
        assert err.startswith("error: out of memory: Unable to allocate 5.09 TiB")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["pwr", "compare"])
    def test_k_max_beyond_physical_memory_exits_1(self, command, capsys, monkeypatch):
        # three (k_max, 7) float64 arrays take 1_680_000 bytes at k_max = 10^4
        monkeypatch.setattr(engine, "_physical_memory", lambda: 1_000_000)
        code = main([command, "--input", FIXTURE, "--k-max", "10000"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == (
            "error: out of memory: a trace of k_max=10000 iterations over 7 nodes needs "
            "1680000 bytes, more than the 1000000 bytes of physical memory; lower --k-max\n"
        )

    @pytest.mark.parametrize("memory", [1_680_000, 0])
    def test_k_max_within_physical_memory_runs(self, memory, capsys, monkeypatch):
        # exactly enough, or a host that does not report its memory
        monkeypatch.setattr(engine, "_physical_memory", lambda: memory)
        assert main(["pwr", "--input", FIXTURE, "--k-max", "10000"]) == 0
        capsys.readouterr()

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code = main(["pwr", "--input", str(tmp_path / "nope.csv")])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "cannot read" in err

    def test_malformed_input_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a\nmatrix\n", encoding="utf-8")
        code = main(["pwr", "--input", str(bad)])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "error:" in err

    def test_oversized_csv_field_exits_1(self, capsys, tmp_path):
        # one cell past the csv module's 128 KiB field limit
        label = "A" * 200_000
        code = main(["pwr", "--input", _csv_file(tmp_path, f",{label}\n{label},1\n")])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "error: " in err and "field larger than field limit" in err

    def test_unknown_extension_needs_format_flag(self, capsys, tmp_path):
        data = tmp_path / "matrix.txt"
        data.write_text(write_csv_matrix(jasist_plus_matrix()), encoding="utf-8")
        assert main(["pwr", "--input", str(data)]) == 1
        capsys.readouterr()
        assert main(["pwr", "--input", str(data), "--format", "csv", "--k-max", "2"]) == 0
        capsys.readouterr()

    def test_invalid_k_max_exits_1(self, capsys):
        code = main(["pwr", "--input", FIXTURE, "--k-max", "0"])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "k_max" in err

    def test_bad_flag_value_exits_1(self, capsys):
        code = main(["pwr", "--input", FIXTURE, "--zero-div", "maybe"])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "invalid choice" in err


class TestSccCommand:
    def test_lists_components(self, capsys, tmp_path):
        net = tmp_path / "g.net"
        net.write_text(
            '*Vertices 3\n1 "A"\n2 "B"\n3 "C"\n*Arcs\n1 2 1\n2 1 1\n', encoding="utf-8"
        )
        code = main(["scc", "--input", str(net)])
        out, _err = capsys.readouterr()
        assert code == 0
        assert "2 strongly connected component(s)" in out
        assert "component 0: size 2: A, B" in out
        assert "component 1: size 1: C" in out

    def test_largest_writes_subgraph(self, capsys, tmp_path):
        net = tmp_path / "g.net"
        net.write_text(
            '*Vertices 3\n1 "A"\n2 "B"\n3 "C"\n*Arcs\n1 2 4\n2 1 2\n', encoding="utf-8"
        )
        target = tmp_path / "core.csv"
        code = main(["scc", "--input", str(net), "--largest", "--output", str(target)])
        capsys.readouterr()
        assert code == 0
        sub = read_csv_matrix(target.read_text(encoding="utf-8"))
        assert sub.labels == ("A", "B")
        assert sub.entry(0, 1) == 4.0

    def test_largest_computes_components_once(self, capsys, tmp_path, monkeypatch):
        def refuse(_z):
            raise AssertionError("scc --largest must not list every component")

        monkeypatch.setattr("pwrkit.cli.strongly_connected_components", refuse)
        monkeypatch.setattr("pwrkit.components.strongly_connected_components", refuse)
        target = tmp_path / "core.net"
        code = main(["scc", "--input", FIXTURE, "--largest", "--output", str(target)])
        out, _err = capsys.readouterr()
        assert code == 0
        assert "wrote largest component (7 node(s))" in out
        assert read_pajek(target.read_text(encoding="utf-8")) == jasist_plus_matrix()

    def test_largest_requires_output(self, capsys):
        code = main(["scc", "--input", FIXTURE, "--largest"])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "--output" in err

    def test_largest_of_network_without_vertices_exits_2(self, capsys, tmp_path):
        net = tmp_path / "empty.net"
        net.write_text("*Vertices 0\n*Arcs\n", encoding="utf-8")
        target = tmp_path / "core.net"
        code = main(["scc", "--input", str(net), "--largest", "--output", str(target)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: matrix has no nodes; there is no largest component\n"
        assert not target.exists()

    @pytest.mark.parametrize(
        "text, missing",
        [
            ("*Vertices 99999999999999999999\n", "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10] (and 99999999999999999989 more)"),
            ('*Vertices 200000\n1 "A"\n', "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11] (and 199989 more)"),
        ],
        ids=["past-int64", "200k-declared"],
    )
    def test_vertex_count_the_file_does_not_bear_out_exits_1(self, text, missing, capsys, tmp_path):
        net = tmp_path / "declared.net"
        net.write_text(text, encoding="utf-8")
        code = main(["scc", "--input", str(net)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        # one bounded line, whatever the declared count
        assert err == f"error: {net}: vertex ids without a definition: {missing}\n"


class TestSubsetCommand:
    def test_threshold_subgraph_to_stdout(self, capsys, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text(",A,B,C\nA,2,7,0\nB,0,0,0\nC,1,1,1\n", encoding="utf-8")
        code = main(["subset", "--input", str(src), "--target", "A", "--min", "2"])
        out, err = capsys.readouterr()
        assert code == 0
        sub = read_csv_matrix(out)
        assert sub.labels == ("A", "B")
        assert "kept 2 of 3" in err

    def test_union_with_label_file(self, capsys, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text(",A,B,C\nA,2,7,0\nB,0,0,0\nC,1,1,1\n", encoding="utf-8")
        extra = tmp_path / "more.txt"
        extra.write_text("C\n\n", encoding="utf-8")
        code = main(
            ["subset", "--input", str(src), "--target", "A", "--min", "2", "--union-with", str(extra)]
        )
        out, _err = capsys.readouterr()
        assert code == 0
        assert read_csv_matrix(out).labels == ("A", "B", "C")

    def test_union_with_label_file_starting_with_bom(self, capsys, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text(",A,B,C\nA,2,7,0\nB,0,0,0\nC,1,1,1\n", encoding="utf-8")
        extra = tmp_path / "more.txt"
        extra.write_text("\ufeffC\n", encoding="utf-8")
        code = main(
            ["subset", "--input", str(src), "--target", "A", "--min", "2", "--union-with", str(extra)]
        )
        out, err = capsys.readouterr()
        assert (code, err) == (0, "kept 3 of 3 journal(s)\n")
        assert read_csv_matrix(out).labels == ("A", "B", "C")

    def test_empty_subset_exits_2(self, capsys):
        code = main(["subset", "--input", FIXTURE, "--target", "JASIST", "--min", "99999"])
        _out, err = capsys.readouterr()
        assert code == 2
        assert "subset is empty" in err

    @pytest.mark.parametrize(
        ("value", "code", "message"),
        [
            ("nan", 1, "error: min_count must be a number, got nan\n"),
            ("inf", 2, "error: no journal cites 'JASIST' at least inf times; subset is empty\n"),
        ],
        ids=["nan", "inf"],
    )
    def test_non_finite_min(self, value, code, message, capsys):
        assert main(["subset", "--input", FIXTURE, "--target", "JASIST", "--min", value]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err == message

    def test_unknown_target_exits_1(self, capsys):
        code = main(["subset", "--input", FIXTURE, "--target", "NOPE"])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "unknown label: 'NOPE'" in err

    def test_pajek_output_format(self, capsys, tmp_path):
        target = tmp_path / "sub.net"
        code = main(
            ["subset", "--input", FIXTURE, "--target", "JASIST", "--min", "300", "--output", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        sub = read_pajek(target.read_text(encoding="utf-8"))
        assert "JASIST" in sub.labels


class TestDecomposeCommand:
    def test_partition_and_quality(self, capsys):
        code = main(["decompose", "--input", FIXTURE])
        out, err = capsys.readouterr()
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "label,community"
        assert len(lines) == 8
        assert "Q=" in err and "communities=2" in err

    def test_threshold_too_high_exits_2(self, capsys):
        code = main(["decompose", "--input", FIXTURE, "--cosine-threshold", "1.0"])
        _out, err = capsys.readouterr()
        assert code == 2
        assert "no similarity exceeds" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--cosine-threshold", "nan"),
            ("--cosine-threshold", "inf"),
            ("--resolution", "nan"),
            ("--resolution", "inf"),
            ("--resolution", "-1"),
        ],
    )
    def test_non_finite_or_negative_flag_exits_1(self, capsys, flag, value):
        code = main(["decompose", "--input", FIXTURE, flag, value])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_negative_threshold_exits_1(self, capsys):
        code = main(["decompose", "--input", FIXTURE, "--cosine-threshold", "-0.5"])
        _out, err = capsys.readouterr()
        assert code == 1
        assert ">= 0" in err


# Labels and a metric name that csv must quote: a comma, a quote, a newline.
ODD_LABELS = ("A,B", 'Q"uote', "New\nline")


@pytest.fixture
def odd_labels_csv(tmp_path):
    z = jasist_plus_matrix()
    labels = ODD_LABELS + z.labels[len(ODD_LABELS) :]
    path = tmp_path / "odd.csv"
    path.write_text(write_csv_matrix(CitationMatrix(labels, z.entries)), encoding="utf-8")
    return str(path), labels


def test_decompose_partition_quotes_labels(odd_labels_csv, capsys):
    path, labels = odd_labels_csv
    assert main(["decompose", "--input", path]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["label", "community"]
    assert [row[0] for row in rows[1:]] == list(labels)
    assert {len(row) for row in rows} == {2}


def test_compare_table_quotes_labels_and_metric_names(odd_labels_csv, capsys, tmp_path):
    path, labels = odd_labels_csv
    external = tmp_path / "ext.csv"
    values = np.arange(len(labels), dtype=float)
    external.write_text(write_metric_csv(MetricVector("ext", labels, values)), encoding="utf-8")
    name = 'a,"b"\nc'
    code = main(["compare", "--input", path, "--metrics", "pwr,cf", "--external", f"{name}={external}"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    blank = rows.index([])
    table, pairs = rows[:blank], rows[blank + 1 :]
    assert table[0] == ["label", "pwr", "cf", name]
    assert [row[0] for row in table[1:]] == list(labels)
    assert {len(row) for row in table} == {4}
    assert pairs[0] == ["metric_x", "metric_y", "pearson", "spearman"]
    assert [row[:2] for row in pairs[1:]] == [["pwr", "cf"], ["pwr", name], ["cf", name]]
    assert {len(row) for row in pairs} == {4}


class TestCompareCommand:
    def test_default_metric_table(self, capsys):
        code = main(["compare", "--input", FIXTURE, "--self-citations", "exclude"])
        out, _err = capsys.readouterr()
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "label,pwr,cf,pagerank,hits_hub,hits_authority"
        assert "metric_x,metric_y,pearson,spearman" in lines
        assert any(line.startswith("pwr,cf,") for line in lines)

    def test_external_metric_joins_table(self, capsys, tmp_path):
        sjr_file = tmp_path / "sjr.csv"
        sjr_file.write_text(write_metric_csv(sjr_2013()), encoding="utf-8")
        code = main(
            [
                "compare",
                "--input",
                FIXTURE,
                "--self-citations",
                "exclude",
                "--metrics",
                "pwr",
                "--external",
                f"sjr={sjr_file}",
            ]
        )
        out, _err = capsys.readouterr()
        assert code == 0
        pair = next(line for line in out.splitlines() if line.startswith("pwr,sjr,"))
        r = float(pair.split(",")[2])
        assert -0.27 <= r <= -0.25

    def test_unknown_metric_exits_1(self, capsys):
        code = main(["compare", "--input", FIXTURE, "--metrics", "pwr,bogus"])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "unknown metric" in err

    def test_malformed_external_argument_exits_1(self, capsys):
        code = main(["compare", "--input", FIXTURE, "--external", "no-equals-sign"])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "name=file.csv" in err

    def test_external_label_mismatch_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "other.csv"
        bad.write_text("label,value\nSOMEWHERE ELSE,1.0\n", encoding="utf-8")
        code = main(["compare", "--input", FIXTURE, "--metrics", "pwr", "--external", f"x={bad}"])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "do not match" in err

    def test_nan_tol_exits_1(self, capsys):
        code = main(["compare", "--input", FIXTURE, "--tol", "nan"])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "error: tol must be positive and finite, got nan" in err

    @pytest.mark.parametrize("damping", ["2", "nan", "0"])
    def test_bad_damping_exits_1(self, damping, capsys):
        code = main(["compare", "--input", FIXTURE, "--damping", damping])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: damping must be in (0, 1)")

    def test_matrix_without_citations_exits_2(self, capsys, tmp_path):
        data = _csv_file(tmp_path, ",A,B\nA,0,0\nB,0,0\n")
        code = main(["compare", "--input", data])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.endswith(
            "error: matrix has no citations; hub and authority scores are undefined\n"
        )

    def test_each_warning_is_printed_once(self, tmp_path):
        # pwr and cf each run the engine on the matrix; stderr carries one copy
        data = _csv_file(tmp_path, ",A,B\nA,0,0\nB,0,0\n")
        result = subprocess.run(
            [sys.executable, "-m", "pwrkit.cli", "compare", "--input", data],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "WARNING: 2 node(s) cite nothing within the set and will score extreme ratios: A, B",
            "WARNING: 2 node(s) are never cited within the set: A, B",
            "WARNING: matrix has a zero iterate; trace flagged as degenerate",
            "error: matrix has no citations; hub and authority scores are undefined",
        ]

    def test_next_run_prints_its_warnings_again(self, caplog, capsys, tmp_path):
        data = _csv_file(tmp_path, ",A,B\nA,0,0\nB,0,0\n")
        for _ in range(2):
            assert main(["compare", "--input", data, "--metrics", "pwr,cf"]) == 2
        capsys.readouterr()
        messages = [record.getMessage() for record in caplog.records]
        assert messages.count("matrix has a zero iterate; trace flagged as degenerate") == 2

    def test_output_file_duplicates_table(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code = main(["compare", "--input", FIXTURE, "--metrics", "cf", "--output", str(target)])
        out, _err = capsys.readouterr()
        assert code == 0
        assert target.read_text(encoding="utf-8") == out


class TestConvertCommand:
    def test_csv_to_pajek_and_back(self, capsys, tmp_path):
        middle = tmp_path / "m.net"
        final = tmp_path / "back.csv"
        assert main(["convert", "--input", FIXTURE, "--output", str(middle)]) == 0
        assert main(["convert", "--input", str(middle), "--output", str(final)]) == 0
        capsys.readouterr()
        assert read_csv_matrix(final.read_text(encoding="utf-8")) == jasist_plus_matrix()

    def test_same_format_requires_force(self, capsys, tmp_path):
        target = tmp_path / "copy.csv"
        code = main(["convert", "--input", FIXTURE, "--output", str(target)])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "--force" in err
        assert main(["convert", "--input", FIXTURE, "--output", str(target), "--force"]) == 0
        capsys.readouterr()
        assert read_csv_matrix(target.read_text(encoding="utf-8")) == jasist_plus_matrix()

    def test_grand_total_past_double_range_prints_inf(self, capsys, tmp_path):
        src = _csv_file(tmp_path, ",A,B\nA,1e308,1e308\nB,1e308,1e308\n")
        target = tmp_path / "big.net"
        # an overflow warning from the sum would be a second line on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["convert", "--input", src, "--output", str(target)])
        out, err = capsys.readouterr()
        assert code == 0
        assert out == ""
        assert err == f"wrote {target} (2 node(s), grand total inf)\n"
        assert read_pajek(target.read_text(encoding="utf-8")).entry(1, 0) == 1e308


@pytest.mark.parametrize(
    ("argv", "code", "report"),
    [
        pytest.param(
            ["pwr"], 0, ["converged=no k_converged=- final_delta=nan", "flagged=A,B"], id="pwr"
        ),
        pytest.param(["compare"], 2, [PAGERANK_OVERFLOW], id="compare"),
        pytest.param(
            ["compare", "--metrics", "pagerank,hits"],
            2,
            [PAGERANK_OVERFLOW],
            id="compare-pagerank-hits",
        ),
        pytest.param(
            ["compare", "--metrics", "pagerank,cf"],
            2,
            [PAGERANK_OVERFLOW],
            id="compare-pagerank-cf",
        ),
        pytest.param(
            ["compare", "--metrics", "hits"],
            2,
            ["error: authority scores overflow double range"],
            id="compare-hits",
        ),
        pytest.param(
            ["decompose"], 1, ["error: similarities must be finite"], id="decompose"
        ),
    ],
)
def test_overflowing_sums_print_no_numpy_warning(argv, code, report, capsys, tmp_path):
    src = _csv_file(tmp_path, OVERFLOW_CSV)
    # a numpy RuntimeWarning would be an extra stderr line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--input", src]) == code
    _out, err = capsys.readouterr()
    assert [line for line in err.splitlines() if not line.startswith("WARNING: ")] == report


@pytest.mark.parametrize(
    ("diagonal", "report"),
    [
        pytest.param("include", "Q=-1.4450169745104152e+307 communities=7\n", id="include"),
        pytest.param("exclude", "Q=-1.4725135581066238e+307 communities=7\n", id="exclude"),
    ],
)
def test_resolution_at_end_of_double_range_prints_no_numpy_warning(diagonal, report, capsys):
    # the modularity penalty overflows to inf; partition and Q frozen from
    # the release that printed the numpy warning with them
    argv = ["decompose", "--input", FIXTURE, "--cosine-diagonal", diagonal]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--resolution", "1e308"]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "c1875df3bcad67507c3026c4c31f10ccfad22d4bd8c749e0ca9237943ad9cf01"
    )
    assert err == report


class TestTopLevel:
    def test_no_arguments_exits_1(self, capsys):
        code = main([])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "subcommand" in err

    def test_unknown_subcommand_exits_1(self, capsys):
        code = main(["frobnicate"])
        _out, err = capsys.readouterr()
        assert code == 1
        assert "invalid choice" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        out, _err = capsys.readouterr()
        assert excinfo.value.code == 0
        assert out.startswith("pwrkit ")

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "pwrkit.cli", "pwr", "--input", FIXTURE, "--k-max", "3"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("label,k,power,weakness,ratio")
        assert "converged=" in result.stderr


def test_pajek_writer_round_trip_through_cli(tmp_path, capsys):
    z = jasist_plus_matrix()
    src = tmp_path / "m.net"
    src.write_text(write_pajek(z), encoding="utf-8")
    out_path = tmp_path / "m.csv"
    assert main(["convert", "--input", str(src), "--output", str(out_path)]) == 0
    capsys.readouterr()
    assert read_csv_matrix(out_path.read_text(encoding="utf-8")) == z


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "--input", "{src}", "--output", "{dst}"],
        ["subset", "--input", "{src}", "--target", "A", "--output", "{dst}"],
        ["scc", "--input", "{src}", "--largest", "--output", "{dst}"],
    ],
)
def test_label_pajek_cannot_carry_exits_1(argv, capsys, tmp_path):
    src = _csv_file(tmp_path, ',A,"B""C"\nA,0,1\n"B""C",1,0\n')
    dst = tmp_path / "out.net"
    code = main([arg.format(src=src, dst=dst) for arg in argv])
    _out, err = capsys.readouterr()
    assert code == 1
    assert err == "error: vertex 2: label 'B\"C' holds a quote or a line break\n"
    assert not dst.exists()


# The same bad bytes reach each of the three file-reading flags.
NON_UTF8_ARGV = {
    "input": ["pwr", "--input", "{bad}"],
    "union-with": ["subset", "--input", FIXTURE, "--target", "JASIST", "--union-with", "{bad}"],
    "external": ["compare", "--input", FIXTURE, "--metrics", "cf", "--external", "x={bad}"],
}


@pytest.mark.parametrize("flag", sorted(NON_UTF8_ARGV))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(head=st.binary(max_size=16), tail=st.binary(max_size=16))
def test_non_utf8_file_exits_1_without_traceback(flag, head, tail, capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    # 0xff never occurs in UTF-8
    bad.write_bytes(head + b"\xff" + tail)
    code = main([arg.format(bad=bad) for arg in NON_UTF8_ARGV[flag]])
    _out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1
    assert "Traceback" not in err


# The fuzz property below splices these byte runs into a small matrix of each
# format: numbers at and past the ends of double range, separators, quotes,
# line breaks, a byte that is never UTF-8, and section headers.
FUZZ_SEEDS = {
    ".csv": b",A,B,C\nA,2,7,0\nB,0,0,0\nC,1,1,1\n",
    ".net": b'*Vertices 3\n1 "A"\n2 "B"\n3 "C"\n*Arcs\n1 2 4\n2 1 2\n3 3 1\n',
}
FUZZ_TOKENS = (
    b"", b"0", b"-1", b"nan", b"inf", b"1e308", b"5.8e-309", b",", b'"', b"\n", b"\r",
    b"\xff", b"*Vertices 0\n", b"*Arcs\n", b"*Edges\n", b"A",
)
# Every flag of every subcommand, with the values it is drawn from (None for
# a switch); {src} is the fuzzed input and {dir} a directory for outputs.
FUZZ_FLAGS = {
    "pwr": {
        "--format": ["csv", "pajek"], "--k-max": ["0", "1", "2", "600"],
        "--tol": ["1e-6", "nan", "0"], "--self-citations": ["include", "exclude"],
        "--zero-div": ["zero", "inf", "error"], "--no-normalize": None,
        "--output": ["{dir}/trace.csv"], "--plot": ["{dir}/chart.svg"],
    },
    "scc": {
        "--format": ["csv", "pajek"], "--largest": None,
        "--output": ["{dir}/core.net", "{dir}/core.csv"], "--output-format": ["csv", "pajek"],
    },
    "subset": {
        "--format": ["csv", "pajek"], "--target": ["A", "C", "NOPE"],
        "--min": ["0", "2", "nan", "inf"], "--union-with": ["{src}"],
        "--output": ["{dir}/sub.net", "{dir}/sub.csv"], "--output-format": ["csv", "pajek"],
    },
    "decompose": {
        "--format": ["csv", "pajek"], "--cosine-threshold": ["0.01", "1", "nan", "-1"],
        "--resolution": ["1", "0", "nan", "-1"], "--cosine-diagonal": ["include", "exclude"],
        "--output": ["{dir}/partition.csv"],
    },
    "compare": {
        "--format": ["csv", "pajek"], "--k-max": ["1", "3"], "--tol": ["1e-6", "nan"],
        "--self-citations": ["include", "exclude"], "--zero-div": ["zero", "inf", "error"],
        "--no-normalize": None, "--metrics": ["pwr", "cf", "pagerank", "hits", "cf,hits", "x"],
        "--external": ["x={src}", "x"], "--damping": ["0.85", "2", "nan"],
        "--output": ["{dir}/table.csv"],
    },
    "convert": {
        "--output": ["{dir}/out.net", "{dir}/out.csv"], "--input-format": ["csv", "pajek"],
        "--output-format": ["csv", "pajek"], "--force": None,
    },
}


@st.composite
def cli_cases(draw):
    suffix = draw(st.sampled_from(sorted(FUZZ_SEEDS)))
    data = FUZZ_SEEDS[suffix]
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(start + 8, len(data))))
        splice = draw(st.sampled_from(FUZZ_TOKENS) | st.binary(max_size=4))
        data = data[:start] + splice + data[end:]
    subcommand = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = FUZZ_FLAGS[subcommand]
    argv = [subcommand, "--input", "{src}"]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=5)):
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(st.sampled_from(flags[flag])))
    return suffix, data, argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cli_cases())
# pinned: a network without vertices, and sums past double range
@example(
    case=(".net", b"*Vertices 0\n*Arcs\n", ["scc", "--input", "{src}", "--largest", "--output", "{dir}/c.net"])
)
@example(case=(".csv", OVERFLOW_CSV.encode(), ["convert", "--input", "{src}", "--output", "{dir}/m.net"]))
@example(case=(".csv", OVERFLOW_CSV.encode(), ["decompose", "--input", "{src}"]))
@example(case=(".csv", OVERFLOW_CSV.encode(), ["compare", "--input", "{src}"]))
def test_any_input_and_flags_end_in_an_exit_code(case, capsys, tmp_path):
    suffix, data, argv = case
    src = tmp_path / f"in{suffix}"
    src.write_bytes(data)
    code = main([arg.format(src=src, dir=tmp_path) for arg in argv])
    _out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == (1 if code else 0)
