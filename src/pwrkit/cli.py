"""Command-line interface.

Subcommands: ``pwr`` (iteration trace and convergence summary), ``scc``
(strong components), ``subset`` (citation-threshold subgraphs), ``decompose``
(similarity clustering), ``compare`` (metric tables and rank correlations),
and ``convert`` (format conversion).

Exit codes: 0 on success, 1 for input or parse problems, 2 when a result is
undefined on well-formed input (a library :class:`ContractError` such as zero
weakness under the error policy, an :class:`IterationLimitError`, an empty
subset, or an edgeless similarity graph).  Non-convergence of the iteration
is a diagnostic, not an error, and still exits 0.  Only :func:`main` maps
exceptions to exit codes; any other ``ValueError`` or ``KeyError``, and a
``MemoryError`` (an input or flag asking for more memory than the host has),
exits 1.
When results stream to standard output, auxiliary summaries go to standard
error so the data stays machine-readable; with ``--output`` the summaries
use standard output.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__
from .comparators import (
    IterationLimitError,
    MetricVector,
    align_to,
    citation_factor,
    compare_rankings,
    hits,
    pagerank,
)
from .components import largest_strong_component, strongly_connected_components
from .decomposition import (
    citing_cosine_matrix,
    citing_threshold_subset,
    louvain_partition,
    threshold_graph,
    union_subset,
)
from .engine import (
    ContractError,
    ConvergenceReport,
    PwrOptions,
    ZeroDivision,
    converged_pwr,
    convergence_report,
    pwr_trace,
)
from .formats import (
    ParseError,
    csv_cell,
    read_csv_matrix,
    read_metric_csv,
    read_pajek,
    write_csv_matrix,
    write_pajek,
    write_trace_csv,
)
from .matrix import CitationMatrix, NodeSet, extract_subgraph, grand_total
from .plotting import render_convergence_svg

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONTRACT = 2

_ZERO_DIV_FLAGS = {"zero": ZeroDivision.ZERO, "inf": ZeroDivision.INFINITE, "error": ZeroDivision.ERROR}


class CliError(Exception):
    """Carries the exit code and the message printed to standard error."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _message(exc: BaseException) -> str:
    # str(KeyError) wraps the message in repr quotes; unwrap it.
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


class _OncePerRun(logging.Filter):
    """Drops a log message this run already printed (``compare`` runs the engine twice)."""

    def __init__(self) -> None:
        super().__init__()
        self.seen: set[str] = set()

    def filter(self, record: logging.LogRecord) -> bool:
        message = record.getMessage()
        if message in self.seen:
            return False
        self.seen.add(message)
        return True


class _Parser(argparse.ArgumentParser):
    # argparse exits on usage errors; surface them as regular input errors
    # instead so exit codes stay meaningful.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(EXIT_INPUT, f"{self.prog}: {message}")


def _detect_format(path: Path, override: str | None, default: str | None = None) -> str:
    if override:
        return override
    suffix = path.suffix.lower()
    if suffix == ".net":
        return "pajek"
    if suffix == ".csv":
        return "csv"
    if default:
        return default
    raise CliError(EXIT_INPUT, f"cannot infer format of {path}; pass an explicit format flag")


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from exc


def _load_matrix(path_str: str, fmt: str | None) -> CitationMatrix:
    path = Path(path_str)
    text = _read_text(path)
    kind = _detect_format(path, fmt)
    try:
        return read_pajek(text) if kind == "pajek" else read_csv_matrix(text)
    except ParseError as exc:
        raise CliError(EXIT_INPUT, f"{path}: {exc}") from exc


def _matrix_text(z: CitationMatrix, kind: str) -> str:
    return write_pajek(z) if kind == "pajek" else write_csv_matrix(z)


def _write_file(path_str: str, text: str) -> None:
    path = Path(path_str)
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot write {path}: {exc}") from exc


def _emit(text: str, output: str | None, summary: str | None = None) -> None:
    """Main payload to --output or stdout; summaries never corrupt the payload."""
    if output:
        _write_file(output, text)
        if summary:
            print(summary)
    else:
        sys.stdout.write(text)
        if summary:
            print(summary, file=sys.stderr)


def _options_from(args: argparse.Namespace) -> PwrOptions:
    return PwrOptions(
        k_max=args.k_max,
        tol=args.tol,
        self_citations=args.self_citations,
        zero_division=_ZERO_DIV_FLAGS[args.zero_div],
        normalize_each_iteration=not args.no_normalize,
    )


def _summary_line(report: ConvergenceReport) -> str:
    converged = "yes" if report.converged else "no"
    k_conv = str(report.k_converged) if report.k_converged is not None else "-"
    final = repr(report.deltas[-1]) if report.deltas else "-"
    line = f"converged={converged} k_converged={k_conv} final_delta={final}"
    if report.flagged:
        line += "\nflagged=" + ",".join(report.flagged)
    return line


def cmd_pwr(args: argparse.Namespace) -> int:
    z = _load_matrix(args.input, args.format)
    opts = _options_from(args)
    trace = pwr_trace(z, opts)
    report = convergence_report(trace, opts.tol)
    if args.plot:
        _write_file(args.plot, render_convergence_svg(trace))
    _emit(write_trace_csv(trace), args.output, _summary_line(report))
    return EXIT_OK


def cmd_scc(args: argparse.Namespace) -> int:
    z = _load_matrix(args.input, args.format)
    if args.largest:
        if not args.output:
            raise CliError(EXIT_INPUT, "--largest needs --output to receive the subgraph")
        sub = largest_strong_component(z)
        kind = _detect_format(Path(args.output), args.output_format, default="csv")
        _write_file(args.output, _matrix_text(sub, kind))
        print(f"wrote largest component ({sub.n} node(s)) to {args.output}")
        return EXIT_OK
    result = strongly_connected_components(z)
    print(f"{len(result.components)} strongly connected component(s)")
    for idx, comp in enumerate(result.components):
        print(f"component {idx}: size {len(comp)}: {', '.join(comp.labels)}")
    return EXIT_OK


def _read_label_file(path_str: str, z: CitationMatrix) -> NodeSet:
    path = Path(path_str)
    lines = _read_text(path).splitlines()
    names = [line.strip() for line in lines if line.strip()]
    try:
        return NodeSet.from_labels(z, names)
    except (KeyError, ValueError) as exc:
        raise CliError(EXIT_INPUT, f"{path}: {_message(exc)}") from exc


def cmd_subset(args: argparse.Namespace) -> int:
    z = _load_matrix(args.input, args.format)
    subset = citing_threshold_subset(z, args.target, args.min)
    if args.union_with:
        subset = union_subset(subset, _read_label_file(args.union_with, z))
    if len(subset) == 0:
        raise CliError(
            EXIT_CONTRACT,
            f"no journal cites {args.target!r} at least {args.min} times; subset is empty",
        )
    sub = extract_subgraph(z, subset)
    target_path = Path(args.output) if args.output else None
    kind = _detect_format(target_path, args.output_format, default="csv") if target_path else (
        args.output_format or "csv"
    )
    _emit(_matrix_text(sub, kind), args.output, f"kept {sub.n} of {z.n} journal(s)")
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    z = _load_matrix(args.input, args.format)
    sims = citing_cosine_matrix(z, args.cosine_diagonal)
    graph = threshold_graph(sims, args.cosine_threshold)
    if not graph.edges:
        raise CliError(
            EXIT_CONTRACT,
            f"no similarity exceeds {args.cosine_threshold}; "
            "modularity is undefined on an edgeless graph",
        )
    partition = louvain_partition(graph, resolution=args.resolution)
    lines = ["label,community"]
    for name, comm in zip(partition.labels, partition.community_of):
        lines.append(f"{csv_cell(name)},{comm}")
    payload = "\n".join(lines) + "\n"
    _emit(payload, args.output, f"Q={partition.q!r} communities={partition.n_communities}")
    return EXIT_OK


def _metric_columns(z: CitationMatrix, args: argparse.Namespace) -> list[MetricVector]:
    opts = _options_from(args)
    columns: list[MetricVector] = []
    for name in args.metrics.split(","):
        key = name.strip().lower()
        if key == "pwr":
            r, _report = converged_pwr(z, opts)
            columns.append(MetricVector("pwr", z.labels, r))
        elif key == "cf":
            columns.append(citation_factor(z, opts.zero_division))
        elif key == "pagerank":
            columns.append(pagerank(z, damping=args.damping))
        elif key == "hits":
            columns.extend(hits(z))
        else:
            raise CliError(EXIT_INPUT, f"unknown metric {name!r}; pick from pwr, cf, pagerank, hits")
    return columns


def cmd_compare(args: argparse.Namespace) -> int:
    z = _load_matrix(args.input, args.format)
    columns = _metric_columns(z, args)
    for pair in args.external or []:
        name, _, path_str = pair.partition("=")
        if not name or not path_str:
            raise CliError(EXIT_INPUT, f"--external expects name=file.csv, got {pair!r}")
        path = Path(path_str)
        text = _read_text(path)
        try:
            metric = read_metric_csv(text, name=name)
            columns.append(align_to(columns[0], metric) if columns else metric)
        except ValueError as exc:
            raise CliError(EXIT_INPUT, f"{path}: {exc}") from exc
    if not columns:
        raise CliError(EXIT_INPUT, "nothing to compare; request at least one metric")

    names = [csv_cell(m.name) for m in columns]
    lines = ["label," + ",".join(names)]
    cells = [map(repr, m.values.tolist()) for m in columns]
    lines.extend(map(",".join, zip(map(csv_cell, columns[0].labels), *cells)))
    lines.append("")
    lines.append("metric_x,metric_y,pearson,spearman")
    table = compare_rankings(columns)
    for i in range(len(columns)):
        for j in range(i + 1, len(columns)):
            cmp = table[i][j]
            lines.append(f"{names[i]},{names[j]},{cmp.pearson_r!r},{cmp.spearman_rho!r}")
    payload = "\n".join(lines) + "\n"
    sys.stdout.write(payload)
    if args.output:
        _write_file(args.output, payload)
    return EXIT_OK


def cmd_convert(args: argparse.Namespace) -> int:
    in_kind = _detect_format(Path(args.input), args.input_format)
    out_kind = _detect_format(Path(args.output), args.output_format)
    if in_kind == out_kind and not args.force:
        raise CliError(
            EXIT_INPUT, f"input and output are both {in_kind}; pass --force to rewrite anyway"
        )
    z = _load_matrix(args.input, args.input_format)
    _write_file(args.output, _matrix_text(z, out_kind))
    print(
        f"wrote {args.output} ({z.n} node(s), grand total {_format_total(grand_total(z))})",
        file=sys.stderr,
    )
    return EXIT_OK


def _format_total(value: float) -> str:
    # is_integer() is False for inf, which prints as its repr
    return str(int(value)) if value.is_integer() else repr(value)


def build_parser() -> _Parser:
    parser = _Parser(prog="pwrkit", description="Power-weakness ratio toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--input", required=True, help="matrix file (.csv or .net)")
    common.add_argument("--format", choices=("pajek", "csv"), help="override format detection")

    engine_flags = _Parser(add_help=False)
    engine_flags.add_argument("--k-max", type=int, default=20, help="iterations to run (default 20)")
    engine_flags.add_argument("--tol", type=float, default=1e-6, help="convergence threshold")
    engine_flags.add_argument(
        "--self-citations", choices=("include", "exclude"), default="include",
        help="keep or drop the matrix diagonal",
    )
    engine_flags.add_argument(
        "--zero-div", choices=("zero", "inf", "error"), default="zero",
        help="ratio policy when a weakness is zero",
    )
    engine_flags.add_argument(
        "--no-normalize", action="store_true",
        help="iterate raw sums instead of unit-sum scaling each step",
    )

    p = sub.add_parser("pwr", parents=[common, engine_flags], help="iteration trace and summary")
    p.add_argument("--output", help="trace CSV path (default: standard output)")
    p.add_argument("--plot", help="also render the convergence chart to this SVG path")
    p.set_defaults(func=cmd_pwr)

    p = sub.add_parser("scc", parents=[common], help="strongly connected components")
    p.add_argument("--largest", action="store_true", help="write the largest component subgraph")
    p.add_argument("--output", help="subgraph path for --largest")
    p.add_argument("--output-format", choices=("pajek", "csv"))
    p.set_defaults(func=cmd_scc)

    p = sub.add_parser("subset", parents=[common], help="citation-threshold subgraph")
    p.add_argument("--target", required=True, help="journal that must be cited")
    p.add_argument("--min", type=float, default=0.0, help="minimum citations to the target")
    p.add_argument("--union-with", help="label file (one per line) to merge into the subset")
    p.add_argument("--output", help="subgraph path (default: standard output)")
    p.add_argument("--output-format", choices=("pajek", "csv"))
    p.set_defaults(func=cmd_subset)

    p = sub.add_parser("decompose", parents=[common], help="similarity clustering")
    p.add_argument("--cosine-threshold", type=float, default=0.01)
    p.add_argument("--resolution", type=float, default=1.0)
    p.add_argument("--cosine-diagonal", choices=("include", "exclude"), default="include")
    p.add_argument("--output", help="partition CSV path (default: standard output)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("compare", parents=[common, engine_flags], help="metric comparison table")
    p.add_argument(
        "--metrics", default="pwr,cf,pagerank,hits",
        help="comma list from pwr, cf, pagerank, hits",
    )
    p.add_argument(
        "--external", action="append", metavar="NAME=FILE",
        help="label,value CSV of an externally computed metric; repeatable",
    )
    p.add_argument("--damping", type=float, default=0.85, help="pagerank damping factor")
    p.add_argument("--output", help="also write the table to this path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("convert", help="convert between matrix formats")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--input-format", choices=("pajek", "csv"))
    p.add_argument("--output-format", choices=("pajek", "csv"))
    p.add_argument("--force", action="store_true", help="allow same-format rewrites")
    p.set_defaults(func=cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    # one filter per handler: a filter shared by two handlers would pass a message to one only
    filters = [(handler, _OncePerRun()) for handler in logging.getLogger().handlers]
    for handler, once in filters:
        handler.addFilter(once)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ContractError, IterationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    # ParseError and UnicodeDecodeError are ValueErrors too
    except (ValueError, KeyError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return EXIT_INPUT
    # a flag such as a huge --k-max can ask for more memory than the host has
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        for handler, once in filters:
            handler.removeFilter(once)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
