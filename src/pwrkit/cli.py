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
exceptions to exit codes, by their type alone: the commands raise, and
never return a code.  Any other ``ValueError`` or ``KeyError``, and a
``MemoryError`` (an input or flag asking for more memory than the host has),
exits 1.
When results stream to standard output, auxiliary summaries go to standard
error so the data stays machine-readable; with ``--output`` the summaries
use standard output.  ``convert``, which always writes ``--output``, is the
exception: its ``wrote ...`` line goes to standard error.  The commands only
route text: :mod:`pwrkit.formats` decodes every file and builds every layout;
a file's content errors get its path in front in :func:`_parsed`, and results
leave through :func:`_emit` and :func:`_write_file`.

The argument parser is built once per process, on the first :func:`main`
call, and serves every later call; it keeps no state from one call to the
next.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

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
    read_csv_matrix,
    read_metric_csv,
    read_pajek,
    read_text,
    write_compare_table,
    write_csv_matrix,
    write_pajek,
    write_partition_csv,
    write_trace_csv,
)
from .matrix import CitationMatrix, NodeSet, extract_subgraph, grand_total
from .plotting import render_convergence_svg

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONTRACT = 2

_ZERO_DIV_FLAGS = {"zero": ZeroDivision.ZERO, "inf": ZeroDivision.INFINITE, "error": ZeroDivision.ERROR}


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
        raise ValueError(f"{self.prog}: {message}")


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
    raise ValueError(f"cannot infer format of {path}; pass an explicit format flag")


def _parsed(path: Path, parse: Callable[..., Any], *args: object) -> Any:
    """``parse(*args)``, with ``path`` in front of an error in the file's content."""
    try:
        return parse(*args)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: {_message(exc)}") from exc


def _load_matrix(path_str: str, fmt: str | None) -> CitationMatrix:
    path = Path(path_str)
    text = read_text(path)  # a missing file is reported before an unknown suffix
    parse = read_pajek if _detect_format(path, fmt) == "pajek" else read_csv_matrix
    return _parsed(path, parse, text)


def _matrix_text(z: CitationMatrix, kind: str) -> str:
    return write_pajek(z) if kind == "pajek" else write_csv_matrix(z)


def _write_file(path_str: str, text: str) -> None:
    path = Path(path_str)
    try:
        path.write_bytes(text.encode("utf-8"))
    except (OSError, UnicodeEncodeError) as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, output: str | None, summary: str) -> None:
    """Main payload to --output or stdout; summaries never corrupt the payload."""
    if output:
        _write_file(output, text)
        print(summary)
    else:
        sys.stdout.write(text)
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


def cmd_pwr(args: argparse.Namespace) -> None:
    z = _load_matrix(args.input, args.format)
    opts = _options_from(args)
    trace = pwr_trace(z, opts)
    report = convergence_report(trace, opts.tol)
    if args.plot:
        _write_file(args.plot, render_convergence_svg(trace))
    _emit(write_trace_csv(trace), args.output, _summary_line(report))


def cmd_scc(args: argparse.Namespace) -> None:
    z = _load_matrix(args.input, args.format)
    if args.largest:
        if not args.output:
            raise ValueError("--largest needs --output to receive the subgraph")
        sub = largest_strong_component(z)
        kind = _detect_format(Path(args.output), args.output_format, default="csv")
        summary = f"wrote largest component ({sub.n} node(s)) to {args.output}"
        _emit(_matrix_text(sub, kind), args.output, summary)
        return
    result = strongly_connected_components(z)
    print(f"{len(result.components)} strongly connected component(s)")
    for idx, comp in enumerate(result.components):
        print(f"component {idx}: size {len(comp)}: {', '.join(comp.labels)}")


def cmd_subset(args: argparse.Namespace) -> None:
    z = _load_matrix(args.input, args.format)
    subset = citing_threshold_subset(z, args.target, args.min)
    if args.union_with:
        path = Path(args.union_with)
        names = [line.strip() for line in read_text(path).splitlines() if line.strip()]
        subset = union_subset(subset, _parsed(path, NodeSet.from_labels, z, names))
    if len(subset) == 0:
        raise ContractError(
            f"no journal cites {args.target!r} at least {args.min} times; subset is empty"
        )
    sub = extract_subgraph(z, subset)
    kind = _detect_format(Path(args.output or ""), args.output_format, default="csv")
    _emit(_matrix_text(sub, kind), args.output, f"kept {sub.n} of {z.n} journal(s)")


def cmd_decompose(args: argparse.Namespace) -> None:
    z = _load_matrix(args.input, args.format)
    # no name holds the similarity pairs, so they are freed before Louvain runs
    graph = threshold_graph(citing_cosine_matrix(z, args.cosine_diagonal), args.cosine_threshold)
    if not graph.edges:
        raise ContractError(
            f"no similarity exceeds {args.cosine_threshold}; "
            "modularity is undefined on an edgeless graph"
        )
    partition = louvain_partition(graph, resolution=args.resolution)
    summary = f"Q={partition.q!r} communities={partition.n_communities}"
    _emit(write_partition_csv(partition), args.output, summary)


def _metric_columns(z: CitationMatrix, args: argparse.Namespace) -> list[MetricVector]:
    """The ``--metrics`` columns in order; every name is checked before any is computed."""
    opts = _options_from(args)
    metrics = {
        "pwr": lambda: [MetricVector("pwr", z.labels, converged_pwr(z, opts)[0])],
        "cf": lambda: [citation_factor(z, opts.zero_division)],
        "pagerank": lambda: [pagerank(z, damping=args.damping)],
        "hits": lambda: list(hits(z)),
    }
    names = args.metrics.split(",")
    for name in names:
        if name.strip().lower() not in metrics:
            raise ValueError(f"unknown metric {name!r}; pick from pwr, cf, pagerank, hits")
    return [column for name in names for column in metrics[name.strip().lower()]()]


def cmd_compare(args: argparse.Namespace) -> None:
    z = _load_matrix(args.input, args.format)
    # every external file is read before any metric is computed, so a bad one
    # fails fast; each is aligned to the computed metrics' labels after them
    external = []
    for pair in args.external or []:
        name, _, path_str = pair.partition("=")
        if not name or not path_str:
            raise ValueError(f"--external expects name=file.csv, got {pair!r}")
        # the name heads a table column; bytes that were not UTF-8 on the command
        # line arrive as lone surrogates, which neither stdout nor a file can hold
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"--external name {name!r} is not UTF-8 text") from None
        path = Path(path_str)
        external.append((path, _parsed(path, read_metric_csv, read_text(path), name)))
    columns = _metric_columns(z, args)
    for path, metric in external:
        columns.append(_parsed(path, align_to, columns[0], metric))
    payload = write_compare_table(compare_rankings(columns))
    if args.output:
        _write_file(args.output, payload)
    sys.stdout.write(payload)


def cmd_convert(args: argparse.Namespace) -> None:
    in_kind = _detect_format(Path(args.input), args.input_format)
    out_kind = _detect_format(Path(args.output), args.output_format)
    if in_kind == out_kind and not args.force:
        raise ValueError(f"input and output are both {in_kind}; pass --force to rewrite anyway")
    z = _load_matrix(args.input, args.input_format)
    _write_file(args.output, _matrix_text(z, out_kind))
    print(
        f"wrote {args.output} ({z.n} node(s), grand total {_format_total(grand_total(z))})",
        file=sys.stderr,
    )


def _format_total(value: float) -> str:
    # is_integer() is False for inf, which prints as its repr
    return str(int(value)) if value.is_integer() else repr(value)


@functools.cache
def build_parser() -> _Parser:
    """The ``pwrkit`` argument parser, built on the first call and shared after it.

    Parsing leaves the parser as it was: each ``parse_args`` returns a new
    namespace, ``--external`` starts each call from no list, and a usage error
    raises ``ValueError``.  Each subcommand's ``func`` is the ``cmd_*``
    function bound at the first build, so a ``cmd_*`` replaced later is not
    called; the names a ``cmd_*`` calls are looked up when it runs.
    """
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
        args.func(args)
        return EXIT_OK
    except (ContractError, IterationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
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
