"""pwrkit benchmark: per-subcommand latency on citation workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fields-5k --seed 0 --seconds 30 --trace 0

One process runs one workload as a closed loop: a single client calls
``pwrkit.cli.main(argv)`` in-process for each of the workload's commands in
turn (a *cycle*), and repeats cycles until ``--seconds`` is used up.
Inputs are written before any timing; outputs are checked after each call,
outside the timed region, and a failed check is counted, never fatal.

Times are reported at a fixed reference speed: the host's speed drifts by up
to 2x within seconds, so a short pure-Python reference loop is timed on either
side of every call (outside the timed region) and the call's wall time is
scaled by ``REF_S`` over the loop's time.  Raw wall times are printed and saved
next to the scaled ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls of each command and reports the per-layer metrics
from the traced ones (spans installed by ``tracing.py``) plus the tracing
overhead.  Every metric is printed by name with its unit; the last line of
standard output is the JSON result.  Full results, and the spans of a traced
run, go to ``.perfbench-run/results/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import fields
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-run"
SETUP_SAMPLES = 3

# Nominal time of reference_loop(); a call's reported time is its wall time
# scaled by REF_S over the loop's median time measured around that call.
REF_S = 0.0007

IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pwrkit.cli; t = time.perf_counter() - t; import pwrkit; print(pwrkit.__file__); print(t)"
)

# The result line carries the same metrics for every workload, so its per-layer
# times are those of functions and layers that every workload runs; a traced
# run prints (and saves) the self time of every traced function per command.
CYCLE_SELF_TIMES = (
    "cli.main",
    "matrix.CitationMatrix",
    "matrix.transpose",
    "engine.pwr_trace",
    "engine.convergence_report",
)
CYCLE_LAYER_TIMES = ("formats", "matrix", "engine")


def reference_loop() -> None:
    """Fixed pure-Python work whose duration tracks the host's current speed."""
    table = {}
    for i in range(3000):
        table[str(i)] = i * 2
    sum(table.values())


def probe(budget: float) -> float:
    """Median time of reference_loop() over about ``budget`` seconds (at least one run)."""
    times = []
    deadline = time.perf_counter() + budget
    while True:
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
        if time.perf_counter() >= deadline:
            return statistics.median(times)


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_seconds() -> tuple[float, float]:
    """``import pwrkit.cli`` in a fresh interpreter: (reference-speed, wall) seconds."""
    before = probe(0.05)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(SRC)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not Path(lines[0]).is_relative_to(SRC):
        die(f"cannot import pwrkit.cli from {SRC}: {proc.stderr.strip()[-300:]}")
    wall = float(lines[1])
    return wall * REF_S / ((before + probe(0.05)) / 2), wall


class Capture:
    """Stand-in for sys.stdout / sys.stderr whose buffer is taken per call.

    logging binds the stream it finds on first use, so a stable object is
    swapped in once and only its buffer changes between calls.
    """

    def __init__(self) -> None:
        self._parts: list[str] = []

    def write(self, text: str) -> int:
        self._parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def take(self) -> str:
        text = "".join(self._parts)
        self._parts = []
        return text


def tail(values: list[float]) -> str:
    """Highest of p99/p90 with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (0.99, 0.9):
        if len(ordered) * (1.0 - p) >= 10:
            return f"p{round(p * 100)}={ordered[math.ceil(p * len(ordered)) - 1]:.6g}"
    return "-"


def thread_settings() -> dict:
    with open("/proc/self/status", encoding="ascii") as handle:
        status = dict(line.split(":", 1) for line in handle if ":" in line)
    settings = {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "process_threads": int(status["Threads"]),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        settings[var] = os.environ.get(var, "unset")
    return settings


class Workload:
    """A workload's commands, its input written to disk, and how to check outputs."""

    def __init__(self, name: str, spec: dict, seed: int) -> None:
        import pwrkit.matrix

        dense_limit = getattr(pwrkit.matrix, "DENSE_LIMIT", None)
        self.commands = spec["commands"]
        self.digests = spec.get("digests")
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.facts = None
        if "generator" in spec:
            labels, cited, citing, weight = fields.fields(seed=seed, **spec["generator"])
            text = fields.pajek_text(labels, cited, citing, weight)
            (self.dir / spec["matrix"]).write_text(text, encoding="utf-8")
            self.facts = checks.Facts(labels, cited, citing, weight)
            n, nnz = len(labels), len(weight)
        else:
            for file in spec["bundled"]:
                data = (SRC / "pwrkit" / "data" / file).read_bytes()
                if checks.sha256(data) != spec["bundled_sha256"][file]:
                    die(f"bundled {file} differs from the bytes this workload was frozen on")
                (self.dir / file).write_bytes(data)
            text = (self.dir / spec["matrix"]).read_text(encoding="utf-8")
            cells = [row[1:] for row in csv.reader(io.StringIO(text))][1:]
            n, nnz = len(cells), sum(float(c) != 0.0 for row in cells for c in row)
        self.input = {
            "file": spec["matrix"],
            "n": n,
            "nnz": nnz,
            "storage": "unknown" if dense_limit is None else "dense" if n <= dense_limit else "csr",
            "bytes": len(text.encode("utf-8")),
            "sha256": checks.sha256(text),
        }

    def check(self, index: int, stdout: str) -> str | None:
        argv = self.commands[index]
        if self.facts is None:
            return checks.check_digests(argv, stdout, self.digests[index])
        return checks.check_generated(argv, stdout, self.facts)


class Runner:
    """Closed-loop client: one caller, sequential calls into cli.main."""

    def __init__(self, workload: Workload, tracer) -> None:
        import pwrkit.cli

        self.cli = pwrkit.cli
        self.workload = workload
        self.tracer = tracer
        self.out, self.err = Capture(), Capture()
        # (command index, traced, wall seconds, speed scale, problem or None)
        self.calls: list[tuple[int, bool, float, float, str | None]] = []
        self.speed = 0.0  # reference_loop() time measured after the previous call

    def invoke(self, index: int, traced: bool) -> None:
        argv = self.workload.commands[index]
        for name in checks.output_files(argv):
            Path(name).unlink(missing_ok=True)
        if traced:
            self.tracer.invocation = len(self.calls)
            self.tracer.install()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = self.out, self.err
        clock = time.perf_counter
        try:
            start = clock()
            try:
                outcome = self.cli.main(list(argv))
            except Exception as exc:  # a crash is a counted failure, not the end of the run
                outcome = exc
            elapsed = clock() - start
        finally:
            sys.stdout, sys.stderr = saved
            if traced:
                self.tracer.uninstall()
        # The host's speed drifts by up to 2x within seconds under other tenants'
        # load; timing the reference loop on either side of the call scales the
        # call to a fixed speed.  Probing costs about 5% of the call's time.
        speed = probe(min(0.3, 0.05 * elapsed))
        scale = REF_S / ((self.speed + speed) / 2)
        self.speed = speed
        stdout = self.out.take()
        self.err.take()
        if isinstance(outcome, Exception):
            problem = f"raised {type(outcome).__name__}: {outcome}"
        elif outcome != 0:
            problem = f"exit code {outcome}"
        else:
            try:
                problem = self.workload.check(index, stdout)
            except Exception as exc:  # malformed output must not stop the run
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            print(f"FAILED {' '.join(argv)}: {problem}", file=sys.stderr)
        self.calls.append((index, traced, elapsed, scale, problem))

    def slot(self, index: int) -> None:
        """One timed unit of work: a call, or an untraced/traced pair."""
        if self.tracer is None:
            self.invoke(index, traced=False)
            return
        first_traced = len(self.calls) % 4 == 2  # alternate which side of the pair runs first
        self.invoke(index, traced=first_traced)
        self.invoke(index, traced=not first_traced)

    def measure(self, seconds: float) -> None:
        """Run one whole cycle, then further slots while the next still fits.

        A slot's expected cost is what it took last time, so a run ends within
        ``seconds`` unless its first cycle alone takes longer.
        """
        self.speed = probe(0.05)
        start = time.perf_counter()
        cost = [0.0] * len(self.workload.commands)
        first = True
        while True:
            for index in range(len(cost)):
                if not first and time.perf_counter() - start + cost[index] > seconds:
                    return
                began = time.perf_counter()
                self.slot(index)
                cost[index] = time.perf_counter() - began
            first = False

    def medians(self, traced: bool, scaled: bool = True) -> list[float]:
        """Per command: median call time, at the reference speed unless ``scaled`` is off."""
        return [
            statistics.median(s * (k if scaled else 1.0) for i, t, s, k, _ in self.calls if i == index and t == traced)
            for index in range(len(self.workload.commands))
        ]


def per_layer(runner: Runner) -> tuple[dict, dict]:
    """Per-cycle layer metrics and the per-command breakdown behind them."""
    spans = runner.tracer.spans
    scale = [call[3] for call in runner.calls]
    own = [t * scale[span[tracing.INVOCATION]] for t, span in zip(tracing.self_times(spans), spans)]
    n_commands = len(runner.workload.commands)
    per_call: dict[int, dict[str, float]] = {}
    for i, span in enumerate(spans):
        row = per_call.setdefault(span[tracing.INVOCATION], {"spans": 0})
        name = span[tracing.NAME]
        layer = name.split(".")[0]
        for key, value in ((f"{name}.calls", 1), (f"{name}.self_s", own[i]), (f"{layer}.self_s", own[i])):
            row[key] = row.get(key, 0) + value
        row["spans"] += 1
        for key, value in (span[tracing.EXTRA] or {}).items():
            if key in ("in_bytes", "out_bytes"):
                row[f"formats.{key}"] = row.get(f"formats.{key}", 0) + value
    by_command: list[dict[str, float]] = []
    for index in range(n_commands):
        rows = [per_call.get(inv, {}) for inv, call in enumerate(runner.calls) if call[0] == index and call[1]]
        keys = sorted({key for row in rows for key in row})
        by_command.append({key: statistics.median(row.get(key, 0) for row in rows) for key in keys})

    def per_cycle(key: str) -> float:
        return sum(command.get(key, 0) for command in by_command)

    def extras(name: str, key: str) -> list[dict]:
        """Facts the hooks stored; a call that raised has none."""
        return [
            span[tracing.EXTRA] for span in spans
            if span[tracing.NAME] == name and key in (span[tracing.EXTRA] or {})
        ]

    metrics = {f"{name}.calls": (per_cycle(f"{name}.calls"), "count") for name in tracing.SPAN_NAMES}
    for name in CYCLE_SELF_TIMES:
        metrics[f"{name}.self_s"] = (per_cycle(f"{name}.self_s"), "s")
    for layer in CYCLE_LAYER_TIMES:
        metrics[f"{layer}.self_s"] = (per_cycle(f"{layer}.self_s"), "s")
    metrics["formats.in_bytes"] = (per_cycle("formats.in_bytes"), "B")
    metrics["formats.out_bytes"] = (per_cycle("formats.out_bytes"), "B")
    traces20 = [e.get("matvecs", 0) for e in extras("engine.pwr_trace", "k_max") if e["k_max"] == 20]
    metrics["engine.matvecs"] = (statistics.median(traces20) if traces20 else 0, "count")
    kept = extras("decomposition.threshold_graph", "pairs")
    pairs = sum(e["pairs"] for e in kept)
    metrics["decomposition.threshold_graph.kept_frac"] = (
        sum(e["kept"] for e in kept) / pairs if pairs else 0.0, "ratio"
    )
    computed = sum(
        1 for span in spans
        if span[tracing.NAME] == "comparators.pearson" and span[tracing.PARENT] >= 0
        and spans[span[tracing.PARENT]][tracing.NAME] == "comparators.compare_rankings"
    )
    distinct = sum(math.comb(e["metrics"], 2) for e in extras("comparators.compare_rankings", "metrics"))
    metrics["comparators.compare_rankings.useful_frac"] = (
        distinct / computed if computed else 0.0, "ratio"
    )
    metrics["trace.spans"] = (per_cycle("spans"), "count")
    overhead = sum(runner.medians(traced=True)) - sum(runner.medians(traced=False))
    metrics["trace_overhead_s"] = (overhead, "s")
    return metrics, {"by_command": by_command}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))["workloads"]
    if args.workload not in spec:
        die(f"unknown workload {args.workload!r}; pick from {', '.join(spec)}")
    if not (SRC / "pwrkit" / "cli.py").is_file():
        die(f"no pwrkit sources at {SRC}; run from the root of a pwrkit checkout")
    setup = [import_seconds() for _ in range(SETUP_SAMPLES)]
    sys.path.insert(0, str(SRC))
    import pwrkit

    if not Path(pwrkit.__file__).is_relative_to(SRC):
        die(f"imported pwrkit from {pwrkit.__file__}, not from {SRC}")

    workload = Workload(args.workload, spec[args.workload], args.seed)
    runner = Runner(workload, tracing.Tracer() if args.trace else None)
    os.chdir(workload.dir)
    try:
        runner.measure(args.seconds)
    finally:
        os.chdir(ROOT)

    attempted = len(runner.calls)
    failed = sum(1 for call in runner.calls if call[4])
    untraced = runner.medians(traced=False)
    wall = runner.medians(traced=False, scaled=False)
    cycle_s = sum(untraced)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input": workload.input,
        "threads": thread_settings(),
        "setup_samples_s": [scaled for scaled, _ in setup],
        "setup_wall_samples_s": [wall for _, wall in setup],
        "commands": [],
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("input " + " ".join(f"{k}={v}" for k, v in workload.input.items()))
    print("threads " + " ".join(f"{k}={v}" for k, v in report["threads"].items()))
    print(f"{'command':<12}{'untraced':>9}{'median_s':>12}{'wall_s':>12}  tail_s")
    for index, argv in enumerate(workload.commands):
        calls = [(s, k) for i, t, s, k, _ in runner.calls if i == index and not t]
        times = [s * k for s, k in calls]
        name = f"{argv[0]}_s"
        report["commands"].append(
            {"argv": argv, "metric": name, "samples": times, "wall_samples": [s for s, _ in calls]}
        )
        print(f"{name:<12}{len(times):>9}{untraced[index]:>12.6g}{wall[index]:>12.6g}  {tail(times)}")

    end_to_end = {
        "setup_s": (statistics.median(scaled for scaled, _ in setup), "s"),
        "setup_wall_s": (statistics.median(wall for _, wall in setup), "s"),
        "cycle_s": (cycle_s, "s"),
        "cycle_wall_s": (sum(wall), "s"),
        "arcs_per_s": (workload.input["nnz"] * len(untraced) / cycle_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    report["end_to_end"] = end_to_end
    if args.trace:
        metrics, detail = per_layer(runner)
        report["per_layer"] = metrics
        report.update(detail)
        print(f"{'command':<12}{'traced':>9}{'median_s':>12}  overhead_s")
        traced = runner.medians(traced=True)
        for index, argv in enumerate(workload.commands):
            print(f"{argv[0] + '_s':<12}{'':>9}{traced[index]:>12.6g}  {traced[index] - untraced[index]:.6g}")
        for index, argv in enumerate(workload.commands):
            print(f"-- per call of {argv[0]} (median over traced calls)")
            for key, value in detail["by_command"][index].items():
                unit = "s" if key.endswith("_s") else "B" if key.endswith("bytes") else "count"
                print(f"   {key:<58}{value:>14.6g} {unit}")
        reported = metrics
        shown = {"failed_frac": end_to_end["failed_frac"], **metrics}
    else:
        reported = {k: v for k, v in end_to_end.items() if k not in ("failed_frac", "cycle_wall_s", "setup_wall_s")}
        shown = end_to_end
    print("-- metrics (per cycle = one call of each command)")
    for key, (value, unit) in shown.items():
        print(f"   {key:<58}{value:>14.6g} {unit}")

    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if args.trace:
        (out / f"{stem}-spans.json").write_text(json.dumps(runner.tracer.spans), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))


if __name__ == "__main__":
    main()
