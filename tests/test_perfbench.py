"""One cycle of each benchmark workload, run through the harness itself.

``perfbench/`` is not part of the package, so a change to the CLI or to the
writers could break it without any other test noticing.  Each workload runs
one cycle at the generator's smallest size (n = 200) through the harness's
own ``Workload`` and ``Runner``, and every call must pass its output check.
A second run goes through ``main()`` and reads the JSON result line it
prints last, which must carry every end-to-end metric ``BENCHMARK.json``
declares, in that file's unit.  Every function the tracer wraps must still
exist in the package, or its per-layer count would read 0 unnoticed.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "spec.json").read_text(encoding="utf-8"))["workloads"]
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def harness(monkeypatch):
    """``perfbench/run.py`` as a module; its own imports resolve in ``perfbench/``,
    and no bytecode is written there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small(spec: dict) -> dict:
    """The workload's spec with its generated graph at the smallest size."""
    spec = copy.deepcopy(spec)
    if "generator" in spec:
        spec["generator"]["n"] = 200
    return spec


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_cycle_passes_every_check(name, monkeypatch, tmp_path):
    run = harness(monkeypatch)
    monkeypatch.setattr(run, "WORK", tmp_path)
    spec = small(WORKLOADS[name])
    workload = run.Workload(name, spec, seed=0)
    monkeypatch.chdir(workload.dir)
    runner = run.Runner(workload, None)
    runner.measure(0)
    assert [call[0] for call in runner.calls] == list(range(len(spec["commands"])))
    assert [call[4] for call in runner.calls] == [None] * len(spec["commands"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_result_line_carries_every_end_to_end_metric(name, monkeypatch, tmp_path, capsys):
    run = harness(monkeypatch)

    class SmallWorkload(run.Workload):
        def __init__(self, name: str, spec: dict, seed: int) -> None:
            super().__init__(name, small(spec), seed)

    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "Workload", SmallWorkload)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", name, "--seconds", "0"])
    monkeypatch.chdir(tmp_path)
    run.main()
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == len(WORKLOADS[name]["commands"])
    assert result["failed"] == 0
    for metric in END_TO_END:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float) and entry["value"] > 0.0


def test_every_traced_name_is_a_pwrkit_callable(monkeypatch):
    # Tracer.install skips a name the package no longer has, so a rename
    # would read 0 calls in the benchmark without this check
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(mod, name) for mod, names in tracing.TRACED.items() for name in names]
    for mod, name in [*names, ("matrix", "matvec")]:
        module = importlib.import_module(f"pwrkit.{mod}")
        assert callable(getattr(module, name, None)), f"pwrkit.{mod}.{name}"
