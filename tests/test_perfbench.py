"""One cycle of each benchmark workload, run through the harness itself.

``perfbench/`` is not part of the package, so a change to the CLI or to the
writers could break it without any other test noticing.  Each workload runs
one cycle at the generator's smallest size (n = 200) through the harness's
own ``Workload`` and ``Runner``, and every call must pass its output check.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "spec.json").read_text(encoding="utf-8"))["workloads"]


def harness(monkeypatch):
    """``perfbench/run.py`` as a module; its own imports resolve in ``perfbench/``,
    and no bytecode is written there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_cycle_passes_every_check(name, monkeypatch, tmp_path):
    run = harness(monkeypatch)
    monkeypatch.setattr(run, "WORK", tmp_path)
    spec = copy.deepcopy(WORKLOADS[name])
    if "generator" in spec:
        spec["generator"]["n"] = 200
    workload = run.Workload(name, spec, seed=0)
    monkeypatch.chdir(workload.dir)
    runner = run.Runner(workload, None)
    runner.measure(0)
    assert [call[0] for call in runner.calls] == list(range(len(spec["commands"])))
    assert [call[4] for call in runner.calls] == [None] * len(spec["commands"])
