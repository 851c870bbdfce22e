"""Every unit of the benchmark pools reproduces its committed reference.

Each unit of every workload in ``perfbench/workloads.py`` runs once, as the
benchmark worker runs it (outputs emitted to a temporary directory), and is
checked by the benchmark's own ``count_mismatches`` against
``perfbench/refs``. An output that moves past the benchmark's tolerance
then fails here, not only in a benchmark run. Nothing under ``perfbench/``
is written.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no .pyc under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_unit_matches_its_reference(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    refs = json.loads((PERFBENCH / "refs" / f"{name}.json").read_text())["units"]
    keys = workloads.all_keys(wl)
    state = wl.setup()
    wl.prepare(state, keys)
    failed = {}
    for key in keys:
        got = json.loads(json.dumps(wl.run_unit(state, key, tmp_path)))
        bad = workloads.count_mismatches(got, refs.get(workloads.key_str(key)), wl.units_per_call)
        if bad:
            failed[workloads.key_str(key)] = bad
    assert failed == {}
    assert len(keys) == len(refs)
