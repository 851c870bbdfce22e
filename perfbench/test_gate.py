"""Tests of the benchmark's correctness gate.

    python3 -m pytest perfbench/test_gate.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(root: Path, workload: str = "appendix-c") -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", "0"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def _copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def _perturb(value):
    """Scale every float of a unit's outputs by 1 + 1e-6."""
    if isinstance(value, float):
        return value * (1.0 + 1e-6) if value else 1e-6
    if isinstance(value, list):
        return [_perturb(v) for v in value]
    if isinstance(value, dict):
        return {k: _perturb(v) for k, v in value.items()}
    return value


def test_count_mismatches_fails_each_perturbed_table():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    # a study-b call scores four tables and carries call-level entries
    ref = json.loads((HERE / "refs" / "study-b.json").read_text())["units"]["0"]
    assert workloads.count_mismatches(ref, ref, 4) == 0
    one_off = dict(ref)
    first = next(iter(one_off))
    one_off[first] = _perturb(one_off[first])
    assert workloads.count_mismatches(one_off, ref, 4) == 1
    assert workloads.count_mismatches(_perturb(ref), ref, 4) == 4
    assert workloads.count_mismatches({**ref, "excluded": 1}, ref, 4) == 4
    assert workloads.count_mismatches(ref, None, 4) == 4


@pytest.mark.parametrize("perturbed_seed", [None, "1"])
def test_perturbed_reference_reports_failed_units(tmp_path, perturbed_seed):
    _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "perfbench" / "refs" / "appendix-c.json"
    payload = json.loads(path.read_text())
    if perturbed_seed is not None:
        payload["units"] = {
            k: _perturb(v) if k.split(":")[0] == perturbed_seed else v
            for k, v in payload["units"].items()
        }
    path.write_text(json.dumps(payload))

    proc = _run(tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    by_seed = json.loads(next(l for l in lines if l.startswith("by_ref_seed "))[12:])
    assert result["attempted"] >= 6
    if perturbed_seed is None:
        assert result["correct"] and result["failed"] == 0
    else:
        assert not result["correct"]
        assert result["failed"] == by_seed[perturbed_seed][0] > 0
        assert by_seed[perturbed_seed][1] == result["failed"]


def test_checkout_without_sources_exits_nonzero_without_result(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
