"""designvar benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload study-b --seed 3 --seconds 30 --trace 0

The workload runs in a child process (worker.py) whose address space is
capped, so that a memory regression surfaces as failed units instead of an
out-of-memory kill of this process. With ``--trace 0`` the result carries the
end-to-end metrics of BENCHMARK.json, measured untraced; with ``--trace 1``
it carries the per-layer metrics of a traced run. The last stdout line is
the JSON result; the lines before it repeat every metric with its unit, the
failure fraction and the environment stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("appendix-c", "study-b", "crd16-analyze")
# Address-space cap of the workload process. crd16-analyze peaks near 1.6 GB
# resident (the S x S substitute-membership matrices of CRD(16,8)); the cap
# leaves room for that and turns a doubling of it into a MemoryError.
ADDRESS_SPACE_CAP = 3 * 1024**3
CHILD_TIMEOUT_S = 170
# One BLAS thread and a fixed hash seed: the same work in every run.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_child(args: argparse.Namespace) -> tuple[dict, float]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env = {**os.environ, **CHILD_ENV}
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        preexec_fn=_cap_address_space,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"workload {args.workload} did not finish in {CHILD_TIMEOUT_S} s")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1]), peak_rss_mb


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    res, peak_rss_mb = run_child(args)
    measured = dict(res["metrics"])
    if not args.trace:
        measured["peak_rss_mb"] = [peak_rss_mb, "MB"]

    attempted, failed = int(res["attempted"]), int(res["failed"])
    correct = failed == 0 and "setup_error" not in res
    metrics = {}
    for m in declared:
        if m["name"] not in measured:
            if correct:
                raise SystemExit(f"metric {m['name']} was not measured")
            continue
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"metric {m['name']} came in {unit}, declared {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("stamp " + json.dumps(res.get("stamp", {}), sort_keys=True))
    for key in ("setup_error", "errors", "by_ref_seed", "trace_file"):
        if res.get(key):
            print(f"{key} {json.dumps(res[key])}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} units)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
