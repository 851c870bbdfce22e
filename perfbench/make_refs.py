"""Regenerate the committed reference outputs of the benchmark pools.

    python3 perfbench/make_refs.py [--workload NAME ...]

Runs every unit of each workload's pool once through the same code the
benchmark times and writes perfbench/refs/<workload>.json. Run it only when
a change is meant to alter the outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import OUT, import_package, stamp  # noqa: E402


def _dumps(payload: dict) -> str:
    """Compact JSON with one pool unit per line."""
    head = {k: v for k, v in payload.items() if k != "units"}
    body = ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
        for k, v in payload["units"].items()
    )
    return json.dumps(head, indent=1)[:-2] + ',\n "units": {\n' + body + "\n}}\n"


def main(argv: list[str] | None = None) -> int:
    import_package()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    out_dir = OUT / f"refs-{os.getpid()}"
    (HERE / "refs").mkdir(exist_ok=True)
    try:
        for name in args.workload or list(workloads.WORKLOADS):
            wl = workloads.WORKLOADS[name]
            t0 = time.perf_counter()
            state = wl.setup()
            keys = workloads.all_keys(wl)
            wl.prepare(state, keys)
            units = {
                workloads.key_str(key): wl.run_unit(state, key, out_dir) for key in keys
            }
            payload = {
                "workload": name,
                "ref_seeds": list(workloads.REF_SEEDS),
                "est_rtol": workloads.EST_RTOL,
                "abs_floor": workloads.ABS_FLOOR,
                "stamp": stamp(None, wl.sizes(state)),
                "units": units,
            }
            path = HERE / "refs" / f"{name}.json"
            path.write_text(_dumps(payload))
            print(f"{name}: {len(keys)} calls in {time.perf_counter() - t0:.1f} s -> {path.name}")
            state = None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
