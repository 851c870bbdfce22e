"""One benchmark workload in one process; started by run.py.

Prints one JSON object on its last stdout line. Exit code 3 means the
package could not be imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"


def import_package() -> None:
    """Import designvar from this checkout's src/, or exit with code 3."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import designvar
    except ImportError as exc:
        print(f"cannot import designvar from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(3)
    src = (ROOT / "src").resolve()
    if src not in Path(designvar.__file__).resolve().parents:
        print(f"designvar was imported from {designvar.__file__}, not {src}", file=sys.stderr)
        sys.exit(3)


def stamp(seed: int, sizes: dict) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "sizes": sizes,
    }


def load_refs(workload: str) -> dict:
    path = HERE / "refs" / f"{workload}.json"
    with path.open() as handle:
        return json.load(handle)["units"]


class RunPhase:
    """Runs rounds of units until the time is up, checking every output."""

    def __init__(self, wl, keys: list, refs: dict, out_dir: Path) -> None:
        self.wl, self.keys, self.refs, self.out_dir = wl, keys, refs, out_dir
        self.stratum = {key: i for i, stratum in enumerate(wl.strata()) for key in stratum}
        self.state = None
        self.attempted = 0
        self.failed = 0
        self.by_ref_seed: dict[int, list[int]] = {}
        self.errors: list[str] = []

    def release(self) -> None:
        """Drop the current state, so that only one design is alive at a time."""
        self.state = None
        gc.collect()

    def set_up(self) -> float:
        """Release the state, build a fresh one and return the set-up time."""
        self.release()
        t0 = time.perf_counter()
        state = self.wl.setup()
        took = time.perf_counter() - t0
        self.wl.prepare(state, self.keys)
        self.state = state
        return took

    def run(self, rounds, seconds: float,
            setups: list[float] | None = None) -> tuple[int, float, float | None]:
        """Units run, time spent in calls, and units per second at the
        fastest correct call of each stratum (None if a stratum had none).

        Calls of one stratum do the same work, and other tenants of the
        machine only ever slow a call down, so the fastest call is the
        steadiest measure of the program's own speed. With ``setups``, the
        set-up is repeated ``wl.setup_repeats`` times, spread evenly over
        the run's call time so that the set-ups see the machine's load as
        the calls do; each set-up replaces the state and its time goes to
        ``setups``.
        """
        from workloads import count_mismatches, key_str

        units_here = 0
        fastest: dict[int, float] = {}
        visited = set()
        busy = 0.0
        repeats = self.wl.setup_repeats
        for keys in rounds:
            while (setups is not None and len(setups) < repeats
                   and busy >= len(setups) * seconds / repeats):
                setups.append(self.set_up())
            for key in keys:
                units = self.wl.units_per_call
                k0 = time.perf_counter()
                try:
                    got = self.wl.run_unit(self.state, key, self.out_dir)
                except Exception as exc:  # a failing call fails its units
                    got = None
                    if len(self.errors) < 5:
                        self.errors.append(f"{key_str(key)}: {type(exc).__name__}: {exc}")
                call_s = time.perf_counter() - k0
                busy += call_s
                if got is None:
                    bad = units
                else:
                    got = json.loads(json.dumps(got))
                    bad = count_mismatches(got, self.refs.get(key_str(key)), units)
                stratum = self.stratum[key]
                visited.add(stratum)
                if bad == 0:
                    fastest[stratum] = min(call_s, fastest.get(stratum, call_s))
                units_here += units
                self.attempted += units
                self.failed += bad
                tally = self.by_ref_seed.setdefault(key[0], [0, 0])
                tally[0] += units
                tally[1] += bad
            if busy >= seconds:
                break
        while setups is not None and len(setups) < repeats:
            setups.append(self.set_up())
        if len(fastest) < len(visited):
            return units_here, busy, None
        return units_here, busy, self.wl.units_per_call * len(fastest) / sum(fastest.values())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    import_package()
    sys.path.insert(0, str(HERE))
    import numpy as np
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    refs = load_refs(args.workload)
    keys = workloads.all_keys(wl)
    rounds = workloads.rounds(wl.strata(), np.random.default_rng(args.seed))
    out_dir = OUT / f"emit-{args.workload}-{os.getpid()}"
    result: dict = {"workload": args.workload, "metrics": {}}
    phase = RunPhase(wl, keys, refs, out_dir)
    try:
        if not args.trace:
            setups: list[float] = []
            _, _, rate = phase.run(rounds, args.seconds, setups)
            if rate is not None:
                result["metrics"]["ops_per_s"] = [rate, "units/s"]
            result["metrics"]["setup_s"] = [statistics.median(setups), "s"]
        else:
            phase.set_up()
            _, _, untraced = phase.run(rounds, args.seconds)
            phase.release()
            rec = tracing.SpanRecorder()
            rec.install()
            try:
                s0 = len(rec)
                state = wl.setup()
                s1 = len(rec)
                wl.prepare(state, keys)
                phase.state = state
                r0 = len(rec)
                units1, wall1, traced = phase.run(rounds, args.seconds)
                r1 = len(rec)
            finally:
                rec.uninstall()
            metrics = tracing.layer_metrics(rec, (s0, s1), (r0, r1), units1, wall1)
            metrics["trace.ops_per_s_untraced"] = (untraced, "units/s")
            metrics["trace.ops_per_s_traced"] = (traced, "units/s")
            metrics["trace.overhead_ratio"] = (untraced / traced, "ratio")
            result["metrics"] = {k: [v, u] for k, (v, u) in metrics.items()}
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
            rec.save(trace_path, {"setup": (s0, s1), "run": (r0, r1)})
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        result["stamp"] = stamp(args.seed, wl.sizes(phase.state))
    except Exception as exc:  # a set-up failed; it counts as one failed unit
        result["setup_error"] = f"{type(exc).__name__}: {exc}"
        phase.attempted += 1
        phase.failed += 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result.update(attempted=phase.attempted, failed=phase.failed, errors=phase.errors,
                  by_ref_seed={str(k): v for k, v in sorted(phase.by_ref_seed.items())})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
