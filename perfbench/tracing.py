"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps, from outside the package, every public function of the
layer modules, rebinds each name that another ``designvar`` module imported
(``simulate.estimator_moments``, ``imputation.psi``, ``oracles.reveal``,
...), and wraps the ``sample_matrix`` methods so that the base-CRD draws
nested inside a rerandomized draw show up as child spans. Each span holds a
name, start, end, parent and one integer note (rows drawn, support size,
bytes written). Spans stay in memory and are saved when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

PACKAGE = "designvar"
LAYERS = (
    "designs",
    "oracles",
    "core",
    "imputation",
    "decomposition",
    "contrast",
    "estimators",
    "simulate",
)


def _rows(args, out) -> int:
    return int(out.shape[0])


def _support_rows(args, out) -> int:
    return int(args[0].support_size)


def _bytes_written(args, out) -> int:
    return sum(Path(p).stat().st_size for p in out)


# Oracles that call an estimator once per support row; the calls get spans.
_ORACLES_TAKING_EST = ("oracles.estimator_expectation", "oracles.estimator_moments")

NOTES: dict[str, Callable] = {
    "designs.sample_matrix": _rows,
    "contrast.substitute_counts": _support_rows,
    "simulate.emit_outputs": _bytes_written,
}


class SpanRecorder:
    """In-memory spans of wrapped calls in one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.note = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, note: Callable | None = None) -> Callable:
        if name in _ORACLES_TAKING_EST:
            fn = self._wrap_est_argument(fn)
        nid = self._intern(name)
        name_id, parent, notes = self.name_id, self.parent, self.note
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            notes.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, out)
            return out

        return traced

    def _wrap_est_argument(self, fn: Callable) -> Callable:
        """Give each estimator an oracle evaluates its own span, oracles.est."""

        @functools.wraps(fn)
        def with_traced_est(d, po, est):
            return fn(d, po, self.wrap(est, "oracles.est"))

        return with_traced_est

    def install(self) -> None:
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(obj, name, NOTES.get(name)))
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != PACKAGE:
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        designs = sys.modules[f"{PACKAGE}.designs"]
        for cls in (designs.ExplicitDesign, designs.SampledDesign):
            fn = cls.__dict__["sample_matrix"]
            self._patches.append((cls, "sample_matrix", fn))
            setattr(cls, "sample_matrix", self.wrap(fn, "designs.sample_matrix", _rows))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "note": np.frombuffer(self.note, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path, phases: dict[str, tuple[int, int]]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            phase_names=np.array(list(phases)),
            phase_ranges=np.array(list(phases.values()), dtype=np.int64).reshape(-1, 2),
            **self.arrays(),
        )


class SpanTable:
    """Read-only view of recorded spans with inclusive and self times."""

    def __init__(self, rec: SpanRecorder) -> None:
        a = rec.arrays()
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.note = a["note"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child_time
        self._ids = {name: k for k, name in enumerate(rec.names)}
        self.parent_name = np.where(has_parent, self.name_id[np.maximum(self.parent, 0)], -1)

    def mask(self, names, lo: int, hi: int, *, outermost: bool = True) -> np.ndarray:
        """Spans in [lo, hi) with one of ``names``, optionally only those not
        directly inside another span of the same group."""
        ids = [self._ids[n] for n in names if n in self._ids]
        m = np.zeros(len(self.dur), dtype=bool)
        m[lo:hi] = np.isin(self.name_id[lo:hi], ids)
        if outermost:
            m &= ~np.isin(self.parent_name, ids)
        return m

    def inclusive(self, names, lo, hi) -> float:
        return float(self.dur[self.mask(names, lo, hi)].sum())

    def count(self, names, lo, hi) -> int:
        return int(self.mask(names, lo, hi, outermost=False).sum())


def layer_metrics(
    rec: SpanRecorder,
    setup: tuple[int, int],
    run: tuple[int, int],
    units: int,
    run_wall: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced set-up and one traced run phase.

    Run-phase values are per unit of work; set-up values are per set-up.
    Times are inclusive of nested calls unless named ``self_s``.
    """
    t = SpanTable(rec)
    per = 1.0 / max(units, 1)
    s0, s1 = setup
    r0, r1 = run
    out: dict[str, tuple[float, str]] = {}

    def per_unit_s(metric: str, *names: str) -> None:
        out[metric] = (t.inclusive(names, r0, r1) * per, "s/unit")

    def per_unit_calls(metric: str, *names: str) -> None:
        out[metric] = (t.count(names, r0, r1) * per, "calls/unit")

    per_unit_calls("oracles.est_evals", "oracles.est")
    per_unit_s("oracles.moments_s", "oracles.estimator_moments")
    per_unit_calls("oracles.psi_calls", "oracles.psi")
    per_unit_s("oracles.psi_s", "oracles.psi")
    per_unit_calls("core.reveal_calls", "core.reveal")
    per_unit_s("core.reveal_s", "core.reveal")

    per_unit_calls("imputation.gamma_calls", "imputation.gamma_vector")
    per_unit_s("imputation.gamma_s", "imputation.gamma_vector")
    per_unit_s("imputation.v_imputation_s", "imputation.v_imputation")

    per_unit_calls("decomposition.v_am_calls", "decomposition.v_am")
    per_unit_s("decomposition.v_am_s", "decomposition.v_am")
    per_unit_s("decomposition.estimate_s", "decomposition.estimate_decomposition")

    sample = t.mask(["designs.sample_matrix"], r0, r1, outermost=False)
    top = t.mask(["designs.sample_matrix"], r0, r1)
    nested = sample & ~top
    outer_with_base = np.zeros(len(t.dur), dtype=bool)
    outer_with_base[t.parent[nested]] = True
    outer_with_base &= top
    base_rows = int(t.note[nested].sum())
    out["designs.sample_s"] = (float(t.dur[top].sum()) * per, "s/unit")
    out["designs.sample_rows"] = (int(t.note[top].sum()) * per, "rows/unit")
    out["designs.base_rows"] = (base_rows * per, "rows/unit")
    accepted = int(t.note[outer_with_base].sum())
    out["designs.accept_ratio"] = (accepted / base_rows if base_rows else 0.0, "ratio")

    builders = ("designs.build_crd", "designs.build_rerandomized",
                "designs.build_explicit", "designs.build_matched_pair")
    out["designs.build_s"] = (t.inclusive(builders, s0, s1), "s/setup")
    out["designs.check_s"] = (t.inclusive(["designs.check_assumptions"], s0, s1), "s/setup")
    counts = t.mask(["contrast.substitute_counts"], s0, s1)
    out["contrast.substitute_counts_s"] = (float(t.dur[counts].sum()), "s/setup")
    out["contrast.membership_bytes"] = (
        int((9 * t.note[counts] ** 2).sum()), "bytes-computed"
    )

    per_unit_s("contrast.v_sub_s", "contrast.v_sub")
    per_unit_s("contrast.mse_sub_s", "contrast.mse_sub_epsem")
    per_unit_s("estimators.neyman_s", "estimators.neyman_variance")

    studies = t.mask(["simulate.run_study", "simulate.run_study_b"], r0, r1,
                     outermost=False)
    out["simulate.self_s"] = (float(t.self_time[studies].sum()) * per, "s/unit")
    per_unit_s("simulate.gen_outcomes_s", "simulate.gen_outcomes")
    per_unit_s("simulate.emit_s", "simulate.emit_outputs")
    emits = t.mask(["simulate.emit_outputs"], r0, r1)
    out["simulate.emit_bytes"] = (int(t.note[emits].sum()) * per, "bytes/unit")

    top_level = np.zeros(len(t.dur), dtype=bool)
    top_level[r0:r1] = t.parent[r0:r1] < 0
    out["trace.coverage"] = (float(t.dur[top_level].sum()) / run_wall, "ratio")
    out["trace.spans"] = ((r1 - r0) * per, "spans/unit")
    return out
