"""The three benchmark workloads and the reference check of their outputs.

Every workload has a set-up step (build each design it uses through the
public builders, fill the probability caches and run the assumption
checks) and a pool of units. One unit is one science table scored by every
estimator of the workload; in crd16-analyze it is one observed table
analyzed by every estimator. A call into the package may score several
units at once (``run_study_b`` scores four tables).

The pool is fixed: it holds the units generated from the two reference
seeds (0 is the default seed, 1 the held-out one), and every unit's output
is committed under ``perfbench/refs``. The run seed picks the order in
which a run visits the pool. Units are visited in rounds that take one key
from each stratum, so every round does the same mix of work and a run that
stops at a round boundary measures the same mix whatever its seed.

This module imports ``designvar``; the caller puts the package on the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import designvar as dv

REF_SEEDS = (0, 1)

# Mirrors designvar.core.EST_RTOL: outputs must match the references to this
# relative tolerance; ABS_FLOOR covers values that are zero up to rounding.
EST_RTOL = 1e-10
ABS_FLOOR = 1e-12

STUDY_ESTIMATORS = ("v_am", "imputation:theta-loo", "imputation:tau-hat")
APPENDIX_C_ESTIMATORS = (
    "imputation:fixed:0",
    "imputation:tau-hat",
    "imputation:tau-loo",
    "imputation:theta-loo",
)
# (n, n_treated, outcome model) of the six appendix-C scenarios, in scenario
# order, as run_appendix_c lays them out.
APPENDIX_C_LAYOUT = (
    (6, 3, "constant_random"),
    (6, 3, "heterogeneous"),
    (6, 4, "constant_random"),
    (8, 4, "constant_random"),
    (8, 4, "heterogeneous"),
    (8, 5, "constant_random"),
)

STUDY_B_N, STUDY_B_TREATED, BALANCE_THRESHOLD = 50, 25, 0.2
# Per run_study_b call: one replication of the four models, 8 accepted
# inner draws and 6 outer evaluations, so that the accept-reject sampler
# takes about 40 % of the call and the n=50 leave-one-out gammas most of
# the rest. A call this short (about 0.1 s) lets a run time many calls.
STUDY_B_CALL = {"n_replications": 1, "n_inner_draws": 8, "n_outer": 6}
CRD16 = (16, 8)


Key = tuple


@dataclass(frozen=True)
class Workload:
    """One workload: set-up, pool and call.

    ``setup()`` returns the state the calls use; ``strata()`` lists the
    pool's call keys by stratum; ``run_unit(state, key, out_dir)`` makes one
    call and returns its outputs (per-table lists plus call-level values);
    ``prepare(state, keys)`` builds inputs that are not part of a call.
    """

    name: str
    setup: Callable[[], dict]
    strata: Callable[[], list[list[Key]]]
    run_unit: Callable[[dict, Key, Path], dict]
    units_per_call: int
    setup_repeats: int
    sizes: Callable[[dict], dict]
    prepare: Callable[[dict, list[Key]], None] = lambda state, keys: None


def key_str(key: Key) -> str:
    return ":".join(str(k) for k in key)


def rounds(strata: list[list[Key]], rng: np.random.Generator) -> Iterator[list[Key]]:
    """Endless rounds, each taking one key from every stratum.

    Each stratum is visited in a seeded random order and reshuffled once
    used up; the order of the strata inside a round is shuffled too.
    """
    orders = [list(rng.permutation(len(s))) for s in strata]
    pos = [0] * len(strata)
    while True:
        out = []
        for s in rng.permutation(len(strata)):
            if pos[s] == len(strata[s]):
                orders[s] = list(rng.permutation(len(strata[s])))
                pos[s] = 0
            out.append(strata[s][orders[s][pos[s]]])
            pos[s] += 1
        yield out


def _touch_caches(d: dv.Design) -> None:
    d.propensities
    if isinstance(d, dv.ExplicitDesign):
        d.pairwise_cells()
    dv.check_assumptions(d)


def _records(res: dv.SimResult) -> dict:
    """Per-table outputs of a SimResult: records grouped by scenario."""
    out: dict[str, list] = {}
    for rec in res.records:
        row = [rec.estimator, rec.relative_bias, rec.sd]
        if rec.mc_se is not None:
            row.append(rec.mc_se)
        out.setdefault(f"{rec.scenario}#{rec.replication}", []).append(row)
    return out


# -- appendix-c -------------------------------------------------------------

def _appendix_c_setup() -> dict:
    designs = [dv.build_crd(n, nt) for n, nt, _ in APPENDIX_C_LAYOUT]
    for d in designs:
        _touch_caches(d)
    return {"designs": designs}


def _appendix_c_strata() -> list[list[Key]]:
    reps = 20
    return [
        [(r, k, j) for r in REF_SEEDS for j in range(reps)]
        for k in range(len(APPENDIX_C_LAYOUT))
    ]


def _appendix_c_unit(state: dict, key: Key, out_dir: Path) -> dict:
    # One scenario of run_appendix_c(seed=10_000 * r + j, n_replications=1)
    # per call, design built inside the call as run_appendix_c does. A call
    # takes about 20 ms where all six take 0.12 s, so a run times six times
    # as many calls and is likelier to catch some in a quiet moment.
    r, k, j = key
    n, nt, kind = APPENDIX_C_LAYOUT[k]
    model = getattr(dv.OutcomeModel, kind)()
    spec = dv.ScenarioSpec(
        name=f"scenario-{k + 1}",
        design_spec=dv.build_crd(n, nt),
        outcome_model=model,
        estimators=APPENDIX_C_ESTIMATORS,
        n_replications=1,
        n_inner_draws=0,
        seed=1000 * (10_000 * r + j) + k,
    )
    res = dv.run_study(spec)
    dv.emit_outputs(res, out_dir)
    return _records(res)


def _appendix_c_sizes(state: dict) -> dict:
    return {
        "designs": [[n, nt] for n, nt, _ in APPENDIX_C_LAYOUT],
        "support_rows": [d.support_size for d in state["designs"]],
        "estimators": list(APPENDIX_C_ESTIMATORS),
    }


# -- study-b ----------------------------------------------------------------

def _study_b_setup() -> dict:
    designs = []
    for seed in REF_SEEDS:
        x = dv.gen_covariates_hainmueller(STUDY_B_N, seed)
        base = dv.build_crd(STUDY_B_N, STUDY_B_TREATED)
        d = dv.build_rerandomized(base, x, BALANCE_THRESHOLD, retry_budget=5_000_000)
        _touch_caches(d)
        designs.append(d)
    return {"designs": designs}


def _study_b_strata() -> list[list[Key]]:
    # one call per reference seed, each its own stratum: the acceptance rate,
    # and so the cost of a call, depends on the covariates its seed draws
    return [[(r,)] for r in REF_SEEDS]


def _study_b_unit(state: dict, key: Key, out_dir: Path) -> dict:
    res = dv.run_study_b(
        seed=key[0], estimators=STUDY_ESTIMATORS, **STUDY_B_CALL
    )
    dv.emit_outputs(res, out_dir)
    out = _records(res)
    out["empirical_support_size"] = res.meta["empirical_support_size"]
    out["excluded"] = res.excluded_zero_variance
    return out


def _study_b_sizes(state: dict) -> dict:
    return {
        "n": STUDY_B_N,
        "calls": len(_study_b_strata()),
        **STUDY_B_CALL,
        "estimators": list(STUDY_ESTIMATORS),
    }


# -- crd16-analyze ----------------------------------------------------------

def _crd16_setup() -> dict:
    d = dv.build_crd(*CRD16)
    _touch_caches(d)
    return {"design": d}


def _crd16_strata() -> list[list[Key]]:
    reps = 8
    return [[(r, k, j) for r in REF_SEEDS for j in range(reps)] for k in range(4)]


def _crd16_observed(key: Key) -> dv.ObservedData:
    """The observed table of one unit: a science table and a CRD assignment."""
    r, k, j = key
    n, nt = CRD16
    rng = np.random.default_rng((r, k, j, n))
    po = dv.gen_outcomes(dv.study_models()[k], n, rng)
    bits = np.zeros(n, dtype=int)
    bits[rng.choice(n, size=nt, replace=False)] = 1
    return dv.reveal(po, dv.AssignmentVector.from_bits(bits.tolist()))


def _crd16_prepare(state: dict, keys: list[Key]) -> None:
    state["observed"] = {key: _crd16_observed(key) for key in keys}


def _crd16_unit(state: dict, key: Key, out_dir: Path) -> dict:
    d = state["design"]
    obs = state["observed"][key]
    q = dv.default_q_crd(d.n)
    values = {
        "v_sub": dv.v_sub(d, obs).value,
        "mse_sub_epsem": dv.mse_sub_epsem(d, obs).value,
        "v_am": dv.v_am(d, obs).value,
        "decomposition": dv.estimate_decomposition(d, obs, q).value,
        "neyman": dv.neyman_variance(obs).value,
        "imputation:tau-hat": dv.v_imputation(d, obs, dv.GammaSpec.parse("tau-hat")).value,
        "imputation:theta-loo": dv.v_imputation(
            d, obs, dv.GammaSpec.parse("theta-loo")
        ).value,
    }
    return {"table": [[name, value] for name, value in values.items()]}


def _crd16_sizes(state: dict) -> dict:
    d = state["design"]
    return {
        "n": d.n,
        "support_rows": d.support_size,
        "membership_bytes_computed": 9 * d.support_size**2,
    }


WORKLOADS = {
    "appendix-c": Workload(
        name="appendix-c", setup=_appendix_c_setup, strata=_appendix_c_strata,
        run_unit=_appendix_c_unit, units_per_call=1,
        setup_repeats=61, sizes=_appendix_c_sizes,
    ),
    "study-b": Workload(
        name="study-b", setup=_study_b_setup, strata=_study_b_strata,
        run_unit=_study_b_unit, units_per_call=4 * STUDY_B_CALL["n_replications"],
        setup_repeats=15, sizes=_study_b_sizes,
    ),
    "crd16-analyze": Workload(
        name="crd16-analyze", setup=_crd16_setup, strata=_crd16_strata,
        run_unit=_crd16_unit, units_per_call=1, setup_repeats=6, sizes=_crd16_sizes,
        prepare=_crd16_prepare,
    ),
}


def all_keys(wl: Workload) -> list[Key]:
    return [key for stratum in wl.strata() for key in stratum]


# -- reference check --------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(EST_RTOL * max(abs(a), abs(b)), ABS_FLOOR)


def _same(got, ref) -> bool:
    if isinstance(ref, bool) or isinstance(got, bool):
        return got is ref
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if isinstance(ref, int) and isinstance(got, int):
            return got == ref
        return math.isfinite(got) and _close(float(got), float(ref))
    if isinstance(ref, str) or isinstance(got, str):
        return got == ref
    if isinstance(ref, list) and isinstance(got, (list, tuple)):
        return len(got) == len(ref) and all(_same(g, r) for g, r in zip(got, ref))
    return False


def count_mismatches(got: dict, ref: dict | None, units: int) -> int:
    """Failed units of one call: tables whose outputs differ from the reference.

    A call-level entry (not a per-table list) that differs fails every unit
    of the call, as does a missing reference.
    """
    if ref is None or set(got) != set(ref):
        return units
    bad_tables = 0
    for name, ref_val in ref.items():
        if _same(got[name], ref_val):
            continue
        if not isinstance(ref_val, list):
            return units
        bad_tables += 1
    return min(bad_tables, units)
