"""Simulation harness: seeded DGPs, study runners, and file outputs.

The harness reproduces three studies at desk scale:

* study A: a rerandomized design on 12 units whose covariate draw forces a
  non-measurable design (one pair of units can never be treated together),
  evaluated by exact enumeration of the filtered support;
* study B: a rerandomized design on 50 units with six covariates, evaluated
  through an inner Monte Carlo approximation of the design;
* the six-scenario comparison of imputation estimators under complete
  randomization ("appendix-c" in the CLI), evaluated exactly.

Every replication draws a fresh science table, computes the exact (or
MC-approximated) design expectation and standard deviation of each requested
estimator, and records the relative bias (E_d[V] - Var_d) / Var_d.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from functools import cache, partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .contrast import EQUAL_SIZE
from .contrast import _substitute_values, _v_pair_scalar, _v_pair_values, mse_sub_epsem, v_sub
from .core import (
    PROB_TOL,
    AssumptionError,
    ObservedData,
    PotentialOutcomes,
    ValidationError,
    VarianceEstimate,
)
from .decomposition import (
    _decomposition_values,
    _v_am_values,
    default_q_crd,
    estimate_decomposition,
    v_am,
)
from .designs import (
    Design,
    ExplicitDesign,
    SampledDesign,
    build_crd,
    build_rerandomized,
)
from .estimators import _neyman_values, neyman_variance
from .imputation import (
    GammaSpec,
    _imputation_family,
    v_imputation,
    v_imputation_mc,
)
from .oracles import _kernel_values, _weighted_moments, true_variance

__all__ = [
    "OutcomeModel",
    "ScenarioSpec",
    "SimRecord",
    "SimResult",
    "gen_covariate_study_a",
    "gen_covariates_hainmueller",
    "gen_outcomes",
    "resolve_estimator",
    "study_a_design",
    "run_study",
    "run_study_a",
    "run_study_b",
    "run_appendix_c",
    "emit_outputs",
]

STUDY_A_N = 12
STUDY_A_TREATED = 6
STUDY_B_N = 50
STUDY_B_TREATED = 25
BALANCE_THRESHOLD = 0.2
DEFAULT_REPLICATIONS = 100
DEFAULT_INNER_DRAWS = 20_000
DEFAULT_OUTER_EVALUATIONS = 200

# Estimators shown in the two study figures: the bounded pairwise-expansion
# estimator and the two leading imputation estimators.
STUDY_ESTIMATORS = ("v_am", "imputation:theta-loo", "imputation:tau-hat")

_MODEL_KINDS = ("no_effect", "constant_fixed", "constant_random", "heterogeneous")

# Distinct seed stream for the study-B design draws so they never collide
# with the per-replication outcome streams (seed, model, replication).
_DESIGN_STREAM = 104729


# ---------------------------------------------------------------------------
# outcome models and scenario descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutcomeModel:
    """One of the four generative models for the science table.

    All four draw Y(0) iid Uniform(0, 10); they differ in the treatment
    effect: none, a fixed constant, a common draw per replication, or
    unit-level iid draws.
    """

    kind: str
    delta: float = 0.0
    low: float = -5.0
    high: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in _MODEL_KINDS:
            raise ValidationError(
                f"unknown outcome model {self.kind!r}; expected one of {_MODEL_KINDS}"
            )
        if not math.isfinite(self.delta):
            raise ValidationError("constant effect must be finite")
        if not self.low < self.high:
            raise ValidationError(
                f"effect range must be well ordered, got ({self.low}, {self.high})"
            )

    @classmethod
    def no_effect(cls) -> "OutcomeModel":
        return cls("no_effect")

    @classmethod
    def constant_fixed(cls, delta: float = 5.0) -> "OutcomeModel":
        return cls("constant_fixed", delta=float(delta))

    @classmethod
    def constant_random(cls, low: float = -5.0, high: float = 5.0) -> "OutcomeModel":
        return cls("constant_random", low=float(low), high=float(high))

    @classmethod
    def heterogeneous(cls, low: float = -5.0, high: float = 5.0) -> "OutcomeModel":
        return cls("heterogeneous", low=float(low), high=float(high))

    @property
    def label(self) -> str:
        return self.kind


def study_models() -> tuple[OutcomeModel, ...]:
    """The four outcome models used by studies A and B, in figure order."""
    return (
        OutcomeModel.no_effect(),
        OutcomeModel.constant_fixed(5.0),
        OutcomeModel.constant_random(),
        OutcomeModel.heterogeneous(),
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: a design, an outcome model, and the estimators to score.

    ``design_spec`` is a built enumerable design.  ``n_inner_draws`` is never
    read: :func:`run_study` refuses sampler-backed designs, and study B takes
    its draw count as an argument of :func:`run_study_b`.
    """

    name: str
    design_spec: Design
    outcome_model: OutcomeModel
    estimators: tuple[str, ...] = STUDY_ESTIMATORS
    n_replications: int = DEFAULT_REPLICATIONS
    n_inner_draws: int = DEFAULT_INNER_DRAWS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_replications <= 0:
            raise ValidationError("n_replications must be positive")
        if self.n_inner_draws < 0:
            raise ValidationError("n_inner_draws must be nonnegative")
        if not self.estimators:
            raise ValidationError("at least one estimator is required")


@dataclass(frozen=True)
class SimRecord:
    """One replication's score for one estimator."""

    scenario: str
    model: str
    replication: int
    estimator: str
    relative_bias: float
    sd: float
    mc_se: float | None = None


@dataclass(frozen=True)
class SimResult:
    """All replication records for a study plus summary quantiles."""

    study: str
    records: tuple[SimRecord, ...]
    summary: dict
    excluded_zero_variance: int = 0
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# covariate and outcome generators
# ---------------------------------------------------------------------------

_HAINMUELLER_COV = np.array(
    [
        [2.0, 1.0, -1.0],
        [1.0, 1.0, -0.5],
        [-1.0, -0.5, 1.0],
    ]
)


def gen_covariates_hainmueller(n: int, seed=None) -> np.ndarray:
    """n x 6 covariate matrix: correlated trivariate normal plus three extras.

    Columns 1-3 are trivariate normal with covariance
    [[2, 1, -1], [1, 1, -0.5], [-1, -0.5, 1]]; column 4 is Uniform(-3, 3),
    column 5 is chi-squared with 1 df, column 6 is Bernoulli(0.5).
    """
    if n < 1:
        raise ValidationError(f"need at least one unit, got n={n}")
    rng = np.random.default_rng(seed)
    x123 = rng.multivariate_normal(np.zeros(3), _HAINMUELLER_COV, size=n)
    x4 = rng.uniform(-3.0, 3.0, size=n)
    x5 = rng.chisquare(1.0, size=n)
    x6 = rng.integers(0, 2, size=n).astype(float)
    return np.column_stack([x123, x4, x5, x6])


def gen_covariate_study_a(n: int = 12, seed=None) -> np.ndarray:
    """Single covariate with the first two units shifted to Normal(10, 1).

    The remaining units are Normal(0, 1).  Balancing on this covariate forces
    the shifted pair into opposite arms, which is what makes the study-A
    design non-measurable.
    """
    if n < 3:
        raise ValidationError(f"need at least three units, got n={n}")
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size=n)
    x[:2] += 10.0
    return x


def gen_outcomes(model: OutcomeModel, n: int, seed=None) -> PotentialOutcomes:
    """Draw a science table from one of the four outcome models."""
    rng = np.random.default_rng(seed)
    y0 = rng.uniform(0.0, 10.0, size=n)
    if model.kind == "no_effect":
        effect = np.zeros(n)
    elif model.kind == "constant_fixed":
        effect = np.full(n, model.delta)
    elif model.kind == "constant_random":
        effect = np.full(n, rng.uniform(model.low, model.high))
    else:
        effect = rng.uniform(model.low, model.high, size=n)
    return PotentialOutcomes(y1=y0 + effect, y0=y0)


# ---------------------------------------------------------------------------
# estimator registry
# ---------------------------------------------------------------------------

# The one estimator registry, shared by the simulator and the CLI. Names
# after the slash are aliases; <gamma> is fixed:<v>, tau-hat, tau-loo or
# theta-loo.
ESTIMATOR_NAMES = (
    "neyman, v_sub/contrast, mse_sub/mse-sub, v_pair/pair, v_am/am, "
    "decomposition, imputation:<gamma>"
)
_ALIASES = {"contrast": "v_sub", "mse-sub": "mse_sub", "pair": "v_pair", "am": "v_am"}


def resolve_estimator(
    name: str,
    d: Design,
    *,
    substitutes: Mapping | None = None,
    q: np.ndarray | None = None,
    mc_draws: int | None = None,
    seed: int = 0,
) -> Callable[[ObservedData], VarianceEstimate]:
    """Map an estimator name (see ``ESTIMATOR_NAMES``) to a callable on observed data.

    ``substitutes`` is the substitute map of v_sub and mse_sub (None: the
    full map). ``q`` is the decomposition Q matrix (None: the default Q of a
    CRD design). With ``mc_draws`` the imputation estimators are Monte Carlo
    estimates from that many draws at ``seed``; otherwise they are exact.
    """
    return _estimator_entry(name, d, substitutes=substitutes, q=q, mc_draws=mc_draws, seed=seed)[0]


def _estimator_entry(
    name: str,
    d: Design,
    *,
    substitutes: Mapping | None = None,
    q: np.ndarray | None = None,
    mc_draws: int | None = None,
    seed: int = 0,
) -> tuple[Callable, Callable | GammaSpec | bool]:
    """The registry entry of an estimator name (arguments as in
    :func:`resolve_estimator`): its scalar callable, and its batch kernel
    (the same values as an array, from (k, n) 0/1 assignments and outcomes)
    or what :func:`_batch_kernel` scores it by in a shared kernel: an
    imputation name's GammaSpec, and for v_sub (True) and mse_sub (False)
    whether v_sub's equal-size refusal applies."""
    key = name.strip()
    key = _ALIASES.get(key, key)
    if key.startswith("imputation:"):
        spec = GammaSpec.parse(key.split(":", 1)[1])
        if mc_draws is None:
            return partial(v_imputation, d, spec=spec), spec
        if mc_draws < 2:  # refused here, not as the failure of a support row
            raise ValidationError(f"need at least 2 draws, got {mc_draws}")
        return partial(v_imputation_mc, d, spec=spec, m=mc_draws, seed=seed), spec
    if key == "neyman":
        return neyman_variance, _neyman_values
    if key == "v_am":
        return partial(v_am, d), lambda w, y: _v_am_values(d, w, y)[0]
    if key in ("v_sub", "mse_sub"):  # one kernel; v_sub adds its equal-size refusal
        return partial(v_sub if key == "v_sub" else mse_sub_epsem, d, g=substitutes), key == "v_sub"
    if key == "v_pair":
        pairs = getattr(d, "pairs", None)
        return partial(_v_pair_scalar, pairs), partial(_v_pair_values, pairs)
    if key == "decomposition":
        if q is None:
            if d.kind != "crd":
                raise ValidationError(
                    "decomposition needs a Q matrix (--q on the command line) "
                    "for designs without a default Q"
                )
            q = default_q_crd(d.n)
        return partial(estimate_decomposition, d, q=q), partial(_decomposition_values, d, q)
    raise ValidationError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")


def _batch_kernel(
    names: Sequence[str], d: Design, **options
) -> Callable[[np.ndarray, np.ndarray], list[np.ndarray]]:
    """One batch kernel for every name (options as in :func:`resolve_estimator`):
    from (k, n) 0/1 assignments and outcomes it returns one value array per
    name, in name order. The imputation names share one imputation family
    and, with ``mc_draws``, one set of design draws; each estimator runs, and
    can fail, at its place in ``names``, so within a block the first listed
    estimator that fails raises. The kernel keeps its state for its whole
    life: the imputation factor and a user substitute map's validation are
    made once, however many blocks or passes it scores. The contrast names
    share one kernel, which scores a block once for all of them (one anchor
    pass per table) and keeps nothing of it."""
    entries = [_estimator_entry(name, d, **options)[1] for name in names]
    specs = [k for k in entries if isinstance(k, GammaSpec)]
    family = _imputation_family(d, specs, options.get("mc_draws"), options.get("seed", 0))
    substitute = _substitute_values(d, options.get("substitutes"))

    def kernel(w: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        values, scored = family(w, y), []

        def contrast(equal_size: bool) -> np.ndarray:
            # v_sub after mse_sub on a design that is not equal-size: called again, to refuse
            if not scored or equal_size and scored[0][1] != EQUAL_SIZE:
                scored[:] = [substitute(w, y, equal_size)]
            return scored[0][0]

        return [next(values) if isinstance(k, GammaSpec) else contrast(k) if isinstance(k, bool)
                else k(w, y) for k in entries]

    return kernel


# ---------------------------------------------------------------------------
# generic exact-enumeration engine
# ---------------------------------------------------------------------------

def run_study(spec: ScenarioSpec) -> SimResult:
    """Score every requested estimator by exact enumeration, per replication.

    Each replication draws a fresh science table from the outcome model with
    a seed derived from (spec.seed, replication), computes the exact design
    mean and standard deviation of each estimator, and records the relative
    bias.  Replications whose true variance is zero are excluded and counted.
    One batch kernel scores the whole revealed support for every estimator
    in one call.
    """
    return _run_scenarios(spec.name, [spec], {"seed": spec.seed,
                                               "n_replications": spec.n_replications})


def _run_scenarios(study: str, specs: Sequence[ScenarioSpec], meta: dict) -> SimResult:
    """The one runner of the exact studies: each scenario of ``specs`` scored
    in order as :func:`run_study` describes, with one batch kernel per
    scenario, and every record summarized once into ``study``'s result."""
    records: list[SimRecord] = []
    excluded = 0
    for spec in specs:
        d = spec.design_spec
        if not isinstance(d, ExplicitDesign):
            raise AssumptionError(
                "run_study scores estimators by exact enumeration and needs an "
                "enumerable design; use run_study_b for sampler-backed designs"
            )
        kernel = _batch_kernel(spec.estimators, d)
        for rep in range(spec.n_replications):
            rng = np.random.default_rng((spec.seed, rep))
            po = gen_outcomes(spec.outcome_model, d.n, rng)
            var = true_variance(d, po)
            if var <= 0.0:
                excluded += 1
                continue
            for name, values in zip(spec.estimators, _kernel_values(d, po, kernel)):
                mean, sd = _weighted_moments(d, values)
                records.append(
                    SimRecord(
                        scenario=spec.name,
                        model=spec.outcome_model.label,
                        replication=rep,
                        estimator=name,
                        relative_bias=(mean - var) / var,
                        sd=sd,
                    )
                )
    return SimResult(
        study=study,
        records=tuple(records),
        summary=_summarize(records, excluded),
        excluded_zero_variance=excluded,
        meta=meta,
    )


_METRICS = ("relative_bias", "sd")
_QUANTILES = (("min", 0.0), ("q25", 0.25), ("median", 0.5), ("q75", 0.75), ("max", 1.0))


def _summarize(records: Iterable[SimRecord], excluded: int) -> dict:
    """Mean, quantiles and count of each metric per (scenario, estimator).

    The groups of one size are stacked and share one ``np.quantile`` call
    along the last axis; each group's mean stays its own 1-D ``mean``, which
    a stacked axis mean does not reproduce to the bit.
    """
    grouped: dict[tuple[str, str], tuple[list[float], list[float]]] = {}
    for rec in records:
        cell = grouped.setdefault((rec.scenario, rec.estimator), ([], []))
        cell[0].append(rec.relative_bias)
        cell[1].append(rec.sd)
    by_count: dict[int, list[tuple[str, str]]] = {}
    for key, cell in grouped.items():
        by_count.setdefault(len(cell[0]), []).append(key)
    blocks: dict[tuple[str, str], dict] = {}
    for count, keys in by_count.items():
        # (groups, metrics, count): one contiguous row per group and metric
        arr = np.array([grouped[key] for key in keys], dtype=float)
        qs = np.quantile(arr, [q for _, q in _QUANTILES], axis=-1)
        for g, key in enumerate(keys):
            blocks[key] = {
                metric: {
                    "mean": float(arr[g, m].mean()),
                    **{label: float(qs[j, g, m]) for j, (label, _) in enumerate(_QUANTILES)},
                    "count": count,
                }
                for m, metric in enumerate(_METRICS)
            }
    scenarios: dict[str, dict] = {}
    for (scenario, estimator) in grouped:
        scenarios.setdefault(scenario, {})[estimator] = blocks[(scenario, estimator)]
    return {"scenarios": scenarios, "excluded_zero_variance": excluded}


# ---------------------------------------------------------------------------
# appendix-C scenarios: imputation estimators under complete randomization
# ---------------------------------------------------------------------------

_APPENDIX_C_LAYOUT = (
    ("scenario-1", 6, 3, "constant_random"),
    ("scenario-2", 6, 3, "heterogeneous"),
    ("scenario-3", 6, 4, "constant_random"),
    ("scenario-4", 8, 4, "constant_random"),
    ("scenario-5", 8, 4, "heterogeneous"),
    ("scenario-6", 8, 5, "constant_random"),
)

APPENDIX_C_ESTIMATORS = (
    "imputation:fixed:0",
    "imputation:tau-hat",
    "imputation:tau-loo",
    "imputation:theta-loo",
)


def run_appendix_c(
    *,
    seed: int = 0,
    n_replications: int = DEFAULT_REPLICATIONS,
    estimators: tuple[str, ...] = APPENDIX_C_ESTIMATORS,
) -> SimResult:
    """Six CRD scenarios comparing the four imputation-gamma choices."""
    specs = [
        ScenarioSpec(
            name=name,
            design_spec=build_crd(n, n_treated),
            outcome_model=OutcomeModel(model_kind),
            estimators=estimators,
            n_replications=n_replications,
            n_inner_draws=0,
            seed=1000 * seed + k,
        )
        for k, (name, n, n_treated, model_kind) in enumerate(_APPENDIX_C_LAYOUT)
    ]
    meta = {"seed": seed, "n_replications": n_replications}
    return _run_scenarios("appendix-c", specs, meta)


# ---------------------------------------------------------------------------
# study A: exact enumeration of a non-measurable rerandomized design
# ---------------------------------------------------------------------------

def study_a_design(seed: int = 0) -> tuple[ExplicitDesign, np.ndarray]:
    """Build the study-A design from one covariate draw and check it.

    Draws the shifted covariate, filters the 924 equal-split assignments by
    the balance criterion, and verifies that the realized design is
    non-measurable (the two shifted units can never share an arm).
    """
    x = gen_covariate_study_a(STUDY_A_N, seed)
    base = build_crd(STUDY_A_N, STUDY_A_TREATED)
    d = build_rerandomized(base, x, BALANCE_THRESHOLD)
    assert isinstance(d, ExplicitDesign)
    p_both = d.pairwise_prob(0, 1, 1, 1)
    if p_both > PROB_TOL:
        raise AssumptionError(
            f"study-A covariate draw from seed {seed} leaves the design "
            f"measurable: Pr(W_1=1, W_2=1) = {p_both:.3g}; use another seed"
        )
    return d, x


def run_study_a(
    *,
    seed: int = 0,
    n_replications: int = DEFAULT_REPLICATIONS,
    estimators: tuple[str, ...] = STUDY_ESTIMATORS,
) -> SimResult:
    """Study A: four outcome models on the non-measurable 12-unit design."""
    d, x = study_a_design(seed)
    specs = [
        ScenarioSpec(
            name=f"study-a:{model.label}",
            design_spec=d,
            outcome_model=model,
            estimators=estimators,
            n_replications=n_replications,
            n_inner_draws=0,
            seed=1000 * seed + k,
        )
        for k, model in enumerate(study_models())
    ]
    meta = {
        "seed": seed,
        "n_replications": n_replications,
        "support_size": d.support_size,
        "balance_threshold": BALANCE_THRESHOLD,
        "pr_first_pair_both_treated": 0.0,
    }
    return _run_scenarios("study-a", specs, meta)


# ---------------------------------------------------------------------------
# study B: inner Monte Carlo on a 50-unit rerandomized design
# ---------------------------------------------------------------------------

def _empirical_design(draws: np.ndarray) -> ExplicitDesign:
    """Explicit design over the distinct rows of a draw matrix and of their
    complements.

    The balance criterion is invariant under swapping the arms, so the true
    design is complement-symmetric, and adding each draw's complement keeps
    every empirical propensity at exactly one half.
    """
    return ExplicitDesign._from_draws(
        np.concatenate([draws, 1 - draws]), kind="empirical",
        meta={"n_draws": len(draws), "symmetrized": True},
    )


def run_study_b(
    *,
    seed: int = 0,
    n_replications: int = DEFAULT_REPLICATIONS,
    n_inner_draws: int = DEFAULT_INNER_DRAWS,
    n_outer: int = DEFAULT_OUTER_EVALUATIONS,
    estimators: tuple[str, ...] = STUDY_ESTIMATORS,
) -> SimResult:
    """Study B: four outcome models on the 50-unit rerandomized design.

    The design is too large to enumerate, so ``n_inner_draws`` accepted
    assignments (plus their complements) form an empirical design; every
    design quantity is computed exactly under that empirical design.  The
    per-replication mean and SD of each estimator are then estimated from
    ``n_outer`` realizations sampled from it, and ``mc_se`` reports the
    Monte Carlo standard error of the relative-bias estimate.
    """
    if n_inner_draws < 2:
        raise ValidationError("study B needs at least two inner draws")
    if n_outer < 2:
        raise ValidationError("study B needs at least two outer evaluations")
    x = gen_covariates_hainmueller(STUDY_B_N, seed)
    base = build_crd(STUDY_B_N, STUDY_B_TREATED)
    d = build_rerandomized(base, x, BALANCE_THRESHOLD)
    assert isinstance(d, SampledDesign)
    draw_rng = np.random.default_rng((seed, _DESIGN_STREAM))
    draws = d.sample_matrix(n_inner_draws, draw_rng)
    emp = _empirical_design(draws)

    kernel = _batch_kernel(estimators, emp)

    records: list[SimRecord] = []
    excluded = 0
    for k, model in enumerate(study_models()):
        scenario = f"study-b:{model.label}"
        for rep in range(n_replications):
            rng = np.random.default_rng((seed, k, rep))
            po = gen_outcomes(model, STUDY_B_N, rng)
            var = true_variance(emp, po)
            if var <= 0.0:
                excluded += 1
                continue
            w = emp.sample_matrix(n_outer, rng)
            y = np.where(w == 1, po.y1, po.y0)
            for name, vals in zip(estimators, kernel(w, y)):
                mean = float(vals.mean())
                sd = float(vals.std(ddof=1))
                records.append(
                    SimRecord(
                        scenario=scenario,
                        model=model.label,
                        replication=rep,
                        estimator=name,
                        relative_bias=(mean - var) / var,
                        sd=sd,
                        mc_se=sd / (math.sqrt(n_outer) * var),
                    )
                )
    meta = {
        "seed": seed,
        "n_replications": n_replications,
        "n_inner_draws": n_inner_draws,
        "n_outer": n_outer,
        "empirical_support_size": emp.support_size,
        "balance_threshold": BALANCE_THRESHOLD,
    }
    return SimResult(
        study="study-b",
        records=tuple(records),
        summary=_summarize(records, excluded),
        excluded_zero_variance=excluded,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# outputs: CSV, JSON summary, SVG box plots
# ---------------------------------------------------------------------------

_CSV_COLUMNS = (
    "study",
    "scenario",
    "model",
    "replication",
    "estimator",
    "relative_bias",
    "sd",
    "mc_se",
)


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in text)


def emit_outputs(res: SimResult, out_dir) -> list[Path]:
    """Write results.csv, summary.json, and one box-plot SVG per scenario.

    The CSV carries one row per replication and estimator and is
    byte-deterministic for a fixed SimResult.  SVGs are self-contained
    static files with a relative-bias panel and an SD panel.

    Each file is written over any existing one in place, and its bytes equal
    those written into a fresh directory.  Box plots of scenarios that are
    not in ``res`` stay as they are.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    rows = io.StringIO()
    writer = csv.writer(rows, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for rec in res.records:
        writer.writerow(
            [
                res.study,
                rec.scenario,
                rec.model,
                rec.replication,
                rec.estimator,
                repr(rec.relative_bias),
                repr(rec.sd),
                "" if rec.mc_se is None else repr(rec.mc_se),
            ]
        )
    csv_path = out / "results.csv"
    _rewrite(csv_path, rows.getvalue(), newline="")
    written.append(csv_path)

    summary_path = out / "summary.json"
    payload = {
        "study": res.study,
        "excluded_zero_variance": res.excluded_zero_variance,
        "meta": res.meta,
        "summary": res.summary,
    }
    _rewrite(summary_path, _indented_json(payload) + "\n")
    written.append(summary_path)

    for scenario, groups in res.summary.get("scenarios", {}).items():
        svg_path = out / f"boxplot-{_slug(scenario)}.svg"
        _rewrite(svg_path, _boxplot_svg(scenario, groups))
        written.append(svg_path)
    return written


def _rewrite(path: Path, text: str, **text_options) -> None:
    """Write ``text`` as ``open(path, "w", **text_options)`` would, but over
    an existing file in place, cutting its old tail afterwards.

    Truncating first frees the file's blocks and allocates them again; on
    ext4 mounted with ``discard`` that made rewriting a 3 KB file about six
    times dearer than writing over it (about 110 us against 18 us).
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", **text_options) as handle:
        try:
            handle.write(text)
        finally:
            handle.truncate()


@cache
def _scalars_encoder(level: int) -> Callable[[object], str]:
    """The C encoder laying out a container of scalars at depth ``level``
    one item a line, as ``indent=2`` does; the line breaks after the opening
    and before the closing bracket are the caller's."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (level + 1), ": ")).encode


def _json_key(key) -> str:
    """A dict key as ``json.dumps`` writes it: numbers, bools and None as
    their JSON text, quoted."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = json.dumps(key)
    return encode_basestring_ascii(key)


def _indented_json(obj, level: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for ``obj`` nested
    ``level`` deep.

    ``json.dumps`` with an indent runs the pure-Python encoder before Python
    3.13; here every non-empty container of scalars (the summary's quantile
    blocks) goes to the C encoder, and only the containers above them are
    walked in Python.
    """
    if isinstance(obj, dict):
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    else:
        return _scalars_encoder(level)(obj)
    if not values:
        return brackets
    inner = "\n" + "  " * (level + 1)
    if not any(isinstance(v, (dict, list, tuple)) for v in values):
        body = _scalars_encoder(level)(obj)[1:-1]
    elif isinstance(obj, dict):
        body = ("," + inner).join(
            f"{_json_key(k)}: {_indented_json(v, level + 1)}" for k, v in sorted(obj.items())
        )
    else:
        body = ("," + inner).join(_indented_json(v, level + 1) for v in obj)
    return brackets[0] + inner + body + inner[:-2] + brackets[1]


_BOX_KEYS = ("min", "q25", "median", "q75", "max")


def _format_tick(v: float) -> str:
    return f"{v:.3g}"


def _boxplot_panel(
    lines: list[str],
    x0: float,
    y0: float,
    width: float,
    height: float,
    title: str,
    groups: Mapping[str, Mapping[str, float]],
) -> None:
    """Append one box-plot panel (axis, ticks, one box per estimator), each
    box drawn from a quantile block of the summary."""
    names = list(groups)
    lo = min(groups[name]["min"] for name in names)
    hi = max(groups[name]["max"] for name in names)
    if hi - lo < 1e-12:
        pad = max(abs(hi), 1.0) * 0.1
    else:
        pad = (hi - lo) * 0.08
    lo -= pad
    hi += pad

    def ty(v: float) -> float:
        return y0 + height - (v - lo) / (hi - lo) * height

    lines.append(
        f'<text x="{x0 + width / 2:.1f}" y="{y0 - 12:.1f}" text-anchor="middle" '
        f'font-size="13" font-weight="bold">{title}</text>'
    )
    lines.append(
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x0:.1f}" '
        f'y2="{y0 + height:.1f}" stroke="black"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        y = ty(v)
        lines.append(
            f'<line x1="{x0 - 4:.1f}" y1="{y:.1f}" x2="{x0:.1f}" y2="{y:.1f}" '
            'stroke="black"/>'
        )
        lines.append(
            f'<text x="{x0 - 8:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="10">{_format_tick(v)}</text>'
        )
    if lo < 0.0 < hi:
        y = ty(0.0)
        lines.append(
            f'<line x1="{x0:.1f}" y1="{y:.1f}" x2="{x0 + width:.1f}" y2="{y:.1f}" '
            'stroke="#999999" stroke-dasharray="4 3"/>'
        )
    slot = width / len(names)
    box_w = slot * 0.5
    for pos, name in enumerate(names):
        q0, q1, q2, q3, q4 = (groups[name][key] for key in _BOX_KEYS)
        cx = x0 + slot * (pos + 0.5)
        half = box_w / 2
        lines.append(
            f'<line x1="{cx:.1f}" y1="{ty(q0):.1f}" x2="{cx:.1f}" '
            f'y2="{ty(q4):.1f}" stroke="black"/>'
        )
        for whisker in (q0, q4):
            y = ty(whisker)
            lines.append(
                f'<line x1="{cx - half / 2:.1f}" y1="{y:.1f}" '
                f'x2="{cx + half / 2:.1f}" y2="{y:.1f}" stroke="black"/>'
            )
        top = ty(q3)
        box_h = max(ty(q1) - top, 0.8)
        lines.append(
            f'<rect x="{cx - half:.1f}" y="{top:.1f}" width="{box_w:.1f}" '
            f'height="{box_h:.1f}" fill="#9db8dd" stroke="black"/>'
        )
        y_med = ty(q2)
        lines.append(
            f'<line x1="{cx - half:.1f}" y1="{y_med:.1f}" x2="{cx + half:.1f}" '
            f'y2="{y_med:.1f}" stroke="black" stroke-width="1.6"/>'
        )
        lines.append(
            f'<text x="{cx:.1f}" y="{y0 + height + 16:.1f}" text-anchor="middle" '
            f'font-size="10">{name}</text>'
        )


def _boxplot_svg(scenario: str, groups: Mapping[str, Mapping[str, Mapping[str, float]]]) -> str:
    """Two-panel SVG (relative bias, SD) with one box per estimator, from the
    summary's quantile blocks of one scenario."""
    width, height = 900, 420
    panel_w, panel_h = 340, 300
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15" '
        f'font-weight="bold">{scenario}</text>',
    ]
    panels = (
        ("relative bias", {name: cell["relative_bias"] for name, cell in groups.items()}),
        ("standard deviation", {name: cell["sd"] for name, cell in groups.items()}),
    )
    for pos, (title, data) in enumerate(panels):
        x0 = 70 + pos * (panel_w + 110)
        _boxplot_panel(lines, x0, 70, panel_w, panel_h, title, data)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
