"""Built-in identity suites: deterministic numerical checks at desk scale.

Each suite re-derives one of the exact algebraic facts the estimators rely
on and reports the worst residual seen.  The suite ids are short stable
tokens (``thm2``, ``prop4``, ...) used by the command line; the docstring of
each builder says what is actually checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .contrast import _anchor_sums, _layer_values, substitute_counts
from .core import PotentialOutcomes, reveal
from .decomposition import default_q_crd, q_feasible_for_design, v_tilde, validate_q
from .designs import ExplicitDesign, build_crd, build_explicit, build_matched_pair
from .estimators import c_vector
from .imputation import imputation_bias_terms, impute_potential_outcomes
from .oracles import _kernel_values, _weighted_moments, estimator_expectation, psi, true_variance
from .simulate import _batch_kernel

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run_suites"]


@dataclass(frozen=True)
class CheckResult:
    """Worst residual for one named check within a suite."""

    suite: str
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _rel(a: float, b: float) -> float:
    """Residual |a - b| scaled by the larger magnitude (floored at 1)."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _random_table(rng: np.random.Generator, n: int, *, homogeneous: bool) -> PotentialOutcomes:
    y0 = rng.uniform(0.0, 10.0, size=n)
    if homogeneous:
        effect = np.full(n, rng.uniform(-5.0, 5.0))
    else:
        effect = rng.uniform(-5.0, 5.0, size=n)
    return PotentialOutcomes(y1=y0 + effect, y0=y0)


def _worst_gap(
    d: ExplicitDesign, tables: list[PotentialOutcomes], first: str | Callable,
    second: str | Callable, *, q: np.ndarray | None = None, scale: float = 1.0,
) -> float:
    """Largest residual between two estimators, registry names or one-name batch kernels (the
    second times ``scale``), over the tables revealed at every support row, for each table."""
    kernels = [_batch_kernel((e,), d, q=q) if isinstance(e, str) else e for e in (first, second)]
    gaps = [0.0]
    for po in tables:
        a, b = (_kernel_values(d, po, kernel)[0] for kernel in kernels)
        gaps += map(_rel, a.tolist(), (scale * b).tolist())
    return max(gaps)


def _anchor_checks(rng: np.random.Generator, tol: float, suite: str, cases) -> list[CheckResult]:
    """Each (name, design, reference) case's worst gap, over three tables,
    between mse_sub_epsem by the anchor sum over the substitute relation,
    the reference of the formulas that score complete supports, and the
    reference estimator."""
    out = []
    for name, d, reference in cases:
        sizes = substitute_counts(d)
        tables = [_random_table(rng, d.n, homogeneous=False) for _ in range(3)]
        worst = _worst_gap(d, tables, lambda w, y: [_anchor_sums(d, d.rows_of(w), y, sizes)[0]],
                           reference)
        out.append(CheckResult(suite, f"contrast-equals-{name}", worst, tol))
    return out


def _crossed_pairs_design() -> ExplicitDesign:
    """Four-unit design supported on two pair-splits plus their complements."""
    return build_explicit(
        ["1100", "0011", "1001", "0110"], [0.25, 0.25, 0.25, 0.25]
    )


def _crossed_pairs_q() -> np.ndarray:
    """The symmetric rank-one Q that makes the crossed-pairs design decomposable."""
    v = np.array([1.0, -1.0, 1.0, -1.0])
    return np.outer(v, v) / 16.0


# ---------------------------------------------------------------------------
# suite builders
# ---------------------------------------------------------------------------

def _suite_contrast_crd(rng: np.random.Generator, tol: float) -> list[CheckResult]:
    """Substitute contrasts, summed over anchors, equal the two-sample
    estimator on half/half CRDs, and s2_t/N_c + s2_c/N_t on CRD(9,3),
    CRD(16,4) and the 3- and 6-unit layers of 9 units weighted 2 and 5."""
    rows = [[int(i in c) for i in range(9)] for m in (3, 6) for c in combinations(range(9), m)]
    layers = ExplicitDesign(rows, [2.0 if sum(r) == 3 else 5.0 for r in rows])
    unequal = [("crd-9-3", build_crd(9, 3)), ("crd-16-4", build_crd(16, 4)),
               ("weighted-9-3-9-6", layers)]
    return _anchor_checks(rng, tol, "thm2", [
        *[(f"two-sample-crd-{n}", build_crd(n, n // 2), "neyman") for n in (4, 8, 12)],
        *[(f"layer-formula-{name}", d, lambda w, y: [_layer_values(w, y)[0]])
          for name, d in unequal],
    ])


def _suite_contrast_pairs(rng: np.random.Generator, tol: float) -> list[CheckResult]:
    """Substitute contrasts, summed over anchors, equal the pair estimator on paired designs."""
    return _anchor_checks(rng, tol, "thm3", [
        (f"pair-estimator-n{n}", build_matched_pair([(2 * j, 2 * j + 1) for j in range(n // 2)]),
         "v_pair") for n in (4, 8)
    ])


def _suite_contrast_decomposition(rng: np.random.Generator, tol: float) -> list[CheckResult]:
    """On the crossed-pairs design the contrast estimator is a decomposition."""
    d = _crossed_pairs_design()
    q = _crossed_pairs_q()
    report = validate_q(q)
    feasible = q_feasible_for_design(d, q)
    tables = [_random_table(rng, 4, homogeneous=False) for _ in range(25)]
    worst = _worst_gap(d, tables, "v_sub", "decomposition", q=q)
    return [
        CheckResult("prop3", "crossed-pairs-q-valid", 0.0 if report.passed else 1.0, tol),
        CheckResult(
            "prop3", "crossed-pairs-q-feasible", 0.0 if feasible.feasible else 1.0, tol
        ),
        CheckResult("prop3", "contrast-equals-decomposition", worst, tol),
    ]


def _suite_decomposition_crd(rng: np.random.Generator, tol: float) -> list[CheckResult]:
    """Default-Q checks: validity, exact variance split, two-sample agreement."""
    out = []
    for n in (4, 6, 8):
        d = build_crd(n, n // 2)
        q = default_q_crd(n)
        report = validate_q(q)
        out.append(
            CheckResult("prop2", f"default-q-valid-crd-{n}", 0.0 if report.passed else 1.0, tol)
        )
        tables = [_random_table(rng, n, homogeneous=False) for _ in range(3)]
        worst_split = 0.0
        for po in tables:
            effect = po.y1 - po.y0
            split = v_tilde(d, po, q) - float(effect @ q @ effect)
            worst_split = max(worst_split, _rel(split, true_variance(d, po)))
        worst_est = _worst_gap(d, tables, "decomposition", "neyman", q=q)
        out.append(CheckResult("prop2", f"variance-split-exact-crd-{n}", worst_split, tol))
        out.append(
            CheckResult("prop2", f"decomposition-equals-two-sample-crd-{n}", worst_est, tol)
        )
    return out


def _suite_imputation_tau_hat(rng: np.random.Generator, tol: float) -> list[CheckResult]:
    """Plug-in-effect imputation scales the two-sample estimator by (N-2)/(N-1)."""
    out = []
    for n in (4, 6, 8):
        tables = [_random_table(rng, n, homogeneous=False) for _ in range(3)]
        worst = _worst_gap(build_crd(n, n // 2), tables, "imputation:tau-hat", "neyman",
                           scale=(n - 2) / (n - 1))
        out.append(CheckResult("prop4", f"tau-hat-scaling-crd-{n}", worst, tol))
    return out


def _suite_imputation_theta_loo(rng: np.random.Generator, tol: float) -> list[CheckResult]:
    """Leave-one-out imputation is exactly (N-1)/(N-2) conservative under homogeneity."""
    out = []
    for n in (4, 6, 8):
        d = build_crd(n, n // 2)
        kernel = _batch_kernel(("imputation:theta-loo",), d)
        worst = 0.0
        for _ in range(5):
            po = _random_table(rng, n, homogeneous=True)
            mean = _weighted_moments(d, _kernel_values(d, po, kernel)[0])[0]
            target = true_variance(d, po) * (n - 1) / (n - 2)
            worst = max(worst, _rel(mean, target))
        out.append(CheckResult("thm4", f"theta-loo-expectation-crd-{n}", worst, tol))
    return out


def _suite_imputation_bias(rng: np.random.Generator, tol: float) -> list[CheckResult]:
    """Fixed-effect imputation bias identities on a fixed-total-weight CRD.

    The estimator here imputes the missing potential outcomes with a fixed
    effect beta and applies the variance functional to the resulting
    c-vector (with unequal groups this differs from fixing gamma).
    """
    d = build_crd(6, 4)
    pi = d.propensities

    def psi_beta(obs, beta: float) -> float:
        return psi(d, c_vector(impute_potential_outcomes(obs, beta), pi))

    worst_realized = 0.0
    worst_a2 = 0.0
    worst_gap = 0.0
    epw = math.fsum(
        p * psi(d, w.to_array().astype(float)) for w, p in d.enumerate_support()
    )
    for _ in range(5):
        po = _random_table(rng, 6, homogeneous=True)
        tau = po.tau
        beta = float(rng.uniform(-5.0, 5.0))
        var = true_variance(d, po)
        a2_terms = []
        values = []
        for w, p in d.enumerate_support():
            obs = reveal(po, w)
            value = psi_beta(obs, beta)
            a1, a2 = imputation_bias_terms(d, po, w, beta)
            worst_realized = max(worst_realized, _rel(value, var + a1 + a2))
            a2_terms.append(p * a2)
            values.append(p * value)
        worst_a2 = max(worst_a2, _rel(math.fsum(a2_terms), 0.0))
        mean = math.fsum(values)
        worst_gap = max(worst_gap, _rel(mean - var, (tau - beta) ** 2 * epw))
    worst_crd = 0.0
    for n in (4, 6, 8):
        dd = build_crd(n, n // 2)
        po = _random_table(rng, n, homogeneous=True)
        beta = float(rng.uniform(-5.0, 5.0))
        mean = estimator_expectation(
            dd,
            po,
            lambda obs: psi(dd, c_vector(impute_potential_outcomes(obs, beta), dd.propensities)),
        )
        gap = mean - true_variance(dd, po)
        worst_crd = max(worst_crd, _rel(gap, (po.tau - beta) ** 2 / (n - 1)))
    return [
        CheckResult("corA1", "realized-value-splits-into-bias-terms", worst_realized, tol),
        CheckResult("corA1", "cross-term-mean-zero", worst_a2, tol),
        CheckResult("corA1", "expected-gap-matches-weight-functional", worst_gap, tol),
        CheckResult("corA1", "equal-group-crd-gap-constant", worst_crd, tol),
    ]


_SUITE_BUILDERS: dict[str, Callable[[np.random.Generator, float], list[CheckResult]]] = {
    "thm2": _suite_contrast_crd,
    "thm3": _suite_contrast_pairs,
    "prop3": _suite_contrast_decomposition,
    "prop4": _suite_imputation_tau_hat,
    "thm4": _suite_imputation_theta_loo,
    "prop2": _suite_decomposition_crd,
    "corA1": _suite_imputation_bias,
}

SUITE_NAMES = tuple(_SUITE_BUILDERS) + ("all",)


def run_suite(name: str, *, tolerance: float = 1e-10, seed: int = 0) -> list[CheckResult]:
    """Run one suite (or every suite for ``all``) and return its checks."""
    if name == "all":
        results = []
        for key in _SUITE_BUILDERS:
            results.extend(run_suite(key, tolerance=tolerance, seed=seed))
        return results
    try:
        builder = _SUITE_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)}"
        ) from None
    rng = np.random.default_rng((seed, sorted(_SUITE_BUILDERS).index(name)))
    return builder(rng, tolerance)


def run_suites(names, *, tolerance: float = 1e-10, seed: int = 0) -> dict:
    """Run several suites and assemble the JSON-ready report."""
    checks: list[CheckResult] = []
    for name in names:
        checks.extend(run_suite(name, tolerance=tolerance, seed=seed))
    failed = [c for c in checks if not c.passed]
    return {
        "passed": not failed,
        "failed_checks": [f"{c.suite}:{c.name}" for c in failed],
        "checks": [c.to_dict() for c in checks],
    }
