"""Quadratic-form variance decompositions and their inverse-probability estimators.

The population identity is Var(tau_hat) = vt(Q) - e' Q e, where e is the
unit-level effect vector and vt(Q) depends on the design only through the
pairwise assignment probabilities. For a valid Q (non-negative definite,
diagonal 1/N^2, zero row sums) the subtracted term is non-negative and
vanishes under effect homogeneity, so an unbiased estimate of vt(Q) is a
conservative variance estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import (
    PROB_TOL,
    AssumptionError,
    ObservedData,
    PotentialOutcomes,
    ValidationError,
    VarianceEstimate,
)
from .designs import Design

Q_TOL = 1e-12
PSD_FLOOR = -1e-10


@dataclass(frozen=True)
class QReport:
    """Outcome of validating a candidate Q matrix."""

    symmetric: bool
    diagonal_ok: bool
    row_sums_ok: bool
    psd: bool
    min_eigenvalue: float
    details: dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.symmetric and self.diagonal_ok and self.row_sums_ok and self.psd

    def to_dict(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "symmetric": self.symmetric,
            "diagonal_ok": self.diagonal_ok,
            "row_sums_ok": self.row_sums_ok,
            "psd": self.psd,
            "min_eigenvalue": self.min_eigenvalue,
            "details": dict(self.details),
        }


def validate_q(q: np.ndarray) -> QReport:
    """Check the three structural conditions plus symmetry, with witnesses."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValidationError(f"Q must be square, got shape {q.shape}")
    n = q.shape[0]
    details: dict[str, str] = {}

    sym_gap = float(np.max(np.abs(q - q.T))) if n else 0.0
    symmetric = sym_gap <= Q_TOL
    if not symmetric:
        i, j = np.unravel_index(np.argmax(np.abs(q - q.T)), q.shape)
        details["symmetric"] = (
            f"q[{i},{j}]={float(q[i, j])!r} but q[{j},{i}]={float(q[j, i])!r}"
        )

    diag_gap = np.abs(np.diag(q) - 1.0 / n**2)
    diagonal_ok = bool(np.all(diag_gap <= Q_TOL))
    if not diagonal_ok:
        i = int(np.argmax(diag_gap))
        details["diagonal"] = (
            f"q[{i},{i}]={float(q[i, i])!r}, expected 1/N^2={1.0 / n**2!r}"
        )

    row_sums = q.sum(axis=1)
    row_sums_ok = bool(np.all(np.abs(row_sums) <= Q_TOL * n))
    if not row_sums_ok:
        i = int(np.argmax(np.abs(row_sums)))
        details["row_sums"] = f"row {i} sums to {float(row_sums[i])!r}, expected 0"

    if symmetric:
        min_eig = float(np.linalg.eigvalsh(q).min())
    else:
        min_eig = float(np.linalg.eigvalsh((q + q.T) / 2.0).min())
        details.setdefault("psd", "eigenvalues taken of the symmetrized matrix")
    psd = min_eig >= PSD_FLOOR
    if not psd:
        details["psd"] = f"minimum eigenvalue {min_eig!r} below floor {PSD_FLOOR}"

    return QReport(symmetric, diagonal_ok, row_sums_ok, psd, min_eig, details)


def require_valid_q(q: np.ndarray, n: int) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (n, n):
        raise ValidationError(f"Q has shape {q.shape}, design has {n} units")
    report = validate_q(q)
    if not report.passed:
        raise ValidationError(f"invalid Q matrix: {report.details}")
    return q


def default_q_crd(n: int) -> np.ndarray:
    """Q = (I - J/N) / {N(N-1)}: reproduces the classic s2_t/N_t + s2_c/N_c split."""
    if n < 2:
        raise ValidationError(f"default Q needs n >= 2, got {n}")
    return (np.eye(n) - np.full((n, n), 1.0 / n)) / (n * (n - 1))


def _coefficients(d: Design, q: np.ndarray):
    """Per-pair coefficient matrices C_cell = p_cell/(N^2 prod) + q - 1/N^2."""
    n = d.n
    pi = d.propensities
    p11, p10, p01, p00 = d.pairwise_cells()
    shift = q - 1.0 / n**2
    c11 = p11 / (n**2 * np.outer(pi, pi)) + shift
    c10 = p10 / (n**2 * np.outer(pi, 1.0 - pi)) + shift
    c01 = p01 / (n**2 * np.outer(1.0 - pi, pi)) + shift
    c00 = p00 / (n**2 * np.outer(1.0 - pi, 1.0 - pi)) + shift
    return (p11, p10, p01, p00), (c11, c10, c01, c00)


@dataclass(frozen=True)
class FeasibilityReport:
    """Whether a (design, Q) pair supports unbiased estimation of vt(Q).

    Every zero-probability assignment cell must carry a zero coefficient,
    otherwise that term of vt(Q) has no unbiased observed-data estimate.
    """

    feasible: bool
    violations: tuple[tuple[int, int, int, int, float], ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "feasible": self.feasible,
            "violations": [
                {"i": i, "j": j, "wi": wi, "wj": wj, "coefficient": c}
                for i, j, wi, wj, c in self.violations
            ],
        }


def q_feasible_for_design(d: Design, q: np.ndarray) -> FeasibilityReport:
    q = require_valid_q(q, d.n)
    cells, coefs = _coefficients(d, q)
    labels = ((1, 1), (1, 0), (0, 1), (0, 0))
    violations = []
    iu, ju = np.triu_indices(d.n, k=1)
    for (wi, wj), p, c in zip(labels, cells, coefs):
        bad = (p[iu, ju] <= PROB_TOL) & (np.abs(c[iu, ju]) > Q_TOL)
        for k in np.flatnonzero(bad):
            violations.append((int(iu[k]), int(ju[k]), wi, wj, float(c[iu[k], ju[k]])))
    return FeasibilityReport(not violations, tuple(violations))


def v_tilde(d: Design, po: PotentialOutcomes, q: np.ndarray) -> float:
    """The estimable part of the decomposition: Var(tau_hat) + e' Q e."""
    if po.n != d.n:
        raise ValidationError(f"table has {po.n} units but design has {d.n}")
    q = require_valid_q(q, d.n)
    n = d.n
    pi = d.propensities
    _, (c11, c10, c01, c00) = _coefficients(d, q)
    b, a = po.y1, po.y0
    terms = list(b * b / (n**2 * pi)) + list(a * a / (n**2 * (1.0 - pi)))
    iu, ju = np.triu_indices(n, k=1)
    pair = 2.0 * (
        b[iu] * b[ju] * c11[iu, ju]
        + a[iu] * a[ju] * c00[iu, ju]
        - b[iu] * a[ju] * c10[iu, ju]
        - a[iu] * b[ju] * c01[iu, ju]
    )
    terms.extend(pair.tolist())
    return math.fsum(terms)


def estimate_decomposition(d: Design, obs: ObservedData, q: np.ndarray) -> VarianceEstimate:
    """Inverse-probability estimate of vt(Q) from one realized assignment.

    Each observed product is divided by the probability of the cell in which
    it was observed, so the estimate is exactly unbiased for vt(Q) whenever
    every nonzero coefficient sits on a positive-probability cell. The value
    can be negative; it is returned as-is with a warning flag.
    """
    if obs.w.n != d.n:
        raise ValidationError(f"observed data has {obs.w.n} units, design has {d.n}")
    q = require_valid_q(q, d.n)
    feas = q_feasible_for_design(d, q)
    if not feas.feasible:
        i, j, wi, wj, c = feas.violations[0]
        raise AssumptionError(
            f"Q is not estimable under this design: Pr(W_{i}={wi}, W_{j}={wj}) = 0 "
            f"but its coefficient is {c:.3e} (and {len(feas.violations) - 1} more)"
        )
    n = d.n
    pi = d.propensities
    cells, coefs = _coefficients(d, q)
    y = obs.y_obs
    t = obs.w.to_array().astype(float)

    terms = list(t * y * y / (n**2 * pi**2))
    terms += list((1.0 - t) * y * y / (n**2 * (1.0 - pi) ** 2))

    iu, ju = np.triu_indices(n, k=1)
    ind = (
        np.outer(t, t),
        np.outer(t, 1.0 - t),
        np.outer(1.0 - t, t),
        np.outer(1.0 - t, 1.0 - t),
    )
    signs = (1.0, -1.0, -1.0, 1.0)
    yy = np.outer(y, y)
    for sign, realized, p, c in zip(signs, ind, cells, coefs):
        ratio = np.divide(c, p, out=np.zeros_like(c), where=p > PROB_TOL)
        vals = 2.0 * sign * realized[iu, ju] * yy[iu, ju] * ratio[iu, ju]
        terms.extend(vals.tolist())

    value = math.fsum(terms)
    warnings = ("negative variance estimate",) if value < 0 else ()
    return VarianceEstimate(
        value=value,
        estimator="decomposition",
        params={"q": "custom"},
        warnings=warnings,
    )


def v_am(d: Design, obs: ObservedData) -> VarianceEstimate:
    """Variance-expansion estimator with squared-term bounds on dead cells.

    Estimates the inverse-probability expansion of Var(tau_hat) whose pair
    coefficient on cell (w, w') is p(w, w')/(prob product) - N/(N-1). A pair
    term whose own cell has probability zero cannot be estimated, so it is
    replaced by its bound 2xy <= x^2 + y^2 (upward regardless of the term's
    sign), leaving single-arm squares that are always estimable. Conservative
    for the true variance; unbiased for the expansion when the design is
    measurable. Reconstruction: the source describes the construction without
    printing a formula, so only its guaranteed properties are asserted.
    """
    if obs.w.n != d.n:
        raise ValidationError(f"observed data has {obs.w.n} units, design has {d.n}")
    n = d.n
    if n < 2:
        raise ValidationError("variance expansion needs at least 2 units")
    pi = d.propensities
    cells = d.pairwise_cells()
    y = obs.y_obs
    t = obs.w.to_array().astype(float)
    scale = n / (n - 1.0)

    # HT estimates of the per-arm squares Y_i(1)^2 and Y_i(0)^2
    sq_t = t * y * y / pi
    sq_c = (1.0 - t) * y * y / (1.0 - pi)

    terms = list(t * y * y / pi**2) + list((1.0 - t) * y * y / (1.0 - pi) ** 2)

    prob_prod = (
        np.outer(pi, pi),
        np.outer(pi, 1.0 - pi),
        np.outer(1.0 - pi, pi),
        np.outer(1.0 - pi, 1.0 - pi),
    )
    ind = (
        np.outer(t, t),
        np.outer(t, 1.0 - t),
        np.outer(1.0 - t, t),
        np.outer(1.0 - t, 1.0 - t),
    )
    # estimated squares matching each cell's two factors: cell (w, w') pairs
    # unit i's arm-w square with unit j's arm-w' square
    bound_sq = (
        (sq_t, sq_t),
        (sq_t, sq_c),
        (sq_c, sq_t),
        (sq_c, sq_c),
    )
    signs = (1.0, -1.0, -1.0, 1.0)
    yy = np.outer(y, y)
    iu, ju = np.triu_indices(n, k=1)
    n_bounded = 0
    for sign, realized, p, prod, (sq_i, sq_j) in zip(signs, ind, cells, prob_prod, bound_sq):
        coef = p / prod - scale
        alive = p[iu, ju] > PROB_TOL
        vals = 2.0 * sign * realized[iu, ju] * yy[iu, ju] * np.divide(
            coef[iu, ju], p[iu, ju], out=np.zeros_like(coef[iu, ju]), where=alive
        )
        terms.extend(vals[alive].tolist())
        # dead cells: the term is 2*sign*(-scale)*x_i*x_j; bound it upward by
        # scale*(x_i^2 + x_j^2) and estimate the squares from observed data
        dead_i, dead_j = iu[~alive], ju[~alive]
        n_bounded += len(dead_i)
        if len(dead_i):
            terms.extend((scale * (sq_i[dead_i] + sq_j[dead_j])).tolist())

    value = math.fsum(terms) / n**2
    return VarianceEstimate(
        value=value,
        estimator="variance_expansion_bounded",
        params={"bounded_cells": n_bounded},
    )
