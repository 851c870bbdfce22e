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
    ROW_BLOCK,
    AssumptionError,
    ObservedData,
    PotentialOutcomes,
    ValidationError,
    VarianceEstimate,
)
from .designs import Design
from .estimators import check_propensities

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


def _coefficients(d: Design, shift, norm: int):
    """The cells (P11, P10, P01, P00) and their coefficients
    p_cell/(norm prod) + shift, prod the cell's product of propensities. A
    Q matrix gives C_cell = p_cell/(N^2 prod) + q - 1/N^2 (norm N^2). A
    propensity of 0 or 1 raises AssumptionError: its products would be 0."""
    pi = check_propensities(d.propensities, d.n)
    qi = 1.0 - pi
    cells = d.pairwise_cells()
    prods = (np.outer(pi, pi), np.outer(pi, qi), np.outer(qi, pi), np.outer(qi, qi))
    return cells, tuple(p / (norm * prod) + shift for p, prod in zip(cells, prods))


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
    return _feasibility(*_coefficients(d, q - 1.0 / d.n**2, d.n**2))


_CELLS = ((1, 1), (1, 0), (0, 1), (0, 0))
_SIGNS = (1.0, -1.0, -1.0, 1.0)


def _feasibility(cells, coefs) -> FeasibilityReport:
    violations = []
    iu, ju = np.triu_indices(len(cells[0]), k=1)
    for (wi, wj), p, c in zip(_CELLS, cells, coefs):
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
    _, (c11, c10, c01, c00) = _coefficients(d, q - 1.0 / n**2, n**2)
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


def _pair_expansion(d: Design, cells, coefs, w: np.ndarray, y: np.ndarray,
                    norm: int, bound: float | None = None) -> tuple[np.ndarray, int]:
    """Inverse-probability estimate of a pair expansion on k realized tables
    (0/1 assignments ``w``, outcomes ``y``), and the number of dead cells.

    Row r is the fsum of y^2/(norm pi^2) per treated unit, y^2/(norm (1-pi)^2)
    per control, and 2 sign c/p y_i y_j per pair i < j whose realized cell
    (sign -1 if mixed) has probability p > PROB_TOL. A dead cell adds nothing
    or, with ``bound``, bound (x_i^2 + x_j^2), its squares estimated from the
    observed arm by inverse propensity. Rows go in blocks of ROW_BLOCK terms.
    """
    k, n = w.shape
    pi = d.propensities
    iu, ju = np.triu_indices(n, k=1)
    pair_cells = [(p[iu, ju], c[iu, ju]) for p, c in zip(cells, coefs)]
    out = np.empty(k)
    step = max(1, ROW_BLOCK // (2 * n * n))
    for start in range(0, k, step):
        tb, yb = w[start:start + step].astype(float), y[start:start + step]
        arm = {1: tb, 0: 1.0 - tb}
        terms = [tb * yb * yb / (norm * pi**2), (1.0 - tb) * yb * yb / (norm * (1.0 - pi) ** 2)]
        yy = yb[:, iu] * yb[:, ju]
        for (wi, wj), sign, (p, c) in zip(_CELLS, _SIGNS, pair_cells):
            alive = p > PROB_TOL
            ratio = np.divide(c, p, out=np.zeros_like(c), where=alive)
            terms.append(2.0 * sign * (arm[wi][:, iu] * arm[wj][:, ju]) * yy * ratio)
            if bound is not None and not alive.all():
                sq = {1: tb * yb * yb / pi, 0: (1.0 - tb) * yb * yb / (1.0 - pi)}
                terms.append(bound * (sq[wi][:, iu[~alive]] + sq[wj][:, ju[~alive]]))
        out[start:start + len(tb)] = [math.fsum(r.tolist()) for r in np.concatenate(terms, axis=1)]
    return out, sum(int((p <= PROB_TOL).sum()) for p, _ in pair_cells)


def _decomposition_values(d: Design, q: np.ndarray, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """estimate_decomposition's value on k realized tables: (k, n) 0/1
    assignments ``w`` and outcomes ``y``. Q is validated once per call."""
    q = require_valid_q(q, d.n)
    cells, coefs = _coefficients(d, q - 1.0 / d.n**2, d.n**2)
    feas = _feasibility(cells, coefs)
    if not feas.feasible:
        i, j, wi, wj, c = feas.violations[0]
        raise AssumptionError(
            f"Q is not estimable under this design: Pr(W_{i}={wi}, W_{j}={wj}) = 0 "
            f"but its coefficient is {c:.3e} (and {len(feas.violations) - 1} more)"
        )
    return _pair_expansion(d, cells, coefs, w, y, d.n**2)[0]


def estimate_decomposition(d: Design, obs: ObservedData, q: np.ndarray) -> VarianceEstimate:
    """Inverse-probability estimate of vt(Q) from one realized assignment.

    Each observed product is divided by the probability of the cell in which
    it was observed, so the estimate is exactly unbiased for vt(Q) whenever
    every nonzero coefficient sits on a positive-probability cell. The value
    can be negative; it is returned as-is with a warning flag. One row of
    the batch kernel ``_decomposition_values``.
    """
    if obs.w.n != d.n:
        raise ValidationError(f"observed data has {obs.w.n} units, design has {d.n}")
    value = float(_decomposition_values(d, q, obs.w.to_array()[None], obs.y_obs[None])[0])
    warnings = ("negative variance estimate",) if value < 0 else ()
    return VarianceEstimate(
        value=value,
        estimator="decomposition",
        params={"q": "custom"},
        warnings=warnings,
    )


def _v_am_values(d: Design, w: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """v_am's value on k realized tables at once, (k, n) 0/1 assignments ``w``
    and outcomes ``y``, and the number of bounded cells."""
    n = d.n
    if n < 2:
        raise ValidationError("variance expansion needs at least 2 units")
    # the default-Q expansion in units of 1/N^2: shift -N/(N-1) on every cell
    scale = n / (n - 1.0)
    cells, coefs = _coefficients(d, -scale, 1)
    values, bounded = _pair_expansion(d, cells, coefs, w, y, 1, bound=scale)
    return values / n**2, bounded


def v_am(d: Design, obs: ObservedData) -> VarianceEstimate:
    """Variance-expansion estimator with squared-term bounds on dead cells.

    Estimates the inverse-probability expansion of Var(tau_hat) whose pair
    coefficient on cell (w, w') is p(w, w')/(prob product) - N/(N-1): the
    default-Q decomposition scaled by N^2. A pair term whose own cell has
    probability zero cannot be estimated, so it is replaced by its bound
    2xy <= x^2 + y^2 (upward regardless of the term's sign), leaving
    single-arm squares that are always estimable. Conservative for the true
    variance; unbiased for the expansion when the design is measurable.
    Reconstruction: the source describes the construction without printing a
    formula, so only its guaranteed properties are asserted. One row of
    the batch kernel ``_v_am_values``.
    """
    if obs.w.n != d.n:
        raise ValidationError(f"observed data has {obs.w.n} units, design has {d.n}")
    values, bounded = _v_am_values(d, obs.w.to_array()[None], obs.y_obs[None])
    return VarianceEstimate(
        value=float(values[0]),
        estimator="variance_expansion_bounded",
        params={"bounded_cells": bounded},
    )
