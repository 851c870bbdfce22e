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
from functools import partial
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


def _pair_matrix(d: Design, cells, coefs, norm: int,
                 bound: float | None = None) -> tuple[np.ndarray, int]:
    """The 2n x 2n matrix M of a pair expansion, read-only, and the number of
    dead cells: the estimate on a realized table is z'Mz, z = (t y, (1-t) y).

    M has 1/(norm pi^2) and 1/(norm (1-pi)^2) on its diagonal and sign c/p
    (sign -1 if mixed) at both places of each pair i < j whose cell has
    probability p > PROB_TOL. A dead cell adds nothing or, with ``bound``,
    bound (x_i^2 + x_j^2), its squares estimated from the observed arm by
    inverse propensity: bound/pi_arm on the diagonal of each unit it touches.
    """
    n = d.n
    arm_pi = np.concatenate([d.propensities, 1.0 - d.propensities])
    m = np.zeros((2 * n, 2 * n))
    dead = np.zeros(2 * n)
    for (wi, wj), sign, p, c in zip(_CELLS, _SIGNS, cells, coefs):
        alive = p > PROB_TOL
        bi, bj = (1 - wi) * n, (1 - wj) * n
        ratio = np.divide(c, p, out=np.zeros_like(c), where=alive)
        m[bi:bi + n, bj:bj + n] = sign * np.triu(ratio, 1)
        off = np.triu(~alive, 1)
        dead[bi:bi + n] += off.sum(axis=1)
        dead[bj:bj + n] += off.sum(axis=0)
    m += m.T + np.diag(1.0 / (norm * arm_pi**2) + (bound or 0.0) * dead / arm_pi)
    m.setflags(write=False)
    # each dead cell touches two (unit, arm) places
    return m, int(dead.sum()) // 2


def _quadratic_values(m: np.ndarray, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """z'Mz on k realized tables (0/1 assignments ``w``, outcomes ``y``),
    z = (t y, (1-t) y): one matrix-vector product per row."""
    t = w.astype(float)
    z = np.concatenate([t * y, (1.0 - t) * y], axis=1)
    return (np.matmul(m, z[..., None])[..., 0] * z).sum(axis=1)


def _decomposition_matrix(d: Design, q: np.ndarray) -> np.ndarray:
    """estimate_decomposition's pair-expansion matrix M for Q, read-only. An
    invalid Q, or one with a nonzero coefficient on a dead cell, raises."""
    q = require_valid_q(q, d.n)
    cells, coefs = _coefficients(d, q - 1.0 / d.n**2, d.n**2)
    feas = _feasibility(cells, coefs)
    if not feas.feasible:
        i, j, wi, wj, c = feas.violations[0]
        raise AssumptionError(
            f"Q is not estimable under this design: Pr(W_{i}={wi}, W_{j}={wj}) = 0 "
            f"but its coefficient is {c:.3e} (and {len(feas.violations) - 1} more)"
        )
    return _pair_matrix(d, cells, coefs, d.n**2)[0]


def _decomposition_values(d: Design, q: np.ndarray, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """estimate_decomposition's value on k realized tables: (k, n) 0/1
    assignments ``w`` and outcomes ``y``. M depends on the design and Q
    alone, so it is kept on the design in one slot keyed by Q's shape and
    bytes: a call with the Q of the last call reads it, another Q is
    validated and replaces it, and a refused Q is never kept."""
    q = np.asarray(q, dtype=float)
    m = d._slot("_decomposition_matrix", (q.shape, q.tobytes()),
                partial(_decomposition_matrix, d, q))
    return _quadratic_values(m, w, y)


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


def _v_am_matrix(d: Design) -> tuple[np.ndarray, int]:
    """v_am's pair-expansion matrix and its number of bounded cells: the
    default-Q expansion in units of 1/N^2, shift -N/(N-1) on every cell."""
    scale = d.n / (d.n - 1.0)
    cells, coefs = _coefficients(d, -scale, 1)
    return _pair_matrix(d, cells, coefs, 1, bound=scale)


def _v_am_values(d: Design, w: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """v_am's value on k realized tables at once, (k, n) 0/1 assignments ``w``
    and outcomes ``y``, and the number of bounded cells. The matrix depends on
    the design alone, so it is built on the first call and kept on the design."""
    n = d.n
    if n < 2:
        raise ValidationError("variance expansion needs at least 2 units")
    m, bounded = d._memo("_v_am_matrix", partial(_v_am_matrix, d))
    return _quadratic_values(m, w, y) / n**2, bounded


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
    the batch kernel ``_v_am_values``: the quadratic form z'Mz of
    ``_pair_matrix``, each dead cell's bound folded into M's diagonal.
    """
    if obs.w.n != d.n:
        raise ValidationError(f"observed data has {obs.w.n} units, design has {d.n}")
    values, bounded = _v_am_values(d, obs.w.to_array()[None], obs.y_obs[None])
    return VarianceEstimate(
        value=float(values[0]),
        estimator="variance_expansion_bounded",
        params={"bounded_cells": bounded},
    )
