"""Exact enumeration oracles: psi, true variance, estimator expectations.

Everything here needs the full design support, so it applies to explicit
designs only. These are the reference quantities the estimators are tested
against. Every expectation is one pass over the support in row blocks
(:func:`_kernel_values`); a scalar estimator is called once per row, on that
row's revealed table. psi alone does not sum along the support: it reads the
design's n x n factor of its form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    AssignmentVector,
    AssumptionError,
    ObservedData,
    PotentialOutcomes,
    ValidationError,
    _row_failure,
)
from .designs import Design, ExplicitDesign, _contrast_rows
from .estimators import _hajek


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo estimate with its standard error."""

    value: float
    se: float
    draws: int


def _require_explicit(d: Design, what: str) -> ExplicitDesign:
    if not isinstance(d, ExplicitDesign):
        raise AssumptionError(f"{what} needs an enumerable design, got kind={d.kind!r}")
    return d


def _factor_values(r: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """||R v||^2 / N^2 for each row v of a (k, N) batch: one matrix-vector
    product per row, so a row's value does not depend on the batch."""
    g = np.matmul(r, rows[..., None])[..., 0]
    return (g * g).sum(axis=1) / rows.shape[1] ** 2


def psi(d: Design, v: np.ndarray) -> "float | np.ndarray":
    """Design-weighted squared-contrast functional of a unit vector v.

    psi(v) = (1/N^2) sum_w p_w (sum_treated v/pi - sum_control v/(1-pi))^2.
    Equals Var_d of the inverse-propensity estimator when v is the
    propensity-weighted average potential outcome vector c. ``v`` is one
    length-N vector (returns a float) or a (k, N) batch (returns a (k,)
    array). No call sums along the support: a row is ||R v||^2 / N^2 with
    the design's n x n factor R.
    """
    d = _require_explicit(d, "psi")
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != d.n:
        raise ValidationError(
            f"psi needs a length-{d.n} vector or a (k, {d.n}) batch, got shape {v.shape}"
        )
    out = _factor_values(d._psi_factor, np.atleast_2d(v))
    return float(out[0]) if v.ndim == 1 else out


def psi_mc(d: Design, v: np.ndarray, m: int, seed: int) -> MCEstimate:
    """Monte Carlo version of :func:`psi` for sampler-backed designs: the mean
    of (D_w . v)^2 / N^2 over m design draws w, uncentered (v_imputation_mc
    centers its draws), with the standard error of that mean."""
    v = np.asarray(v, dtype=float)
    if v.shape != (d.n,):
        raise ValidationError(f"psi needs a length-{d.n} vector, got shape {v.shape}")
    if m < 2:
        raise ValidationError("psi_mc needs at least 2 draws")
    pi = d._checked_propensities()
    vals = (_contrast_rows(d.sample_matrix(m, seed), pi) @ v) ** 2 / d.n**2
    return MCEstimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(m)), m)


def ht_values(d: ExplicitDesign, po: PotentialOutcomes) -> np.ndarray:
    """Inverse-propensity estimate at every support vector, in support order."""
    if po.n != d.n:
        raise ValidationError(f"table has {po.n} units but design has {d.n}")
    pi = d._checked_propensities()
    a, b = po.y1 / pi, po.y0 / (1.0 - pi)
    return np.concatenate([(u @ a - (1.0 - u) @ b) / d.n for u, _ in d._blocks()])


def true_variance(d: Design, po: PotentialOutcomes) -> float:
    """Exact design variance of the inverse-propensity estimator.

    Computed directly as sum_w p_w (tau_hat(w) - tau)^2; psi(c_vector(...))
    must agree and is checked against this in the tests, not reused here.
    """
    d = _require_explicit(d, "true_variance")
    dev = ht_values(d, po) - po.tau
    return math.fsum(d.probs * (dev * dev))


def _scalar_kernel(d: ExplicitDesign, est: Callable[[ObservedData], "float | object"]):
    """``est`` as a one-name batch kernel: ``float(est(obs))`` for each row of a
    block, on that row's revealed table with the design's pair labels. A
    failure is re-raised with its row (``exc.row``)."""
    def kernel(u: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        values = np.empty(len(u))
        for i, bits in enumerate(u.astype(np.int8).tolist()):
            try:
                w = AssignmentVector.from_bits(bits)
                values[i] = float(est(ObservedData(w=w, y_obs=y[i], pair_labels=d.pairs)))
            except Exception as exc:
                raise _row_failure(exc, i)
        return [values]
    return kernel


def _weighted_moments(d: ExplicitDesign, values: np.ndarray) -> tuple[float, float]:
    """Design mean and standard deviation of one value per support row."""
    mean = math.fsum(d.probs * values)
    var = math.fsum(d.probs * (values - mean) ** 2)
    return mean, math.sqrt(max(var, 0.0))


def _moments(d: ExplicitDesign, po: PotentialOutcomes, est) -> tuple[float, float]:
    return _weighted_moments(d, _kernel_values(d, po, _scalar_kernel(d, est))[0])


def _kernel_values(d: ExplicitDesign, po: PotentialOutcomes, kernel) -> list[np.ndarray]:
    """A batch kernel's value arrays (one per estimator it scores) on the
    tables revealed, once, at every support row.

    ``kernel`` is a ``simulate._batch_kernel`` or a :func:`_scalar_kernel`,
    called once per row block of the support, in order. Its state (a Monte
    Carlo factor, a validated substitute map) is made once in its life, and
    each row's values do not depend on its block, so the arrays are those of
    one call on the whole support. The first block with a failure raises it, and this is the one
    place that names a failing support row: an exception of any type carrying
    ``exc.row`` gets the support row and, in its message, the row's vector.
    """
    if po.n != d.n:
        raise ValidationError(f"table has {po.n} units but design has {d.n}")
    offset, parts = 0, []
    try:
        for u, _ in d._blocks():
            parts.append(kernel(u, np.where(u == 1, po.y1, po.y0)))
            offset += len(u)
    except Exception as exc:
        if hasattr(exc, "row"):
            exc.row += offset
            exc.args = (f"{exc} (estimator failed at support vector {d.vector(exc.row)})",)
        raise
    return [np.concatenate(values) for values in zip(*parts)]


def estimator_expectation(
    d: Design,
    po: PotentialOutcomes,
    est: Callable[[ObservedData], "float | object"],
) -> float:
    """Design expectation of an estimator evaluated on every revealed table."""
    return _moments(_require_explicit(d, "estimator_expectation"), po, est)[0]


def estimator_moments(
    d: Design,
    po: PotentialOutcomes,
    est: Callable[[ObservedData], "float | object"],
) -> tuple[float, float]:
    """Design expectation and standard deviation of an estimator."""
    return _moments(_require_explicit(d, "estimator_moments"), po, est)


def true_mse_hajek(d: Design, po: PotentialOutcomes) -> float:
    """Exact design MSE of the ratio estimator about the true effect."""
    d = _require_explicit(d, "true_mse_hajek")
    pi = d._checked_propensities()
    devs = _kernel_values(d, po, _scalar_kernel(d, lambda obs: _hajek(obs, pi)))[0] - po.tau
    return math.fsum(d.probs * (devs * devs))
