"""Point estimators of the average treatment effect and the Neyman variance."""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AssumptionError,
    ObservedData,
    PotentialOutcomes,
    ValidationError,
    VarianceEstimate,
    _row_failure,
)


def check_propensities(pi: np.ndarray | list[float], n: int) -> np.ndarray:
    """Validate a propensity vector: length n, strictly inside (0, 1)."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (n,):
        raise ValidationError(f"expected {n} propensities, got shape {pi.shape}")
    if not np.all(np.isfinite(pi)):
        raise ValidationError("propensities must be finite")
    if np.any(pi <= 0.0) or np.any(pi >= 1.0):
        bad = int(np.argmax((pi <= 0.0) | (pi >= 1.0)))
        raise AssumptionError(
            f"propensity of unit {bad} is {float(pi[bad])!r}; "
            "inverse weighting needs 0 < pi < 1"
        )
    return pi


def horvitz_thompson(obs: ObservedData, pi: np.ndarray) -> float:
    """Inverse-propensity-weighted estimate of the average treatment effect.

    (1/N) sum_treated y/pi - (1/N) sum_control y/(1-pi).
    """
    n = obs.w.n
    pi = check_propensities(pi, n)
    bits = obs.w.to_array().astype(float)
    terms = bits * obs.y_obs / pi - (1.0 - bits) * obs.y_obs / (1.0 - pi)
    return math.fsum(terms.tolist()) / n


def difference_in_means(obs: ObservedData) -> float:
    """Mean observed outcome difference between the realized groups."""
    bits = obs.w.to_array().astype(bool)
    if not bits.any() or bits.all():
        raise AssumptionError(
            "difference in means is undefined: one realized group is empty"
        )
    return float(obs.y_obs[bits].mean() - obs.y_obs[~bits].mean())


def hajek(obs: ObservedData, pi: np.ndarray) -> float:
    """Ratio (self-normalized) version of the inverse-propensity estimator.

    Each group mean is normalized by its realized total weight; under a
    constant propensity this reduces to the difference in means.
    """
    return _hajek(obs, check_propensities(pi, obs.w.n))


def _hajek(obs: ObservedData, pi: np.ndarray) -> float:
    """:func:`hajek` with ``pi`` already checked by :func:`check_propensities`."""
    bits = obs.w.to_array().astype(bool)
    if not bits.any() or bits.all():
        raise AssumptionError("hajek estimator is undefined: one realized group is empty")
    wt_t = 1.0 / pi[bits]
    wt_c = 1.0 / (1.0 - pi[~bits])
    t_mean = math.fsum((obs.y_obs[bits] * wt_t).tolist()) / math.fsum(wt_t.tolist())
    c_mean = math.fsum((obs.y_obs[~bits] * wt_c).tolist()) / math.fsum(wt_c.tolist())
    return t_mean - c_mean


def c_vector(po: PotentialOutcomes, pi: np.ndarray) -> np.ndarray:
    """Propensity-weighted average potential outcomes (1-pi)*y1 + pi*y0.

    The design variance of the inverse-propensity estimator depends on the
    science table only through this vector.
    """
    pi = check_propensities(pi, po.n)
    return (1.0 - pi) * po.y1 + pi * po.y0


def _squared_deviations(x: np.ndarray) -> np.ndarray:
    """Each row's sum of squared deviations from its mean, computed as
    ``np.var`` computes it, to the bit, without its dispatch: row sums,
    divide by the count, subtract, square in place, sum."""
    dev = x - np.add.reduce(x, axis=1, keepdims=True) / x.shape[1]
    np.multiply(dev, dev, out=dev)
    return np.add.reduce(dev, axis=1)


def _sample_variances(x: np.ndarray) -> np.ndarray:
    """``np.var(x, axis=1, ddof=1)`` to the bit: :func:`_squared_deviations`
    divided by the count - 1."""
    return _squared_deviations(x) / (x.shape[1] - 1)


def _group_variances(w: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each of k realized tables' treated and control sample variances and
    treated count (s2_t, s2_c, n_t): (k, n) 0/1 assignments ``w`` and the
    matching observed outcomes ``y``. Each variance is ``np.var(..., ddof=1)``
    of the row's arm, to the bit (:func:`_sample_variances`), scored one
    treated-group size at a time; rows that all share one size (every
    fixed-size design, every one-table call) are scored with no subset."""
    t = np.asarray(w, dtype=bool)
    k, n = t.shape
    kt = t.sum(axis=1)
    few = (kt < 2) | (n - kt < 2)
    if few.any():
        r = int(np.argmax(few))
        raise _row_failure(AssumptionError(
            f"group variances need at least 2 units per group, got n_t={kt[r]}, n_c={n - kt[r]}"
        ), r)
    s2_t, s2_c = np.empty(k), np.empty(k)
    sizes = set(kt.tolist())
    for size in sizes:
        rows = kt == size if len(sizes) > 1 else slice(None)
        tr, yr = t[rows], y[rows]
        # a row's treated (control) outcomes in unit order, one row each
        s2_t[rows] = _sample_variances(yr[tr].reshape(-1, size))
        s2_c[rows] = _sample_variances(yr[~tr].reshape(-1, n - size))
    return s2_t, s2_c, kt


def _neyman_values(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """neyman_variance's value on k tables (as in :func:`_group_variances`)."""
    s2_t, s2_c, kt = _group_variances(w, y)
    return s2_t / kt + s2_c / (np.shape(w)[1] - kt)


def neyman_variance(
    obs: ObservedData,
    n_t: int | None = None,
    n_c: int | None = None,
) -> VarianceEstimate:
    """Classic variance estimate s2_t/n_t + s2_c/n_c from the realized groups.

    Group sizes default to the realized counts; explicit values must match
    them (they exist so fixed-size designs can state their intent). One row
    of the batch kernel ``_neyman_values``.
    """
    kt, kc = obs.w.n_treated, obs.w.n_control
    if n_t is not None and n_t != kt:
        raise ValidationError(f"stated n_t={n_t} but {kt} units are treated")
    if n_c is not None and n_c != kc:
        raise ValidationError(f"stated n_c={n_c} but {kc} units are controls")
    return VarianceEstimate(
        value=float(_neyman_values(obs.w.to_array()[None], obs.y_obs[None])[0]),
        estimator="neyman",
        params={"n_t": kt, "n_c": kc},
    )
