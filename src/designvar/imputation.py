"""Variance estimation by imputing the missing potential outcomes.

The design variance of the inverse-probability estimator equals psi(c),
where c_i = (1 - pi_i) Y_i(1) + pi_i Y_i(0) mixes each unit's potential
outcomes and psi is a known quadratic in the design. Plugging an estimate
of c into psi gives a variance estimate that is nonnegative by
construction. This module builds the c estimates: effect-guess imputation
of the science table, direct unbiased estimation of c from one observed
arm, and jackknife leave-one-out effect guesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    MC_DEFAULT_DRAWS,
    AssignmentVector,
    AssumptionError,
    ObservedData,
    PotentialOutcomes,
    ValidationError,
    VarianceEstimate,
    _as_float_vector,
    _row_failure,
)
from .designs import Design, ExplicitDesign, _contrast_rows
from .estimators import check_propensities
from .oracles import _factor_values

GAMMA_KINDS = ("fixed", "tau_hat", "tau_loo", "theta_loo")


@dataclass(frozen=True)
class GammaSpec:
    """Which effect guess drives the c estimate.

    kind 'fixed' carries a scalar or per-unit vector; 'tau_hat' plugs in the
    realized inverse-probability effect estimate; 'tau_loo' and 'theta_loo'
    are the leave-one-out jackknife versions (the latter reweighted so its
    conditional expectation is assignment-free).
    """

    kind: str
    value: float | tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in GAMMA_KINDS:
            raise ValidationError(
                f"gamma kind must be one of {GAMMA_KINDS}, got {self.kind!r}"
            )
        if self.kind == "fixed":
            if self.value is None:
                raise ValidationError("fixed gamma needs a value")
            if np.ndim(self.value) == 0:
                val: float | tuple[float, ...] = float(self.value)
                if not math.isfinite(val):
                    raise ValidationError(f"fixed gamma must be finite, got {val}")
            else:
                arr = _as_float_vector(np.asarray(self.value, dtype=float), "gamma")
                val = tuple(float(v) for v in arr)
            object.__setattr__(self, "value", val)
        elif self.value is not None:
            raise ValidationError(f"gamma kind {self.kind!r} takes no value")

    @classmethod
    def fixed(cls, value) -> "GammaSpec":
        return cls(kind="fixed", value=value)

    @classmethod
    def parse(cls, text: str) -> "GammaSpec":
        """Parse CLI-style specs: 'fixed:<v>[,<v>...]', 'tau-hat', ..."""
        text = text.strip()
        if text.startswith("fixed:"):
            payload = text[len("fixed:") :]
            parts = [p for p in payload.split(",") if p]
            if not parts:
                raise ValidationError(f"no value in gamma spec {text!r}")
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise ValidationError(f"bad gamma value in {text!r}") from exc
            return cls.fixed(vals[0] if len(vals) == 1 else vals)
        kind = text.replace("-", "_")
        if kind in GAMMA_KINDS and kind != "fixed":
            return cls(kind=kind)
        raise ValidationError(
            f"cannot parse gamma spec {text!r}; expected fixed:<v>, tau-hat, "
            "tau-loo, or theta-loo"
        )

    def describe(self) -> str:
        if self.kind == "fixed":
            return f"fixed({self.value})"
        return self.kind


def _per_unit(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    elif arr.shape != (n,):
        raise ValidationError(
            f"{name} must be a scalar or length-{n} vector, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    return arr


def impute_potential_outcomes(obs: ObservedData, beta) -> PotentialOutcomes:
    """Fill in the missing arm as if unit i's treatment effect were beta_i."""
    beta = _per_unit(beta, obs.n, "beta")
    t = obs.w.to_array().astype(bool)
    y1 = np.where(t, obs.y_obs, obs.y_obs + beta)
    y0 = np.where(t, obs.y_obs - beta, obs.y_obs)
    return PotentialOutcomes(y0=y0, y1=y1)


def theta_ht(obs: ObservedData, pi: np.ndarray) -> float:
    """Inverse-probability estimate of the reweighted mean contrast theta.

    theta = (1/N) sum[{(1-pi)/pi} Y(1) - {pi/(1-pi)} Y(0)]; it collapses to
    the average treatment effect when pi is 0.5 everywhere.
    """
    pi = check_propensities(pi, obs.n)
    t = obs.w.to_array().astype(float)
    y = obs.y_obs
    terms = list(t * y * (1.0 - pi) / pi**2) + list(
        -(1.0 - t) * y * pi / (1.0 - pi) ** 2
    )
    return math.fsum(terms) / obs.n


def impute_c(obs: ObservedData, pi: np.ndarray, gamma) -> np.ndarray:
    """Single-arm unbiased estimate of c_i = (1-pi_i)Y_i(1) + pi_i Y_i(0).

    c_hat_i = {(1-pi_i)/pi_i} Y_obs_i - (1-pi_i) gamma_i when treated, and
    {pi_i/(1-pi_i)} Y_obs_i + pi_i gamma_i when control. Unbiased for any
    deterministic gamma because the gamma terms cancel in expectation.
    """
    pi = check_propensities(pi, obs.n)
    gamma = _per_unit(gamma, obs.n, "gamma")
    return _impute_c_rows(obs.w.to_array().astype(bool), obs.y_obs, pi, gamma)


def _impute_c_rows(t: np.ndarray, y: np.ndarray, pi: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """impute_c's formula, row-wise over (k, n) treatment masks, outcomes and gammas."""
    treated = (1.0 - pi) / pi * y - (1.0 - pi) * gamma
    control = pi / (1.0 - pi) * y + pi * gamma
    return np.where(t, treated, control)


def implicit_beta(obs: ObservedData, pi: np.ndarray, gamma) -> np.ndarray:
    """The per-unit effect guess whose imputed table reproduces impute_c.

    Feeding the result to impute_potential_outcomes and mixing the imputed
    arms with (1-pi, pi) weights gives exactly impute_c(obs, pi, gamma);
    at pi = 0.5 it reduces to gamma itself.
    """
    pi = check_propensities(pi, obs.n)
    gamma = _per_unit(gamma, obs.n, "gamma")
    t = obs.w.to_array().astype(bool)
    y = obs.y_obs
    treated = (2.0 * pi - 1.0) / pi**2 * y + (1.0 - pi) / pi * gamma
    control = (2.0 * pi - 1.0) / (1.0 - pi) ** 2 * y + pi / (1.0 - pi) * gamma
    return np.where(t, treated, control)


def _loo_failure(t: np.ndarray, bad: np.ndarray, i: int) -> AssumptionError:
    """The first leave-one-out failure for unit i of one row, in unit order.

    ``t`` is the row's treatment mask and ``bad`` flags the units j whose
    conditional probability leaves their weight undefined.
    """
    wi = int(t[i])
    hits = np.flatnonzero(bad)
    if hits.size:
        j = int(hits[0])
        if t[j]:
            return AssumptionError(
                f"unit {j} is treated but Pr(W_{j}=1 | W_{i}={wi}) = 0; "
                "leave-one-out weight undefined"
            )
        return AssumptionError(
            f"unit {j} is control but Pr(W_{j}=1 | W_{i}={wi}) = 1; "
            "leave-one-out weight undefined"
        )
    arm = "treated" if t.sum() - t[i] == 0 else "control"
    return AssumptionError(
        f"leave-one-out estimate undefined: no {arm} units remain "
        f"after excluding unit {i}"
    )


def _loo_rows(
    d: Design, pi: np.ndarray, t: np.ndarray, y: np.ndarray, kinds: set[str]
) -> dict[str, np.ndarray]:
    """Leave-one-out inverse-probability estimates excluding each unit, per row.

    With cond[r, i, j] = Pr(W_j = t[r, j] | W_i = t[r, i]) from the design's
    conditional tables, entry (r, i) of ``tau_loo`` is the sum over units
    j != i of y_j/cond (treated j) minus y_j/cond (control j), over n - 1.
    ``theta_loo`` sums the same terms times the extra (1-pi_j)/pi_j and
    pi_j/(1-pi_j) factors that target theta instead of the effect.

    The design's leave-one-out operator (``_loo_operators``, built once per
    design) is the 2n x 2n block matrix of 1/Pr(W_j = b | W_i = a), rows
    (a, i) and columns (b, j). Each requested kind is one matrix-vector
    product of it per row, with z = (-(1-t) y, t y) (times the theta
    factors), and unit i keeps the sum of its own arm a = t[r, i]. The
    products are stacked matrix-vector products, not one matrix product,
    so row r does not depend on its batch. The products of the dead-cell
    mask with (1-t, t) flag every unit some observed cell refuses; the
    first flagged (row, unit), in row-major order, raises.
    """
    n = t.shape[1]
    operators = d._loo_operators  # (inv, dead), each indexed [a, b, i, j]
    inv, dead = (x.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n) for x in operators)
    n_treated = t.sum(axis=1, keepdims=True) - t
    failed = (n_treated == 0) | (n_treated == n - 1)
    if dead.any():
        arms = np.concatenate([~t, t], axis=1).astype(float)
        hits = np.matmul(dead.astype(float), arms[..., None])[..., 0]
        failed |= np.where(t, hits[:, n:], hits[:, :n]) > 0.0
    if failed.any():
        r, i = (int(v) for v in np.argwhere(failed)[0])
        bad = operators[1][int(t[r, i]), t[r].astype(int), i, np.arange(n)]
        raise _row_failure(_loo_failure(t[r], bad, i), r)

    def own_arm_sums(z: np.ndarray) -> np.ndarray:
        both = np.matmul(inv, z[..., None])[..., 0]
        sums = np.where(t, both[:, n:], both[:, :n])
        sums /= n - 1
        return sums

    z = np.concatenate([np.where(t, 0.0, -y), np.where(t, y, 0.0)], axis=1)
    out = {}
    if "tau_loo" in kinds:
        out["tau_loo"] = own_arm_sums(z)
    if "theta_loo" in kinds:
        z[:, :n] *= pi / (1.0 - pi)
        z[:, n:] *= (1.0 - pi) / pi
        out["theta_loo"] = own_arm_sums(z)
    return out


def _gammas(
    specs: Sequence[GammaSpec], d: Design, pi: np.ndarray | None, t: np.ndarray, y: np.ndarray
) -> Iterator[np.ndarray]:
    """Each spec's (k, n) effect-guess rows, in spec order, for (k, n)
    treatment masks ``t`` and outcomes ``y`` (``pi`` may be None when every
    spec is fixed). tau-loo and theta-loo share one leave-one-out pass, made
    when the first of them is reached."""
    k, n = t.shape
    loo: dict[str, np.ndarray] = {}
    for spec in specs:
        if spec.kind == "fixed":
            yield np.tile(_per_unit(spec.value, n, "gamma"), (k, 1))
        elif spec.kind == "tau_hat":
            ht = np.where(t, y / pi, -(y / (1.0 - pi))).sum(axis=1) / n
            yield np.repeat(ht[:, None], n, axis=1)
        else:
            if not loo:
                kinds = {s.kind for s in specs} & {"tau_loo", "theta_loo"}
                loo = _loo_rows(d, pi, t, y, kinds)
            yield loo[spec.kind]


def _gamma_rows(spec: GammaSpec, d: Design, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(k, n) effect-guess vectors for k realized tables: 0/1 rows w, outcomes y."""
    n = w.shape[1]
    pi = None
    if spec.kind != "fixed":
        if d.n != n:
            raise ValidationError(f"design has {d.n} units but data has {n}")
        pi = d._checked_propensities()
    return next(_gammas((spec,), d, pi, w.astype(bool), y))


def gamma_vector(spec: GammaSpec, obs: ObservedData, d: Design) -> np.ndarray:
    """Evaluate the effect-guess vector once from the realized data."""
    return _gamma_rows(spec, d, obs.w.to_array()[None], obs.y_obs[None])[0]


def _require_enumerable(d: Design) -> ExplicitDesign:
    if not isinstance(d, ExplicitDesign):
        raise AssumptionError(
            f"exact enumeration unavailable for a sampler-backed {d.kind} "
            "design; use v_imputation_mc"
        )
    return d


def _mc_draws(d: Design, m: int, seed: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The centered contrast rows of m design draws at ``seed`` and their QR
    factor R over sqrt(m - 1). On an imputed table tau_hat(w) - tau = D_w . c / N,
    so the draws' sample variance of tau_hat is ||R c||^2 / N^2: psi's form."""
    rows = _contrast_rows(d.sample_matrix(m, seed), d._checked_propensities())
    rows -= rows.mean(axis=0)
    return rows, np.linalg.qr(rows, mode="r") / math.sqrt(m - 1)


def _imputation_family(
    d: Design, specs: Sequence[GammaSpec], m: int | None = None, seed: int | None = None
) -> Callable[[np.ndarray, np.ndarray], Iterator[np.ndarray]]:
    """The kernel of psi(c_hat) for every spec: exact by support enumeration
    or, given ``m``, over m design draws at ``seed``.

    The returned function scores k realized tables: ``w`` a (k, n) 0/1 array
    of assignments and ``y`` the matching (k, n) observed outcomes. The
    inputs and propensities are checked once a call, the effect guesses come
    from :func:`_gammas` (one leave-one-out pass for tau-loo and theta-loo),
    and each spec's c rows meet one factor: the support's (exact psi) or the
    draws', drawn once in the kernel's life, when the first spec's guesses
    have first succeeded. A call yields one (k,) array per spec, in spec
    order, so stacking gives (len(specs), k); a spec's error surfaces when
    its values are asked for, and an error raised for one row carries that
    row's index as ``exc.row``.
    """
    factor: list[np.ndarray] = []

    def family(w: np.ndarray, y: np.ndarray) -> Iterator[np.ndarray]:
        if m is None:
            _require_enumerable(d)
        elif m < 2:
            raise ValidationError(f"need at least 2 draws, got {m}")
        for c in _imputed_c(d, specs, w, y):
            if not factor:
                factor.append(d._psi_factor if m is None else _mc_draws(d, m, seed)[1])
            yield _factor_values(factor[0], c)

    return family


def _imputed_c(
    d: Design, specs: Sequence[GammaSpec], w: np.ndarray, y: np.ndarray
) -> Iterator[np.ndarray]:
    """Each spec's (k, n) c_hat rows, after one check of the inputs and
    propensities (arguments as in :func:`_imputation_family`)."""
    w = np.asarray(w)
    y = np.asarray(y, dtype=float)
    if w.ndim != 2 or w.shape[1] != d.n or y.shape != w.shape:
        raise ValidationError(
            f"imputation_values needs (k, {d.n}) assignments and outcomes, "
            f"got shapes {w.shape} and {y.shape}"
        )
    if not np.all((w == 0) | (w == 1)):
        raise ValidationError("assignment entries must be 0 or 1")
    if not np.all(np.isfinite(y)):
        raise ValidationError("observed outcomes must be finite")
    pi = d._checked_propensities()
    t = w.astype(bool)
    for gamma in _gammas(specs, d, pi, t, y):
        infinite = ~np.isfinite(gamma).all(axis=1)
        if infinite.any():
            raise _row_failure(ValidationError("gamma must be finite"), int(np.argmax(infinite)))
        yield _impute_c_rows(t, y, pi, gamma)


def imputation_values(d: Design, spec: GammaSpec, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact psi(c_hat) for k realized tables at once: the one-spec call of
    :func:`_imputation_family`. Entry r is v_imputation's value on row r, to
    the bit; an error raised for one row carries that row's index as
    ``exc.row``."""
    return next(_imputation_family(d, (spec,))(w, y))


def v_imputation(d: Design, obs: ObservedData, spec: GammaSpec) -> VarianceEstimate:
    """Exact psi(c_hat) by support enumeration: one row of imputation_values."""
    _require_enumerable(d)
    if obs.n != d.n:
        raise ValidationError(f"observed data has {obs.n} units, design has {d.n}")
    value = imputation_values(d, spec, obs.w.to_array()[None], obs.y_obs[None])
    return VarianceEstimate(
        value=float(value[0]),
        estimator="imputation",
        params={"gamma": spec.describe()},
    )


def v_imputation_mc(
    d: Design,
    obs: ObservedData,
    spec: GammaSpec,
    m: int = MC_DEFAULT_DRAWS,
    seed: int | None = None,
) -> VarianceEstimate:
    """Monte Carlo psi(c_hat): resample the design over a fixed imputed table.

    The imputed table is the one whose c vector is impute_c's estimate, so
    the Monte Carlo target is the exact estimator's value. The value is the
    sample variance (divisor m - 1) of the inverse-probability estimate over
    m design draws: one row of :func:`_imputation_family` on the draws, to
    the bit. Sampler-backed designs work, as only the draws are needed. The
    jackknife standard error of the variance reads the row's m draw
    contrasts (D_w - mean D) . c / N from the same draws.
    """
    if m < 2:
        raise ValidationError(f"need at least 2 draws, got {m}")
    if obs.n != d.n:
        raise ValidationError(f"observed data has {obs.n} units, design has {d.n}")
    c = next(_imputed_c(d, (spec,), obs.w.to_array()[None], obs.y_obs[None]))
    rows, r = _mc_draws(d, m, seed)
    dev = rows @ c[0] / d.n
    sq_dev = dev * dev - float(dev @ dev) / m
    se = math.sqrt(m * float(sq_dev @ sq_dev)) / ((m - 1) ** 0.5 * (m - 2)) if m > 2 else math.nan
    return VarianceEstimate(
        value=float(_factor_values(r, c)[0]),
        estimator="imputation",
        exact=False,
        mc_draws=m,
        mc_se=se,
        params={"gamma": spec.describe(), "seed": seed},
    )


def imputation_bias_terms(
    d: Design, po: PotentialOutcomes, w: AssignmentVector, beta: float
) -> tuple[float, float]:
    """The two per-realization error terms of fixed-guess imputation.

    Under effect homogeneity, psi of the imputed-table c vector equals the
    true design variance plus these two terms: a nonnegative quadratic in
    the realized assignment (scaled by the squared guess error) and a cross
    term that averages to zero on fixed-total-weight designs.
    """
    if not isinstance(d, ExplicitDesign):
        raise AssumptionError(
            f"error-term enumeration needs an explicit design, got {d.kind} sampler"
        )
    if po.n != d.n or w.n != d.n:
        raise ValidationError("design, table, and assignment sizes must agree")
    n = d.n
    pi = d._checked_propensities()
    probs = d.probs
    t = w.to_array().astype(float)

    def terms(u: np.ndarray) -> np.ndarray:
        """(base, gap) of each row of a support block."""
        sizes = u.sum(axis=1)
        r_y0 = u @ (po.y0 / pi) - (1.0 - u) @ (po.y0 / (1.0 - pi))
        k = u @ ((1.0 - pi) / pi) - (n - sizes)
        r_w = u @ (t / pi) - (1.0 - u) @ (t / (1.0 - pi))
        return np.stack([r_y0 + po.tau * k, r_w - k])

    base, gap = np.concatenate([terms(u) for u, _ in d._blocks()], axis=1)

    err = po.tau - beta
    a1 = err**2 / n**2 * math.fsum((probs * gap * gap).tolist())
    a2 = 2.0 * err / n**2 * math.fsum((probs * base * gap).tolist())
    return a1, a2
