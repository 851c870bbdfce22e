"""Imputation-based variance estimation: gamma specs, c-hat, psi plug-ins."""

from __future__ import annotations

import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from designvar import (
    AssignmentVector,
    AssumptionError,
    GammaSpec,
    ObservedData,
    PotentialOutcomes,
    ExplicitDesign,
    ValidationError,
    build_crd,
    build_explicit,
    build_matched_pair,
    c_vector,
    check_assumptions,
    estimator_expectation,
    gamma_vector,
    horvitz_thompson,
    imputation_bias_terms,
    imputation_values,
    impute_c,
    impute_potential_outcomes,
    implicit_beta,
    neyman_variance,
    psi,
    reveal,
    theta_ht,
    true_variance,
    v_imputation,
    v_imputation_mc,
)

from designvar import designs, imputation
from designvar.core import EST_RTOL, PROB_TOL
from designvar.estimators import check_propensities
from designvar.imputation import _gamma_rows

from conftest import random_table, support_matrix


def _obs(bits: str, y) -> ObservedData:
    return ObservedData(AssignmentVector.from_string(bits), np.asarray(y, dtype=float))


def _skewed_design(n: int, n_treated: int, seed: int):
    """All size-n_treated vectors with non-uniform probabilities."""
    base = build_crd(n, n_treated)
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.5, 2.0, base.support_size)
    return build_explicit(list(base.support), raw / raw.sum())


class TestGammaSpec:
    def test_parse_forms(self):
        assert GammaSpec.parse("fixed:0") == GammaSpec("fixed", 0.0)
        assert GammaSpec.parse("fixed:-2.5") == GammaSpec("fixed", -2.5)
        assert GammaSpec.parse("tau-hat").kind == "tau_hat"
        assert GammaSpec.parse("tau-loo").kind == "tau_loo"
        assert GammaSpec.parse("theta-loo").kind == "theta_loo"

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValidationError):
            GammaSpec.parse("ridge")
        with pytest.raises(ValidationError):
            GammaSpec.parse("fixed:")
        with pytest.raises(ValidationError):
            GammaSpec.parse("fixed:abc")

    def test_fixed_requires_finite(self):
        with pytest.raises(ValidationError):
            GammaSpec.fixed(math.inf)
        with pytest.raises(ValidationError):
            GammaSpec("tau_hat", value=1.0)


class TestImputePotentialOutcomes:
    def test_constant_effect_guess(self):
        po = impute_potential_outcomes(_obs("10", [5.0, 3.0]), 2.0)
        assert np.allclose(po.y1, [5.0, 5.0])
        assert np.allclose(po.y0, [3.0, 3.0])

    def test_zero_guess_copies_observations(self):
        obs = _obs("1010", [1.0, 2.0, 3.0, 4.0])
        po = impute_potential_outcomes(obs, 0.0)
        assert np.allclose(po.y0, obs.y_obs)
        assert np.allclose(po.y1, obs.y_obs)

    def test_true_effect_recovers_science_table(self):
        truth = PotentialOutcomes(
            y0=np.array([1.0, 2.0, 3.0, 4.0]), y1=np.array([3.0, 4.0, 5.0, 6.0])
        )
        obs = reveal(truth, AssignmentVector.from_string("0110"))
        po = impute_potential_outcomes(obs, 2.0)
        assert np.allclose(po.y0, truth.y0)
        assert np.allclose(po.y1, truth.y1)

    def test_observed_coordinate_preserved_per_unit_beta(self):
        obs = _obs("1100", [1.0, 2.0, 3.0, 4.0])
        po = impute_potential_outcomes(obs, [1.0, -2.0, 0.5, 3.0])
        w = obs.w.to_array().astype(bool)
        assert np.allclose(np.where(w, po.y1, po.y0), obs.y_obs)


class TestThetaHt:
    def test_equals_ht_at_half_propensity(self):
        obs = _obs("1100", [1.0, 2.0, 3.0, 4.0])
        pi = np.full(4, 0.5)
        assert theta_ht(obs, pi) == pytest.approx(horvitz_thompson(obs, pi))

    def test_hand_value_at_quarter_propensity(self):
        obs = _obs("10", [4.0, 2.0])
        value = theta_ht(obs, np.array([0.25, 0.25]))
        assert value == pytest.approx(24.0 - 2.0 / 4.5, rel=1e-12)

    def test_unbiased_for_reweighted_target(self):
        d = build_crd(6, 4)
        po = random_table(np.random.default_rng(0), 6, homogeneous=True)
        pi = d.propensities
        target = float(
            np.mean((1.0 - pi) / pi * po.y1 - pi / (1.0 - pi) * po.y0)
        )
        est = lambda obs: theta_ht(obs, pi)
        assert estimator_expectation(d, po, est) == pytest.approx(target, rel=1e-10)


class TestGammaVector:
    def test_theta_loo_is_leave_one_out_diff_in_means_on_crd(self, crd42):
        obs = _obs("1100", [1.0, 2.0, 3.0, 4.0])
        gamma = gamma_vector(GammaSpec.parse("theta-loo"), obs, crd42)
        assert gamma[0] == pytest.approx(2.0 - 3.5, rel=1e-12)
        assert gamma[1] == pytest.approx(1.0 - 3.5, rel=1e-12)
        assert gamma[2] == pytest.approx(1.5 - 4.0, rel=1e-12)
        assert gamma[3] == pytest.approx(1.5 - 3.0, rel=1e-12)

    def test_tau_loo_matches_theta_loo_at_half(self, crossed_pairs):
        obs = _obs("1001", [3.0, 2.0, 3.0, 6.0])
        a = gamma_vector(GammaSpec.parse("tau-loo"), obs, crossed_pairs)
        b = gamma_vector(GammaSpec.parse("theta-loo"), obs, crossed_pairs)
        assert np.allclose(a, b, rtol=1e-12)

    def test_they_differ_off_half(self):
        d = build_crd(6, 4)
        obs = _obs("111100", [1.0, 5.0, 2.0, 8.0, 3.0, 9.0])
        a = gamma_vector(GammaSpec.parse("tau-loo"), obs, d)
        b = gamma_vector(GammaSpec.parse("theta-loo"), obs, d)
        assert not np.allclose(a, b)

    def test_fixed_zero(self, crd42):
        obs = _obs("1100", [1.0, 2.0, 3.0, 4.0])
        assert np.allclose(gamma_vector(GammaSpec.fixed(0.0), obs, crd42), 0.0)

    def test_tau_hat_is_constant_ht(self, crd42):
        obs = _obs("1100", [1.0, 2.0, 3.0, 4.0])
        gamma = gamma_vector(GammaSpec.parse("tau-hat"), obs, crd42)
        assert np.allclose(gamma, horvitz_thompson(obs, crd42.propensities))

    def test_degenerate_conditionals_error(self):
        d = build_explicit(["11", "00"], [0.5, 0.5])
        obs = _obs("11", [1.0, 2.0])
        with pytest.raises(AssumptionError, match="leave-one-out"):
            gamma_vector(GammaSpec.parse("theta-loo"), obs, d)

    def test_single_treated_unit_error(self):
        d = build_crd(4, 1)
        obs = _obs("1000", [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(AssumptionError):
            gamma_vector(GammaSpec.parse("theta-loo"), obs, d)


class TestImputeC:
    def test_hand_value(self):
        obs = _obs("10", [5.0, 3.0])
        pi = np.full(2, 0.5)
        c = impute_c(obs, pi, np.array([2.0, 2.0]))
        assert c[0] == pytest.approx(4.0)

    def test_midpoint_form_at_half(self):
        obs = _obs("1010", [1.0, 2.0, 3.0, 4.0])
        pi = np.full(4, 0.5)
        gamma = np.array([1.0, -2.0, 0.5, 3.0])
        po = impute_potential_outcomes(obs, gamma)
        assert np.allclose(impute_c(obs, pi, gamma), (po.y0 + po.y1) / 2.0)

    def test_unbiased_for_deterministic_gamma(self):
        d = _skewed_design(4, 2, seed=7)
        rng = np.random.default_rng(8)
        po = random_table(rng, 4)
        pi = d.propensities
        truth = c_vector(po, pi)
        gamma = rng.uniform(-3.0, 3.0, 4)
        for i in range(4):
            est = lambda obs: impute_c(obs, pi, gamma)[i]
            assert estimator_expectation(d, po, est) == pytest.approx(
                truth[i], rel=1e-9, abs=1e-9
            )

    def test_unbiased_for_theta_loo_gamma(self):
        d = _skewed_design(4, 2, seed=9)
        po = random_table(np.random.default_rng(10), 4)
        pi = d.propensities
        truth = c_vector(po, pi)
        spec = GammaSpec.parse("theta-loo")
        for i in range(4):
            est = lambda obs: impute_c(obs, pi, gamma_vector(spec, obs, d))[i]
            assert estimator_expectation(d, po, est) == pytest.approx(
                truth[i], rel=1e-9, abs=1e-9
            )

    def test_perturbed_slope_breaks_unbiasedness(self):
        # Negative control: scaling the observed-outcome coefficient off the
        # exact inverse-probability value destroys E[c_hat] = c.
        d = _skewed_design(4, 2, seed=11)
        po = random_table(np.random.default_rng(12), 4)
        pi = d.propensities
        truth = c_vector(po, pi)
        gamma = np.zeros(4)

        def warped(obs):
            c = impute_c(obs, pi, gamma)
            t = obs.w.to_array().astype(bool)
            return np.where(t, 1.05 * c, c)[0]

        got = estimator_expectation(d, po, warped)
        assert abs(got - truth[0]) > 1e-3


class TestImplicitBeta:
    def test_reduces_to_gamma_at_half(self):
        obs = _obs("1010", [1.0, 2.0, 3.0, 4.0])
        gamma = np.array([0.3, -1.0, 2.0, 0.0])
        assert np.allclose(implicit_beta(obs, np.full(4, 0.5), gamma), gamma)

    def test_hand_value_off_half(self):
        obs = _obs("10", [4.0, 0.0])
        beta = implicit_beta(obs, np.array([0.25, 0.5]), np.zeros(2))
        assert beta[0] == pytest.approx(-32.0, rel=1e-12)

    def test_round_trip_reproduces_c_hat(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = 6
            bits = "".join(rng.permutation(list("111000")))
            obs = _obs(bits, rng.uniform(-5.0, 5.0, n))
            pi = rng.uniform(0.2, 0.8, n)
            gamma = rng.uniform(-3.0, 3.0, n)
            direct = impute_c(obs, pi, gamma)
            table = impute_potential_outcomes(obs, implicit_beta(obs, pi, gamma))
            assert np.allclose(c_vector(table, pi), direct, atol=1e-12)


class TestVImputation:
    @pytest.mark.parametrize("n", [4, 6])
    def test_tau_hat_gamma_rescales_two_sample_estimate(self, n):
        d = build_crd(n, n // 2)
        po = random_table(np.random.default_rng(n), n)
        spec = GammaSpec.parse("tau-hat")
        for w, _ in d.enumerate_support():
            obs = reveal(po, w)
            expected = float(neyman_variance(obs)) * (n - 2) / (n - 1)
            assert float(v_imputation(d, obs, spec)) == pytest.approx(
                expected, rel=1e-10
            )

    def test_fixed_beta_bias_constant(self):
        n = 6
        d = build_crd(n, n // 2)
        po = random_table(np.random.default_rng(20), n, homogeneous=True)
        beta = 1.25
        est = lambda obs: float(v_imputation(d, obs, GammaSpec.fixed(beta)))
        gap = estimator_expectation(d, po, est) - true_variance(d, po)
        assert gap == pytest.approx((po.tau - beta) ** 2 / (n - 1), rel=1e-10)

    def test_theta_loo_expectation_scaling(self):
        n = 6
        d = build_crd(n, n // 2)
        po = random_table(np.random.default_rng(21), n, homogeneous=True)
        spec = GammaSpec.parse("theta-loo")
        est = lambda obs: float(v_imputation(d, obs, spec))
        assert estimator_expectation(d, po, est) == pytest.approx(
            true_variance(d, po) * (n - 1) / (n - 2), rel=1e-10
        )

    def test_nonnegative(self, crossed_pairs):
        rng = np.random.default_rng(22)
        for _ in range(10):
            po = random_table(rng, 4)
            for w, _ in crossed_pairs.enumerate_support():
                obs = reveal(po, w)
                value = float(v_imputation(crossed_pairs, obs, GammaSpec.fixed(0.0)))
                assert value >= 0.0

    def test_non_enumerable_design_refused(self):
        d = build_crd(32, 16)
        obs = ObservedData(
            AssignmentVector.from_bits([1] * 16 + [0] * 16), np.arange(32.0)
        )
        with pytest.raises(AssumptionError, match="v_imputation_mc"):
            v_imputation(d, obs, GammaSpec.fixed(0.0))

    def test_propensities_checked_once_per_design(self, monkeypatch):
        checks = []

        def spy(pi, n):
            checks.append(n)
            return check_propensities(pi, n)

        # every module that validates a design's propensities
        for module in (designs, imputation):
            monkeypatch.setattr(module, "check_propensities", spy)
        d = build_crd(6, 3)
        po = random_table(np.random.default_rng(23), 6)
        for spec in ("tau-hat", "theta-loo", "tau-hat"):
            for w in (d.vector(0), d.vector(7)):
                v_imputation(d, reveal(po, w), GammaSpec.parse(spec))
        assert checks == [6]


class TestVImputationMc:
    def test_matches_exact_within_three_se(self, crossed_pairs):
        po = random_table(np.random.default_rng(23), 4, homogeneous=True)
        obs = reveal(po, AssignmentVector.from_string("1100"))
        spec = GammaSpec.fixed(po.tau)
        exact = float(v_imputation(crossed_pairs, obs, spec))
        mc = v_imputation_mc(crossed_pairs, obs, spec, m=20_000, seed=3)
        assert abs(mc.value - exact) <= 3.0 * mc.mc_se
        assert mc.exact is False
        assert mc.mc_draws == 20_000

    def test_constant_imputed_table_gives_zero(self, crossed_pairs):
        obs = _obs("1100", [4.0, 4.0, 4.0, 4.0])
        mc = v_imputation_mc(crossed_pairs, obs, GammaSpec.fixed(0.0), m=500, seed=1)
        assert mc.value == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self, crossed_pairs):
        po = random_table(np.random.default_rng(24), 4)
        obs = reveal(po, AssignmentVector.from_string("0110"))
        a = v_imputation_mc(crossed_pairs, obs, GammaSpec.parse("tau-hat"), m=4_000, seed=9)
        b = v_imputation_mc(crossed_pairs, obs, GammaSpec.parse("tau-hat"), m=4_000, seed=9)
        assert a.value == b.value
        assert a.mc_se == b.mc_se

    def test_two_draws_have_undefined_se(self, crossed_pairs):
        obs = _obs("1100", [1.0, 2.0, 3.0, 4.0])
        mc = v_imputation_mc(crossed_pairs, obs, GammaSpec.fixed(0.0), m=2, seed=0)
        assert math.isnan(mc.mc_se)

    def test_rejects_single_draw(self, crossed_pairs):
        obs = _obs("1100", [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValidationError, match="draws"):
            v_imputation_mc(crossed_pairs, obs, GammaSpec.fixed(0.0), m=1, seed=0)


class TestBiasTerms:
    def test_realization_identity_on_unequal_groups(self):
        # At propensity 2/3 a fixed effect guess is not a fixed gamma, so the
        # plug-in goes through the imputed science table.
        d = build_crd(6, 4)
        rng = np.random.default_rng(25)
        po = random_table(rng, 6, homogeneous=True)
        beta = 0.75
        pi = d.propensities
        for w, _ in d.enumerate_support():
            obs = reveal(po, w)
            a1, a2 = imputation_bias_terms(d, po, w, beta)
            table = impute_potential_outcomes(obs, beta)
            lhs = psi(d, c_vector(table, pi))
            rhs = true_variance(d, po) + a1 + a2
            assert lhs == pytest.approx(rhs, rel=1e-9)
            assert a1 >= -1e-15

    def test_second_term_vanishes_in_expectation(self):
        d = build_crd(6, 4)
        po = random_table(np.random.default_rng(26), 6, homogeneous=True)
        mean_a2 = sum(
            p * imputation_bias_terms(d, po, w, 0.4)[1] for w, p in d.enumerate_support()
        )
        assert mean_a2 == pytest.approx(0.0, abs=1e-9)

    def test_rejects_mismatched_sizes(self):
        d = build_crd(6, 4)
        po = random_table(np.random.default_rng(27), 4, homogeneous=True)
        w = next(iter(d.support))
        with pytest.raises(ValidationError, match="sizes"):
            imputation_bias_terms(d, po, w, 0.4)


class TestJackknifeConditionalMeans:
    def test_theta_loo_conditional_mean_identity(self):
        d = _skewed_design(5, 2, seed=30)
        po = random_table(np.random.default_rng(31), 5)
        pi = d.propensities
        spec = GammaSpec.parse("theta-loo")
        probs = np.asarray(d.probs)
        for i in range(5):
            target = float(
                sum(
                    (1.0 - pi[j]) / pi[j] * po.y1[j] - pi[j] / (1.0 - pi[j]) * po.y0[j]
                    for j in range(5)
                    if j != i
                )
            ) / 4.0
            for state in (0, 1):
                num = 0.0
                den = 0.0
                for k, (w, p) in enumerate(d.enumerate_support()):
                    if w.bits[i] != state:
                        continue
                    obs = reveal(po, w)
                    num += p * gamma_vector(spec, obs, d)[i]
                    den += p
                assert num / den == pytest.approx(target, rel=1e-9)

    def test_tau_loo_conditional_mean_is_loo_effect_mean(self):
        d = _skewed_design(5, 2, seed=32)
        po = random_table(np.random.default_rng(33), 5)
        spec = GammaSpec.parse("tau-loo")
        effects = po.y1 - po.y0
        for i in range(5):
            target = float(np.delete(effects, i).mean())
            for state in (0, 1):
                num = 0.0
                den = 0.0
                for w, p in d.enumerate_support():
                    if w.bits[i] != state:
                        continue
                    num += p * gamma_vector(spec, reveal(po, w), d)[i]
                    den += p
                assert num / den == pytest.approx(target, rel=1e-9)


class TestBiasTrend:
    def test_tau_hat_gap_shrinks_with_n(self):
        # Exact at N = 8 and 16; Monte Carlo with a confidence band at 32.
        spec = GammaSpec.parse("tau-hat")
        rng = np.random.default_rng(34)
        gaps = {}
        for n in (8, 16):
            d = build_crd(n, n // 2)
            y0 = rng.uniform(0.0, 10.0, n)
            po = PotentialOutcomes(y0=y0, y1=y0 + 2.0)
            u = support_matrix(d)
            values = imputation_values(d, spec, u, np.where(u == 1, po.y1, po.y0))
            expected = float(np.asarray(d.probs) @ values)
            var = true_variance(d, po)
            gaps[n] = abs(expected - var) / var
            assert gaps[n] == pytest.approx(1.0 / (n - 1), rel=1e-9)
        assert gaps[16] < gaps[8]

        n = 32
        d = build_crd(n, n // 2)
        y0 = rng.uniform(0.0, 10.0, n)
        po = PotentialOutcomes(y0=y0, y1=y0 + 2.0)
        # Closed-form variance for an equal-group CRD under homogeneity.
        s2 = float(np.var(y0, ddof=1))
        var = s2 / (n // 2) + s2 / (n // 2) - 0.0
        outer = 400
        draws = d.sample_matrix(outer, seed=35)
        values = np.empty(outer)
        for k, row in enumerate(draws):
            w = AssignmentVector.from_bits(row.tolist())
            values[k] = v_imputation_mc(d, reveal(po, w), spec, m=2_000, seed=36 + k).value
        mean = values.mean()
        se = values.std(ddof=1) / math.sqrt(outer)
        assert abs(mean - var * (n - 2) / (n - 1)) <= 3.0 * se
        assert abs(mean / var - 1.0) + 3.0 * se / var < gaps[16]


def _heterogeneous_propensity_design():
    """Criterion 8's design: the 20 size-3 groups of 6 units, skewed weights."""
    support = []
    for treated in combinations(range(6), 3):
        support.append("".join("1" if i in treated else "0" for i in range(6)))
    probs = np.random.default_rng(108).uniform(0.5, 2.0, len(support))
    return build_explicit(support, probs / probs.sum())


_BATCH_DESIGNS = {
    "crossed-pairs": lambda: build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4),
    "crd-6-3": lambda: build_crd(6, 3),
    "crd-8-5": lambda: build_crd(8, 5),
    "heterogeneous-20": _heterogeneous_propensity_design,
    "matched-pairs-4": lambda: build_matched_pair([(0, 1), (2, 3), (4, 5), (6, 7)]),
    "sampled-crd-30-15": lambda: build_crd(30, 15),
}


def _reference_gamma(spec: GammaSpec, d, obs: ObservedData) -> np.ndarray:
    """Per-row, per-unit leave-one-out loop with exact sums (the scalar formula)."""
    n = obs.n
    if spec.kind == "fixed":
        return np.broadcast_to(np.asarray(spec.value, dtype=float), (n,))
    pi = d.propensities
    if spec.kind == "tau_hat":
        return np.full(n, horvitz_thompson(obs, pi))
    bits, y = obs.w.bits, obs.y_obs
    out = np.empty(n)
    for i in range(n):
        base = pi[i] if bits[i] else 1.0 - pi[i]
        treated_terms, control_terms = [], []
        for j in range(n):
            if j == i:
                continue
            ptilde = min(max(d.pairwise_prob(i, j, bits[i], 1) / base, 0.0), 1.0)
            if bits[j]:
                assert ptilde > PROB_TOL
                term = y[j] / ptilde
                if spec.kind == "theta_loo":
                    term *= (1.0 - pi[j]) / pi[j]
                treated_terms.append(term)
            else:
                assert ptilde < 1.0 - PROB_TOL
                term = y[j] / (1.0 - ptilde)
                if spec.kind == "theta_loo":
                    term *= pi[j] / (1.0 - pi[j])
                control_terms.append(term)
        out[i] = (math.fsum(treated_terms) - math.fsum(control_terms)) / (n - 1)
    return out


def _reference_psi(d, v: np.ndarray) -> float:
    pi = d.propensities
    total = []
    for w, p in d.enumerate_support():
        t = w.to_array().astype(bool)
        g = math.fsum(np.where(t, v / pi, -v / (1.0 - pi)).tolist())
        total.append(p * g * g)
    return math.fsum(total) / d.n**2


class TestImputationBatch:
    @staticmethod
    def _batch(name: str):
        d = _BATCH_DESIGNS[name]()
        rng = np.random.default_rng(sorted(_BATCH_DESIGNS).index(name))
        po = random_table(rng, d.n)
        if isinstance(d, ExplicitDesign):
            u = np.asarray(support_matrix(d))
        else:
            u = d.sample_matrix(5, rng).astype(float)
        specs = [
            GammaSpec.fixed(rng.normal(0.0, 3.0, d.n)),
            GammaSpec.parse("tau-hat"),
            GammaSpec.parse("tau-loo"),
            GammaSpec.parse("theta-loo"),
        ]
        return d, u, np.where(u == 1, po.y1, po.y0), specs

    @pytest.mark.parametrize("name", sorted(_BATCH_DESIGNS))
    def test_gammas_match_scalar_reference(self, name):
        d, u, y, specs = self._batch(name)
        for spec in specs:
            batch = _gamma_rows(spec, d, u, y)
            assert batch.shape == u.shape
            for r in range(len(u)):
                obs = ObservedData(AssignmentVector.from_bits(u[r].astype(int).tolist()), y[r])
                ref = _reference_gamma(spec, d, obs)
                assert batch[r] == pytest.approx(ref, rel=EST_RTOL), (spec.kind, r)
                assert np.array_equal(gamma_vector(spec, obs, d), batch[r])

    @pytest.mark.parametrize("name", sorted(set(_BATCH_DESIGNS) - {"sampled-crd-30-15"}))
    def test_values_match_reference_and_one_row_calls(self, name):
        d, u, y, specs = self._batch(name)
        pi = d.propensities
        for spec in specs:
            values = imputation_values(d, spec, u, y)
            assert values.shape == (len(u),)
            for r, (w, _) in enumerate(d.enumerate_support()):
                obs = ObservedData(w, y[r])
                c = impute_c(obs, pi, _reference_gamma(spec, d, obs))
                assert values[r] == pytest.approx(_reference_psi(d, c), rel=EST_RTOL)
                assert v_imputation(d, obs, spec).value == values[r]

    def test_sampler_backed_design_refused(self):
        d, u, y, specs = self._batch("sampled-crd-30-15")
        with pytest.raises(AssumptionError, match="exact enumeration unavailable"):
            imputation_values(d, specs[3], u, y)

    def test_rejects_bad_shapes_and_entries(self, crossed_pairs):
        spec = GammaSpec.parse("tau-hat")
        u = np.asarray(support_matrix(crossed_pairs))
        with pytest.raises(ValidationError):
            imputation_values(crossed_pairs, spec, u[:, :3], u[:, :3])
        with pytest.raises(ValidationError):
            imputation_values(crossed_pairs, spec, u, u[:2])
        with pytest.raises(ValidationError):
            imputation_values(crossed_pairs, spec, 2.0 * u, u)

    def test_failure_names_the_first_failing_row(self, crossed_pairs):
        u = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(AssumptionError) as exc:
            imputation_values(crossed_pairs, GammaSpec.parse("theta-loo"), u, np.ones_like(u))
        assert exc.value.row == 1
        assert str(exc.value) == (
            "leave-one-out estimate undefined: no treated units remain "
            "after excluding unit 0"
        )

    def test_theta_loo_memory_is_bounded_on_crd_16_8(self):
        # 12,870 rows x 16 x 16 conditional probabilities would take 26 MB at once
        d = build_crd(16, 8)
        u = support_matrix(d)
        y = np.where(u == 1, 1.0 + np.arange(16.0), -np.arange(16.0))
        d.conditional_tables
        tracemalloc.start()
        try:
            gamma = _gamma_rows(GammaSpec.parse("theta-loo"), d, u, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gamma.shape == (12_870, 16)
        assert peak < 16 * 2**20


def _reference_loo_refusal(d, t: np.ndarray) -> str | None:
    """The first leave-one-out refusal of one 0/1 row, unit by unit and in unit
    order within a unit, as the per-row conditional block found it; None if
    every unit's leave-one-out estimate is defined."""
    n = len(t)
    for i in range(n):
        wi = int(t[i])
        cond = d.conditional_tables[wi, i]
        for j in range(n):
            if j != i and t[j] and cond[j] <= PROB_TOL:
                return (f"unit {j} is treated but Pr(W_{j}=1 | W_{i}={wi}) = 0; "
                        "leave-one-out weight undefined")
            if j != i and not t[j] and cond[j] >= 1.0 - PROB_TOL:
                return (f"unit {j} is control but Pr(W_{j}=1 | W_{i}={wi}) = 1; "
                        "leave-one-out weight undefined")
        others = int(t.sum()) - wi
        if others in (0, n - 1):
            arm = "treated" if others == 0 else "control"
            return (f"leave-one-out estimate undefined: no {arm} units remain "
                    f"after excluding unit {i}")
    return None


_REFUSAL_DESIGNS = {
    "crossed-pairs": lambda: build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4),
    "matched-pairs-3": lambda: build_matched_pair([(0, 1), (2, 3), (4, 5)]),
    "matched-pairs-4-crossed": lambda: build_matched_pair([(0, 5), (1, 7), (2, 4), (3, 6)]),
}


class TestLeaveOneOutRefusals:
    @pytest.mark.parametrize("kind", ["tau-loo", "theta-loo"])
    @pytest.mark.parametrize("name", sorted(_REFUSAL_DESIGNS))
    def test_every_row_refuses_as_the_reference(self, name, kind):
        d = _REFUSAL_DESIGNS[name]()
        spec = GammaSpec.parse(kind)
        n = d.n
        w = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        y = np.random.default_rng(n).normal(size=w.shape)
        expected = [_reference_loo_refusal(d, row.astype(bool)) for row in w]
        assert any(expected) and not all(expected)
        for start in range(len(w)):
            refused = [r for r in range(start, len(w)) if expected[r]]
            if not refused:
                _gamma_rows(spec, d, w[start:], y[start:])
                continue
            with pytest.raises(AssumptionError) as exc:
                _gamma_rows(spec, d, w[start:], y[start:])
            assert exc.value.row == refused[0] - start
            assert str(exc.value) == expected[refused[0]]
        for r in range(len(w)):
            if expected[r]:
                with pytest.raises(AssumptionError, match=re.escape(expected[r])) as exc:
                    _gamma_rows(spec, d, w[r:r + 1], y[r:r + 1])
                assert exc.value.row == 0
            else:
                _gamma_rows(spec, d, w[r:r + 1], y[r:r + 1])

    def test_operators_are_built_on_first_use(self, crossed_pairs):
        crossed_pairs.pairwise_cells()
        check_assumptions(crossed_pairs)
        assert "_loo_operators" not in vars(crossed_pairs)
        u = support_matrix(crossed_pairs)
        _gamma_rows(GammaSpec.parse("tau-loo"), crossed_pairs, u, u)
        inv, dead = vars(crossed_pairs)["_loo_operators"]
        assert inv.shape == dead.shape == (2, 2, 4, 4)
        cond = crossed_pairs.conditional_tables
        arm = np.stack([1.0 - cond, cond], axis=1)  # [a, b, i, j]
        alive = ~dead & ~np.eye(4, dtype=bool)
        assert np.array_equal(inv[alive], 1.0 / arm[alive])
        assert not inv[~alive].any()
        assert not dead[:, :, np.arange(4), np.arange(4)].any()

