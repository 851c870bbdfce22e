"""Exact enumeration oracles: psi, true variance, expectations, Hajek MSE."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designvar import (
    AssignmentVector,
    AssumptionError,
    PotentialOutcomes,
    build_crd,
    build_explicit,
    build_matched_pair,
    build_rerandomized,
    c_vector,
    estimator_expectation,
    estimator_moments,
    hajek,
    horvitz_thompson,
    neyman_variance,
    psi,
    psi_mc,
    reveal,
    true_mse_hajek,
    true_variance,
)
import designvar.designs
from designvar.core import EST_RTOL
from designvar.designs import ExplicitDesign
from designvar.oracles import _factor_values, _weighted_moments
from designvar.simulate import resolve_estimator

from conftest import random_table


class TestPsi:
    def test_crossed_pairs_hand_value(self, crossed_pairs):
        assert psi(crossed_pairs, np.array([2.0, 3.0, 4.0, 5.0])) == pytest.approx(2.0)

    def test_constant_vector_gives_zero(self, crossed_pairs, crd42):
        v = np.full(4, 3.7)
        assert psi(crossed_pairs, v) == pytest.approx(0.0, abs=1e-12)
        assert psi(crd42, v) == pytest.approx(0.0, abs=1e-12)

    def test_mean_squared_indicator_contrast(self, crd42):
        # Averaging psi over the design's own indicator vectors gives 1/(N-1).
        total = sum(p * psi(crd42, w.to_array().astype(float))
                    for w, p in crd42.enumerate_support())
        assert total == pytest.approx(1.0 / 3.0, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        u=st.lists(st.floats(-20, 20), min_size=4, max_size=4),
        v=st.lists(st.floats(-20, 20), min_size=4, max_size=4),
    )
    def test_nonnegative_and_convex(self, u, v):
        d = build_crd(4, 2)
        u = np.asarray(u)
        v = np.asarray(v)
        assert psi(d, u) >= 0.0
        mid = psi(d, (u + v) / 2.0)
        assert mid <= (psi(d, u) + psi(d, v)) / 2.0 + 1e-9


def _exact_psi(d, c: np.ndarray) -> Fraction:
    """psi(c) in exact rationals on a uniform complete design: Neyman's
    N/((N - 1) pi (1 - pi)) sum (c_i - mean c)^2 / N^2 on CRD(N, m), pi = m/N,
    and 4 sum over pairs (c_a - c_b)^2 / N^2 on complete matched pairs."""
    n, c = d.n, [Fraction(x) for x in c.tolist()]
    if d.kind == "matched_pair":
        return 4 * sum((c[a] - c[b]) ** 2 for a, b in d.pairs) / n**2
    pi = Fraction(d.meta["n_treated"], n)
    mean = sum(c) / n
    return n / ((n - 1) * pi * (1 - pi)) * sum((x - mean) ** 2 for x in c) / n**2


def _enumerated_psi(d, c: np.ndarray) -> Fraction:
    """psi(c) = (1/N^2) sum_w p_w (D_w . c)^2 in exact rationals, row by row,
    with p_w each row's weight over the weights' exact total."""
    pi = [Fraction(x) for x in d.propensities.tolist()]
    c = [Fraction(x) for x in c.tolist()]
    weights = [Fraction(x) for x in d._weights.tolist()]
    total = Fraction(0)
    for (w, _), weight in zip(d.enumerate_support(), weights):
        dot = sum(ci / p if b else -ci / (1 - p) for ci, p, b in zip(c, pi, w.bits))
        total += weight * dot * dot
    return total / sum(weights) / d.n**2


PSI_DESIGNS = {
    "crd-6-3": lambda: build_crd(6, 3),
    "crd-8-5": lambda: build_crd(8, 5),
    "crd-16-8": lambda: build_crd(16, 8),
    "pairs-6": lambda: build_matched_pair([(0, 7), (3, 1), (2, 11), (5, 4), (10, 6), (8, 9)]),
}


class TestClosedFormPsi:
    """Complete designs with one weight per group size factor psi in closed
    form, Neyman's variance; other supports keep the row-blocked QR."""

    @pytest.mark.parametrize("name", ["crd-6-3", "pairs-3"])
    def test_exact_reference_is_the_enumerated_sum(self, name):
        d = (build_crd(6, 3) if name == "crd-6-3"
             else build_matched_pair([(0, 3), (5, 1), (2, 4)]))
        rng = np.random.default_rng(5)
        for _ in range(3):
            c = c_vector(random_table(rng, d.n), d.propensities)
            assert _exact_psi(d, c) == _enumerated_psi(d, c)

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("name", sorted(PSI_DESIGNS))
    def test_closed_form_is_as_accurate_as_the_qr_factor(self, name, offset):
        d = PSI_DESIGNS[name]()
        pi = d.propensities
        qr = d._qr_factor(pi)
        rng = np.random.default_rng(2024)
        closed_err = qr_err = 0.0
        for _ in range(200):
            po = random_table(rng, d.n)
            c = c_vector(PotentialOutcomes(po.y0 + offset, po.y1 + offset), pi)
            exact = _exact_psi(d, c)
            closed_err = max(closed_err, float(abs(Fraction(psi(d, c)) - exact) / exact))
            qr_err = max(qr_err, float(abs(Fraction(float(_factor_values(qr, c[None])[0]))
                                           - exact) / exact))
        if offset <= 1e3:
            assert closed_err <= EST_RTOL
        assert closed_err <= qr_err

    def test_factor_route_follows_the_structure(self):
        rows = np.unpackbits(build_crd(6, 3)._packed, axis=1, count=6)
        even = ExplicitDesign(rows, np.full(20, 0.05))  # user rows: closed form too
        uneven = ExplicitDesign(rows, np.arange(1.0, 21.0))
        two_layers = build_explicit(["10", "01", "11", "00"], [0.25] * 4)
        assert np.array_equal(even._psi_factor, even._psi_factor.T)
        assert np.array_equal(uneven._psi_factor, np.triu(uneven._psi_factor))
        assert uneven._psi_factor.tobytes() == uneven._qr_factor(uneven.propensities).tobytes()
        v = random_table(np.random.default_rng(9), 6).y0
        for d in (even, uneven):
            assert psi(d, v) == pytest.approx(float(_enumerated_psi(d, v)), rel=EST_RTOL)
        with pytest.raises(AssumptionError, match="propensity of unit 0 is"):
            psi(build_explicit(["000000"], [1.0]), v)  # one complete layer of size 0
        assert two_layers.structure.complete == "layers"
        assert np.array_equal(two_layers._psi_factor, np.triu(two_layers._psi_factor))

    def test_factor_is_read_only(self):
        for make in PSI_DESIGNS.values():
            assert not make()._psi_factor.flags.writeable


class TestTrueVariance:
    def test_crossed_pairs_homogeneous(self, crossed_pairs):
        po = PotentialOutcomes(
            y0=np.array([1.0, 2.0, 3.0, 4.0]), y1=np.array([3.0, 4.0, 5.0, 6.0])
        )
        assert true_variance(crossed_pairs, po) == pytest.approx(2.0, rel=1e-12)

    def test_constant_table_gives_zero(self, crd42):
        po = PotentialOutcomes(y0=np.full(4, 5.0), y1=np.full(4, 5.0))
        assert true_variance(crd42, po) == pytest.approx(0.0, abs=1e-12)

    def test_crd_no_effect_table(self, crd42):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        po = PotentialOutcomes(y0=y, y1=y.copy())
        assert true_variance(crd42, po) == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_matches_direct_mse_enumeration(self, crossed_pairs):
        rng = np.random.default_rng(4)
        po = random_table(rng, 4)
        pi = crossed_pairs.propensities
        direct = sum(
            p * (horvitz_thompson(reveal(po, w), pi) - po.tau) ** 2
            for w, p in crossed_pairs.enumerate_support()
        )
        assert true_variance(crossed_pairs, po) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_two_sample_decomposition_identity_on_crd(self, n):
        # S^2_1/N_t + S^2_0/N_c - S^2_effect/N reproduces the true variance.
        rng = np.random.default_rng(n)
        po = random_table(rng, n)
        d = build_crd(n, n // 2)
        closed_form = (
            po.s2_treated / (n // 2) + po.s2_control / (n - n // 2) - po.s2_effect / n
        )
        assert true_variance(d, po) == pytest.approx(closed_form, rel=1e-10)


class TestEstimatorExpectation:
    def test_neyman_unbiased_under_homogeneity(self, crd42):
        rng = np.random.default_rng(1)
        po = random_table(rng, 4, homogeneous=True)
        value = estimator_expectation(crd42, po, neyman_variance)
        assert value == pytest.approx(true_variance(crd42, po), rel=1e-10)

    def test_constant_zero_estimator(self, crd42):
        po = random_table(np.random.default_rng(2), 4)
        assert estimator_expectation(crd42, po, lambda obs: 0.0) == 0.0

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_neyman_bias_is_effect_variance_over_n(self, n):
        d = build_crd(n, n // 2)
        po = random_table(np.random.default_rng(100 + n), n)
        gap = estimator_expectation(d, po, neyman_variance) - true_variance(d, po)
        assert gap == pytest.approx(po.s2_effect / n, rel=1e-10)
        assert gap >= -1e-12

    def test_failure_names_the_support_vector(self, crossed_pairs):
        po = random_table(np.random.default_rng(3), 4)

        def bad(obs):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="support vector"):
            estimator_expectation(crossed_pairs, po, bad)

    def test_moments_match_enumeration(self, crd42):
        po = random_table(np.random.default_rng(8), 4)
        mean, sd = estimator_moments(crd42, po, lambda obs: float(neyman_variance(obs)))
        values = np.array(
            [float(neyman_variance(reveal(po, w))) for w, _ in crd42.enumerate_support()]
        )
        probs = np.asarray(crd42.probs)
        assert mean == pytest.approx(float(probs @ values), rel=1e-12)
        expected_sd = float(np.sqrt(probs @ (values - mean) ** 2))
        assert sd == pytest.approx(expected_sd, rel=1e-10)


ONE_PASS_DESIGNS = {
    "crd-8-4": lambda: build_crd(8, 4),
    "pairs-4": lambda: build_matched_pair([(0, 1), (2, 3), (4, 5), (6, 7)]),
    "rerandomized-10-5": lambda: build_rerandomized(
        build_crd(10, 5), np.random.default_rng(0).normal(size=(10, 2)), 0.3),
    "crossed-pairs": lambda: build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4),
}


def _per_row_values(d, po, est) -> np.ndarray:
    """Reference: the estimator on the table revealed at each support row."""
    return np.array([float(est(reveal(po, w, pair_labels=d.pairs)))
                     for w, _ in d.enumerate_support()])


def _bits(*values: float) -> bytes:
    return np.array(values, dtype=float).tobytes()


@pytest.fixture(params=["default-block", "block-40"])
def block(request, monkeypatch):
    """Support passes at the default row block and at 40 entries (many blocks)."""
    if request.param == "block-40":
        monkeypatch.setattr(designvar.designs, "ROW_BLOCK", 40)


class TestOneSupportPass:
    """Scalar estimator callables are scored in the oracles' one pass over
    the support: one call per row, and each failure names its support row."""

    @pytest.mark.parametrize("name", sorted(ONE_PASS_DESIGNS))
    def test_equals_the_per_row_reference_to_the_bit(self, block, name):
        d = ONE_PASS_DESIGNS[name]()
        po = random_table(np.random.default_rng(21), d.n)
        names = ["v_am", "imputation:theta-loo"] + (["v_sub"] if d.kind == "matched_pair" else [])
        estimators = [neyman_variance] + [resolve_estimator(e, d) for e in names]
        for est in estimators:
            mean, sd = _weighted_moments(d, _per_row_values(d, po, est))
            assert _bits(*estimator_moments(d, po, est)) == _bits(mean, sd)
            assert _bits(estimator_expectation(d, po, est)) == _bits(mean)
        devs = _per_row_values(d, po, lambda obs: hajek(obs, d.propensities)) - po.tau
        assert _bits(true_mse_hajek(d, po)) == _bits(math.fsum(d.probs * (devs * devs)))

    def test_a_nested_refusal_names_its_support_row(self, block):
        # neyman_variance refuses the size-7 row as row 0 of its one-row batch;
        # the oracle reports the row of the support, 70
        rows = [w.to_string() for w in build_crd(8, 4).support] + ["11111110"]
        d = build_explicit(rows, [1.0 / len(rows)] * len(rows))
        po = random_table(np.random.default_rng(12), 8)
        with pytest.raises(AssumptionError) as exc:
            estimator_expectation(d, po, neyman_variance)
        assert str(exc.value) == (
            "group variances need at least 2 units per group, got n_t=7, n_c=1 "
            "(estimator failed at support vector 11111110)"
        )
        assert exc.value.row == 70

    def test_a_user_error_keeps_its_type_and_message(self, block):
        d = build_crd(8, 4)
        po = random_table(np.random.default_rng(13), 8)
        bad = d.vector(52)

        def est(obs):
            if obs.w == bad:
                raise ValueError("boom")
            return 0.0

        with pytest.raises(ValueError) as exc:
            estimator_moments(d, po, est)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"boom (estimator failed at support vector {bad.to_string()})"
        assert exc.value.row == 52


class TestPsiMc:
    def test_matches_exact_within_three_se(self, crossed_pairs):
        v = np.array([2.0, 3.0, 4.0, 5.0])
        est = psi_mc(crossed_pairs, v, 20_000, seed=3)
        assert abs(est.value - psi(crossed_pairs, v)) <= 3.0 * est.se

    def test_deterministic(self, crossed_pairs):
        v = np.array([1.0, -2.0, 0.5, 4.0])
        a = psi_mc(crossed_pairs, v, 5_000, seed=12)
        b = psi_mc(crossed_pairs, v, 5_000, seed=12)
        assert a == b

    def test_refuses_what_psi_refuses(self):
        d = build_explicit(["1100", "1010", "1001"], [1 / 3] * 3)  # unit 0 always treated
        v = np.ones(4)
        message = "propensity of unit 0 is 1.0; inverse weighting needs 0 < pi < 1"
        with pytest.raises(AssumptionError) as exact:
            psi(d, v)
        with pytest.raises(AssumptionError) as mc:
            psi_mc(d, v, 100, seed=0)
        # a refused check is not kept: the next call on the design raises it again
        with pytest.raises(AssumptionError) as again:
            psi_mc(d, v, 100, seed=0)
        assert str(exact.value) == str(mc.value) == str(again.value) == message


class TestTrueMseHajek:
    def test_constant_table_gives_zero(self):
        d = build_crd(6, 2)
        po = PotentialOutcomes(y0=np.full(6, 2.0), y1=np.full(6, 2.0))
        assert true_mse_hajek(d, po) == pytest.approx(0.0, abs=1e-12)

    def test_homogeneous_case_reduces_to_baseline_contrast(self):
        d = build_crd(6, 2)
        po = random_table(np.random.default_rng(5), 6, homogeneous=True)
        direct = 0.0
        for w, p in d.enumerate_support():
            t = w.to_array().astype(bool)
            direct += p * (po.y0[t].mean() - po.y0[~t].mean()) ** 2
        assert true_mse_hajek(d, po) == pytest.approx(direct, rel=1e-10)

    def test_equal_groups_match_ht_variance(self, crossed_pairs):
        po = random_table(np.random.default_rng(6), 4)
        assert true_mse_hajek(crossed_pairs, po) == pytest.approx(
            true_variance(crossed_pairs, po), rel=1e-10
        )

    def test_propensities_are_checked_once_per_call(self, monkeypatch):
        import designvar.estimators

        checks, check = [], designvar.estimators.check_propensities

        def spy(pi, n):
            checks.append(n)
            return check(pi, n)

        monkeypatch.setattr(designvar.estimators, "check_propensities", spy)
        monkeypatch.setattr(designvar.designs, "check_propensities", spy)
        po = random_table(np.random.default_rng(7), 6)
        for calls in (1, 2):
            true_mse_hajek(build_crd(6, 3), po)  # 20 support rows, a fresh design each call
            assert checks == [6] * calls

    def test_a_certain_unit_is_refused_before_the_pass(self):
        d = build_explicit(["1100", "1010", "1001"], [1 / 3] * 3)  # unit 0 always treated
        po = random_table(np.random.default_rng(8), 4)
        message = "propensity of unit 0 is 1.0; inverse weighting needs 0 < pi < 1"
        with pytest.raises(AssumptionError) as hajek_mse:
            true_mse_hajek(d, po)
        with pytest.raises(AssumptionError) as variance:
            true_variance(d, po)
        assert str(hajek_mse.value) == str(variance.value) == message
        assert not hasattr(hajek_mse.value, "row")


class TestHajekKernel:
    """true_mse_hajek scores each row's ratio estimate in its own row kernel,
    with hajek's arithmetic: the same bits as hajek on each revealed table."""

    @pytest.mark.parametrize("name", ["crd-12-6", "crossed-pairs", "rerandomized-12-6"])
    def test_equals_hajek_on_each_revealed_table_to_the_bit(self, block, name):
        d = {
            "crd-12-6": lambda: build_crd(12, 6),
            "crossed-pairs": lambda: build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4),
            "rerandomized-12-6": lambda: build_rerandomized(
                build_crd(12, 6), np.random.default_rng(0).normal(size=(12, 2)), 0.3),
        }[name]()
        for seed in range(3):
            po = random_table(np.random.default_rng(seed), d.n)
            devs = _per_row_values(d, po, lambda obs: hajek(obs, d.propensities)) - po.tau
            assert true_mse_hajek(d, po).hex() == math.fsum(d.probs * (devs * devs)).hex()

    def test_an_empty_group_is_refused_as_hajek_refuses_it(self, block):
        rows = [w.to_string() for w in build_crd(6, 3).support] + ["111111"]
        d = build_explicit(rows, [1.0 / len(rows)] * len(rows))
        po = random_table(np.random.default_rng(4), 6)
        with pytest.raises(AssumptionError) as kernel:
            true_mse_hajek(d, po)
        with pytest.raises(AssumptionError) as scalar:
            estimator_expectation(d, po, lambda obs: hajek(obs, d.propensities))
        assert str(kernel.value) == str(scalar.value) == (
            "hajek estimator is undefined: one realized group is empty "
            "(estimator failed at support vector 111111)")
        assert kernel.value.row == scalar.value.row == 20


class TestReveal:
    def test_observed_coordinates(self):
        po = PotentialOutcomes(y0=np.array([1.0, 2.0]), y1=np.array([5.0, 9.0]))
        obs = reveal(po, AssignmentVector.from_string("10"))
        assert np.allclose(obs.y_obs, [5.0, 2.0])

    def test_pair_labels_pass_through(self):
        po = PotentialOutcomes(y0=np.zeros(4), y1=np.ones(4))
        obs = reveal(po, AssignmentVector.from_string("1010"), pair_labels=((0, 1), (2, 3)))
        assert obs.pair_labels == ((0, 1), (2, 3))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_ht_unbiased_over_random_tables(seed):
    d = build_crd(4, 2)
    po = random_table(np.random.default_rng(seed), 4)
    est = lambda obs: horvitz_thompson(obs, d.propensities)
    assert estimator_expectation(d, po, est) == pytest.approx(po.tau, rel=1e-10, abs=1e-10)


def test_hajek_oracle_requires_nondegenerate_groups():
    # CRD(4,1) has support vectors with a single treated unit; the Hajek
    # estimator is fine there, but a design containing an all-control vector
    # must fail loudly inside the oracle.
    from designvar import AssumptionError, build_explicit

    d = build_explicit(["00", "11", "10", "01"], [0.25, 0.25, 0.25, 0.25])
    po = PotentialOutcomes(y0=np.array([1.0, 2.0]), y1=np.array([3.0, 4.0]))
    with pytest.raises(AssumptionError):
        true_mse_hajek(d, po)
