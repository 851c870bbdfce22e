"""Q-matrix decompositions: validation, population identity, estimation."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from designvar import (
    AssignmentVector,
    AssumptionError,
    ObservedData,
    PotentialOutcomes,
    ValidationError,
    build_crd,
    build_explicit,
    build_matched_pair,
    build_rerandomized,
    check_assumptions,
    default_q_crd,
    estimate_decomposition,
    estimator_expectation,
    gen_covariates_hainmueller,
    neyman_variance,
    q_feasible_for_design,
    reveal,
    true_variance,
    v_am,
    v_tilde,
    validate_q,
)

import designvar.decomposition as dec
from designvar.core import PROB_TOL
from designvar.decomposition import _quadratic_values, _v_am_matrix, _v_am_values
from designvar.simulate import BALANCE_THRESHOLD, _empirical_design

from conftest import random_table, support_matrix

CROSS_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])
#: rank-one Q for the crossed-pairs design; diag 1/16, row sums 0, PSD
CROSS_Q = np.outer(CROSS_SIGNS, CROSS_SIGNS) / 16.0


def _random_valid_q(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random convex mixture of rank-one balanced-sign Qs (all conditions hold)."""
    vs = [v for v in itertools.product((1.0, -1.0), repeat=n) if sum(v) == 0.0]
    weights = rng.dirichlet(np.ones(len(vs)))
    q = np.zeros((n, n))
    for wgt, v in zip(weights, vs):
        q += wgt * np.outer(v, v)
    return q / n**2


class TestValidateQ:
    def test_default_crd_q_passes(self):
        from designvar import default_q_crd

        report = validate_q(default_q_crd(4))
        assert report.passed

    def test_zero_matrix_fails_diagonal(self):
        report = validate_q(np.zeros((4, 4)))
        assert not report.passed
        assert not report.diagonal_ok

    def test_asymmetric_variant_fails_row_sums(self):
        # Flipping one off-diagonal entry of the rank-one Q to -1/16 breaks
        # the zero-row-sum condition (row 2 then sums to -2/16).
        q = CROSS_Q.copy()
        q[1, 3] = -1.0 / 16.0
        q[3, 1] = -1.0 / 16.0
        report = validate_q(q)
        assert not report.passed
        assert not report.row_sums_ok
        assert validate_q(CROSS_Q).passed

    def test_indefinite_matrix_fails_psd(self):
        n = 4
        q = np.full((n, n), 1.0 / 48.0)
        np.fill_diagonal(q, 1.0 / 16.0)
        q[0, 1] = q[1, 0] = -3.0 / 48.0
        q[0, 2] = q[2, 0] = 1.0 / 48.0 - 0.0  # keep row sums zero by adjustment
        # Simpler: build a symmetric matrix with correct diagonal and row sums
        # but a negative eigenvalue via a large off-diagonal pattern.
        q = np.array(
            [
                [1.0 / 16.0, -5.0 / 16.0, 2.0 / 16.0, 2.0 / 16.0],
                [-5.0 / 16.0, 1.0 / 16.0, 2.0 / 16.0, 2.0 / 16.0],
                [2.0 / 16.0, 2.0 / 16.0, 1.0 / 16.0, -5.0 / 16.0],
                [2.0 / 16.0, 2.0 / 16.0, -5.0 / 16.0, 1.0 / 16.0],
            ]
        )
        report = validate_q(q)
        assert np.allclose(q.sum(axis=1), 0.0)
        assert not report.passed
        assert not report.psd


class TestDefaultQCrd:
    def test_n_2_entries(self):
        from designvar import default_q_crd

        assert np.allclose(default_q_crd(2), [[0.25, -0.25], [-0.25, 0.25]])

    def test_n_4_entries(self):
        from designvar import default_q_crd

        q = default_q_crd(4)
        assert np.allclose(np.diag(q), 1.0 / 16.0)
        off = q[~np.eye(4, dtype=bool)]
        assert np.allclose(off, -1.0 / 48.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_always_valid(self, n):
        from designvar import default_q_crd

        assert validate_q(default_q_crd(n)).passed


class TestVTilde:
    def test_homogeneous_table_recovers_variance(self, crossed_pairs):
        po = random_table(np.random.default_rng(0), 4, homogeneous=True)
        assert v_tilde(crossed_pairs, po, CROSS_Q) == pytest.approx(
            true_variance(crossed_pairs, po), rel=1e-10
        )

    def test_crd_default_q_matches_two_sample_form(self, crd42):
        from designvar import default_q_crd

        po = random_table(np.random.default_rng(1), 4)
        expected = po.s2_treated / 2.0 + po.s2_control / 2.0
        assert v_tilde(crd42, po, default_q_crd(4)) == pytest.approx(expected, rel=1e-10)

    def test_population_identity_random_q(self):
        # vt(Q) = Var(tau_hat) + effect' Q effect for random valid Qs.
        d = build_crd(6, 3)
        rng = np.random.default_rng(2)
        for _ in range(100):
            po = random_table(rng, 6)
            q = _random_valid_q(6, rng)
            effect = po.y1 - po.y0
            lhs = v_tilde(d, po, q)
            rhs = true_variance(d, po) + float(effect @ q @ effect)
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestEstimateDecomposition:
    def test_crd_default_q_equals_two_sample_everywhere(self, crd42):
        from designvar import default_q_crd

        q = default_q_crd(4)
        po = random_table(np.random.default_rng(3), 4)
        for w, _ in crd42.enumerate_support():
            obs = reveal(po, w)
            assert float(estimate_decomposition(crd42, obs, q)) == pytest.approx(
                float(neyman_variance(obs)), rel=1e-10
            )

    def test_crossed_pairs_hand_values(self, crossed_pairs):
        obs1 = ObservedData(
            AssignmentVector.from_string("1100"), np.array([1.0, 2.0, 3.0, 4.0])
        )
        assert float(estimate_decomposition(crossed_pairs, obs1, CROSS_Q)) == pytest.approx(
            0.0, abs=1e-12
        )
        obs2 = ObservedData(
            AssignmentVector.from_string("1001"), np.array([3.0, 2.0, 3.0, 6.0])
        )
        assert float(estimate_decomposition(crossed_pairs, obs2, CROSS_Q)) == pytest.approx(
            4.0, rel=1e-12
        )

    def test_infeasible_pair_names_dead_cell(self, crossed_pairs):
        from designvar import default_q_crd

        obs = ObservedData(
            AssignmentVector.from_string("1100"), np.array([1.0, 2.0, 3.0, 4.0])
        )
        with pytest.raises(AssumptionError, match="Pr\\(W_"):
            estimate_decomposition(crossed_pairs, obs, default_q_crd(4))

    def test_unbiased_for_v_tilde(self, crossed_pairs):
        rng = np.random.default_rng(4)
        po = random_table(rng, 4)
        est = lambda obs: float(estimate_decomposition(crossed_pairs, obs, CROSS_Q))
        assert estimator_expectation(crossed_pairs, po, est) == pytest.approx(
            v_tilde(crossed_pairs, po, CROSS_Q), rel=1e-9
        )

    def test_conservative_with_homogeneity_sharpness(self):
        d = build_crd(6, 3)
        rng = np.random.default_rng(5)
        for _ in range(10):
            po = random_table(rng, 6)
            q = _random_valid_q(6, rng)
            est = lambda obs: float(estimate_decomposition(d, obs, q))
            gap = estimator_expectation(d, po, est) - true_variance(d, po)
            assert gap >= -1e-9
        po = random_table(rng, 6, homogeneous=True)
        q = _random_valid_q(6, rng)
        est = lambda obs: float(estimate_decomposition(d, obs, q))
        assert estimator_expectation(d, po, est) == pytest.approx(
            true_variance(d, po), rel=1e-10
        )

    def test_negative_estimate_is_flagged_not_truncated(self):
        from designvar import build_explicit, default_q_crd

        # On a skewed measurable design the inverse-probability cross terms
        # can dominate, pushing the estimate below zero.
        support = ["1100", "1010", "1001", "0110", "0101", "0011"]
        probs = np.array([4.0, 1.0, 1.0, 1.0, 1.0, 2.0])
        d = build_explicit(support, probs / probs.sum())
        obs = ObservedData(
            AssignmentVector.from_string("1010"), np.array([12.5, -9.1, 4.6, -14.3])
        )
        est = estimate_decomposition(d, obs, default_q_crd(4))
        assert est.value < 0
        assert "negative variance estimate" in est.warnings

    def test_nonnegative_estimate_carries_no_warning(self, crd42):
        from designvar import default_q_crd

        obs = ObservedData(
            AssignmentVector.from_string("1100"), np.array([1.0, 2.0, 3.0, 4.0])
        )
        est = estimate_decomposition(crd42, obs, default_q_crd(4))
        assert est.value >= 0
        assert est.warnings == ()


class TestQFeasible:
    def test_crossed_pairs_rank_one_q_feasible(self, crossed_pairs):
        assert q_feasible_for_design(crossed_pairs, CROSS_Q).feasible

    def test_crossed_pairs_default_q_infeasible(self, crossed_pairs):
        from designvar import default_q_crd

        report = q_feasible_for_design(crossed_pairs, default_q_crd(4))
        assert not report.feasible
        assert report.violations

    def test_measurable_design_always_feasible(self):
        d = build_crd(6, 3)
        rng = np.random.default_rng(6)
        q = _random_valid_q(6, rng)
        assert q_feasible_for_design(d, q).feasible


class TestVAm:
    def test_measurable_design_gap_is_effect_deviation_sum(self):
        d = build_crd(6, 3)
        po = random_table(np.random.default_rng(7), 6)
        est = lambda obs: float(v_am(d, obs))
        gap = estimator_expectation(d, po, est) - true_variance(d, po)
        dev = po.y1 - po.y0 - po.tau
        assert gap == pytest.approx(float(dev @ dev) / (6 * 5), rel=1e-9)
        assert gap >= -1e-12

    def test_conservative_on_nonmeasurable_design(self, crossed_pairs):
        rng = np.random.default_rng(8)
        est = lambda obs: float(v_am(crossed_pairs, obs))
        for _ in range(100):
            po = random_table(rng, 4)
            gap = estimator_expectation(crossed_pairs, po, est) - true_variance(
                crossed_pairs, po
            )
            assert gap >= -1e-9

    def test_constant_outcomes_nonnegative_with_dead_cells(self, crossed_pairs):
        obs = ObservedData(AssignmentVector.from_string("1100"), np.full(4, 2.0))
        assert float(v_am(crossed_pairs, obs)) >= 0.0


def _skewed_groups_design():
    """The 20 size-3 groups of 6 units with skewed weights: unequal propensities."""
    support = ["".join("1" if i in g else "0" for i in range(6))
               for g in itertools.combinations(range(6), 3)]
    probs = np.random.default_rng(108).uniform(0.5, 2.0, len(support))
    return build_explicit(support, probs / probs.sum())


def _study_b_empirical_design():
    x = gen_covariates_hainmueller(50, 0)
    d = build_rerandomized(build_crd(50, 25), x, BALANCE_THRESHOLD, retry_budget=1_000_000)
    return _empirical_design(d.sample_matrix(40, np.random.default_rng(5)))


_CACHE_DESIGNS = {
    "crossed-pairs": lambda: build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4),
    "matched-pairs-4": lambda: build_matched_pair([(0, 1), (2, 3), (4, 5), (6, 7)]),
    "heterogeneous-20": _skewed_groups_design,
    "study-b-empirical": _study_b_empirical_design,
}


class TestVAmMatrixCache:
    """v_am's matrix depends on the design alone: built on the first call, kept
    on the design, and every value equals the one from a freshly built matrix."""

    @pytest.mark.parametrize("name", sorted(_CACHE_DESIGNS))
    def test_values_equal_a_fresh_matrix_to_the_bit(self, name, monkeypatch):
        import designvar.decomposition as dec

        d = _CACHE_DESIGNS[name]()
        d.pairwise_cells()
        check_assumptions(d)
        assert "_v_am_matrix" not in vars(d)
        assert "_loo_operators" not in vars(d)
        builds = []
        monkeypatch.setattr(dec, "_v_am_matrix", lambda d: builds.append(d) or _v_am_matrix(d))
        rng = np.random.default_rng(sorted(_CACHE_DESIGNS).index(name))
        iu, ju = np.triu_indices(d.n, k=1)
        dead = sum(int((p[iu, ju] <= PROB_TOL).sum()) for p in d.pairwise_cells())
        u = support_matrix(d)
        for _ in range(2):
            po = random_table(rng, d.n)
            y = np.where(u == 1, po.y1, po.y0)
            values, bounded = _v_am_values(d, u, y)
            m, fresh_bounded = _v_am_matrix(d)
            fresh = _quadratic_values(m, u, y) / d.n**2
            assert values.tobytes() == fresh.tobytes()
            assert bounded == fresh_bounded == dead
            est = v_am(d, reveal(po, d.vector(0)))
            assert est.value == values[0]
            assert est.params == {"bounded_cells": dead}
        assert builds == [d]
        assert not vars(d)["_v_am_matrix"][0].flags.writeable


@pytest.mark.filterwarnings("error")
class TestPositivityFailure:
    """Unit 2 is never treated: every inverse-probability coefficient is
    refused with the imputation estimators' AssumptionError, never NaN."""

    MESSAGE = r"propensity of unit 2 is 0\.0; inverse weighting needs 0 < pi < 1"

    @pytest.fixture
    def design(self):
        return build_explicit(["100", "010"], [0.5, 0.5])

    @pytest.fixture
    def obs(self):
        return ObservedData(AssignmentVector.from_string("100"), np.array([3.0, 2.0, 5.0]))

    def test_v_am(self, design, obs):
        with pytest.raises(AssumptionError, match=self.MESSAGE):
            v_am(design, obs)

    def test_estimate_decomposition(self, design, obs):
        with pytest.raises(AssumptionError, match=self.MESSAGE):
            estimate_decomposition(design, obs, default_q_crd(3))

    def test_v_tilde(self, design):
        po = PotentialOutcomes(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 4.0]))
        with pytest.raises(AssumptionError, match=self.MESSAGE):
            v_tilde(design, po, default_q_crd(3))

    def test_q_feasible_for_design(self, design):
        with pytest.raises(AssumptionError, match=self.MESSAGE):
            q_feasible_for_design(design, default_q_crd(3))


def _pair_q(pairs, n):
    """A valid Q with zero coefficients on a matched-pair design's dead cells:
    1/N^2 within each pair and -2/((N-2) N^2) across pairs."""
    within = np.zeros((n, n))
    for a, b in pairs:
        within[np.ix_([a, b], [a, b])] = 1.0
    return (within - 2.0 / (n - 2) * (1.0 - within)) / n**2


_PAIRS_4 = ((0, 1), (2, 3), (4, 5), (6, 7))

_SLOT_DESIGNS = {
    "crd-8-4": (lambda: build_crd(8, 4), lambda: default_q_crd(8)),
    "matched-pairs-4": (lambda: build_matched_pair(_PAIRS_4), lambda: _pair_q(_PAIRS_4, 8)),
    "heterogeneous-20": (_skewed_groups_design, lambda: default_q_crd(6)),
}


def _fresh_values(d, q, w, y):
    """estimate_decomposition's values with M validated and built afresh,
    as every call built it before M was kept on the design."""
    q = dec.require_valid_q(q, d.n)
    cells, coefs = dec._coefficients(d, q - 1.0 / d.n**2, d.n**2)
    assert dec._feasibility(cells, coefs).feasible
    return _quadratic_values(dec._pair_matrix(d, cells, coefs, d.n**2)[0], w, y)


class TestDecompositionSlot:
    """estimate_decomposition's M depends on the design and Q alone: it is
    kept on the design in one slot keyed by Q's shape and bytes, and a
    refused Q never fills it."""

    SLOT = "_decomposition_matrix"

    @pytest.fixture
    def count_builds(self, monkeypatch):
        builds = []
        build = dec._pair_matrix
        monkeypatch.setattr(dec, "_pair_matrix", lambda *a, **k: builds.append(1) or build(*a, **k))
        return builds

    @pytest.mark.parametrize("name", sorted(_SLOT_DESIGNS))
    def test_values_equal_a_fresh_matrix_to_the_bit(self, name):
        make, make_q = _SLOT_DESIGNS[name]
        d, q = make(), make_q()
        d.pairwise_cells()
        check_assumptions(d)
        assert self.SLOT not in vars(d)
        po = random_table(np.random.default_rng(sorted(_SLOT_DESIGNS).index(name)), d.n)
        u = support_matrix(d)
        y = np.where(u == 1, po.y1, po.y0)
        fresh = _fresh_values(d, q, u, y)
        for _ in range(2):
            assert dec._decomposition_values(d, q, u, y).tobytes() == fresh.tobytes()
            for r in range(d.support_size):
                assert estimate_decomposition(d, reveal(po, d.vector(r)), q).value == fresh[r]
        key, m = vars(d)[self.SLOT]
        assert key == ((d.n, d.n), q.tobytes())
        assert not m.flags.writeable
        cells, coefs = dec._coefficients(d, q - 1.0 / d.n**2, d.n**2)
        assert m.tobytes() == dec._pair_matrix(d, cells, coefs, d.n**2)[0].tobytes()

    def test_built_once_per_q_and_replaced_by_another(self, count_builds):
        d = build_crd(6, 3)
        obs = reveal(random_table(np.random.default_rng(11), 6), d.vector(3))
        q1, q2 = default_q_crd(6), _random_valid_q(6, np.random.default_rng(12))
        for q in (q1, q1, q1.copy(), q1.tolist()):  # equal bytes: one build
            estimate_decomposition(d, obs, q)
        assert len(count_builds) == 1
        second = estimate_decomposition(d, obs, q2).value
        assert len(count_builds) == 2
        assert vars(d)[self.SLOT][0] == ((6, 6), q2.tobytes())
        assert estimate_decomposition(d, obs, q2).value == second
        estimate_decomposition(d, obs, q1)  # one slot: q1 is built again
        assert len(count_builds) == 3

    @pytest.mark.parametrize(
        "make, valid, q, error, message",
        [
            (lambda: build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4), CROSS_Q,
             default_q_crd(4), AssumptionError,
             "Q is not estimable under this design: Pr(W_0=1, W_2=1) = 0 but its "
             "coefficient is -8.333e-02 (and 3 more)"),
            (lambda: build_matched_pair(_PAIRS_4), _pair_q(_PAIRS_4, 8),
             default_q_crd(8), AssumptionError,
             "Q is not estimable under this design: Pr(W_0=1, W_1=1) = 0 but its "
             "coefficient is -1.786e-02 (and 7 more)"),
            (lambda: build_crd(4, 2), default_q_crd(4), np.zeros((4, 4)), ValidationError,
             "invalid Q matrix: {'diagonal': 'q[0,0]=0.0, expected 1/N^2=0.0625'}"),
            (lambda: build_matched_pair(_PAIRS_4), _pair_q(_PAIRS_4, 8),
             np.zeros((8, 8)), ValidationError,
             "invalid Q matrix: {'diagonal': 'q[0,0]=0.0, expected 1/N^2=0.015625'}"),
        ],
        ids=["infeasible-crossed-pairs", "infeasible-matched-pairs", "invalid-crd",
             "invalid-matched-pairs"],
    )
    def test_refused_q_never_fills_the_slot(self, make, valid, q, error, message, count_builds):
        d = make()
        obs = ObservedData(d.vector(0), np.arange(float(d.n)))
        for cached in (None, valid):  # before and after a valid Q is kept
            if cached is not None:
                estimate_decomposition(d, obs, cached)
            for _ in range(2):
                with pytest.raises(error) as exc:
                    estimate_decomposition(d, obs, q)
                assert str(exc.value) == message
                slot = vars(d).get(self.SLOT)
                assert slot is None if cached is None else slot[0][1] == cached.tobytes()
        builds = len(count_builds)
        estimate_decomposition(d, obs, valid)  # the valid Q's M is still kept
        assert len(count_builds) == builds
