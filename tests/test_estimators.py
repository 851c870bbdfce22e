"""Point estimators, the c vector, and the two-sample variance estimator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designvar import (
    AssignmentVector,
    AssumptionError,
    ObservedData,
    PotentialOutcomes,
    ValidationError,
    build_crd,
    c_vector,
    difference_in_means,
    estimator_expectation,
    hajek,
    horvitz_thompson,
    neyman_variance,
)
from designvar.estimators import _group_variances

from conftest import support_matrix


def _obs(bits: str, y) -> ObservedData:
    return ObservedData(AssignmentVector.from_string(bits), np.asarray(y, dtype=float))


HALF = np.full(4, 0.5)


class TestHorvitzThompson:
    def test_hand_value(self):
        assert horvitz_thompson(_obs("1100", [1, 2, 3, 4]), HALF) == pytest.approx(-2.0)

    def test_constant_outcomes_cancel(self):
        assert horvitz_thompson(_obs("1100", [7, 7, 7, 7]), HALF) == pytest.approx(0.0)

    def test_matches_difference_in_means_at_uniform_propensity(self):
        obs = _obs("1010", [2.0, 5.0, 9.0, 1.0])
        assert horvitz_thompson(obs, HALF) == pytest.approx(difference_in_means(obs))

    def test_expectation_recovers_tau(self, crossed_pairs):
        po = PotentialOutcomes(
            y0=np.array([1.0, 2.0, 3.0, 4.0]), y1=np.array([3.0, 4.0, 5.0, 6.0])
        )
        est = lambda obs: horvitz_thompson(obs, crossed_pairs.propensities)
        assert estimator_expectation(crossed_pairs, po, est) == pytest.approx(2.0, rel=1e-12)

    def test_degenerate_propensity_rejected(self):
        with pytest.raises(AssumptionError):
            horvitz_thompson(_obs("1100", [1, 2, 3, 4]), np.array([0.5, 0.5, 0.5, 1.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            horvitz_thompson(_obs("1100", [1, 2, 3, 4]), np.array([0.5, 0.5]))


class TestHajek:
    def test_reduces_to_difference_in_means_under_epsem(self):
        obs = ObservedData(AssignmentVector.from_string("100"), np.array([6.0, 3.0, 3.0]))
        pi = np.full(3, 1.0 / 3.0)
        assert hajek(obs, pi) == pytest.approx(3.0)
        assert hajek(obs, pi) == pytest.approx(difference_in_means(obs))

    def test_heterogeneous_propensities(self):
        # Treated mean (2/.5 + 4/.25)/(1/.5 + 1/.25) = 10/3; control mean
        # (2/.5 + 4/.75)/(1/.5 + 1/.75) = 14/5.
        obs = _obs("1010", [2.0, 2.0, 4.0, 4.0])
        pi = np.array([0.5, 0.5, 0.25, 0.25])
        assert hajek(obs, pi) == pytest.approx(8.0 / 15.0, rel=1e-12)

    def test_all_treated_errors(self):
        with pytest.raises(AssumptionError, match="empty"):
            hajek(_obs("1111", [1, 2, 3, 4]), HALF)

    def test_all_control_errors(self):
        with pytest.raises(AssumptionError):
            difference_in_means(_obs("0000", [1, 2, 3, 4]))


class TestCVector:
    def test_midpoint_at_half(self):
        po = PotentialOutcomes(
            y0=np.array([1.0, 2.0, 3.0, 4.0]), y1=np.array([3.0, 4.0, 5.0, 6.0])
        )
        assert np.allclose(c_vector(po, HALF), [2.0, 3.0, 4.0, 5.0])

    def test_no_effect_collapses_to_y0(self):
        y = np.array([2.0, 7.0, 1.0])
        po = PotentialOutcomes(y0=y, y1=y.copy())
        pi = np.array([0.2, 0.5, 0.9])
        assert np.allclose(c_vector(po, pi), y)

    def test_single_unit_weighting(self):
        po = PotentialOutcomes(y0=np.array([0.0]), y1=np.array([1.0]))
        assert c_vector(po, np.array([0.25]))[0] == pytest.approx(0.75)


class TestNeymanVariance:
    def test_hand_value(self):
        est = neyman_variance(_obs("1100", [1, 2, 3, 4]))
        assert est.value == pytest.approx(0.5)
        assert est.estimator == "neyman"

    def test_constant_outcomes_give_zero(self):
        assert neyman_variance(_obs("1100", [3, 3, 3, 3])).value == pytest.approx(0.0)

    def test_single_unit_group_errors(self):
        with pytest.raises(AssumptionError):
            neyman_variance(_obs("1000", [1, 2, 3, 4]))

    def test_stated_group_size_mismatch(self):
        with pytest.raises(ValidationError):
            neyman_variance(_obs("1100", [1, 2, 3, 4]), n_t=3, n_c=1)


@settings(max_examples=50, deadline=None)
@given(
    y=st.lists(st.floats(-50, 50), min_size=4, max_size=4),
    bits=st.sampled_from(["1100", "1010", "1001", "0110", "0101", "0011"]),
)
def test_ht_equals_group_mean_difference_at_half(y, bits):
    obs = _obs(bits, y)
    arr = np.asarray(y)
    w = obs.w.to_array().astype(bool)
    expected = arr[w].mean() - arr[~w].mean()
    assert horvitz_thompson(obs, HALF) == pytest.approx(expected, abs=1e-9)


def _arm_variances(w: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.var(..., ddof=1) of each row's treated and control outcomes, row by row."""
    t = w.astype(bool)
    return (np.array([np.var(y[i][t[i]], ddof=1) for i in range(len(t))]),
            np.array([np.var(y[i][~t[i]], ddof=1) for i in range(len(t))]))


class TestGroupVariances:
    """_group_variances is np.var(ddof=1) of each realized arm, to the bit, in
    every layout it takes: one shared group size, equal halves, mixed sizes."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(4, 40),
        k=st.integers(1, 64),
        layout=st.sampled_from(["one-size", "halves", "mixed"]),
        scale_exp=st.floats(-3.0, 6.0),
        offset=st.floats(-1e6, 1e6),
        dtype=st.sampled_from([np.int8, float, bool]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_np_var_of_each_arm_to_the_bit(self, n, k, layout, scale_exp, offset,
                                                   dtype, seed):
        rng = np.random.default_rng(seed)
        if layout == "halves":
            n += n % 2
            sizes = np.full(k, n // 2)
        elif layout == "one-size":
            sizes = np.full(k, rng.integers(2, n - 1))
        else:
            sizes = rng.integers(2, n - 1, size=k)
        w = np.zeros((k, n), dtype=dtype)
        for i, m in enumerate(sizes):
            w[i, rng.permutation(n)[:m]] = 1
        y = offset + 10.0**scale_exp * rng.normal(size=(k, n))
        s2_t, s2_c, n_t = _group_variances(w, y)
        want_t, want_c = _arm_variances(w, y)
        assert s2_t.tobytes() == want_t.tobytes()
        assert s2_c.tobytes() == want_c.tobytes()
        assert n_t.tolist() == sizes.tolist()

    def test_a_whole_support_batch_equals_np_var_to_the_bit(self):
        w = support_matrix(build_crd(16, 8))  # 12,870 rows
        y = 1e6 + 1e3 * np.random.default_rng(3).normal(size=w.shape)
        s2_t, s2_c, _ = _group_variances(w, y)
        want_t, want_c = _arm_variances(w, y)
        assert s2_t.tobytes() == want_t.tobytes()
        assert s2_c.tobytes() == want_c.tobytes()

    def test_no_tables_give_empty_arrays(self):
        out = _group_variances(np.zeros((0, 6)), np.zeros((0, 6)))
        assert [x.shape for x in out] == [(0,), (0,), (0,)]

    @pytest.mark.parametrize(
        "rows, message, row",
        [
            (["11110000", "11000000", "10000000", "11111110"],
             "group variances need at least 2 units per group, got n_t=1, n_c=7", 2),
            (["11110000", "11111110", "10000000"],
             "group variances need at least 2 units per group, got n_t=7, n_c=1", 1),
            (["10000000", "01000000"],
             "group variances need at least 2 units per group, got n_t=1, n_c=7", 0),
            (["11111110"], "group variances need at least 2 units per group, got n_t=7, n_c=1", 0),
        ],
        ids=["mixed", "mixed-control", "one-size", "one-table"],
    )
    def test_a_group_of_one_is_refused_at_its_row(self, rows, message, row):
        w = np.array([[int(b) for b in r] for r in rows])
        with pytest.raises(AssumptionError) as exc:
            _group_variances(w, np.arange(w.size, dtype=float).reshape(w.shape))
        assert str(exc.value) == message
        assert exc.value.row == row
