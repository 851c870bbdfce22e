"""Design construction, probability queries, and assumption checks."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designvar import (
    AssignmentVector,
    AssumptionError,
    ValidationError,
    asmd,
    build_crd,
    build_explicit,
    build_matched_pair,
    build_rerandomized,
    check_assumptions,
    gen_covariates_hainmueller,
    max_asmd,
    run_study_b,
    substitution_mode,
    validate_q,
)
import designvar.designs
from designvar.core import PROB_TOL
from designvar.designs import ExplicitDesign, SampledDesign, _max_asmd_rows, _MaxAsmdScreen
from designvar.estimators import check_propensities


class TestBuildCrd:
    def test_crd_4_2_support_and_propensities(self):
        d = build_crd(4, 2)
        assert d.support_size == 6
        assert np.allclose(d.probs, 1.0 / 6.0)
        assert np.allclose(d.propensities, 0.5)

    def test_crd_4_2_pairwise_both_treated(self):
        d = build_crd(4, 2)
        assert d.pairwise_prob(0, 1, 1, 1) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_crd_6_4_propensity_and_support_size(self):
        d = build_crd(6, 4)
        assert np.allclose(d.propensities, 2.0 / 3.0)
        assert d.support_size == 15
        assert d.pairwise_prob(0, 1, 1, 1) == pytest.approx(0.4, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_equal_group_crd_pairwise_closed_form(self, n):
        explicit, sampled = build_crd(n, n // 2), build_crd(n, n // 2, cap=1)
        assert isinstance(sampled, SampledDesign)
        expected = (n - 2) / (4.0 * (n - 1))
        for d in (explicit, sampled):
            for j in range(1, n):
                assert d.pairwise_prob(0, j, 1, 1) == pytest.approx(expected, rel=1e-12)

    def test_invalid_group_sizes(self):
        with pytest.raises(ValidationError):
            build_crd(4, 0)
        with pytest.raises(ValidationError):
            build_crd(4, 4)

    def test_cap_exceeded_without_sampler(self):
        with pytest.raises(AssumptionError, match="support too large"):
            build_crd(40, 20, cap=1000, allow_sampler=False)


class TestBuildMatchedPair:
    def test_two_pairs_gives_crossed_support(self):
        d = build_matched_pair([(0, 2), (1, 3)])
        support = sorted(w.to_string() for w, _ in d.enumerate_support())
        assert support == ["0011", "0110", "1001", "1100"]
        assert np.allclose(d.probs, 0.25)
        assert np.allclose(d.propensities, 0.5)

    def test_single_pair(self):
        d = build_matched_pair([(0, 1)])
        support = sorted(w.to_string() for w, _ in d.enumerate_support())
        assert support == ["01", "10"]
        assert np.allclose(d.probs, 0.5)

    def test_four_pairs_closed_under_label_switch(self):
        d = build_matched_pair([(0, 1), (2, 3), (4, 5), (6, 7)])
        assert d.support_size == 16
        report = check_assumptions(d)
        assert report.closed_under_label_switching is True

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValidationError):
            build_matched_pair([(0, 1), (1, 2)])

    def test_incomplete_pairs_rejected(self):
        with pytest.raises(ValidationError):
            build_matched_pair([(0, 1), (2, 4)])


class TestBuildExplicit:
    def test_crossed_pairs_propensities_and_dead_cell(self, crossed_pairs):
        assert np.allclose(crossed_pairs.propensities, 0.5)
        assert crossed_pairs.pairwise_prob(0, 2, 1, 1) == 0.0

    def test_two_vector_design_not_measurable(self):
        d = build_explicit(["11", "00"], [0.5, 0.5])
        report = check_assumptions(d)
        assert report.positivity is True
        assert report.measurable is False

    def test_weighted_crossed_pairs_valid(self, weighted_crossed_pairs):
        assert np.allclose(weighted_crossed_pairs.propensities, 0.5)
        assert math.isclose(sum(weighted_crossed_pairs.probs), 1.0, abs_tol=1e-12)

    def test_probability_sum_violation(self):
        with pytest.raises(ValidationError, match="sum"):
            build_explicit(["10", "01"], [0.5, 0.4])

    def test_duplicate_vectors_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            build_explicit(["10", "10"], [0.5, 0.5])

    def test_ragged_lengths_rejected(self):
        with pytest.raises(ValidationError, match="length"):
            build_explicit(["10", "011"], [0.5, 0.5])

    @pytest.mark.parametrize("n", [13, 70])
    def test_matrix_matches_bits(self, n):
        # n = 70 packs each mask into more than 64 bits
        rng = np.random.default_rng(n)
        masks = {0, (1 << n) - 1} | {
            int.from_bytes(rng.bytes(9), "big") % (1 << n) for _ in range(40)
        }
        vectors = [AssignmentVector(n, m) for m in masks]
        d = build_explicit(vectors, [1.0 / len(vectors)] * len(vectors))
        expected = np.array([w.bits for w in d.support], dtype=float)
        blocks = [u for u, _ in d._blocks()]
        assert all(u.dtype == expected.dtype for u in blocks)
        assert np.array_equal(np.concatenate(blocks), expected)

    def test_nonpositive_probability_rejected(self):
        with pytest.raises(ValidationError):
            build_explicit(["10", "01"], [1.0, 0.0])


class TestBuildRerandomized:
    def test_infinite_threshold_is_identity(self, crd42):
        x = np.arange(4, dtype=float).reshape(4, 1)
        d = build_rerandomized(crd42, x, math.inf)
        assert d.support_size == crd42.support_size
        assert [w.mask for w, _ in d.enumerate_support()] == [
            w.mask for w, _ in crd42.enumerate_support()
        ]
        assert np.allclose(d.probs, crd42.probs)

    def test_filtered_probabilities_renormalize(self):
        base = build_crd(6, 3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 2))
        d = build_rerandomized(base, x, 0.8)
        assert 0 < d.support_size < base.support_size
        assert math.isclose(sum(d.probs), 1.0, abs_tol=1e-12)
        for w, _ in d.enumerate_support():
            assert max_asmd(x, w) < 0.8

    def test_infeasible_threshold_errors(self):
        base = build_crd(4, 2)
        x = np.array([1.0, 2.0, 4.0, 8.0]).reshape(4, 1)
        with pytest.raises(ValidationError, match="infeasible threshold"):
            build_rerandomized(base, x, 1e-12)

    def test_extreme_covariate_kills_a_pairwise_cell(self):
        # Two units far from the rest cannot both be treated under a tight
        # balance threshold, so the filtered design loses that cell.
        rng = np.random.default_rng(0)
        x = rng.normal(size=12)
        x[:2] += 10.0
        base = build_crd(12, 6)
        d = build_rerandomized(base, x.reshape(-1, 1), 0.2)
        assert d.pairwise_prob(0, 1, 1, 1) == 0.0


class TestProbabilityQueries:
    def test_pairwise_cells_sum_to_one(self, crossed_pairs):
        total = sum(crossed_pairs.pairwise_prob(0, 2, a, b) for a in (0, 1) for b in (0, 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pairwise_marginalizes_to_propensity(self):
        d = build_crd(6, 4)
        for i in range(d.n):
            for j in range(d.n):
                if i == j:
                    continue
                total = d.pairwise_prob(i, j, 1, 0) + d.pairwise_prob(i, j, 1, 1)
                assert total == pytest.approx(d.propensity(i), abs=1e-12)

    def test_out_of_range_index(self, crd42):
        with pytest.raises(ValidationError):
            crd42.propensity(7)
        with pytest.raises(ValidationError):
            crd42.pairwise_prob(0, 0, 1, 1)

    def test_sampled_crd_queries_match_explicit(self):
        explicit, sampled = build_crd(8, 4), build_crd(8, 4, cap=1)
        assert isinstance(sampled, SampledDesign)
        for i in range(8):
            for j in range(8):
                if i == j:
                    continue
                for a in (0, 1):
                    for b in (0, 1):
                        got = sampled.pairwise_prob(i, j, a, b)
                        assert abs(got - explicit.pairwise_prob(i, j, a, b)) <= PROB_TOL
            for wi in (0, 1):
                got = sampled.conditional_propensities(i, wi)
                want = explicit.conditional_propensities(i, wi)
                assert np.isnan(got[i]) and np.isnan(want[i])
                assert np.allclose(np.delete(got, i), np.delete(want, i), rtol=0, atol=PROB_TOL)
        for d in (explicit, sampled):
            with pytest.raises(ValidationError, match="cell indicators"):
                d.pairwise_prob(0, 1, 2, 0)
            with pytest.raises(ValidationError, match="conditioning state"):
                d.conditional_propensities(0, 2)

    def test_sampled_design_without_closed_form_refuses_without_drawing(self, monkeypatch):
        d = build_rerandomized(build_crd(50, 25), gen_covariates_hainmueller(50, 0), 0.2)
        assert isinstance(d, SampledDesign)

        def no_draws(self, m, seed):
            raise AssertionError("a probability query drew from the sampler")

        monkeypatch.setattr(SampledDesign, "sample_matrix", no_draws)
        for query in (lambda: d.pairwise_prob(0, 1, 1, 1), d.pairwise_cells):
            with pytest.raises(AssumptionError, match="needs exact pairwise assignment"):
                query()

    def test_enumerate_support_lexicographic(self, crd42):
        strings = [w.to_string() for w, _ in crd42.enumerate_support()]
        assert len(strings) == 6
        assert strings == sorted(strings)

    def test_conditional_propensities_crd(self, crd42):
        cond = crd42.conditional_propensities(0, 1)
        assert math.isnan(cond[0])
        assert np.allclose(cond[1:], 1.0 / 3.0)
        cond0 = crd42.conditional_propensities(0, 0)
        assert np.allclose(cond0[1:], 2.0 / 3.0)

    def test_conditional_propensities_degenerate_cases(self):
        d = build_explicit(["11", "00"], [0.5, 0.5])
        # W_0=1 forces W_1=1: the conditional is degenerate but well defined.
        assert d.conditional_propensities(0, 1)[1] == pytest.approx(1.0)
        # Conditioning on an impossible event is an error.
        one_sided = build_explicit(["10", "11"], [0.5, 0.5])
        with pytest.raises(AssumptionError, match="probability 0"):
            one_sided.conditional_propensities(0, 0)


class TestSampling:
    def test_toy_frequencies_match_probabilities(self, crossed_pairs):
        m = 100_000
        draws = crossed_pairs.sample_matrix(m, seed=11)
        masks = draws @ (1 << np.arange(3, -1, -1))
        counts = {w.mask: 0 for w, _ in crossed_pairs.enumerate_support()}
        for v in masks:
            counts[int(v)] += 1
        sigma = math.sqrt(0.25 * 0.75 / m)
        for c in counts.values():
            assert abs(c / m - 0.25) < 3.0 * sigma + 1e-9

    def test_single_vector_design_always_samples_it(self):
        d = build_explicit(["101"], [1.0])
        for seed in range(5):
            assert d.sample_assignment(seed).to_string() == "101"

    def test_crd_draws_respect_group_size(self):
        d = build_crd(6, 3)
        draws = d.sample_matrix(200, seed=5)
        assert draws.shape == (200, 6)
        assert np.all(draws.sum(axis=1) == 3)

    def test_sampling_is_deterministic(self, crd42):
        a = crd42.sample_matrix(50, seed=9)
        b = crd42.sample_matrix(50, seed=9)
        assert np.array_equal(a, b)


def _choice_rows(rng: np.random.Generator, n: int, k: int, m: int) -> np.ndarray:
    """The per-row reference: m calls of ``rng.choice(n, k, replace=False)``."""
    out = np.zeros((m, n), dtype=np.int8)
    for r in range(m):
        out[r, rng.choice(n, size=k, replace=False)] = 1
    return out


class TestCrdSamplerParity:
    """The batched CRD sampler makes the draws of one ``Generator.choice`` per row."""

    @staticmethod
    def _check(n: int, k: int, m: int, seed: int) -> None:
        d = build_crd(n, k, cap=0)  # sampler-backed at any size
        assert isinstance(d, SampledDesign)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = d.sample_matrix(m, rng)
        assert got.dtype == np.int8 and got.shape == (m, n)
        assert got.tobytes() == _choice_rows(ref, n, k, m).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    # Floyd's algorithm and its shuffle: n <= 10000
    @pytest.mark.parametrize("n,k", [(50, 25), (50, 10), (7, 3), (2, 1)])
    @pytest.mark.parametrize("m", [0, 1, 8, 1024])
    def test_floyd_branch(self, n, k, m):
        for seed in (0, 1):
            self._check(n, k, m, seed)

    # the tail shuffle: n > 10000 and k > n // 50; 30 rows span three row blocks
    @pytest.mark.parametrize("n,k", [(10001, 300), (12000, 6000)])
    @pytest.mark.parametrize("m", [0, 1, 30])
    def test_tail_shuffle_branch(self, n, k, m):
        self._check(n, k, m, 3)

    def test_branch_boundary(self):
        # k = n // 50 still runs Floyd's algorithm; one more pick switches to the tail
        for k in (400, 401):
            self._check(20000, k, 2, 5)


class TestCheckAssumptions:
    def test_crossed_pairs_report(self, crossed_pairs):
        report = check_assumptions(crossed_pairs)
        assert report.positivity is True
        assert report.equal_size_constant_propensity is True
        assert report.closed_under_label_switching is True
        assert report.substitution is True
        assert report.measurable is False

    def test_crd_12_6_report(self):
        report = check_assumptions(build_crd(12, 6))
        assert report.positivity is True
        assert report.equal_size_constant_propensity is True
        assert report.epsem is True
        assert report.closed_under_label_switching is True
        assert report.substitution is True
        assert report.measurable is True

    def test_crd_6_3_substitution_fails(self):
        report = check_assumptions(build_crd(6, 3))
        assert report.substitution is False
        assert report.equal_size_constant_propensity is True

    def test_crd_6_4_fixed_total_weight(self):
        report = check_assumptions(build_crd(6, 4))
        assert report.fixed_total_weight is True
        assert report.equal_size_constant_propensity is False
        assert report.epsem is True

    def test_crd_22_11_propensities_do_not_drift(self):
        # 705,432 rows: a float dot of the row probabilities spread the
        # propensities by about 3e-12, past PROB_TOL, and failed EPSEM; sums
        # of whole-number weights give exactly one half.
        d = build_crd(22, 11)
        report = check_assumptions(d)
        assert d.propensities.tolist() == [0.5] * 22
        assert report.epsem is True
        assert report.equal_size_constant_propensity is True
        assert report.substitution is False
        assert "not an integer" in report.details["substitution"]

    def test_matched_pairs_memory_is_bounded(self):
        # 4,096 rows: an S x S substitute matrix alone would take 16 MB or more
        d = build_matched_pair([(i, i + 12) for i in range(12)])
        tracemalloc.start()
        try:
            report = check_assumptions(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.substitution is True
        assert peak < 16 * 2**20

    def test_messages_print_plain_floats(self):
        always_treated = build_explicit(["10", "11"], [0.5, 0.5])
        messages = list(check_assumptions(always_treated).details.values())
        with pytest.raises(AssumptionError) as exc:
            check_propensities(np.array([0.5, 1.0]), 2)
        messages.append(str(exc.value))
        with pytest.raises(AssumptionError) as exc:
            substitution_mode(build_explicit(["10", "01", "11"], [0.5, 0.25, 0.25]))
        messages.append(str(exc.value))
        messages += validate_q(np.array([[1.0, 2.0], [0.0, 1.0]])).details.values()
        assert "unit 0 has propensity 1.0" in messages
        assert not [m for m in messages if "np.float64" in m]

    def test_to_dict_round_trip(self, crossed_pairs):
        payload = check_assumptions(crossed_pairs).to_dict()
        assert payload["flags"]["measurable"] is False
        assert "details" in payload


class TestAsmd:
    def test_hand_value(self):
        w = AssignmentVector.from_string("1010")
        assert asmd([1.0, 2.0, 3.0, 4.0], w) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_equal_group_means_give_zero(self):
        w = AssignmentVector.from_string("1010")
        assert asmd([1.0, 1.0, 2.0, 2.0], w) == pytest.approx(0.0, abs=1e-12)

    def test_zero_pooled_variance_errors(self):
        w = AssignmentVector.from_string("1010")
        with pytest.raises(ValidationError, match="zero pooled variance"):
            asmd([3.0, 3.0, 3.0, 3.0], w)

    def test_max_asmd_is_columnwise_max(self):
        w = AssignmentVector.from_string("1010")
        x = np.column_stack([[1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 2.0, 2.0]])
        assert max_asmd(x, w) == pytest.approx(1.0 / math.sqrt(2.0))


def _reference_max_asmd(x, row):
    """The balance criterion of one row, written out column by column."""
    bits = np.asarray(row).astype(bool)
    scores = []
    for c in range(x.shape[1]):
        xt, xc = x[bits, c], x[~bits, c]
        scale = math.sqrt((np.var(xt, ddof=1) + np.var(xc, ddof=1)) / 2.0)
        scores.append(abs(float(np.mean(xt) - np.mean(xc))) / scale)
    return max(scores)


def _random_rows(rng, k, n, sizes):
    w = np.zeros((k, n), dtype=np.int8)
    for r in range(k):
        w[r, rng.choice(n, size=int(rng.choice(sizes)), replace=False)] = 1
    return w


class TestBalanceKernel:
    @pytest.mark.parametrize(
        "n, p, sizes",
        [(50, 6, [25]), (9, 2, [3]), (12, 3, [2, 5, 6, 7, 10])],
        ids=["crd-50-25-hainmueller", "crd-9-3", "mixed-sizes"],
    )
    def test_rows_equal_per_row_reference_to_the_bit(self, n, p, sizes):
        rng = np.random.default_rng(n)
        x = gen_covariates_hainmueller(n, 0) if p == 6 else rng.normal(size=(n, p))
        w = _random_rows(rng, 400, n, sizes)
        got = [v.hex() for v in _max_asmd_rows(x, w).tolist()]
        assert got == [_reference_max_asmd(x, row).hex() for row in w]

    def test_score_at_the_threshold_is_rejected(self):
        base = build_crd(4, 2)
        x = np.array([1.0, 2.0, 4.0, 8.0])
        w = AssignmentVector.from_string("1100")
        d = build_rerandomized(base, x, max_asmd(x, w))
        assert w not in d
        assert 0 < d.support_size < base.support_size
        assert all(max_asmd(x, v) < max_asmd(x, w) for v in d.support)

    @pytest.mark.parametrize(
        "rows, message",
        [(["1010", "1100", "1000"], "zero pooled variance"),
         (["1010", "1000", "1100"], "at least two units per group")],
        ids=["zero-variance-first", "small-group-first"],
    )
    def test_first_failing_row_gives_the_scalar_message(self, rows, message):
        x = np.array([3.0, 3.0, 5.0, 5.0])
        w = np.array([[int(b) for b in r] for r in rows])
        with pytest.raises(ValidationError, match=message) as exc:
            _max_asmd_rows(x[:, None], w)
        assert exc.value.row == 1
        with pytest.raises(ValidationError, match=message):
            max_asmd(x, AssignmentVector.from_string(rows[1]))

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_sampled_draws_equal_per_row_reference(self, s):
        # the reference draws at most the rows still missing, so it scores
        # every row it draws; the sampler's batch sizes must not matter
        x = gen_covariates_hainmueller(50, s)
        base = build_crd(50, 25)
        d = build_rerandomized(base, x, 0.2)
        for m in (1, 8, 200):
            got = d.sample_matrix(m, np.random.default_rng((s, 104729)))
            rng = np.random.default_rng((s, 104729))
            accepted = []
            while len(accepted) < m:
                for row in base.sample_matrix(min(m - len(accepted), 1024), rng):
                    if _reference_max_asmd(x, row) < 0.2:
                        accepted.append(row)
            assert got.tobytes() == np.array(accepted, dtype=np.int8).tobytes(), m


class TestBalanceScreen:
    """The max-ASMD screen decides every row, and refuses every row, as the exact kernel."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_decisions_equal_the_exact_kernel(self, seed):
        x = gen_covariates_hainmueller(50, seed)
        w = build_crd(50, 25).sample_matrix(20_480, np.random.default_rng(seed))
        exact = _max_asmd_rows(x, w)
        got = _MaxAsmdScreen(x, 0.2)(w)
        assert np.array_equal(got < 0.2, exact < 0.2)
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("offset", [1e4, 1e8])
    def test_decisions_hold_on_a_covariate_far_from_zero(self, offset):
        # the exact kernel's uncentered means round at the offset's scale: at 1e4
        # the screen still scores, at 1e8 its floor leaves whole batches to the kernel
        x = gen_covariates_hainmueller(50, 0)
        x[:, 0] += offset
        w = build_crd(50, 25).sample_matrix(8192, np.random.default_rng(1))
        exact = _max_asmd_rows(x, w)
        assert np.array_equal(_MaxAsmdScreen(x, 0.2)(w) < 0.2, exact < 0.2)

    def test_threshold_at_a_row_score_decides_as_the_exact_kernel(self):
        x = gen_covariates_hainmueller(50, 0)
        w = build_crd(50, 25).sample_matrix(2048, np.random.default_rng(0))
        exact = _max_asmd_rows(x, w)
        raw = _MaxAsmdScreen(x, -1.0)(w)  # no score lies near -1: no row is rescored
        r = int(np.argmax(raw != exact))
        assert raw[r] != exact[r]  # a row whose screened score rounds differently
        for threshold in (np.nextafter(exact[r], -np.inf), exact[r], np.nextafter(exact[r], np.inf)):
            got = _MaxAsmdScreen(x, threshold)(w)
            assert np.array_equal(got < threshold, exact < threshold), threshold

    @pytest.mark.parametrize(
        "case, row",
        [("one-unit-group", 3), ("constant-within-groups", 3), ("constant-column", 0)],
    )
    def test_degenerate_rows_refuse_as_the_exact_kernel(self, case, row):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(12, 2))
        w = build_crd(12, 6).sample_matrix(8, rng)
        if case == "one-unit-group":
            w[3] = 0
            w[3, 5] = 1
        elif case == "constant-within-groups":
            x = np.column_stack([x, w[3]])  # 1 on row 3's treated units, 0 on its controls
        else:
            x = np.column_stack([x, np.full(12, 2.5)])
        with pytest.raises(ValidationError) as want:
            _max_asmd_rows(x, w)
        with pytest.raises(ValidationError) as got:
            _MaxAsmdScreen(x, 0.2)(w)
        assert want.value.row == row
        assert (str(got.value), got.value.row) == (str(want.value), want.value.row)

    @pytest.mark.parametrize("block", [None, 40])
    def test_explicit_filter_refusal_names_its_support_row(self, monkeypatch, block):
        # at 40 entries, 8 units and 2 covariates, the base is scored 2 rows at a time
        if block is not None:
            monkeypatch.setattr(designvar.designs, "ROW_BLOCK", block)
        rows = [w.to_string() for w in build_crd(8, 4).support + build_crd(8, 7).support]
        base = build_explicit(rows, [1.0 / len(rows)] * len(rows))
        x = np.random.default_rng(7).normal(size=(8, 2))
        with pytest.raises(ValidationError) as exc:
            build_rerandomized(base, x, 0.5)
        assert str(exc.value) == "asmd needs at least two units per group"
        assert exc.value.row == base.index_of(AssignmentVector.from_string("01111111")) == 35

    def test_explicit_filter_equals_exact_kernel_filter(self):
        base = build_crd(12, 6)
        x = np.random.default_rng(6).normal(size=(12, 3))
        rows = np.unpackbits(base._packed, axis=1, count=12)
        exact = _max_asmd_rows(x, rows)
        raw = _MaxAsmdScreen(x, -1.0)(rows)
        r = int(np.argmax(raw != exact))
        thresholds = [float(np.median(exact)), exact[r], np.nextafter(exact[r], np.inf)]
        for threshold in thresholds:
            keep = exact < threshold
            d = build_rerandomized(base, x, threshold)
            want = ExplicitDesign(rows[keep], base._weights[keep])
            assert d._packed.tobytes() == want._packed.tobytes(), threshold
            assert d.probs.tobytes() == want.probs.tobytes(), threshold


def _spy_base_draws(monkeypatch) -> list[int]:
    """Record the size of every draw from a CRD sampler-backed design."""
    sizes: list[int] = []
    real = SampledDesign.sample_matrix

    def spy(self, m, seed=None):
        if self.kind == "crd":
            sizes.append(m)
        return real(self, m, seed)

    monkeypatch.setattr(SampledDesign, "sample_matrix", spy)
    return sizes


class TestAcceptRejectBatches:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_study_b_call_takes_few_base_draws(self, seed, monkeypatch):
        # one row per batch of at most the missing rows took 31-58 base draws here
        sizes = _spy_base_draws(monkeypatch)
        run_study_b(seed=seed, n_replications=1, n_inner_draws=8, n_outer=6)
        assert 1 <= len(sizes) <= 4
        assert sizes[0] == 8

    @pytest.mark.parametrize("budget", [100, 1000])
    def test_budget_bounds_the_rows_drawn(self, budget, monkeypatch):
        d = build_rerandomized(build_crd(50, 25), gen_covariates_hainmueller(50, 0), 0.2,
                               retry_budget=budget)
        sizes = _spy_base_draws(monkeypatch)
        with pytest.raises(AssumptionError, match=(
            rf"^accept-reject budget {budget} exhausted; acceptance rate so far about "
            r"\d\.\d\de[-+]\d\d$"
        )):
            d.sample_matrix(200, np.random.default_rng(0))
        assert sum(sizes) == budget
        assert max(sizes) <= 1024


class TestNonFiniteCovariates:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("swap", [False, True], ids=["as-drawn", "columns-swapped"])
    def test_explicit_base_rejects_either_column_order(self, bad, swap):
        x = np.random.default_rng(3).normal(size=(6, 2))
        x[2, 1] = bad
        if swap:
            x = x[:, ::-1]
        with pytest.raises(ValidationError, match="must be finite"):
            build_rerandomized(build_crd(6, 3), x, 0.5)

    def test_sampled_base_and_scalar_criterion_reject(self):
        x = gen_covariates_hainmueller(50, 0)
        x[7, 0] = math.nan
        with pytest.raises(ValidationError, match="must be finite"):
            build_rerandomized(build_crd(50, 25), x, 0.2)
        w = AssignmentVector.from_string("1010")
        with pytest.raises(ValidationError, match="must be finite"):
            max_asmd(np.array([[1.0, 2.0], [math.inf, 0.0], [3.0, 1.0], [0.5, 4.0]]), w)
        with pytest.raises(ValidationError, match="must be finite"):
            asmd([1.0, math.nan, 3.0, 4.0], w)


class TestCriterionCallable:
    def test_explicit_support_equals_builtin(self):
        x = np.random.default_rng(3).normal(size=(8, 2))
        seen = []

        def criterion(cov, w):
            seen.append(w)
            assert cov.shape == (8, 2)
            return max_asmd(cov, w)

        builtin = build_rerandomized(build_crd(8, 4), x, 0.5)
        custom = build_rerandomized(build_crd(8, 4), x, 0.5, criterion=criterion)
        assert seen == list(build_crd(8, 4).support)  # one vector per row, in order
        assert custom._packed.tobytes() == builtin._packed.tobytes()
        assert custom.probs.tobytes() == builtin.probs.tobytes()

    def test_seeded_sampled_draws_equal_builtin(self):
        x = gen_covariates_hainmueller(50, 1)
        draws = [
            build_rerandomized(build_crd(50, 25), x, 0.2, criterion=c)
            .sample_matrix(40, np.random.default_rng((1, 104729)))
            for c in ("max-asmd", max_asmd)
        ]
        assert np.array_equal(draws[0], draws[1])

    def test_sampled_callable_has_no_analytic_propensities(self):
        x = gen_covariates_hainmueller(50, 0)
        builtin = build_rerandomized(build_crd(50, 25), x, 0.2)
        custom = build_rerandomized(build_crd(50, 25), x, 0.2, criterion=max_asmd)
        assert np.array_equal(builtin.propensities, np.full(50, 0.5))
        with pytest.raises(AssumptionError, match="no analytic propensities"):
            custom.propensities


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_random_explicit_designs_are_internally_consistent(n, seed):
    """Probabilities sum to 1 and marginals agree with the pairwise table."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 6))
    masks = rng.choice(2**n, size=size, replace=False)
    support = [AssignmentVector(n, int(m)) for m in masks]
    raw = rng.uniform(0.5, 2.0, size)
    d = build_explicit(support, raw / raw.sum())
    assert math.isclose(sum(d.probs), 1.0, abs_tol=1e-12)
    for j in range(1, n):
        total = d.pairwise_prob(0, j, 1, 0) + d.pairwise_prob(0, j, 1, 1)
        assert total == pytest.approx(d.propensity(0), abs=1e-12)
