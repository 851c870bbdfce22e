"""One pass per table: the imputation family kernel, the shared registry
kernel, the Monte Carlo branch of the family and the stacked summary.

The family kernel scores several effect guesses on the same revealed tables
and must give each guess's one-spec call to the bit, errors included. The
registry's one kernel must keep the old error order: the first listed
estimator that fails raises. Its Monte Carlo names share one draw and one
leave-one-out pass per call, drawn only after the effect guesses succeed.
The summary must give the per-group ``np.quantile``/``mean`` block of each
(scenario, estimator) to the bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from designvar import (
    AssignmentVector,
    AssumptionError,
    GammaSpec,
    ObservedData,
    OutcomeModel,
    ScenarioSpec,
    ValidationError,
    build_crd,
    build_explicit,
    build_rerandomized,
    gamma_vector,
    implicit_beta,
    impute_potential_outcomes,
    imputation_values,
    run_study,
    study_a_design,
    v_imputation,
    v_imputation_mc,
)
from designvar.core import EST_RTOL
from designvar.designs import ExplicitDesign, SampledDesign
from designvar.imputation import _imputation_family
from designvar.oracles import _kernel_values
from designvar.simulate import (
    BALANCE_THRESHOLD,
    SimRecord,
    _batch_kernel,
    _summarize,
    gen_covariates_hainmueller,
)

from conftest import random_table, support_matrix

DESIGNS = {
    "crossed-pairs": lambda: build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4),
    "weighted": lambda: build_explicit(
        ["1100", "0011", "1001", "0110", "1010"], [0.3, 0.1, 0.2, 0.15, 0.25]
    ),
    "crd-8-4": lambda: build_crd(8, 4),
    "crd-9-3": lambda: build_crd(9, 3),
    "study-a": lambda: study_a_design(seed=0)[0],
}


def _specs(n: int) -> list[GammaSpec]:
    return [
        GammaSpec.parse("theta-loo"),
        GammaSpec.fixed(0.0),
        GammaSpec.parse("tau-loo"),
        GammaSpec.fixed(np.linspace(-2.0, 3.0, n)),
        GammaSpec.parse("tau-hat"),
        GammaSpec.parse("theta-loo"),
    ]


def _revealed(d, seed: int = 3):
    po = random_table(np.random.default_rng(seed), d.n)
    u = support_matrix(d)
    return u, np.where(u == 1, po.y1, po.y0)


def _failure(call):
    with pytest.raises((AssumptionError, ValidationError)) as exc:
        call()
    return type(exc.value), str(exc.value), getattr(exc.value, "row", None)


class TestFamilyKernel:
    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_family_equals_one_spec_calls_to_the_bit(self, name):
        d = DESIGNS[name]()
        u, y = _revealed(d)
        specs = _specs(d.n)
        family = np.array(list(_imputation_family(d, specs)(u, y)))
        assert family.shape == (len(specs), len(u))
        for row, spec in zip(family, specs):
            assert np.array_equal(row, imputation_values(d, spec, u, y)), spec
        for r, (w, _) in enumerate(d.enumerate_support()):
            for row, spec in zip(family, specs):
                assert v_imputation(d, ObservedData(w, y[r]), spec).value == row[r]

    def test_a_leave_one_out_failure_carries_the_one_spec_row(self):
        d = DESIGNS["crossed-pairs"]()
        u = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
        y = np.arange(12.0).reshape(3, 4)
        specs = [GammaSpec.fixed(1.0), GammaSpec.parse("tau-hat"),
                 GammaSpec.parse("tau-loo"), GammaSpec.parse("theta-loo")]
        family = _imputation_family(d, specs)(u, y)
        for spec in specs[:2]:
            assert np.array_equal(next(family), imputation_values(d, spec, u, y))
        got = _failure(lambda: next(family))
        assert got == _failure(lambda: imputation_values(d, specs[2], u, y))
        assert got == _failure(lambda: imputation_values(d, specs[3], u, y))
        assert got[2] == 2 and "no treated units remain" in got[1]

    def test_an_infinite_guess_carries_the_one_spec_row(self):
        d = build_crd(4, 2)
        u = support_matrix(d)
        y = np.ones(u.shape)
        y[4] = 1e308                      # tau-hat overflows on row 4 only
        specs = [GammaSpec.fixed(0.0), GammaSpec.parse("tau-hat")]
        family = _imputation_family(d, specs)(u, y)
        with np.errstate(over="ignore", invalid="ignore"):
            next(family)
            got = _failure(lambda: next(family))
            assert got == _failure(lambda: imputation_values(d, specs[1], u, y))
        assert got == (ValidationError, "gamma must be finite", 4)

    def test_inputs_are_checked_before_the_first_value(self):
        d = build_crd(4, 2)
        u = support_matrix(d)
        family = _imputation_family(d, [GammaSpec.fixed(0.0)])(2.0 * u, u)
        with pytest.raises(ValidationError, match="0 or 1"):
            next(family)


class TestRegistryKernel:
    def _error(self, names, d):
        spec = ScenarioSpec("order", d, OutcomeModel.heterogeneous(),
                            estimators=tuple(names), n_replications=1)
        with pytest.raises((AssumptionError, ValidationError)) as exc:
            run_study(spec)
        return type(exc.value), str(exc.value)

    def test_first_listed_failure_wins(self):
        d = build_crd(4, 1)
        v_sub_error = self._error(["v_sub"], d)
        loo_error = self._error(["imputation:tau-loo"], d)
        assert v_sub_error != loo_error
        assert self._error(["imputation:fixed:0", "v_sub", "imputation:tau-loo"], d) == v_sub_error
        assert self._error(["imputation:tau-loo", "v_sub", "imputation:fixed:0"], d) == loo_error
        assert self._error(["imputation:fixed:0", "imputation:theta-loo", "neyman"], d) == (
            self._error(["imputation:theta-loo"], d)
        )
        assert self._error(["imputation:fixed:0", "neyman", "imputation:theta-loo"], d) == (
            self._error(["neyman"], d)
        )

    def test_one_kernel_scores_each_name_as_its_own_kernel(self):
        d = build_crd(8, 4)
        po = random_table(np.random.default_rng(11), 8)
        names = ["imputation:tau-hat", "v_am", "imputation:fixed:0", "neyman",
                 "imputation:theta-loo", "imputation:tau-loo", "imputation:tau-hat"]
        together = _kernel_values(d, po, _batch_kernel(names, d))
        for name, values in zip(names, together):
            alone = _kernel_values(d, po, _batch_kernel([name], d))[0]
            assert np.array_equal(values, alone), name

    def test_leave_one_out_pass_runs_once_per_call(self, monkeypatch):
        import designvar.imputation as imp

        calls = []
        real = imp._loo_rows
        monkeypatch.setattr(imp, "_loo_rows", lambda *a: calls.append(a[-1]) or real(*a))
        d = build_crd(6, 3)
        po = random_table(np.random.default_rng(2), 6)
        names = ["imputation:tau-loo", "imputation:fixed:0", "imputation:theta-loo"]
        _kernel_values(d, po, _batch_kernel(names, d))
        assert calls == [{"tau_loo", "theta_loo"}]


def _reference_mc(d, obs, spec, m, seed):
    """v_imputation_mc's steps for one table, written out with its own draws."""
    pi = d.propensities
    beta = implicit_beta(obs, pi, gamma_vector(spec, obs, d))
    table = impute_potential_outcomes(obs, beta)
    draws = np.asarray(d.sample_matrix(m, seed), dtype=float)
    tau_m = draws @ (table.y1 / pi) / d.n - (1.0 - draws) @ (table.y0 / (1.0 - pi)) / d.n
    dev = tau_m - tau_m.mean()
    total = float(dev @ dev)
    sq_dev = dev * dev - total / m
    se = math.sqrt(m * float(sq_dev @ sq_dev)) / ((m - 1) ** 0.5 * (m - 2))
    return total / (m - 1), se


def _count_draws(monkeypatch, cls) -> list[int]:
    """Record the size of every ``cls.sample_matrix`` call."""
    draws: list[int] = []
    real = cls.sample_matrix
    monkeypatch.setattr(
        cls, "sample_matrix", lambda self, m, seed=None: draws.append(m) or real(self, m, seed)
    )
    return draws


class TestMonteCarloBatch:
    def test_draws_once_and_matches_the_scalar_per_row(self, monkeypatch):
        d = build_crd(6, 3)
        u, y = _revealed(d, seed=8)
        spec = GammaSpec.parse("theta-loo")
        draws = _count_draws(monkeypatch, ExplicitDesign)
        values = next(_imputation_family(d, [spec], m=400, seed=5)(u, y))
        assert draws == [400]
        for r, bits in enumerate(u.astype(int).tolist()):
            obs = ObservedData(AssignmentVector.from_bits(bits), y[r])
            est = v_imputation_mc(d, obs, spec, m=400, seed=5)
            assert est.value == values[r]
            ref_value, ref_se = _reference_mc(d, obs, spec, 400, 5)
            assert est.value == pytest.approx(ref_value, rel=EST_RTOL)
            assert est.mc_se == pytest.approx(ref_se, rel=EST_RTOL)

    def test_registry_kernel_draws_once(self, monkeypatch):
        import designvar.imputation as imp

        d = build_crd(6, 3)
        po = random_table(np.random.default_rng(4), 6)
        draws = _count_draws(monkeypatch, ExplicitDesign)
        passes = []
        real = imp._loo_rows
        monkeypatch.setattr(imp, "_loo_rows", lambda *a: passes.append(a[-1]) or real(*a))
        names = ["imputation:tau-loo", "imputation:theta-loo", "imputation:tau-hat"]
        kernel = _batch_kernel(names, d, mc_draws=300, seed=1)
        for call in (1, 2):
            got = _kernel_values(d, po, kernel)
            assert [v.shape for v in got] == [(d.support_size,)] * 3
            assert draws == [300]  # once in the kernel's life
            assert passes == [{"tau_loo", "theta_loo"}] * call
        for name, values in zip(names, got):
            alone = _kernel_values(d, po, _batch_kernel([name], d, mc_draws=300, seed=1))[0]
            assert np.array_equal(values, alone), name

    def test_refused_guess_costs_no_draws(self, monkeypatch):
        x = gen_covariates_hainmueller(50, 0)
        d = build_rerandomized(build_crd(50, 25), x, BALANCE_THRESHOLD)
        draws = _count_draws(monkeypatch, SampledDesign)
        w = np.tile(np.arange(50) % 2, (2, 1))
        spec = GammaSpec.parse("theta-loo")
        obs = ObservedData(AssignmentVector.from_bits(w[0].tolist()), np.ones(50))
        with pytest.raises(AssumptionError, match="exact pairwise assignment probabilities"):
            v_imputation_mc(d, obs, spec, m=100_000, seed=0)
        kernel = _batch_kernel(["imputation:theta-loo", "imputation:tau-hat"], d,
                               mc_draws=100_000, seed=0)
        with pytest.raises(AssumptionError, match="exact pairwise assignment probabilities"):
            kernel(w, np.ones(w.shape))
        assert draws == []

    @pytest.mark.parametrize("rule", ["tau-hat", "fixed:0", "theta-loo"])
    def test_runs_on_a_sampled_crd_and_repeats(self, rule):
        d = build_crd(30, 15)
        assert isinstance(d, SampledDesign)
        rng = np.random.default_rng(30)
        po = random_table(rng, 30)
        w = d.sample_assignment(rng)
        obs = ObservedData(w, np.where(w.to_array() == 1, po.y1, po.y0))
        spec = GammaSpec.parse(rule)
        est = v_imputation_mc(d, obs, spec, m=2_000, seed=7)
        assert est == v_imputation_mc(d, obs, spec, m=2_000, seed=7)
        assert not est.exact and est.mc_draws == 2_000
        ref_value, ref_se = _reference_mc(d, obs, spec, 2_000, 7)
        assert est.value == pytest.approx(ref_value, rel=EST_RTOL)
        assert est.mc_se == pytest.approx(ref_se, rel=EST_RTOL)

    def test_failing_row_is_named(self):
        d = build_crd(4, 1)
        u = support_matrix(d)
        with pytest.raises(AssumptionError) as exc:
            next(_imputation_family(d, [GammaSpec.parse("tau-loo")], 50, 0)(u, np.ones(u.shape)))
        assert exc.value.row == 0
        with pytest.raises(ValidationError, match="at least 2 draws"):
            next(_imputation_family(d, [GammaSpec.parse("tau-hat")], 1, 0)(u, np.ones(u.shape)))


def _reference_block(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=float)
    qs = np.quantile(arr, [0.0, 0.25, 0.5, 0.75, 1.0])
    return {
        "mean": float(arr.mean()),
        "min": float(qs[0]),
        "q25": float(qs[1]),
        "median": float(qs[2]),
        "q75": float(qs[3]),
        "max": float(qs[4]),
        "count": int(arr.size),
    }


class TestSummarize:
    def test_stacked_summary_equals_per_group_quantiles(self):
        rng = np.random.default_rng(17)
        # (scenario, replications); scenario "c" lost replication 40 to a
        # zero true variance, so its count differs from "b"'s
        layout = [("a", range(1)), ("b", range(129)),
                  ("c", [r for r in range(129) if r != 40]), ("d", range(9)),
                  ("e", range(300)), ("f", range(129))]
        estimators = ["imputation:tau-hat", "v_am", "imputation:theta-loo"]
        records = []
        for scenario, reps in layout:
            for rep in reps:
                for est in estimators:
                    scale = 10.0 ** rng.integers(-3, 4)
                    records.append(SimRecord(
                        scenario=scenario, model="m", replication=rep, estimator=est,
                        relative_bias=float(scale * rng.standard_cauchy()),
                        sd=float(scale * rng.lognormal()),
                    ))
        summary = _summarize(records, excluded=1)
        assert summary["excluded_zero_variance"] == 1
        assert list(summary["scenarios"]) == [s for s, _ in layout]
        counts = set()
        for scenario, reps in layout:
            cells = summary["scenarios"][scenario]
            assert list(cells) == estimators
            for est in estimators:
                mine = [r for r in records if (r.scenario, r.estimator) == (scenario, est)]
                for metric in ("relative_bias", "sd"):
                    ref = _reference_block([getattr(r, metric) for r in mine])
                    assert cells[est][metric] == ref, (scenario, est, metric)
                    counts.add(ref["count"])
        assert counts == {1, 9, 128, 129, 300}

    def test_empty(self):
        assert _summarize([], 3) == {"scenarios": {}, "excluded_zero_variance": 3}
