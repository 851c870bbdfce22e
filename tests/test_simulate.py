"""Simulation harness: data generators, study drivers, file outputs."""

from __future__ import annotations

import json
import math
import os
from functools import partial

import numpy as np
import pytest

import designvar as dv
from designvar import (
    OutcomeModel,
    PotentialOutcomes,
    ScenarioSpec,
    SimResult,
    ValidationError,
    build_crd,
    build_explicit,
    emit_outputs,
    gen_covariate_study_a,
    gen_covariates_hainmueller,
    gen_outcomes,
    psi,
    run_appendix_c,
    run_study,
    run_study_b,
    study_a_design,
    study_models,
)
from designvar.core import EST_RTOL
from designvar.decomposition import _v_am_values
from designvar.simulate import _empirical_design, _indented_json, resolve_estimator

from conftest import random_table, support_matrix


class TestHainmuellerCovariates:
    def test_normal_block_covariance(self):
        x = gen_covariates_hainmueller(100_000, seed=0)
        target = np.array([[2.0, 1.0, -1.0], [1.0, 1.0, -0.5], [-1.0, -0.5, 1.0]])
        sample = np.cov(x[:, :3], rowvar=False)
        assert np.max(np.abs(sample - target)) < 0.05

    def test_marginal_shapes(self):
        x = gen_covariates_hainmueller(100_000, seed=1)
        assert x.shape == (100_000, 6)
        assert np.all(x[:, 3] >= -3.0) and np.all(x[:, 3] <= 3.0)
        assert np.all(x[:, 4] >= 0.0)  # chi-squared support
        assert set(np.unique(x[:, 5])) <= {0.0, 1.0}
        assert abs(x[:, 5].mean() - 0.5) < 0.005

    def test_deterministic(self):
        assert np.array_equal(
            gen_covariates_hainmueller(50, seed=2), gen_covariates_hainmueller(50, seed=2)
        )


class TestStudyACovariate:
    def test_shifted_units_mean(self):
        firsts = np.array([gen_covariate_study_a(seed=s)[0] for s in range(10_000)])
        assert abs(firsts.mean() - 10.0) < 0.05

    def test_remaining_units_centered(self):
        x = np.concatenate([gen_covariate_study_a(seed=s)[2:] for s in range(1_000)])
        assert abs(x.mean()) < 0.05

    def test_deterministic(self):
        assert np.array_equal(gen_covariate_study_a(seed=3), gen_covariate_study_a(seed=3))


class TestGenOutcomes:
    def test_no_effect(self):
        po = gen_outcomes(OutcomeModel.no_effect(), 50, seed=0)
        assert np.array_equal(po.y0, po.y1)
        assert np.all((po.y0 >= 0.0) & (po.y0 <= 10.0))

    def test_constant_fixed(self):
        po = gen_outcomes(OutcomeModel.constant_fixed(5.0), 50, seed=1)
        assert np.allclose(po.y1 - po.y0, 5.0)

    def test_constant_random_is_homogeneous_within_range(self):
        po = gen_outcomes(OutcomeModel.constant_random(), 50, seed=2)
        effects = po.y1 - po.y0
        assert np.allclose(effects, effects[0])
        assert -5.0 <= effects[0] <= 5.0

    def test_heterogeneous_effects_center_on_zero(self):
        po = gen_outcomes(OutcomeModel.heterogeneous(), 100_000, seed=3)
        assert abs((po.y1 - po.y0).mean()) < 0.05

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="outcome model"):
            OutcomeModel("quadratic")

    def test_figure_model_order(self):
        labels = [m.label for m in study_models()]
        assert labels[0].startswith("no")
        assert len(labels) == 4


class TestScenarioSpec:
    def test_validation(self, crossed_pairs):
        with pytest.raises(ValidationError):
            ScenarioSpec("x", crossed_pairs, OutcomeModel.no_effect(), n_replications=0)

    def test_unknown_estimator_rejected_at_run(self, crossed_pairs):
        spec = ScenarioSpec(
            "x",
            crossed_pairs,
            OutcomeModel.no_effect(),
            estimators=("magic",),
            n_replications=1,
        )
        with pytest.raises(ValidationError, match="unknown estimator"):
            run_study(spec)


# Every name the CLI or the simulator accepted before the two estimator
# registries were merged, and the direct call it stands for.
_DIRECT_CALLS = {
    "neyman": lambda d, obs: dv.neyman_variance(obs),
    "v_sub": lambda d, obs: dv.v_sub(d, obs),
    "mse_sub": lambda d, obs: dv.mse_sub_epsem(d, obs),
    "v_pair": lambda d, obs: dv.v_pair(obs),
    "v_am": lambda d, obs: dv.v_am(d, obs),
    "decomposition": lambda d, obs: dv.estimate_decomposition(d, obs, dv.default_q_crd(d.n)),
    **{
        f"imputation:{g}": (
            lambda d, obs, g=g: dv.v_imputation(d, obs, dv.GammaSpec.parse(g))
        )
        for g in ("fixed:0", "tau-hat", "tau-loo", "theta-loo")
    },
}
_REGISTRY_NAMES = {
    **{name: name for name in _DIRECT_CALLS},
    "contrast": "v_sub",
    "mse-sub": "mse_sub",
    "pair": "v_pair",
    "am": "v_am",
}
_REGISTRY_DESIGNS = {
    "crossed-pairs": lambda: build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4),
    "crd-8-4": lambda: build_crd(8, 4),
    "matched-pairs": lambda: dv.build_matched_pair([(0, 4), (1, 5), (2, 6), (3, 7)]),
}


def _value_or_error(call):
    try:
        return float(call())
    except (dv.AssumptionError, ValidationError) as exc:
        return type(exc)


class TestEstimatorRegistry:
    @pytest.mark.parametrize("design", sorted(_REGISTRY_DESIGNS))
    @pytest.mark.parametrize("name", sorted(_REGISTRY_NAMES))
    def test_matches_direct_call(self, name, design):
        d = _REGISTRY_DESIGNS[design]()
        po = random_table(np.random.default_rng(9), d.n)
        q = dv.default_q_crd(d.n)
        for w in d.support[:3]:
            obs = dv.reveal(po, w, pair_labels=d.pairs)
            want = _value_or_error(lambda: _DIRECT_CALLS[_REGISTRY_NAMES[name]](d, obs))
            got = _value_or_error(lambda: resolve_estimator(name, d, q=q)(obs))
            if isinstance(want, float):
                assert got == pytest.approx(want, rel=EST_RTOL)
            else:
                assert got is want

    def test_keyword_inputs(self, crossed_pairs):
        obs = dv.reveal(random_table(np.random.default_rng(10), 4), crossed_pairs.support[2])
        g = {"1100": ["1001"], "0011": ["0110"], "1001": ["1100"], "0110": ["0011"]}
        contrast = resolve_estimator("contrast", crossed_pairs, substitutes=g)
        mse = resolve_estimator("mse-sub", crossed_pairs, substitutes=g)
        assert contrast(obs) == dv.v_sub(crossed_pairs, obs, g)
        assert mse(obs) == dv.mse_sub_epsem(crossed_pairs, obs, g)
        no_anchor = {"1100": ["1001"], "0011": ["1001"], "1001": ["1100"]}
        with pytest.raises(ValidationError, match="0110"):
            resolve_estimator("v_sub", crossed_pairs, substitutes=no_anchor)(obs)
        spec = dv.GammaSpec.parse("tau-hat")
        mc = resolve_estimator("imputation:tau-hat", crossed_pairs, mc_draws=500, seed=3)
        assert mc(obs) == dv.v_imputation_mc(crossed_pairs, obs, spec, m=500, seed=3)
        with pytest.raises(ValidationError, match="Q matrix"):
            resolve_estimator("decomposition", crossed_pairs)


class TestRunStudy:
    def _spec(self, d, reps=3, seed=0):
        return ScenarioSpec(
            "unit-test",
            d,
            OutcomeModel.heterogeneous(),
            estimators=("v_am", "imputation:theta-loo"),
            n_replications=reps,
            seed=seed,
        )

    def test_record_accounting_and_determinism(self, crossed_pairs):
        res1 = run_study(self._spec(crossed_pairs))
        res2 = run_study(self._spec(crossed_pairs))
        assert res1 == res2
        assert len(res1.records) == 3 * 2
        assert res1.excluded_zero_variance == 0
        assert all(r.mc_se is None for r in res1.records)

    def test_different_seeds_differ(self, crossed_pairs):
        a = run_study(self._spec(crossed_pairs, seed=0))
        b = run_study(self._spec(crossed_pairs, seed=1))
        assert a != b

    def test_zero_variance_replications_excluded(self, crossed_pairs, monkeypatch):
        import designvar.simulate as sim

        flat = PotentialOutcomes(y0=np.full(4, 2.0), y1=np.full(4, 2.0))
        monkeypatch.setattr(sim, "gen_outcomes", lambda model, n, seed=None: flat)
        res = sim.run_study(self._spec(crossed_pairs))
        assert res.excluded_zero_variance == 3
        assert res.records == ()

    def test_summary_quantiles_present(self, crossed_pairs):
        res = run_study(self._spec(crossed_pairs, reps=5))
        block = res.summary["scenarios"]["unit-test"]["v_am"]["relative_bias"]
        assert block["min"] <= block["q25"] <= block["median"]
        assert block["median"] <= block["q75"] <= block["max"]
        assert block["count"] == 5

    def test_imputation_route_matches_per_row_moments(self):
        d = build_crd(6, 4)
        names = ("imputation:fixed:1.5", "imputation:tau-hat", "imputation:tau-loo",
                 "imputation:theta-loo")
        spec = ScenarioSpec("unit-test", d, OutcomeModel.heterogeneous(),
                            estimators=names, n_replications=2, seed=3)
        res = run_study(spec)
        for rec in res.records:
            po = gen_outcomes(spec.outcome_model, d.n, np.random.default_rng((3, rec.replication)))
            var = dv.true_variance(d, po)
            mean, sd = dv.estimator_moments(d, po, resolve_estimator(rec.estimator, d))
            assert rec.relative_bias == pytest.approx((mean - var) / var, rel=EST_RTOL, abs=1e-12)
            assert rec.sd == pytest.approx(sd, rel=EST_RTOL)

    @pytest.mark.parametrize(
        "design, message",
        [
            (lambda: build_crd(4, 1),
             "leave-one-out estimate undefined: no treated units remain after "
             "excluding unit 3 (estimator failed at support vector 0001)"),
            (lambda: build_explicit(["11", "00"], [0.5, 0.5]),
             "leave-one-out estimate undefined: no treated units remain after "
             "excluding unit 0 (estimator failed at support vector 00)"),
        ],
        ids=["crd-4-1", "all-or-none"],
    )
    def test_imputation_failure_names_support_vector(self, design, message):
        spec = ScenarioSpec("unit-test", design(), OutcomeModel.heterogeneous(),
                            estimators=("imputation:theta-loo",), n_replications=1)
        with pytest.raises(dv.AssumptionError) as exc:
            run_study(spec)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "name, design, error, message",
        [
            ("neyman", lambda: build_crd(4, 1), dv.AssumptionError,
             "group variances need at least 2 units per group, got n_t=1, n_c=3 "
             "(estimator failed at support vector 0001)"),
            ("neyman", lambda: build_explicit(["1100", "0011", "1000"], [0.4, 0.4, 0.2]),
             dv.AssumptionError,
             "group variances need at least 2 units per group, got n_t=1, n_c=3 "
             "(estimator failed at support vector 1000)"),
            ("v_pair", lambda: build_crd(4, 2), ValidationError,
             "matched-pair variance needs pair labels"),
            ("v_pair", lambda: dv.build_matched_pair([(0, 1)]), dv.AssumptionError,
             "matched-pair variance needs at least 4 units, got 2"),
            ("v_sub", lambda: build_crd(6, 3), dv.AssumptionError,
             "substitution undefined: overlap count N_t(w)^2/N = 1.5 is not an integer "
             "(N_t = 3, N = 6)"),
            ("mse_sub", lambda: build_crd(6, 4), dv.AssumptionError,
             "substitution undefined: overlap count N_t(w)^2/N = 2.6666666666666665 is "
             "not an integer (N_t = 4, N = 6)"),
        ],
        ids=["neyman-crd-4-1", "neyman-third-row", "v_pair-crd", "v_pair-one-pair",
             "v_sub-crd-6-3", "mse_sub-crd-6-4"],
    )
    def test_kernel_failure_names_support_vector(self, name, design, error, message):
        spec = ScenarioSpec("unit-test", design(), OutcomeModel.heterogeneous(),
                            estimators=(name,), n_replications=1)
        with pytest.raises(error) as exc:
            run_study(spec)
        assert str(exc.value) == message


def _study_b_draws(n_draws):
    x = gen_covariates_hainmueller(50, 0)
    d = dv.build_rerandomized(build_crd(50, 25), x, dv.simulate.BALANCE_THRESHOLD)
    return d.sample_matrix(n_draws, 0)


def _study_b_empirical(n_draws):
    return _empirical_design(_study_b_draws(n_draws))


def _float_weight_design():
    support = [w.to_string() for w in build_crd(6, 3).support]
    probs = np.random.default_rng(3).dirichlet(np.ones(len(support)))
    return build_explicit(support, probs.tolist())


PSI_DESIGNS = {
    "crd-16-8": lambda: build_crd(16, 8),
    "crd-8-5": lambda: build_crd(8, 5),
    "matched-pairs-4": lambda: dv.build_matched_pair([(0, 5), (1, 2), (3, 7), (4, 6)]),
    "study-a": lambda: study_a_design(0)[0],
    "study-b-300": lambda: _study_b_empirical(300),
    "study-b-8": lambda: _study_b_empirical(8),  # S <= 16 < n = 50
    "crossed-pairs": lambda: build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4),
    "float-weights": _float_weight_design,
}


class TestPsiBatch:
    def test_matches_single_vector_oracle(self, crossed_pairs):
        rng = np.random.default_rng(4)
        rows = rng.uniform(-5.0, 5.0, size=(17, 4))
        batch = psi(crossed_pairs, rows)
        assert batch.shape == (17,)
        for k in range(rows.shape[0]):
            assert batch[k] == pytest.approx(psi(crossed_pairs, rows[k]), rel=1e-12)

    @pytest.mark.parametrize("design", sorted(PSI_DESIGNS))
    def test_matches_direct_support_sum(self, design):
        d = PSI_DESIGNS[design]()
        rng = np.random.default_rng(7)
        rows = np.vstack([rng.uniform(0.0, 10.0, size=(5, d.n)), np.ones(d.n)])
        batch = psi(d, rows)
        u, pi = support_matrix(d), d.propensities
        contrast = u / pi - (1.0 - u) / (1.0 - pi)  # D_wi, written out from its formula
        assert (batch >= 0.0).all()
        for k in range(rows.shape[0]):
            assert psi(d, rows[k]) == batch[k]
            if k < 5:  # the constant row is about 0 on CRD, so only its sign is checked
                g = contrast @ rows[k]
                ref = math.fsum((d.probs * (g * g)).tolist()) / d.n**2
                assert batch[k] == pytest.approx(ref, rel=EST_RTOL)

    def test_rejects_wrong_width(self, crossed_pairs):
        with pytest.raises(ValidationError):
            psi(crossed_pairs, np.ones((3, 5)))

    def test_imputation_values_match_exact_estimator(self, crossed_pairs):
        from designvar import GammaSpec, imputation_values, reveal, v_imputation

        po = random_table(np.random.default_rng(5), 4)
        u = support_matrix(crossed_pairs)
        spec = GammaSpec.parse("theta-loo")
        values = imputation_values(crossed_pairs, spec, u, np.where(u == 1, po.y1, po.y0))
        for (w, _), got in zip(crossed_pairs.enumerate_support(), values):
            assert got == pytest.approx(
                float(v_imputation(crossed_pairs, reveal(po, w), spec)), rel=1e-10
            )


class TestEmpiricalDesign:
    def test_symmetrization_pins_propensities(self):
        rng = np.random.default_rng(6)
        draws = (rng.uniform(size=(500, 6)) < 0.5).astype(np.int8)
        draws[:, 0] = 1  # bias a column on purpose
        d = _empirical_design(draws)
        assert d.kind == "empirical"
        assert np.allclose(d.propensities, 0.5, atol=1e-12)

    def test_counts_merge_duplicates(self):
        draws = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int8)
        d = _empirical_design(draws)
        # Symmetrized: three copies of each of 10/01 plus complements.
        assert d.support_size == 2
        assert np.allclose(sorted(d.probs), [0.5, 0.5])

    def test_v_am_does_not_depend_on_draw_order(self):
        draws = _study_b_draws(300)
        shuffled = draws[np.random.default_rng(8).permutation(len(draws))]
        assert not np.array_equal(draws, shuffled)
        rng = np.random.default_rng(9)
        po = random_table(rng, 50)
        designs = [_empirical_design(draws), _empirical_design(shuffled)]
        w = support_matrix(designs[0])[rng.choice(designs[0].support_size, size=40)]
        y = np.where(w == 1, po.y1, po.y0)
        (a, bounded_a), (b, bounded_b) = (_v_am_values(d, w, y) for d in designs)
        assert a.tobytes() == b.tobytes()
        assert bounded_a == bounded_b


class TestStudyADesign:
    def test_filtered_support_is_nonmeasurable(self):
        d, x = study_a_design(seed=0)
        assert d.n == 12
        assert 0 < d.support_size < 924
        assert d.pairwise_prob(0, 1, 1, 1) == 0.0
        assert x.shape == (12,)
        assert math.isclose(sum(d.probs), 1.0, abs_tol=1e-12)


def _reference_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _emitted_files(out) -> dict:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


_JSON_EDGE_PAYLOADS = {
    "empty-dict": {},
    "empty-list": [],
    "empty-tuple": (),
    "nested-empty": {"a": {}, "b": [], "c": [[], {}, ()], "d": {"e": {"f": []}}},
    "scalar": 1.5,
    "string": "x",
    "null": None,
    "special-floats": {
        "x": [float("nan"), float("inf"), -float("inf"), -0.0, 2**70, 1e300, -1e-300],
        "y": {"nan": float("nan"), "neg-zero": -0.0, "big": 2**70, "tiny": -1e-300},
    },
    "bools-and-none": {
        "b": True, "f": False, "n": None, "l": [True, None, False], "m": {"z": None}
    },
    "escapes": {
        "é\"\\": "ü\"\\ \n",
        "k\"ey": {"ñ\\": ["☃", "\\", "\"", "\t"]},
        "plain": "naïve",
    },
    "lists-of-dicts-and-tuples": [
        {"a": 1, "b": {"c": [1, 2, (3, 4)]}},
        {"z": (), "y": ({"q": 0.5},)},
        (1, 2, (3,)),
    ],
    "number-keys": {1: "a", 2.5: {"x": 1}, -3: {3: 1, 1.5: [0], float("inf"): None}},
    "bool-keys": {True: {"k": 1}, False: [2]},
    "none-key": {None: {"k": 2}},
    "deep": {"a": [[1, [2, [3, {"b": [{}]}]]]]},
}


class TestEmitOutputs:
    def test_empty_result_writes_header_only_csv(self, tmp_path):
        res = SimResult(study="empty", records=(), summary={})
        files = emit_outputs(res, tmp_path)
        csv_path = [f for f in files if f.name == "results.csv"][0]
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("study,")

    def test_row_accounting_and_artifacts(self, crossed_pairs, tmp_path):
        spec = ScenarioSpec(
            "emit-test",
            crossed_pairs,
            OutcomeModel.constant_random(),
            estimators=("v_am", "imputation:tau-hat"),
            n_replications=4,
            seed=2,
        )
        res = run_study(spec)
        files = emit_outputs(res, tmp_path)
        names = {f.name for f in files}
        assert "results.csv" in names
        assert "summary.json" in names
        assert any(n.startswith("boxplot-") and n.endswith(".svg") for n in names)
        rows = (tmp_path / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 4 * 2
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["study"] == res.study

    def test_byte_identical_rerun(self, crossed_pairs, tmp_path):
        spec = ScenarioSpec(
            "emit-test",
            crossed_pairs,
            OutcomeModel.heterogeneous(),
            n_replications=3,
            seed=5,
        )
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        emit_outputs(run_study(spec), out1)
        emit_outputs(run_study(spec), out2)
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    @pytest.mark.parametrize("study", ["appendix-c", "study-b", "crossed-pairs"])
    def test_summary_json_matches_json_dumps(self, study, crossed_pairs, tmp_path):
        if study == "appendix-c":
            res = run_appendix_c(n_replications=2)
        elif study == "study-b":
            res = run_study_b(n_replications=1, n_inner_draws=8, n_outer=6)
        else:
            res = run_study(
                ScenarioSpec(
                    "emit-test",
                    crossed_pairs,
                    OutcomeModel.constant_random(),
                    estimators=("v_am", "imputation:tau-hat"),
                    n_replications=3,
                    seed=2,
                )
            )
        emit_outputs(res, tmp_path)
        payload = {
            "study": res.study,
            "excluded_zero_variance": res.excluded_zero_variance,
            "meta": res.meta,
            "summary": res.summary,
        }
        expected = _reference_json(payload) + "\n"
        assert (tmp_path / "summary.json").read_bytes() == expected.encode()

    @pytest.mark.parametrize("name", sorted(_JSON_EDGE_PAYLOADS))
    def test_json_writer_matches_json_dumps_on_edge_cases(self, name):
        payload = _JSON_EDGE_PAYLOADS[name]
        assert _indented_json(payload) == _reference_json(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {"a": np.int64(1)},
            {"a": {"b": [1, np.int64(1)]}, "c": {"d": 1}},
            {"a": 1, 2: 3},
            {"a": {"b": 1}, 2: {"c": 1}},
            {"a": [{"b": 1, 2: 3}]},
            {(1, 2): {"a": 1}},
        ],
        ids=["int64-leaf", "int64-nested", "mixed-keys-leaf", "mixed-keys-nested",
             "mixed-keys-in-list", "tuple-key"],
    )
    def test_json_writer_refuses_what_json_dumps_refuses(self, payload):
        with pytest.raises(TypeError) as reference:
            _reference_json(payload)
        with pytest.raises(TypeError) as raised:
            _indented_json(payload)
        assert str(raised.value) == str(reference.value)

    def test_rewrite_over_a_longer_run_leaves_no_stale_tail(self, tmp_path):
        rewritten, fresh = tmp_path / "rewritten", tmp_path / "fresh"
        emit_outputs(run_appendix_c(n_replications=5), rewritten)
        longer_table = (rewritten / "results.csv").read_bytes()
        short = run_appendix_c(n_replications=1)
        emit_outputs(short, rewritten)
        emit_outputs(short, fresh)
        assert _emitted_files(rewritten) == _emitted_files(fresh)
        # the first run's table was longer, so the rewrite had a tail to cut
        assert len(longer_table) > len((fresh / "results.csv").read_bytes())

    def test_new_files_get_the_mode_open_gives(self, crossed_pairs, tmp_path):
        spec = ScenarioSpec(
            "emit-test", crossed_pairs, OutcomeModel.constant_random(), n_replications=2, seed=0
        )
        res = run_study(spec)
        previous = os.umask(0o027)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            files = emit_outputs(res, tmp_path / "out")
        finally:
            os.umask(previous)
        mode = (tmp_path / "reference").stat().st_mode
        assert mode & 0o777 == 0o640
        assert [f.stat().st_mode for f in files] == [mode] * len(files)


class TestScenarioRunner:
    """The exact studies are lists of scenarios that one runner scores in
    order and summarizes once, over all their records."""

    @pytest.mark.parametrize("run", [dv.run_study_a, run_appendix_c],
                             ids=["study-a", "appendix-c"])
    def test_one_summary_per_study(self, run, monkeypatch):
        import designvar.simulate as sim

        summarized, summarize = [], sim._summarize

        def spy(records, excluded):
            summarized.append(len(records))
            return summarize(records, excluded)

        monkeypatch.setattr(sim, "_summarize", spy)
        res = run(seed=0, n_replications=1)
        assert summarized == [len(res.records)]
        assert res.summary == summarize(res.records, res.excluded_zero_variance)

    def test_sampler_backed_scenario_is_refused(self):
        d = build_crd(40, 20)
        assert isinstance(d, dv.SampledDesign)
        spec = ScenarioSpec("sampled", d, OutcomeModel.no_effect(), n_replications=1)
        with pytest.raises(dv.AssumptionError) as exc:
            run_study(spec)
        assert str(exc.value) == (
            "run_study scores estimators by exact enumeration and needs an "
            "enumerable design; use run_study_b for sampler-backed designs"
        )


class TestAppendixCSmoke:
    def test_tiny_run_shapes_and_constants(self):
        res = run_appendix_c(seed=0, n_replications=2)
        assert res.study == "appendix-c"
        # 6 scenarios x 2 replications x 4 estimators, none excluded.
        assert len(res.records) == 6 * 2 * 4
        loo = [
            r.relative_bias
            for r in res.records
            if r.estimator == "imputation:theta-loo" and r.scenario == "scenario-1"
        ]
        assert loo and all(abs(b - 0.25) < 1e-10 for b in loo)


def _shifted(po: PotentialOutcomes, offset: float) -> PotentialOutcomes:
    return PotentialOutcomes(y1=po.y1 + offset, y0=po.y0 + offset)


class TestFactorVariance:
    """The study loops read each table's true variance from the design's psi
    factor, ||R (c - c_0)||^2 / N^2, wherever D_w . 1 = 0 on every support
    row; enumeration stays the reference."""

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_matches_enumeration_on_every_study_b_table(self, offset, monkeypatch):
        import designvar.simulate as sim
        from designvar.oracles import _variance_route

        seen = []  # (design, table) of every true-variance call

        def spy(d):
            variance = _variance_route(d)
            return lambda po: seen.append((d, po)) or variance(po)

        monkeypatch.setattr(sim, "_variance_route", spy)
        run_study_b(seed=1, n_replications=2, n_inner_draws=300, n_outer=40)
        assert len(seen) == 8 and len({id(d) for d, _ in seen}) == 1
        variance = _variance_route(seen[0][0])
        assert not isinstance(variance, partial)  # the factor route
        for d, po in seen:
            po = _shifted(po, offset)
            assert variance(po) == pytest.approx(dv.true_variance(d, po), rel=EST_RTOL)

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("design", [
        *(f"crd-{n}-{m}" for _, n, m, _ in dv.simulate._APPENDIX_C_LAYOUT), "study-a"])
    def test_matches_enumeration_on_the_exact_studies_designs(self, design, offset):
        from designvar.oracles import _variance_route

        d = study_a_design(0)[0] if design == "study-a" else build_crd(
            *map(int, design.split("-")[1:]))
        variance = _variance_route(d)
        assert not isinstance(variance, partial)
        rng = np.random.default_rng(11)
        for model in study_models():
            for _ in range(5):
                po = _shifted(gen_outcomes(model, d.n, rng), offset)
                assert variance(po) == pytest.approx(dv.true_variance(d, po), rel=EST_RTOL)

    @pytest.mark.parametrize("design", ["crd-8-5", "study-a", "matched-pairs-4"])
    def test_is_at_least_as_accurate_as_enumeration(self, design):
        # against psi(c) in exact rationals at an offset of 1e6, where the
        # enumerated sum loses digits (on matched pairs, more than EST_RTOL)
        from fractions import Fraction

        from designvar.oracles import _variance_route

        d = {"crd-8-5": lambda: build_crd(8, 5), "study-a": lambda: study_a_design(0)[0],
             "matched-pairs-4": lambda: dv.build_matched_pair([(0, 5), (1, 2), (3, 7), (4, 6)]),
             }[design]()
        variance, rows = _variance_route(d), support_matrix(d).astype(int).tolist()
        pi = [Fraction(p) for p in d.propensities.tolist()]
        weights = [Fraction(w) for w in d._weights.tolist()]
        rng = np.random.default_rng(12)
        route_err = enum_err = 0.0
        for _ in range(4):
            po = _shifted(gen_outcomes(OutcomeModel.heterogeneous(), d.n, rng), 1e6)
            c = [Fraction(x) for x in dv.c_vector(po, d.propensities).tolist()]
            exact = sum(w * sum(ci / q if b else -ci / (1 - q) for ci, q, b in zip(c, pi, row)) ** 2
                        for w, row in zip(weights, rows)) / sum(weights) / d.n**2
            route_err = max(route_err, float(abs(Fraction(variance(po)) - exact) / exact))
            enum_err = max(enum_err, float(abs(Fraction(dv.true_variance(d, po)) - exact) / exact))
        assert route_err <= min(enum_err, 1e-14)

    def test_other_designs_enumerate(self):
        from designvar.oracles import _variance_route

        two_sizes = build_explicit(["10", "01", "11", "00"], [0.25] * 4)
        float_weights = _float_weight_design()
        assert np.ptp(float_weights.propensities) > 0.0
        for d in (two_sizes, float_weights):
            variance = _variance_route(d)
            assert isinstance(variance, partial) and variance.func is dv.true_variance

    @pytest.mark.parametrize("level", [0.1, 1e3 + 0.1, 1e6 / 3])
    def test_constant_c_scores_exactly_zero(self, level):
        from designvar.oracles import _variance_route

        for d in (build_crd(8, 5), study_a_design(0)[0], _study_b_empirical(300)):
            pi = d.propensities[0]
            # c = (1 - pi) y1 + pi y0 is the same at every unit, y1 != y0
            po = PotentialOutcomes(y1=np.full(d.n, level + pi), y0=np.full(d.n, level + pi - 1.0))
            assert np.ptp(dv.c_vector(po, d.propensities)) == 0.0
            assert _variance_route(d)(po) == 0.0

    def test_constant_c_tables_are_excluded(self, monkeypatch):
        import designvar.simulate as sim

        monkeypatch.setattr(sim, "gen_outcomes", lambda model, n, seed=None: PotentialOutcomes(
            y1=np.full(n, 1e6 / 3 + 5.0), y0=np.full(n, 1e6 / 3 + 5.0)))
        spec = ScenarioSpec("flat", build_crd(8, 5), OutcomeModel.no_effect(), n_replications=3)
        for res, tables in ((run_study(spec), 3), (dv.run_study_a(n_replications=2), 8),
                            (run_study_b(n_replications=2, n_inner_draws=50, n_outer=5), 8)):
            assert res.excluded_zero_variance == tables
            assert res.records == ()


class TestBlockedStudyB:
    """run_study_b scores its tables in blocks, one kernel call a block; the
    values are those of one call per table, to the bit."""

    def _run(self, monkeypatch, row_block):
        import designvar.simulate as sim

        monkeypatch.setattr(sim, "ROW_BLOCK", row_block)
        calls, kernel = [], sim._batch_kernel

        def spy(names, d, **options):
            k = kernel(names, d, **options)

            def counted(w, y):
                calls.append(len(w))
                return k(w, y)

            return counted

        monkeypatch.setattr(sim, "_batch_kernel", spy)
        return run_study_b(seed=1, n_replications=2, n_inner_draws=300, n_outer=7), calls

    def test_blocks_equal_per_table_calls(self, monkeypatch):
        table = 8 * 7 * 50  # ROW_BLOCK for one table per block
        per_table, calls = self._run(monkeypatch, table)
        assert calls == [7] * 8
        for tables in (3, 8):  # blocks of 3, 3 and 2 tables, across models; one block
            blocked, calls = self._run(monkeypatch, tables * table)
            assert calls == [7 * min(tables, 8 - start) for start in range(0, 8, tables)]
            assert blocked == per_table
            for a, b in zip(blocked.records, per_table.records):
                assert _bits(a.relative_bias, a.sd, a.mc_se) == _bits(b.relative_bias, b.sd, b.mc_se)

    def test_default_block_scores_a_small_run_in_one_call(self, monkeypatch):
        res, calls = self._run(monkeypatch, dv.simulate.ROW_BLOCK)
        assert calls == [7 * 8]
        assert [(r.scenario, r.replication, r.estimator) for r in res.records] == [
            (f"study-b:{m.label}", rep, name)
            for m in study_models() for rep in range(2) for name in dv.simulate.STUDY_ESTIMATORS]


def _bits(*values: float) -> bytes:
    return np.array(values, dtype=float).tobytes()


class TestSortedQuantiles:
    """_summarize's quantiles come from one sort and equal np.quantile's
    default (linear) method to the bit."""

    @pytest.mark.parametrize("kind", ["magnitudes", "ties", "constant"])
    def test_equal_np_quantile_to_the_bit(self, kind):
        from designvar.simulate import _QUANTILES, _sorted_quantiles

        rng = np.random.default_rng(7)
        qs = [q for _, q in _QUANTILES]
        for count in range(1, 201):
            if kind == "magnitudes":  # signs and scales from 1e-9 to 1e6 mixed in one row
                arr = rng.normal(size=(3, 2, count)) * 10.0 ** rng.integers(-9, 7, size=(3, 2, count))
            elif kind == "ties":
                arr = rng.integers(-3, 4, size=(3, 2, count)) * 0.1
            else:
                arr = np.full((3, 2, count), 1e6 / 3)
            want = np.moveaxis(np.quantile(arr, qs, axis=-1), 0, -1)
            assert _sorted_quantiles(arr).tobytes() == want.tobytes(), count

    def test_nan_rows_give_nan(self):
        from designvar.simulate import _QUANTILES, _sorted_quantiles

        arr = np.array([[[1.0, np.nan, 3.0], [1.0, 2.0, 3.0]]])
        want = np.moveaxis(np.quantile(arr, [q for _, q in _QUANTILES], axis=-1), 0, -1)
        got = _sorted_quantiles(arr)
        assert np.isnan(got[0, 0]).all()
        assert got[0, 1].tobytes() == want[0, 1].tobytes()
