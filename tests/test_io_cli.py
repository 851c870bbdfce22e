"""File loaders and the command-line interface."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from designvar import (
    ValidationError,
    build_crd,
    build_design,
    build_rerandomized,
    full_substitute_map,
    gen_covariates_hainmueller,
    load_design,
    load_matrix,
    load_observed,
    load_science_table,
    load_substitute_map,
    neyman_variance,
)
from designvar.cli import main
from designvar.simulate import resolve_estimator
from designvar.contrast import substitute_counts

from conftest import random_table


@pytest.fixture
def crossed_pairs_file(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(
        json.dumps(
            {"support": ["1100", "0011", "1001", "0110"], "probs": [0.25] * 4}
        )
    )
    return str(path)


@pytest.fixture
def crd_file(tmp_path):
    path = tmp_path / "crd.json"
    path.write_text(json.dumps({"kind": "crd", "n": 4, "n_treated": 2}))
    return str(path)


@pytest.fixture
def obs_file(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("unit_id,w,y_obs\n1,1,1\n2,1,2\n3,0,3\n4,0,4\n")
    return str(path)


@pytest.fixture
def science_file(tmp_path):
    path = tmp_path / "science.csv"
    path.write_text("unit_id,y0,y1\n1,1,3\n2,2,4\n3,3,5\n4,4,6\n")
    return str(path)


class TestBuildDesign:
    def test_explicit_defaults_to_uniform(self):
        d = build_design({"support": ["10", "01"]})
        assert np.allclose(d.probs, 0.5)

    def test_uniform_explicit_file_equals_its_builder_twin(self):
        twin = build_crd(10, 5)
        d = build_design({"kind": "explicit", "support": [w.to_string() for w in twin.support]})
        assert d.propensities.tobytes() == twin.propensities.tobytes()
        for got, want in zip(d.pairwise_cells(), twin.pairwise_cells()):
            assert got.tobytes() == want.tobytes()

    def test_kind_inferred_from_support(self):
        d = build_design({"support": ["1100", "0011"], "probs": [0.5, 0.5]})
        assert d.kind == "explicit"

    def test_crd_fields(self):
        d = build_design({"kind": "crd", "n": 6, "n_treated": 3})
        assert d.support_size == 20

    def test_matched_pairs_are_one_based(self):
        d = build_design({"kind": "matched_pair", "pairs": [[1, 3], [2, 4]]})
        support = sorted(w.to_string() for w, _ in d.enumerate_support())
        assert support == ["0011", "0110", "1001", "1100"]

    def test_rerandomized_recursive_base(self):
        payload = {
            "kind": "rerandomized",
            "base": {"kind": "crd", "n": 4, "n_treated": 2},
            "covariates": [[1.0], [2.0], [3.0], [4.0]],
            "threshold": 1.5,
        }
        d = build_design(payload)
        assert d.kind == "rerandomized"
        assert 0 < d.support_size < 6

    def test_rerandomized_file_with_nan_covariate_is_rejected(self, tmp_path):
        path = tmp_path / "rerandomized.json"
        path.write_text(
            '{"kind": "rerandomized", "base": {"kind": "crd", "n": 6, "n_treated": 3},'
            ' "covariates": [[0.1, 1.0], [0.5, -2.0], [1.2, NaN], [-0.7, 0.8],'
            ' [2.0, 0.0], [0.0, 1.5]], "threshold": 0.5}'
        )
        with pytest.raises(ValidationError, match="must be finite"):
            load_design(str(path))

    def test_missing_fields(self):
        with pytest.raises(ValidationError, match="missing required field"):
            build_design({"kind": "crd", "n": 4})
        with pytest.raises(ValidationError, match="kind"):
            build_design({"probs": [1.0]})
        with pytest.raises(ValidationError):
            build_design({"kind": "lattice"})


class TestLoaders:
    def test_load_design(self, crossed_pairs_file):
        d = load_design(crossed_pairs_file)
        assert d.support_size == 4

    def test_load_observed(self, obs_file):
        obs = load_observed(obs_file)
        assert obs.w.to_string() == "1100"
        assert np.allclose(obs.y_obs, [1.0, 2.0, 3.0, 4.0])

    def test_load_observed_with_pairs(self, tmp_path):
        path = tmp_path / "paired.csv"
        path.write_text(
            "unit_id,w,y_obs,pair\n1,1,1,a\n2,1,2,b\n3,0,3,a\n4,0,4,b\n"
        )
        obs = load_observed(str(path))
        assert obs.pair_labels == ((0, 2), (1, 3))

    def test_load_observed_rejects_bad_w(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit_id,w,y_obs\n1,2,1\n2,0,2\n")
        with pytest.raises(ValidationError):
            load_observed(str(path))

    def test_load_science_table(self, science_file):
        po = load_science_table(science_file)
        assert np.allclose(po.y1 - po.y0, 2.0)

    def test_science_loader_rejects_observed_table(self, obs_file):
        with pytest.raises(ValidationError, match="science table"):
            load_science_table(obs_file)

    def test_unit_ids_must_cover_range(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("unit_id,y0,y1\n1,1,2\n3,2,3\n")
        with pytest.raises(ValidationError):
            load_science_table(str(path))

    def test_load_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        assert np.allclose(load_matrix(str(path)), [[1.0, 2.0], [3.0, 4.0]])

    def test_load_matrix_rejects_ragged(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValidationError):
            load_matrix(str(path))

    def test_load_matrix_rejects_an_empty_cell_before_a_value(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("0.1,,0.2\n0.3,,0.4\n")
        with pytest.raises(ValidationError, match="row 1, column 2 is empty"):
            load_matrix(str(path))

    def test_load_matrix_accepts_a_trailing_comma(self, tmp_path):
        path = tmp_path / "trailing.csv"
        path.write_text("1,2,\n3,4,\n\n")
        assert load_matrix(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_load_substitute_map(self, tmp_path):
        path = tmp_path / "subs.json"
        path.write_text(json.dumps({"1100": ["1001", "0110"]}))
        mapping = load_substitute_map(str(path))
        assert mapping == {"1100": ["1001", "0110"]}


class TestCliDesignInspect:
    def test_human_output(self, crossed_pairs_file, capsys):
        assert main(["design-inspect", "--design", crossed_pairs_file]) == 0
        out = capsys.readouterr().out
        assert "explicit" in out

    def test_json_with_assumptions(self, crossed_pairs_file, capsys):
        code = main(
            [
                "design-inspect",
                "--design",
                crossed_pairs_file,
                "--check-assumptions",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["assumptions"]["flags"]["measurable"] is False
        assert payload["substitution_mode"] == "equal-size"

    def test_substitute_counts_summary(self, tmp_path, capsys):
        # an incomplete support whose rows have 18 to 24 substitutes
        d = build_rerandomized(build_crd(8, 4), np.arange(8.0) ** 1.5, 0.6)
        path = tmp_path / "rerandomized.json"
        path.write_text(json.dumps({"support": [w.to_string() for w in d.support],
                                    "probs": d.probs.tolist()}))
        assert main(["design-inspect", "--design", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        summary = payload["substitute_counts"]
        counts = substitute_counts(d).tolist()
        first_seen = list(dict.fromkeys(counts))
        assert [e["count"] for e in summary] == first_seen and len(first_seen) > 1
        assert [e["rows"] for e in summary] == [counts.count(c) for c in first_seen]
        assert sum(e["rows"] for e in summary) == payload["support_size"] == d.support_size

    @pytest.mark.parametrize("spec, summary", [
        ({"kind": "crd", "n": 8, "n_treated": 4}, [{"count": 36, "rows": 70}]),
        ({"kind": "matched_pair", "pairs": [[1, 2], [3, 4], [5, 6], [7, 8]]},
         [{"count": 6, "rows": 16}]),
    ], ids=["crd-8-4", "pairs-4"])
    def test_one_size_complete_support_has_one_count(self, spec, summary, tmp_path, capsys,
                                                     monkeypatch):
        # read from the per-size count, with no pass over the rows' counts
        import designvar.cli as cli

        path = tmp_path / "design.json"
        path.write_text(json.dumps(spec))
        monkeypatch.setattr(cli, "substitute_counts", None)
        assert main(["design-inspect", "--design", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["substitute_counts"] == summary

    def test_substitutes_listing(self, crossed_pairs_file, capsys):
        code = main(
            ["design-inspect", "--design", crossed_pairs_file, "--substitutes-for", "1100", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["substitutes"]) == ["0110", "1001"]

    def test_substitutes_listing_without_a_substitution_mode(self, tmp_path, capsys):
        # 4 matched pairs with "11110000" swapped for "11001100", which treats
        # both units of pairs (0, 4) and (1, 5): propensities run from 7/16 to
        # 9/16, but k = 4^2 / 8 = 2 is whole, so the substitutes are defined
        rows = ["".join(bits) for bits in itertools.product(*["10"] * 4)]
        support = [r + "".join("1" if b == "0" else "0" for b in r) for r in rows]
        support[support.index("11110000")] = "11001100"
        path = tmp_path / "unpaired-row.json"
        path.write_text(json.dumps({"support": support, "probs": [1.0 / 16] * 16}))
        code = main(["design-inspect", "--design", str(path), "--substitutes-for", "11001100",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["substitution_mode"] is None
        assert payload["substitution_note"] == (
            "substitution undefined: propensities vary across units (min 0.4375, max 0.5625)"
        )
        assert payload["substitutes"] == sorted(set(support) - {"11001100"})


class TestCliAnalyze:
    def test_neyman(self, crd_file, obs_file, capsys):
        code = main(
            ["analyze", "--design", crd_file, "--data", obs_file, "--estimator", "neyman", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.5)

    def test_observed_alias_and_trailing_global_flag(self, crd_file, obs_file, capsys):
        code = main(
            ["analyze", "--design", crd_file, "--observed", obs_file, "--estimator", "neyman", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.5)

    def test_contrast_hand_value(self, crossed_pairs_file, tmp_path, capsys):
        obs = tmp_path / "obs2.csv"
        obs.write_text("unit_id,w,y_obs\n1,1,3\n2,0,2\n3,0,3\n4,1,6\n")
        for name in ("contrast", "v_sub"):
            code = main(
                [
                    "analyze",
                    "--design",
                    crossed_pairs_file,
                    "--data",
                    str(obs),
                    "--estimator",
                    name,
                    "--json",
                ]
            )
            assert code == 0
            assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(4.0)

    def test_decomposition_q_forms(self, crd_file, obs_file, tmp_path, capsys):
        q_file = tmp_path / "q.csv"
        rows = []
        for i in range(4):
            rows.append(
                ",".join("0.0625" if i == j else "-0.0208333333333333333" for j in range(4))
            )
        q_file.write_text("\n".join(rows) + "\n")
        for q_arg in ["default-crd", f"file:{q_file}", str(q_file)]:
            code = main(
                [
                    "analyze",
                    "--design",
                    crd_file,
                    "--data",
                    obs_file,
                    "--estimator",
                    "decomposition",
                    "--q",
                    q_arg,
                    "--json",
                ]
            )
            assert code == 0
            assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.5)

    def test_imputation_exact_and_mc(self, crd_file, obs_file, capsys):
        base = [
            "analyze",
            "--design",
            crd_file,
            "--data",
            obs_file,
            "--estimator",
            "imputation",
            "--gamma",
            "tau-hat",
            "--json",
        ]
        assert main(base) == 0
        exact = json.loads(capsys.readouterr().out)
        assert exact["value"] == pytest.approx(0.5 * 2.0 / 3.0, rel=1e-10)
        assert main(base + ["--mc", "--mc-draws", "20000", "--seed", "7"]) == 0
        mc = json.loads(capsys.readouterr().out)
        assert mc["exact"] is False
        assert abs(mc["value"] - exact["value"]) <= 3.0 * mc["mc_se"]

    def test_mc_imputation_on_the_study_b_design_file(self, tmp_path, capsys):
        # 20,000 accepted draws at an acceptance rate near 4 % take about 480,000
        # candidates: more than a 200,000-candidate accept-reject budget allows
        design = tmp_path / "study-b.json"
        design.write_text(json.dumps({
            "kind": "rerandomized",
            "base": {"kind": "crd", "n": 50, "n_treated": 25},
            "covariates": gen_covariates_hainmueller(50, 0).tolist(),
            "threshold": 0.2,
        }))
        obs = tmp_path / "obs-50.csv"
        obs.write_text("unit_id,w,y_obs\n" + "".join(
            f"{i + 1},{i % 2},{(i * i) % 13 + 0.5}\n" for i in range(50)
        ))
        code = main([
            "analyze", "--design", str(design), "--data", str(obs), "--mc",
            "--mc-draws", "20000", "--estimator", "imputation", "--gamma", "tau-hat",
            "--seed", "0", "--json",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exact"] is False and out["value"] > 0

    def test_assumption_failure_exits_3(self, crossed_pairs_file, tmp_path, capsys):
        obs = tmp_path / "obs3.csv"
        obs.write_text("unit_id,w,y_obs\n1,1,1\n2,1,2\n3,0,3\n4,0,4\n")
        code = main(
            [
                "analyze",
                "--design",
                crossed_pairs_file,
                "--data",
                str(obs),
                "--estimator",
                "decomposition",
                "--q",
                "default-crd",
            ]
        )
        assert code == 3
        assert "assumption violated" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", [["v_am"], ["decomposition", "--q", "default-crd"]])
    def test_positivity_failure_exits_3(self, tmp_path, capsys, estimator):
        design = tmp_path / "never-treated.json"
        design.write_text(json.dumps({"kind": "explicit", "n": 3, "support": ["100", "010"]}))
        obs = tmp_path / "obs.csv"
        obs.write_text("unit_id,w,y_obs\n1,1,3\n2,0,2\n3,0,5\n")
        code = main(["analyze", "--design", str(design), "--data", str(obs),
                     "--estimator", *estimator, "--json"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "assumption violated: propensity of unit 2 is 0.0; inverse weighting needs 0 < pi < 1\n"
        )

    @pytest.fixture
    def three_pairs_file(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"kind": "matched_pair", "pairs": [[1, 2], [3, 4], [5, 6]]}))
        return str(path)

    @staticmethod
    def _v_pair(design, tmp_path, pair_column):
        obs = tmp_path / "pairs-obs.csv"
        rows = zip(range(1, 7), (1, 0, 0, 1, 1, 0), (3, 2, 1, 3, 7, 1), pair_column or [None] * 6)
        obs.write_text("unit_id,w,y_obs" + (",pair" if pair_column else "") + "\n" + "".join(
            f"{i},{w},{y}" + (f",{p}" if p else "") + "\n" for i, w, y, p in rows
        ))
        return main(["analyze", "--design", design, "--data", str(obs), "--estimator", "v_pair",
                     "--json"])

    def test_v_pair_scores_the_design_pairs(self, three_pairs_file, tmp_path, capsys):
        printed = []
        # no pair column, then the design's pairs under other labels and in another order
        for column in (None, ["z", "z", "a", "a", "m", "m"]):
            assert self._v_pair(three_pairs_file, tmp_path, column) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        # within-pair differences 1, 2, 6: 4 / (6 * 4) * (4 + 1 + 9)
        assert json.loads(printed[0])["value"] == pytest.approx(14 / 6)

    def test_v_pair_refuses_pair_labels_that_differ_from_the_design(
        self, three_pairs_file, tmp_path, capsys
    ):
        # (1,3), (2,4), (5,6) each hold one treated unit, against (1,2), (3,4), (5,6)
        assert self._v_pair(three_pairs_file, tmp_path, ["a", "b", "a", "b", "c", "c"]) == 2
        assert capsys.readouterr().err == (
            "error: observed pair labels differ from the design's pairs\n"
        )

    def test_validation_failure_exits_2(self, crd_file, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(
            ["analyze", "--design", crd_file, "--data", str(missing), "--estimator", "neyman"]
        )
        assert code == 2


_CRD = {"kind": "crd", "n": 4, "n_treated": 2}
_SCENARIO = {"name": "s", "design": _CRD, "outcome_model": "heterogeneous"}
_MALFORMED = {
    "crd-count-word": ("design", {"kind": "crd", "n": "eight", "n_treated": 4}, "'n'"),
    "crd-count-fraction": ("design", {"kind": "crd", "n": 8, "n_treated": 4.7}, "'n_treated'"),
    "crd-count-bool": ("design", {"kind": "crd", "n": True, "n_treated": 1}, "'n'"),
    "pair-id-word": ("design", {"kind": "matched_pair", "pairs": [[1, "b"], [3, 4]]}, "'pairs'"),
    "covariate-word": ("design", {"kind": "rerandomized", "base": _CRD,
                                  "covariates": [1.0, "a", 3.0, 4.0], "threshold": 1.5},
                       "'covariates'"),
    "threshold-word": ("design", {"kind": "rerandomized", "base": _CRD,
                                  "covariates": [1.0, 2.0, 3.0, 4.0], "threshold": "1.5"},
                       "'threshold'"),
    "replications-word": ("scenario", {**_SCENARIO, "n_replications": "ten"}, "'n_replications'"),
    "seed-fraction": ("scenario", {**_SCENARIO, "seed": 1.5}, "'seed'"),
    "inner-draws-word": ("scenario", {**_SCENARIO, "n_inner_draws": "many"}, "'n_inner_draws'"),
    "estimators-string": ("scenario", {**_SCENARIO, "estimators": "neyman"}, "'estimators'"),
    "effect-word": ("scenario", {**_SCENARIO, "outcome_model": {"kind": "constant_fixed",
                                                               "delta": "5"}}, "'delta'"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_number_exits_2_naming_the_field(case, tmp_path, capsys):
    kind, payload, field = _MALFORMED[case]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload))
    if kind == "design":
        code = main(["design-inspect", "--design", str(path)])
    else:
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (tmp_path / "out").exists()


class TestVarianceEstimateToDict:
    """``VarianceEstimate.to_dict`` is the payload ``analyze`` prints, in its order."""

    def _analyze(self, capsys, design, obs, *flags) -> list[str]:
        assert main(["analyze", "--design", design, "--data", obs, *flags]) == 0
        return capsys.readouterr().out.splitlines()

    def test_exact_estimate(self, crd_file, obs_file, capsys):
        est = neyman_variance(load_observed(obs_file))
        assert est.to_dict() == {"estimator": "neyman", "value": est.value, "exact": True,
                                 "warnings": [], "params": {"n_t": 2, "n_c": 2}}
        assert list(est.to_dict()) == ["estimator", "value", "exact", "warnings", "params"]
        lines = self._analyze(capsys, crd_file, obs_file, "--estimator", "neyman")
        assert lines == [f"{k}: {v}" for k, v in est.to_dict().items()]

    def test_monte_carlo_estimate(self, crd_file, obs_file, capsys):
        d, obs = load_design(crd_file), load_observed(obs_file)
        est = resolve_estimator("imputation:theta-loo", d, mc_draws=500, seed=3)(obs)
        assert est.to_dict() == {
            "estimator": "imputation", "value": est.value, "exact": False, "warnings": [],
            "params": {"gamma": "theta_loo", "seed": 3}, "mc_draws": 500, "mc_se": est.mc_se,
        }
        assert list(est.to_dict())[-2:] == ["mc_draws", "mc_se"]
        lines = self._analyze(capsys, crd_file, obs_file, "--estimator", "imputation",
                              "--gamma", "theta-loo", "--mc", "--mc-draws", "500", "--seed", "3")
        assert lines == [f"{k}: {v}" for k, v in est.to_dict().items()]


class TestCliOracle:
    def test_bias_report(self, crossed_pairs_file, science_file, capsys):
        code = main(
            [
                "oracle",
                "--design",
                crossed_pairs_file,
                "--table",
                science_file,
                "--estimator",
                "contrast",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["true_variance"] == pytest.approx(2.0)
        assert payload["expected_estimate"] == pytest.approx(2.0)
        assert payload["bias"] == pytest.approx(0.0, abs=1e-10)
        assert payload["conservative_within_tolerance"] is True

    def test_observed_table_rejected_with_exit_2(self, crossed_pairs_file, obs_file, capsys):
        code = main(
            [
                "oracle",
                "--design",
                crossed_pairs_file,
                "--table",
                obs_file,
                "--estimator",
                "contrast",
            ]
        )
        assert code == 2
        assert "science table" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "oracle"])
    def test_single_mc_draw_refused_before_scoring(
        self, crossed_pairs_file, obs_file, science_file, command, capsys
    ):
        inputs = ["--table", science_file] if command == "oracle" else ["--data", obs_file]
        code = main([command, "--design", crossed_pairs_file, *inputs,
                     "--estimator", "imputation:tau-hat", "--mc", "--mc-draws", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: need at least 2 draws, got 1\n"


    def test_v_pair_on_a_design_without_pairs_names_no_support_vector(self, tmp_path, capsys):
        design = tmp_path / "crd-8-4.json"
        design.write_text(json.dumps({"kind": "crd", "n": 8, "n_treated": 4}))
        table = tmp_path / "table.csv"
        table.write_text("unit_id,y0,y1\n" + "".join(f"{i},{i},{2 * i}\n" for i in range(1, 9)))
        code = main(["oracle", "--design", str(design), "--table", str(table),
                     "--estimator", "v_pair"])
        assert code == 2
        assert capsys.readouterr().err == "error: matched-pair variance needs pair labels\n"


class TestCliSubstituteFile:
    """``--substitutes file:<map>`` against ``--substitutes full``."""

    @pytest.fixture
    def crd84(self, tmp_path):
        d = build_crd(8, 4)
        design = tmp_path / "crd84.json"
        design.write_text(json.dumps({"kind": "crd", "n": 8, "n_treated": 4}))
        g = {str(w): [str(m) for m in sub.members] for w, sub in full_substitute_map(d).items()}
        subs = tmp_path / "map.json"
        subs.write_text(json.dumps(g))
        po = random_table(np.random.default_rng(21), 8)
        table = tmp_path / "table.csv"
        table.write_text("unit_id,y0,y1\n" + "".join(
            f"{i + 1},{float(a)!r},{float(b)!r}\n" for i, (a, b) in enumerate(zip(po.y0, po.y1))
        ))
        w = d.vector(37).to_array()
        y = np.where(w == 1, po.y1, po.y0)
        obs = tmp_path / "obs.csv"
        obs.write_text("unit_id,w,y_obs\n" + "".join(
            f"{i + 1},{int(w[i])},{float(y[i])!r}\n" for i in range(8)
        ))
        return str(design), str(table), str(obs), str(subs)

    @pytest.mark.parametrize("command", ["analyze", "oracle"])
    @pytest.mark.parametrize("estimator", ["v_sub", "mse_sub"])
    def test_file_map_prints_what_the_full_map_prints(self, crd84, command, estimator, capsys):
        design, table, obs, subs = crd84
        base = [command, "--design", design, "--estimator", estimator, "--json"]
        base += ["--table", table] if command == "oracle" else ["--data", obs]
        printed = []
        for substitutes in ("full", f"file:{subs}"):
            assert main(base + ["--substitutes", substitutes]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and json.loads(printed[0])

    @pytest.mark.parametrize(
        "design, message",
        [
            ({"kind": "crd", "n": 4, "n_treated": 1},
             "leave-one-out estimate undefined: no treated units remain after excluding "
             "unit 3 (estimator failed at support vector 0001)"),
            ({"support": ["0011", "0111", "1000", "1100"], "probs": [0.3, 0.2, 0.1, 0.4]},
             "leave-one-out estimate undefined: no control units remain after excluding "
             "unit 0 (estimator failed at support vector 0111)"),
        ],
        ids=["crd-4-1", "second-row"],
    )
    @pytest.mark.parametrize("mc", [[], ["--mc", "--mc-draws", "50"]], ids=["exact", "mc"])
    def test_oracle_names_the_failing_support_vector(self, tmp_path, capsys, design, message, mc):
        path = tmp_path / "design.json"
        path.write_text(json.dumps(design))
        table = tmp_path / "table.csv"
        table.write_text("unit_id,y0,y1\n1,1,3\n2,2,5\n3,4,4\n4,0,6\n")
        code = main(["oracle", "--design", str(path), "--table", str(table),
                     "--estimator", "imputation:theta-loo", *mc])
        assert code == 3
        assert capsys.readouterr().err == f"assumption violated: {message}\n"


class TestCliVerify:
    def test_all_suites_pass(self, capsys):
        assert main(["verify", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert not payload["failed_checks"]

    def test_single_suite(self, capsys):
        assert main(["verify", "--suite", "prop4"]) == 0
        assert "prop4" in capsys.readouterr().out

    def test_impossible_tolerance_exits_4(self, capsys):
        code = main(["verify", "--tolerance-verify", "1e-30"])
        assert code == 4
        assert "verification failed" in capsys.readouterr().err


class TestCliSimulate:
    def test_scenario_json(self, tmp_path, capsys):
        scenario = {
            "name": "cli-test",
            "design": {"support": ["1100", "0011", "1001", "0110"]},
            "outcome_model": {"kind": "heterogeneous"},
            "estimators": ["v_am", "imputation:theta-loo"],
            "n_replications": 3,
        }
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        code = main(
            ["simulate", "--scenario", str(cfg), "--out", str(out), "--seed", "4"]
        )
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "summary.json").exists()
        assert list(out.glob("boxplot-*.svg"))
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 2

    def test_scenario_ignores_inner_draws(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"name": "s", "design": _CRD, "outcome_model": "heterogeneous",
                                   "estimators": ["v_am"], "n_replications": 2}))
        for run, extra in (("plain", []), ("flagged", ["--inner-draws", "-1"])):
            args = ["simulate", "--scenario", str(cfg), "--out", str(tmp_path / run), *extra]
            assert main(args) == 0
        plain, flagged = (sorted((tmp_path / run).iterdir()) for run in ("plain", "flagged"))
        assert [p.name for p in plain] == [p.name for p in flagged]
        assert [p.read_bytes() for p in plain] == [p.read_bytes() for p in flagged]

    def test_study_b_outer_draws(self, tmp_path, capsys):
        out = tmp_path / "b"
        code = main(
            ["simulate", "--study", "b", "--reps", "1", "--inner-draws", "8",
             "--outer", "6", "--out", str(out)]
        )
        assert code == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 4 * 3  # header, four models x three estimators
        assert json.loads((out / "summary.json").read_text())["meta"]["n_outer"] == 6

    @pytest.mark.parametrize(
        "args",
        [["--study", "appendix-c", "--reps", "2", "--seed", "0"],
         ["--study", "b", "--reps", "1", "--inner-draws", "50", "--outer", "10"]],
        ids=["appendix-c", "study-b"],
    )
    def test_fixed_seed_gives_byte_identical_outputs(self, tmp_path, capsys, args):
        for run in ("first", "second"):
            code = main(["simulate", *args, "--out", str(tmp_path / run)])
            assert code == 0
        for name in ("results.csv", "summary.json"):
            first = (tmp_path / "first" / name).read_bytes()
            assert first == (tmp_path / "second" / name).read_bytes()

    def test_study_and_scenario_conflict(self, tmp_path, capsys):
        cfg = tmp_path / "s.json"
        cfg.write_text("{}")
        code = main(["simulate", "--study", "a", "--scenario", str(cfg)])
        assert code == 2


class TestCliParsing:
    def test_bad_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_global_flags_accepted_before_and_after_subcommand(self, capsys):
        assert main(["--json", "verify", "--suite", "prop4"]) == 0
        capsys.readouterr()
        assert main(["verify", "--suite", "prop4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
