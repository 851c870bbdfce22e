"""Golden SHA-256 digests of ``designvar simulate`` outputs.

The digests pin results.csv, summary.json and every box-plot SVG of two
fixed-seed runs, so a change to how the studies are scored or summarized
must leave every output byte the same. The appendix-c run has 150
replications, enough for the summary means to reach numpy's pairwise
summation. The SVG digests were made with the code before the imputation
family kernel and the stacked summary; the results.csv and summary.json
digests with the exact design probabilities from whole-number weights,
which moved values by at most 1.5e-11 relative. All on numpy 2.4.
"""

from __future__ import annotations

import hashlib

import pytest

from designvar.cli import main

GOLDEN = {
    "appendix-c": (
        ["--study", "appendix-c", "--reps", "150", "--seed", "0"],
        {
            "boxplot-scenario-1.svg": "67c14ee64a9610b6af1e4f93005bc11867ac97d1935146113b13631256bf88a4",
            "boxplot-scenario-2.svg": "2574a93df414eee6371d69d2c4ce1ed3f7b375170f6a72178f2c79e32af19ad1",
            "boxplot-scenario-3.svg": "e456ac14d486ded1bac3a6ecbaec7113f61704365f194a797e74904ae40b14b7",
            "boxplot-scenario-4.svg": "e1b8e42028eb11f03a42cf74aa9cc9cf1f1dfd9c7ec948e660b3dfea4a36bd18",
            "boxplot-scenario-5.svg": "b9a7fbd1f91bd91c6858d84d7c553e11326fef2204b2c7cb59146c158a3481d9",
            "boxplot-scenario-6.svg": "8207c19ca5e75d34b83b468bbecfeeb641009ea7051f2ca3488a4d56930894e4",
            "results.csv": "ae3cefcd4ed65385c5b13686f63487706d6c3f44ffe40ca66730eb312d6e2af1",
            "summary.json": "035fec477006f5a6e32698512d9c3544cfd6b1a3773535c8318d24cad2d72e2f",
        },
    ),
    "study-b": (
        ["--study", "b", "--reps", "2", "--inner-draws", "300", "--outer", "40", "--seed", "1"],
        {
            "boxplot-study-b-constant_fixed.svg": "88d32e809832371e2ec7d027065400cc8e25a83fb96d3e020dcc2766b6e52de1",
            "boxplot-study-b-constant_random.svg": "79f814b7c05dd45210f13451f38405e8e5639aff0191917cba2c4dda573b06d2",
            "boxplot-study-b-heterogeneous.svg": "3d649bb0387c3fadb42ff36d0c1e5cbf847542a3814f919f8083f429320fe16d",
            "boxplot-study-b-no_effect.svg": "3af1c3065064d5978987a35dc4b49c86c82982c1dbda5c2413baabc680130770",
            "results.csv": "dbe72d7e02bc4d5d665e4c6086dabdc39b0d6d9302430bc5aa91f477b7a7c5ff",
            "summary.json": "ff560881f236a0b273aa630c5cb3b3c4672da12f9f7b791156aa57a951729423",
        },
    ),
}


@pytest.mark.parametrize("study", sorted(GOLDEN))
def test_simulate_outputs_match_golden_digests(study, tmp_path, capsys):
    args, digests = GOLDEN[study]
    assert main(["simulate", *args, "--out", str(tmp_path)]) == 0
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert got == digests
