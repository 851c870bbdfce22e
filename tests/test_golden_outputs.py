"""Golden SHA-256 digests of ``designvar simulate`` outputs.

The digests pin results.csv, summary.json and every box-plot SVG of three
fixed-seed runs, so a change to how the studies are scored or summarized
must leave every output byte the same. The appendix-c run has 150
replications, enough for the summary means to reach numpy's pairwise
summation. The SVG digests were made with the code before the imputation
family kernel and the stacked summary. The results.csv and summary.json
digests were made with psi read from the design's n x n support factor
(R'R = D' diag(p) D), which moved imputation values by at most 1.4e-14
absolute (appendix-c) and 1.9e-14 relative (study-b) from the support-sum
psi. The study-b results.csv and summary.json digests were then made with
v_am scored as one quadratic form z'Mz per table instead of an fsum of its
pair terms, which moved 17 of 72 study-b results.csv values (all v_am) by at
most 1.2e-14 relative and 31 summary.json values by at most 3.3e-16
absolute; no appendix-c or SVG digest moved. The results.csv and
summary.json digests of both runs were then made with tau-loo and theta-loo
as one matrix-vector product per row with the design's leave-one-out
operator (1/Pr(W_j = b | W_i = a), built once per design) instead of a sum
of quotients over a (rows, n, n) conditional block. That moved only
leave-one-out values: appendix-c results.csv 1,187 of 7,200 values by at
most 1.6e-15 relative, its summary.json 56 values by at most 7.1e-15
absolute (1.0e-15 relative); study-b results.csv 14 of 72 values by at most
7.0e-16 relative, its summary.json 17 values by at most 2.8e-17 absolute
(6.9e-16 relative). No SVG digest moved. All on numpy 2.4.

The study-a digests, of a two-replication run, were made with the code
before studies A and C were scored by one scenario runner, when each
scenario was scored and summarized on its own and the per-scenario results
were merged and summarized again.
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
            "results.csv": "ad38024f9a2727401c1fa8e1159652b337c992c3091df3e9c8632c3dfec51440",
            "summary.json": "f50086ce8be8d137f6c0fdf416ba64935a6041b561c32ae916cebfb81d7ed873",
        },
    ),
    "study-a": (
        ["--study", "a", "--reps", "2", "--seed", "0"],
        {
            "boxplot-study-a-constant_fixed.svg": "d77d19d2ba7cc8270a62e87109f86e2955c3a020bfa843db35888744b0e5dc83",
            "boxplot-study-a-constant_random.svg": "527ede4aaf31e9ddb8e2d31dc3c2b8a65781dbc4974f3c8f666cc2e192bcfefe",
            "boxplot-study-a-heterogeneous.svg": "624a64989d93d8991dd3ef02a468e15a85d610c2e7e93af388025fb63dd7f9cf",
            "boxplot-study-a-no_effect.svg": "77a03b9508629e3db9a3273d9f2610edbb37d0c00707f0ead43d5886a17eb862",
            "results.csv": "96d96f20d1e9b23f0d95a4568465201d2af9e06f49abedde5c64b5853ce2df6e",
            "summary.json": "bdcdb1362fd208aa6088f9ef049f49d7057708acae2fd0c73e4942257c2f22d2",
        },
    ),
    "study-b": (
        ["--study", "b", "--reps", "2", "--inner-draws", "300", "--outer", "40", "--seed", "1"],
        {
            "boxplot-study-b-constant_fixed.svg": "88d32e809832371e2ec7d027065400cc8e25a83fb96d3e020dcc2766b6e52de1",
            "boxplot-study-b-constant_random.svg": "79f814b7c05dd45210f13451f38405e8e5639aff0191917cba2c4dda573b06d2",
            "boxplot-study-b-heterogeneous.svg": "3d649bb0387c3fadb42ff36d0c1e5cbf847542a3814f919f8083f429320fe16d",
            "boxplot-study-b-no_effect.svg": "3af1c3065064d5978987a35dc4b49c86c82982c1dbda5c2413baabc680130770",
            "results.csv": "d7e3905b4fd6af9ba69b252f99cc0ce042886f547d6d4be842a6cf96a1cc55bc",
            "summary.json": "e9c6b23028e905aafbd32f1796ae563cbda2420c2fefd4b314d7ed4fb977a0e8",
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
