"""Support passes that span many row blocks give the whole-support answer.

Every pass over an explicit design's support reads its packed rows in
blocks of about ``designs.ROW_BLOCK`` entries. Shrinking the block to 40
entries splits CRD(8,4)'s 70 rows into 14 blocks of 5, so each pass below
crosses many block boundaries; its answer must equal the one-block answer,
a whole-support kernel call, or a reference computed from the unpacked
support.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import designvar.designs
import designvar.imputation
from designvar import (
    AssignmentVector,
    build_crd,
    build_explicit,
    build_matched_pair,
    build_rerandomized,
    check_assumptions,
    full_substitute_map,
    imputation_bias_terms,
    true_variance,
)
from designvar import contrast
from designvar.core import WEIGHT_TOL, AssumptionError
from designvar.oracles import _kernel_values, ht_values
from designvar.simulate import _batch_kernel

from conftest import random_table, support_matrix

SMALL_BLOCK = 40

REGISTRY_NAMES = [
    "neyman", "v_sub", "mse_sub", "v_am", "decomposition", "imputation:fixed:0.5",
    "imputation:tau-hat", "imputation:tau-loo", "imputation:theta-loo",
]


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(designvar.designs, "ROW_BLOCK", SMALL_BLOCK)


def _whole_call(d, po, kernel) -> list[np.ndarray]:
    """The kernel called once on the whole unpacked support."""
    u = support_matrix(d)
    return kernel(u, np.where(u == 1, po.y1, po.y0))


def _assert_bits_equal(got: list[np.ndarray], want: list[np.ndarray]) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_the_small_block_splits_the_support(small_blocks):
    d = build_crd(8, 4)
    sizes = [len(u) for u, _ in d._blocks()]
    assert sizes == [5] * 14
    assert np.array_equal(np.concatenate([u for u, _ in d._blocks()]), support_matrix(d))


class TestKernelValues:
    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    def test_each_registry_name_equals_one_whole_call(self, small_blocks, name):
        d = build_crd(8, 4)
        po = random_table(np.random.default_rng(7), 8)
        kernel = _batch_kernel([name], d)
        _assert_bits_equal(_kernel_values(d, po, kernel), _whole_call(d, po, kernel))

    def test_v_pair_on_matched_pairs_equals_one_whole_call(self, small_blocks):
        d = build_matched_pair([(0, 4), (1, 5), (2, 6), (3, 7)])  # 16 rows, 4 blocks
        po = random_table(np.random.default_rng(8), 8)
        kernel = _batch_kernel(["v_pair", "v_sub", "neyman"], d)
        _assert_bits_equal(_kernel_values(d, po, kernel), _whole_call(d, po, kernel))

    def test_all_names_in_one_kernel(self, small_blocks):
        d = build_crd(8, 4)
        po = random_table(np.random.default_rng(9), 8)
        kernel = _batch_kernel(REGISTRY_NAMES, d)
        _assert_bits_equal(_kernel_values(d, po, kernel), _whole_call(d, po, kernel))

    def test_a_user_map_is_validated_once_per_pass(self, small_blocks, monkeypatch):
        d = build_crd(8, 4)
        g = full_substitute_map(d)
        calls = []
        normalize = contrast._normalize_g
        monkeypatch.setattr(
            contrast, "_normalize_g", lambda *args: calls.append(1) or normalize(*args)
        )
        po = random_table(np.random.default_rng(10), 8)
        kernel = _batch_kernel(["v_sub", "mse_sub"], d, substitutes=g)
        got = _kernel_values(d, po, kernel)
        assert len(calls) == 1  # one per kernel: not one per block, nor one per name
        _assert_bits_equal(got, _kernel_values(d, po, _batch_kernel(["v_sub", "mse_sub"], d)))

    @pytest.mark.parametrize("seed", ["zero", "none", "generator"])
    def test_monte_carlo_draws_once_per_pass(self, small_blocks, monkeypatch, seed):
        d = build_crd(8, 4)
        po = random_table(np.random.default_rng(11), 8)
        names = ["imputation:tau-hat", "neyman", "imputation:theta-loo"]

        def make(s):
            return {"zero": 0, "none": None, "generator": np.random.default_rng(s)}[seed]

        made = []
        real = designvar.imputation._mc_draws
        monkeypatch.setattr(designvar.imputation, "_mc_draws",
                            lambda *args: made.append(real(*args)) or made[-1])
        got = _kernel_values(d, po, _batch_kernel(names, d, mc_draws=300, seed=make(5)))
        assert len(made) == 1
        # the whole support scored in one call against the same draws
        monkeypatch.setattr(designvar.imputation, "_mc_draws", lambda *args: made[0])
        _assert_bits_equal(got, _whole_call(d, po, _batch_kernel(names, d, mc_draws=300)))
        if seed != "none":  # a seed that repeats gives the same draws to a fresh call
            monkeypatch.setattr(designvar.imputation, "_mc_draws", real)
            fresh = _batch_kernel(names, d, mc_draws=300, seed=make(5))
            _assert_bits_equal(got, _whole_call(d, po, fresh))

    def test_a_refusal_in_a_later_block_names_its_support_vector(self, monkeypatch):
        # the size-7 row sorts last: neyman refuses it, in the last block
        rows = [w.to_string() for w in build_crd(8, 4).support] + ["11111110"]
        d = build_explicit(rows, [1.0 / len(rows)] * len(rows))
        po = random_table(np.random.default_rng(12), 8)
        errors = []
        for block in (designvar.designs.ROW_BLOCK, SMALL_BLOCK):
            monkeypatch.setattr(designvar.designs, "ROW_BLOCK", block)
            with pytest.raises(AssumptionError) as exc:
                _kernel_values(d, po, _batch_kernel(["v_am", "neyman"], d))
            errors.append((str(exc.value), exc.value.row))
        assert len(list(d._blocks())) == 15
        assert errors[0] == errors[1]
        assert errors[1][0].endswith("(estimator failed at support vector 11111110)")
        assert errors[1][1] == d.index_of(AssignmentVector.from_string("11111110")) == 70


class TestKernelLifetime:
    """A batch kernel owns its state for its whole life: a second pass over
    the support reuses what the first made and gives the same bits."""

    def test_monte_carlo_draws_once_across_passes(self, small_blocks, monkeypatch):
        d = build_crd(8, 4)
        po = random_table(np.random.default_rng(16), 8)
        made, loo = [], []
        real, real_loo = designvar.imputation._mc_draws, designvar.imputation._loo_rows
        monkeypatch.setattr(designvar.imputation, "_mc_draws",
                            lambda *args: made.append(real(*args)) or made[-1])
        monkeypatch.setattr(designvar.imputation, "_loo_rows",
                            lambda *args: loo.append(1) or real_loo(*args))
        kernel = _batch_kernel(["imputation:tau-loo", "imputation:theta-loo"], d,
                               mc_draws=300, seed=1)
        first, second = [_kernel_values(d, po, kernel) for _ in range(2)]
        assert len(made) == 1
        # the guesses depend on the table: one leave-one-out pass per block, shared
        assert len(loo) == 2 * 14
        _assert_bits_equal(first, second)

    def test_a_user_map_is_validated_once_per_kernel(self, small_blocks, monkeypatch):
        d = build_crd(8, 4)
        g = full_substitute_map(d)
        calls = []
        normalize = contrast._normalize_g
        monkeypatch.setattr(
            contrast, "_normalize_g", lambda *args: calls.append(1) or normalize(*args)
        )
        po = random_table(np.random.default_rng(17), 8)
        kernel = _batch_kernel(["v_sub", "mse_sub"], d, substitutes=g)
        first, second = [_kernel_values(d, po, kernel) for _ in range(2)]
        assert len(calls) == 1  # one for both names, across both passes
        _assert_bits_equal(first, second)


class TestSupportSums:
    def test_ht_values_equal_the_one_block_values(self, monkeypatch):
        d = build_crd(8, 4)
        po = random_table(np.random.default_rng(13), 8)
        want = ht_values(d, po)
        monkeypatch.setattr(designvar.designs, "ROW_BLOCK", SMALL_BLOCK)
        got = ht_values(d, po)
        assert got.tobytes() == want.tobytes()

    def test_imputation_bias_terms_equal_the_one_block_terms(self, monkeypatch):
        d = build_crd(8, 4)
        po = random_table(np.random.default_rng(14), 8)
        w = d.vector(17)
        want = imputation_bias_terms(d, po, w, 0.3)
        monkeypatch.setattr(designvar.designs, "ROW_BLOCK", SMALL_BLOCK)
        assert imputation_bias_terms(d, po, w, 0.3) == want

    def test_rerandomized_filter_equals_the_one_block_filter(self, monkeypatch):
        x = np.random.default_rng(15).normal(size=(8, 2))
        want = build_rerandomized(build_crd(8, 4), x, 0.5)
        monkeypatch.setattr(designvar.designs, "ROW_BLOCK", SMALL_BLOCK)
        got = build_rerandomized(build_crd(8, 4), x, 0.5)
        assert got._packed.tobytes() == want._packed.tobytes()
        assert got.probs.tobytes() == want.probs.tobytes()


def _supports(n: int, rng: np.random.Generator) -> list[list[str]]:
    """Closed and non-closed supports on n units: a complete layer or two, a
    random set with its complements, and a random set without them."""
    layers = [w.to_string() for w in build_crd(n, n // 2).support]
    if n % 2:
        layers += [w.to_string() for w in build_crd(n, n // 2 + 1).support]
    masks = {int(m) for m in rng.integers(0, 1 << n, size=3 * n)}
    closed = masks | {m ^ ((1 << n) - 1) for m in masks}
    open_ = {m for m in masks if m ^ ((1 << n) - 1) not in masks}
    return [layers, layers[1:]] + [[format(m, f"0{n}b") for m in sorted(s)]
                                   for s in (closed, open_)]


def _reference_flags(d) -> tuple[bool, bool, str | None]:
    """Label-switching closure, fixed total weight and the first unmatched
    row, from the unpacked support."""
    u = support_matrix(d)
    pi = d.propensities
    rows = {tuple(r) for r in u.astype(int).tolist()}
    unmatched = [k for k, r in enumerate(u.astype(int).tolist())
                 if tuple(1 - b for b in r) not in rows]
    fixed = False
    if np.all((pi > 0.0) & (pi < 1.0)):
        weights = u @ (1.0 / pi) + (1.0 - u) @ (1.0 / (1.0 - pi))
        fixed = bool(np.all(np.abs(weights - 2.0 * d.n) <= WEIGHT_TOL))
    first = f"complement of {d.vector(unmatched[0])} is not in support" if unmatched else None
    return not unmatched, fixed, first


@pytest.mark.parametrize("n", [6, 9, 12])
def test_check_assumptions_matches_the_unpacked_reference(small_blocks, n):
    seen = set()
    for rows in _supports(n, np.random.default_rng(n)):
        d = build_explicit(rows, [1.0 / len(rows)] * len(rows))
        report = check_assumptions(d)
        closed, fixed, first = _reference_flags(d)
        assert report.closed_under_label_switching is closed
        assert report.details.get("closed_under_label_switching") == first
        assert report.fixed_total_weight is fixed
        seen.add((closed, report.fixed_total_weight))
    assert {True, False} <= {c for c, _ in seen}
    assert {True, False} <= {f for _, f in seen}


@pytest.mark.parametrize("call", [check_assumptions, true_variance])
def test_crd_20_10_memory_is_bounded(call):
    # 184,756 rows: an S x n float support matrix alone would take 28 MiB
    d = build_crd(20, 10)
    args = (d,) if call is check_assumptions else (d, random_table(np.random.default_rng(0), 20))
    tracemalloc.start()
    try:
        call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
