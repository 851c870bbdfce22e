"""The packed support of ExplicitDesign against a per-row construction.

Every builder must give the support order, probabilities, indicator
matrix, propensities and cell tables of the reference below, to the bit.
The reference is written out from scratch: one int mask per row, sorted as
ints, indicators read off the mask bits, and every probability the exact
ratio of an integer weight sum to the total weight, rounded once.
"""

from __future__ import annotations

import ast
import gc
import itertools
import math
import re
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import designvar as dv
from designvar import (
    AssignmentVector,
    AssumptionError,
    ExplicitDesign,
    ValidationError,
    build_crd,
    build_explicit,
    build_matched_pair,
    build_rerandomized,
    max_asmd,
    psi,
)
from designvar import contrast, simulate
from designvar.simulate import _empirical_design

from conftest import random_table


def _bits(n: int, masks: list[int]) -> np.ndarray:
    return np.array([[(m >> (n - 1 - k)) & 1 for k in range(n)] for m in masks], dtype=np.int64)


def _reference(n: int, masks: list[int], weights: list[int]) -> dict:
    """What the constructor must keep for these rows and whole-number weights."""
    order = sorted(range(len(masks)), key=masks.__getitem__)
    sorted_masks = [masks[k] for k in order]
    w = np.array([weights[k] for k in order], dtype=np.int64)
    u = _bits(n, sorted_masks)
    total = int(w.sum())
    ratio = np.vectorize(lambda count: float(Fraction(int(count), total)), otypes=[float])
    # the integer weight of each cell (W_i, W_j) = (a, b), counted directly
    arms = {1: u, 0: 1 - u}
    counts = [(arms[a] * w[:, None]).T @ arms[b] for a, b in ((1, 1), (1, 0), (0, 1), (0, 0))]
    return {
        "masks": sorted_masks,
        "probs": ratio(w),
        "matrix": u.astype(float),
        "propensities": ratio(w @ u),
        "cells": [ratio(c) for c in counts],
    }


def _crd_masks(n: int, k: int) -> list[int]:
    return [sum(1 << (n - 1 - i) for i in treated)
            for treated in itertools.combinations(range(n), k)]


def _crd_reference(n: int, k: int) -> dict:
    masks = _crd_masks(n, k)
    return _reference(n, masks, [1] * len(masks))


def _hex(a) -> list[str]:
    return [float(x).hex() for x in np.asarray(a).ravel().tolist()]


def _assert_matches(d: ExplicitDesign, ref: dict) -> None:
    assert [w.mask for w, _ in d.enumerate_support()] == ref["masks"]
    assert [w.mask for w in d.support] == ref["masks"]
    for name in ("probs", "propensities"):
        assert _hex(getattr(d, name)) == _hex(ref[name]), name
    blocks = [u for u, _ in d._blocks()]
    assert all(u.dtype == np.float64 and u.flags.c_contiguous for u in blocks)
    assert _hex(np.concatenate(blocks)) == _hex(ref["matrix"])
    for k, (got, want) in enumerate(zip(d.pairwise_cells(), ref["cells"])):
        assert _hex(got) == _hex(want), f"cell {k}"
    assert d.group_sizes.tolist() == ref["matrix"].sum(axis=1).astype(int).tolist()


@pytest.mark.parametrize("n, k", [(6, 3), (16, 8), (70, 2)])
def test_crd_matches_per_row_construction(n, k):
    # n = 70 packs each row into 9 bytes
    _assert_matches(build_crd(n, k), _crd_reference(n, k))


def test_matched_pairs_match_per_row_construction():
    pairs = [(0, 5), (1, 2), (3, 7), (4, 6)]
    masks = [sum(1 << (7 - i) for i in chosen) for chosen in itertools.product(*pairs)]
    _assert_matches(build_matched_pair(pairs), _reference(8, masks, [1] * 16))


def test_weighted_crossed_pairs_match_per_row_construction(weighted_crossed_pairs):
    # User float probabilities are summed and divided in float; no exactness is
    # claimed. On this support every sum has at most two nonzero terms, so the
    # formula below gives the same bits in any summation order.
    w = {"0011": 1.0 / 3.0, "0110": 1.0 / 6.0, "1001": 1.0 / 6.0, "1100": 1.0 / 3.0}
    t = math.fsum(w.values())
    s = [math.fsum(p for r, p in w.items() if r[i] == "1") for i in range(4)]
    n11 = [[math.fsum(p for r, p in w.items() if r[i] == r[j] == "1") for j in range(4)]
           for i in range(4)]
    cells = [
        [[n11[i][j] / t for j in range(4)] for i in range(4)],
        [[max((s[i] - n11[i][j]) / t, 0.0) for j in range(4)] for i in range(4)],
        [[max((s[j] - n11[i][j]) / t, 0.0) for j in range(4)] for i in range(4)],
        [[max((t - s[i] - s[j] + n11[i][j]) / t, 0.0) for j in range(4)] for i in range(4)],
    ]
    d = weighted_crossed_pairs
    assert [w.to_string() for w in d.support] == list(w)
    assert _hex(d.probs) == _hex([p / t for p in w.values()])
    assert _hex(d.propensities) == _hex([x / t for x in s])
    for k, (got, want) in enumerate(zip(d.pairwise_cells(), cells)):
        assert _hex(got) == _hex(want), f"cell {k}"


def _rerandomized_masks(n: int, x: np.ndarray, threshold: float) -> list[int]:
    return [m for m in _crd_masks(n, n // 2)
            if max_asmd(x, AssignmentVector(n, m)) < threshold]


def test_rerandomized_crd_matches_per_row_construction():
    x = np.random.default_rng(3).normal(size=(8, 2))
    masks = _rerandomized_masks(8, x, 0.5)
    d = build_rerandomized(build_crd(8, 4), x, 0.5)
    assert 0 < d.support_size < 70
    _assert_matches(d, _reference(8, masks, [1] * len(masks)))


def _draw_counts(draws: np.ndarray, symmetrize: bool) -> Counter[int]:
    n = draws.shape[1]
    counts: Counter[int] = Counter()
    for row in draws:
        mask = AssignmentVector.from_bits(row.tolist()).mask
        counts[mask] += 1
        if symmetrize:
            counts[mask ^ ((1 << n) - 1)] += 1
    return counts


@pytest.mark.parametrize("symmetrize", [True, False])
def test_empirical_design_matches_per_row_construction(symmetrize):
    rng = np.random.default_rng(7)
    draws = (rng.random((60, 10)) < 0.5).astype(np.int8)
    draws = np.concatenate([draws, draws[:25], draws[:5]])  # repeated draws
    counts = _draw_counts(draws, symmetrize)
    masks = sorted(counts)
    d = _empirical_design(draws) if symmetrize else ExplicitDesign._from_draws(draws)
    assert max(counts.values()) > 1
    _assert_matches(d, _reference(10, masks, [counts[m] for m in masks]))



@pytest.mark.parametrize("symmetrize", [True, False])
@pytest.mark.parametrize("n_draws", [8, 300])
def test_empirical_design_equals_row_unique_reference(n_draws, symmetrize):
    # the support and weights from packed keys equal np.unique over whole rows
    draws = build_crd(10, 5, cap=0).sample_matrix(n_draws, np.random.default_rng(n_draws))
    rows = np.concatenate([draws, 1 - draws]) if symmetrize else draws
    rows, counts = np.unique(rows, axis=0, return_counts=True)
    d = _empirical_design(draws) if symmetrize else ExplicitDesign._from_draws(draws)
    assert d._packed.tobytes() == np.packbits(rows, axis=1).tobytes()
    assert d._weights.tobytes() == counts.astype(float).tobytes()

def _exact_cases():
    x = np.random.default_rng(5).normal(size=(10, 2))
    draws = (np.random.default_rng(11).random((300, 8)) < 0.5).astype(np.int8)
    counts = _draw_counts(draws, True)
    pairs = [(0, 5), (1, 2), (3, 7), (4, 6)]
    return {
        "crd-10-5": (lambda: build_crd(10, 5), 10, dict.fromkeys(_crd_masks(10, 5), 1)),
        "crd-9-4": (lambda: build_crd(9, 4), 9, dict.fromkeys(_crd_masks(9, 4), 1)),
        "matched-pairs-4": (
            lambda: build_matched_pair(pairs), 8,
            dict.fromkeys((sum(1 << (7 - i) for i in c) for c in itertools.product(*pairs)), 1),
        ),
        "rerandomized-crd-10-5": (
            lambda: build_rerandomized(build_crd(10, 5), x, 0.3), 10,
            dict.fromkeys(_rerandomized_masks(10, x, 0.3), 1),
        ),
        "empirical-300": (lambda: _empirical_design(draws), 8, dict(counts)),
    }


@pytest.mark.parametrize("case", sorted(_exact_cases()))
def test_whole_number_weights_give_correctly_rounded_probabilities(case):
    build, n, weight = _exact_cases()[case]
    d = build()
    assert {w.mask for w in d.support} == set(weight)
    if case == "empirical-300":
        assert max(weight.values()) > 1  # repeated draws: weights above one
    total = sum(weight.values())
    vectors = [(AssignmentVector(n, m).bits, c) for m, c in weight.items()]

    def exact(*event) -> float:
        """Pr of the event ((unit, state), ...), as a correctly rounded ratio."""
        return float(Fraction(sum(c for b, c in vectors if all(b[i] == s for i, s in event)),
                              total))

    assert d.propensities.tolist() == [exact((i, 1)) for i in range(n)]
    cells = d.pairwise_cells()
    for i, j in itertools.permutations(range(n), 2):
        got = [float(cell[i, j]) for cell in cells]
        assert got == [exact((i, a), (j, b)) for a, b in ((1, 1), (1, 0), (0, 1), (0, 0))]


def test_pairwise_cells_memory_is_bounded():
    # 184,756 rows: a float support matrix alone would take 28 MiB
    d = build_crd(20, 10)
    tracemalloc.start()
    try:
        d.pairwise_cells()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_psi_memory_is_bounded():
    # the first call builds psi's n x n factor in row blocks, never an S x n float array
    d = build_crd(20, 10)
    tracemalloc.start()
    try:
        psi(d, np.arange(20.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _all_rows_design(n: int, keep, drop: int | None = None) -> ExplicitDesign:
    """Uniform design on every n-unit row whose treated count m passes
    ``keep(m)``, less the row ``drop`` of them if given."""
    rows = [r for r in itertools.product((0, 1), repeat=n) if keep(sum(r))]
    if drop is not None:
        del rows[drop]
    return ExplicitDesign(np.array(rows), np.full(len(rows), 1.0 / len(rows)))


class TestLookup:
    def test_rows_of_members_and_non_members(self):
        d = build_crd(70, 2)
        rows = np.zeros((5, 70), dtype=np.int8)
        rows[0, [0, 1]] = 1      # the largest key
        rows[1, [68, 69]] = 1    # the smallest key
        rows[2, [3, 40]] = 1
        rows[3, [0, 1, 2]] = 1   # three treated: above every key
        # rows[4] treats no one: below every key
        got = d.rows_of(rows)
        assert got.tolist() == [d.support_size - 1, 0, got[2], -1, -1]
        assert d.vector(int(got[2])).treated == (3, 40)

    def test_index_of_and_contains(self):
        d = build_crd(70, 2)
        w = AssignmentVector.from_bits([1] + [0] * 68 + [1])
        assert w in d
        assert d.support[d.index_of(w)] == w
        outside = AssignmentVector.from_bits([1, 1, 1] + [0] * 67)
        assert outside not in d
        with pytest.raises(ValidationError, match="not in the design support"):
            d.index_of(outside)
        short = AssignmentVector.from_bits([1, 1] + [0] * 67)
        assert short not in d
        with pytest.raises(ValidationError, match="69 units, design has 70"):
            d.index_of(short)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 65, 70])
    def test_single_vector_round_trip(self, n):
        rng = np.random.default_rng(n)
        masks = sorted({int.from_bytes(rng.bytes(9), "big") % (1 << n) for _ in range(12)})
        inside, outside = masks[: max(1, len(masks) // 2)], masks[max(1, len(masks) // 2):]
        rows = [[(m >> (n - 1 - k)) & 1 for k in range(n)] for m in inside]
        d = ExplicitDesign(np.array(rows), np.full(len(rows), 1.0 / len(rows)))
        full = (1 << n) - 1
        outside += [m for m in (0, full) if m not in inside]
        for k, m in enumerate(inside):
            w = AssignmentVector(n, m)
            bits = w.to_array()
            assert bits.dtype == np.int8 and bits.tolist() == rows[k]
            assert w in d and d.index_of(w) == k and d.vector(k) == w
        for m in outside:
            w = AssignmentVector(n, m)
            bits = w.to_array()
            assert bits.dtype == np.int8
            assert AssignmentVector.from_bits(bits) == w
            assert bits.tolist() == [(m >> (n - 1 - k)) & 1 for k in range(n)]
            assert w not in d
            with pytest.raises(ValidationError, match="is not in the design support"):
                d.index_of(w)

    @pytest.mark.parametrize("make, complete", [
        (lambda: build_crd(6, 3), "layers"),
        (lambda: _all_rows_design(6, lambda m: m in (2, 4)), "layers"),
        (lambda: build_matched_pair([(0, 3), (4, 1), (2, 5)]), "pairs"),
        (lambda: build_rerandomized(build_crd(6, 3), np.arange(6.0) ** 2, 0.5), None),
        (lambda: _all_rows_design(6, lambda m: m == 3, drop=5), None),
    ], ids=["crd-6-3", "layers-6-2-and-6-4", "pairs-3", "rerandomized-6-3", "crd-6-3-less-one"])
    @pytest.mark.parametrize("dtype", [np.int8, bool, float])
    def test_in_support_is_the_lookup(self, make, complete, dtype, monkeypatch):
        d = make()
        assert d.structure.complete == complete
        every = np.array(list(itertools.product((0, 1), repeat=6)), dtype=dtype)
        want = d.rows_of(every) >= 0
        found, find = [], ExplicitDesign._find
        monkeypatch.setattr(ExplicitDesign, "_find",
                            lambda self, packed: found.append(1) or find(self, packed))
        got = d.in_support(every)
        assert got.dtype == bool and got.tolist() == want.tolist()
        assert want.sum() == d.support_size
        assert bool(found) == (complete is None)  # a complete support needs no lookup

    def test_in_support_refuses_as_the_lookup_refuses(self):
        d = build_crd(6, 3)
        with pytest.raises(ValidationError, match=r"need \(k, 6\) assignments"):
            d.in_support(np.zeros((2, 5)))
        with pytest.raises(ValidationError, match="0 or 1, got 2.0"):
            d.in_support(np.array([[1.0, 2.0, 0.0, 1.0, 0.0, 0.0]]))

    def test_rows_of_rejects_a_wrong_width(self):
        with pytest.raises(ValidationError, match="assignments"):
            build_crd(6, 3).rows_of(np.zeros((2, 5)))

    @pytest.mark.parametrize("dtype", [float, int, bool, np.int8, np.uint8, np.float32])
    def test_rows_of_an_empty_batch_is_empty_for_every_dtype(self, dtype):
        got = build_crd(4, 2).rows_of(np.zeros((0, 4), dtype=dtype))
        assert got.shape == (0,) and got.tolist() == []

    @pytest.mark.parametrize("text", ["", "01a0", "0 1", "2", "0101b"])
    def test_from_string_refuses_anything_but_bits(self, text):
        with pytest.raises(ValidationError) as exc:
            AssignmentVector.from_string(text)
        assert str(exc.value) == f"assignment string must be nonempty 0/1, got {text!r}"

    def test_from_string_strips_surrounding_whitespace(self):
        assert AssignmentVector.from_string(" 0110\n") == AssignmentVector(4, 0b0110)


class TestConstructor:
    def test_rows_are_sorted_with_their_probabilities(self):
        d = ExplicitDesign(np.array([[1, 1, 0], [0, 0, 1], [1, 0, 0]]), [0.5, 0.25, 0.25])
        assert [w.to_string() for w in d.support] == ["001", "100", "110"]
        assert d.probs.tolist() == [0.25, 0.25, 0.5]

    @pytest.mark.parametrize("rows, match", [
        (np.array([[0, 1], [2, 0]]), "0 or 1, got 2"),
        (np.array([[0.0, 1.0], [0.5, 0.0]]), "0 or 1, got 0.5"),
        (np.array([[-1, 1], [1, 0]]), "0 or 1, got -1"),
        (np.array([[1, 0, 1], [1, 0, 1]]), "distinct"),
        (np.zeros((0, 3)), "empty"),
        ([[1, 0], [0, 1, 1]], "mixed lengths"),
        (np.array([1, 0, 1]), r"2-D, got shape \(3,\)"),
        (np.zeros((2, 3, 1), dtype=np.uint8), r"2-D, got shape \(2, 3, 1\)"),
    ])
    def test_bad_rows_rejected(self, rows, match):
        with pytest.raises(ValidationError, match=match):
            ExplicitDesign(rows, [0.5, 0.5])

    def test_probability_count_checked(self):
        with pytest.raises(ValidationError, match="3 support vectors but 2 probabilities"):
            ExplicitDesign(np.eye(3, dtype=np.uint8), [0.5, 0.5])

    def test_pair_labels_checked(self):
        # labels that do not partition units 0..n-1 are refused when the design is built
        with pytest.raises(ValidationError, match="pair labels must partition units 0..n-1"):
            build_explicit(["10", "01"], [0.5, 0.5], pairs=((0, 3),))

    @pytest.mark.parametrize("make", [
        lambda labels: build_explicit(["1000", "0111"], [0.5, 0.5], pairs=labels),
        lambda labels: dv.ObservedData(AssignmentVector.from_string("1000"), np.zeros(4),
                                       pair_labels=labels),
        lambda labels: build_matched_pair(labels),
    ], ids=["build-explicit", "observed-data", "build-matched-pair"])
    @pytest.mark.parametrize("labels, named", [
        (((0, 1, 2), (3,)), r"\(0, 1, 2\)"),
        (((0.5, 1), (2, 3)), r"\(0\.5, 1\)"),
        ((("0", "1"), ("2", "3")), r"\('0', '1'\)"),
        (((0, float("inf")), (1, 2)), r"\(0, inf\)"),
    ], ids=["three-units", "fraction", "strings", "infinite"])
    def test_a_label_that_is_not_a_pair_is_named(self, make, labels, named):
        with pytest.raises(ValidationError, match=rf"pair label {named} does not name two units"):
            make(labels)

    def test_whole_labels_of_any_number_type_are_units(self):
        d = build_explicit(["1010", "0101"], [0.5, 0.5], pairs=((0.0, np.int64(1)), (2, 3)))
        assert d.pairs == ((0, 1), (2, 3)) and all(type(u) is int for ab in d.pairs for u in ab)

    def test_shuffled_rows_sort_with_their_weights(self):
        d = build_crd(7, 3)
        rows = np.unpackbits(d._packed, axis=1, count=7)
        weights = np.arange(1.0, d.support_size + 1.0)
        shuffle = np.random.default_rng(3).permutation(d.support_size)
        given = weights[shuffle]
        ordered, shuffled = ExplicitDesign(rows, weights), ExplicitDesign(rows[shuffle], given)
        for name in ("_packed", "_weights", "probs"):
            assert getattr(shuffled, name).tobytes() == getattr(ordered, name).tobytes(), name
        # the design keeps its own sorted copy: the caller's weights stay as given
        assert given.flags.writeable and given.tolist() == weights[shuffle].tolist()
        with pytest.raises(ValidationError, match="support vectors must be distinct"):
            ExplicitDesign(np.concatenate([rows[shuffle], rows[5:6]]), np.ones(len(rows) + 1))


def _handed_rows(monkeypatch, build):
    """The packed rows each ExplicitDesign that ``build()`` makes is handed."""
    handed = []
    init = ExplicitDesign._init_packed

    def spy(self, packed, *args, **kwargs):
        handed.append(packed.copy())
        init(self, packed, *args, **kwargs)

    monkeypatch.setattr(ExplicitDesign, "_init_packed", spy)
    build()
    return handed


@pytest.mark.parametrize("build", [
    lambda: build_crd(9, 4), lambda: build_crd(10, 1), lambda: build_crd(12, 6),
    lambda: build_crd(17, 3),
    lambda: build_matched_pair(((5, 2), (0, 7), (3, 1), (6, 4))),
    lambda: build_matched_pair([(2 * j + 1, 2 * j) for j in range(6)][::-1]),
    lambda: build_matched_pair([(j, 19 - j) for j in range(10)]),
    lambda: build_rerandomized(build_crd(12, 6), np.random.default_rng(2).normal(size=(12, 2)),
                               0.3),
    lambda: ExplicitDesign._from_draws(
        build_crd(10, 5, cap=0).sample_matrix(300, np.random.default_rng(4))),
], ids=["crd-9-4", "crd-10-1", "crd-12-6", "crd-17-3", "pairs-shuffled", "pairs-reversed",
        "pairs-nested", "rerandomized-crd-12-6", "draws"])
def test_builders_hand_strictly_ascending_rows(build, monkeypatch):
    # the design keeps the rows it is handed, so each builder writes them in order
    handed = _handed_rows(monkeypatch, build)
    assert handed
    for packed in handed:
        keys = [row.tobytes() for row in packed]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_rows_handed_out_of_order_are_refused():
    # the design looks rows up by binary search, so a builder's order is checked
    packed = build_crd(6, 3)._packed
    with pytest.raises(ValidationError, match="support rows must ascend by their bytes"):
        ExplicitDesign._from_packed(packed[::-1].copy(), 6, np.ones(len(packed)))
    with pytest.raises(ValidationError, match="support vectors must be distinct"):
        ExplicitDesign._from_packed(packed[[0, 1, 1, 2]].copy(), 6, np.ones(4))


@pytest.fixture(params=[None, 40], ids=["default-block", "block-40"])
def row_block(request, monkeypatch):
    if request.param is not None:  # 40 entries: the rerandomized filter scores many blocks
        monkeypatch.setattr(dv.designs, "ROW_BLOCK", request.param)


def _product_rows(n: int, pairs) -> np.ndarray:
    """One 0/1 row per choice of a treated unit in each pair."""
    rows = np.zeros((1 << len(pairs), n), dtype=np.int64)
    for r, treated in enumerate(itertools.product(*pairs)):
        rows[r, list(treated)] = 1
    return rows


def _builder_cases():
    x = np.random.default_rng(5).normal(size=(10, 2))
    draws = build_crd(10, 5, cap=0).sample_matrix(300, np.random.default_rng(4))
    crd_rows = np.array([[int(i in c) for i in range(9)]
                         for c in itertools.combinations(range(9), 4)])

    def rerandomized_rows():
        rows = np.array([w.bits for w in build_crd(10, 5).support if max_asmd(x, w) < 0.3])
        return rows, np.ones(len(rows))

    def empirical_rows(symmetrize):
        rows = np.concatenate([draws, 1 - draws]) if symmetrize else draws
        return np.unique(rows, axis=0, return_counts=True)

    return {
        "crd-9-4": (lambda: build_crd(9, 4), lambda: (crd_rows, np.ones(len(crd_rows)))),
        "pairs-out-of-order": (
            lambda: build_matched_pair([(5, 0), (1, 4), (3, 2)]),
            lambda: (_product_rows(6, [(5, 0), (1, 4), (3, 2)]), np.ones(8)),
        ),
        "pairs-10-units": (
            lambda: build_matched_pair([(9, 0), (1, 8), (7, 2), (3, 6), (4, 5)]),
            lambda: (_product_rows(10, [(9, 0), (1, 8), (7, 2), (3, 6), (4, 5)]), np.ones(32)),
        ),
        "rerandomized-crd-10-5": (
            lambda: build_rerandomized(build_crd(10, 5), x, 0.3),
            rerandomized_rows,
        ),
        "empirical-symmetrized": (lambda: _empirical_design(draws), lambda: empirical_rows(True)),
        "empirical": (
            lambda: ExplicitDesign._from_draws(draws), lambda: empirical_rows(False),
        ),
    }


@pytest.mark.parametrize("case", sorted(_builder_cases()))
def test_builders_hand_the_constructor_its_packed_rows(case, row_block):
    # each builder's packed rows give the bytes of the public constructor on 0/1 rows
    build, reference = _builder_cases()[case]
    d = build()
    rows, weights = reference()
    ref = ExplicitDesign(rows, weights)
    assert d.n == ref.n and d._packed.shape == ref._packed.shape
    for name in ("_packed", "_weights", "probs"):
        assert getattr(d, name).tobytes() == getattr(ref, name).tobytes(), name


def test_matched_pair_build_memory_is_bounded():
    # 18 pairs, 262,144 rows of 5 packed bytes: an (S, n) uint8 row array alone takes 9 MiB.
    # The build holds the design's packed rows and weights, plus one byte a row for the
    # duplicate check: rows written in order need no sort, nor sorted copies
    tracemalloc.start()
    try:
        d = build_matched_pair([(2 * j, 2 * j + 1) for j in range(18)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (d._packed.nbytes + d._weights.nbytes + d.support_size)


def test_only_designs_reads_the_packed_format():
    # contrast and simulate read a support through ExplicitDesign's helpers
    names = (r"\b(_packed|_packed_columns|_POPCOUNT|_BYTE_VALUES|_byte_tables|_lookup"
             r"|packbits|unpackbits|_pack)\b")
    for module in (contrast, simulate):
        source = Path(module.__file__).read_text()
        assert re.findall(names, source) == [], module.__name__
    imported = {alias.name for node in ast.walk(ast.parse(Path(contrast.__file__).read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "designs"
                for alias in node.names}
    assert imported == {"Design", "ExplicitDesign"}


def test_hot_paths_leave_the_support_undecoded():
    d = build_crd(8, 4)
    dv.check_assumptions(d)
    obs = dv.reveal(random_table(np.random.default_rng(1), 8), d.vector(9))
    dv.v_sub(d, obs)
    dv.mse_sub_epsem(d, obs)
    spec = dv.ScenarioSpec("x", d, dv.OutcomeModel.heterogeneous(),
                           estimators=("v_sub", "v_am", "imputation:theta-loo"),
                           n_replications=1)
    dv.run_study(spec)
    assert "support" not in d.__dict__


def test_study_b_leaves_the_empirical_support_undecoded(monkeypatch):
    built = []

    def spy(draws):
        built.append(_empirical_design(draws))
        return built[-1]

    monkeypatch.setattr(dv.simulate, "_empirical_design", spy)
    dv.run_study_b(n_replications=1, n_inner_draws=8, n_outer=6)
    assert len(built) == 1
    assert "support" not in built[0].__dict__


def test_pairwise_cells_built_once_and_read_only():
    d = build_crd(8, 4)
    cells = d.pairwise_cells()
    assert d.pairwise_cells() is cells
    assert all(not c.flags.writeable for c in cells)


def test_substitution_mode_is_worked_out_once(monkeypatch):
    good, bad = build_crd(8, 4), build_crd(8, 2)
    first = contrast.substitution_mode(good)
    with pytest.raises(AssumptionError) as exc1:
        contrast.substitution_mode(bad)

    def fail(d):
        raise AssertionError("group sizes recounted")

    monkeypatch.setattr(contrast, "_group_sizes", fail)
    assert contrast.substitution_mode(good) == first == "equal-size"
    with pytest.raises(AssumptionError) as exc2:
        contrast.substitution_mode(bad)
    assert str(exc2.value) == str(exc1.value)


def test_a_cached_refusal_does_not_keep_the_design_alive():
    d = build_crd(6, 3)
    with pytest.raises(AssumptionError):
        contrast.substitution_mode(d)
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None
