"""Substitute predicates and the contrast family of variance estimators."""

from __future__ import annotations

import math

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
    estimator_expectation,
    full_substitute_map,
    full_substitute_set,
    is_substitute,
    mse_sub_epsem,
    neyman_variance,
    reveal,
    substitution_mode,
    true_mse_hajek,
    true_variance,
    v_pair,
    v_sub,
)
from designvar import contrast
from designvar.contrast import substitute_counts
from designvar.core import EST_RTOL, ROW_BLOCK, _row_failure
from designvar.designs import ExplicitDesign

from conftest import random_table


def _av(bits: str) -> AssignmentVector:
    return AssignmentVector.from_string(bits)


class TestIsSubstitute:
    def test_half_swap_is_substitute(self):
        assert is_substitute(_av("1100"), _av("1001"), "equal-size")

    def test_complement_is_not(self):
        assert not is_substitute(_av("1100"), _av("0011"), "equal-size")

    def test_epsem_overlap_counting(self):
        # N=18, N_t=6, overlap k=2: a substitute treats 2 of the anchor's 6
        # treated units and 4 of its 12 controls.
        w = _av("1" * 6 + "0" * 12)
        cand = _av("110000" + "111100000000")
        assert is_substitute(w, cand, "epsem")
        off_count = _av("100000" + "111110000000")
        assert not is_substitute(w, off_count, "epsem")

    def test_equal_size_divisibility_enforced(self):
        with pytest.raises(AssumptionError, match="substitution undefined"):
            is_substitute(_av("110100"), _av("011010"), "equal-size")

    def test_epsem_integrality_enforced(self):
        # N=8, N_t=2 gives k = 4/8, not an integer.
        with pytest.raises(AssumptionError, match="substitution undefined"):
            is_substitute(_av("11000000"), _av("00110000"), "epsem")


class TestFullSubstituteSet:
    def test_crossed_pairs_anchor(self, crossed_pairs):
        sub = full_substitute_set(crossed_pairs, _av("1100"))
        members = sorted(m.to_string() for m in sub.members)
        assert members == ["0110", "1001"]
        assert sub.is_label_closed

    def test_crd_4_2_counts(self, crd42):
        for w, _ in crd42.enumerate_support():
            assert len(full_substitute_set(crd42, w)) == 4

    def test_crd_8_4_counts(self):
        d = build_crd(8, 4)
        w = _av("11110000")
        assert len(full_substitute_set(d, w)) == 36

    def test_crd_16_4_epsem_counts(self):
        d = build_crd(16, 4)
        assert substitution_mode(d) == "epsem"
        w = _av("1111" + "0" * 12)
        # k = 1: choose 1 of 4 treated and 3 of 12 controls.
        assert len(full_substitute_set(d, w)) == 4 * math.comb(12, 3)

    def test_anchor_not_in_support(self, crossed_pairs):
        with pytest.raises(ValidationError, match="support"):
            full_substitute_set(crossed_pairs, _av("1010"))

    def test_membership_symmetry(self, crossed_pairs):
        for w, _ in crossed_pairs.enumerate_support():
            for member in full_substitute_set(crossed_pairs, w):
                assert w in full_substitute_set(crossed_pairs, member)

    def test_cap_enforced(self):
        d = build_crd(16, 4)
        with pytest.raises(AssumptionError, match="cap"):
            full_substitute_set(d, _av("1111" + "0" * 12), cap=10)


class TestSubstitutionMode:
    def test_equal_size_designs(self, crossed_pairs):
        assert substitution_mode(crossed_pairs) == "equal-size"
        assert substitution_mode(build_crd(8, 4)) == "equal-size"

    def test_epsem_fallback(self):
        assert substitution_mode(build_crd(16, 4)) == "epsem"

    def test_non_integral_overlap_errors(self):
        with pytest.raises(AssumptionError, match="substitution undefined"):
            substitution_mode(build_crd(8, 2))


class TestVSub:
    def test_crossed_pairs_hand_value(self, crossed_pairs):
        obs = ObservedData(_av("1001"), np.array([3.0, 2.0, 3.0, 6.0]))
        assert float(v_sub(crossed_pairs, obs)) == pytest.approx(4.0, rel=1e-12)

    def test_constant_outcomes_give_zero(self, crossed_pairs):
        obs = ObservedData(_av("1100"), np.full(4, 9.0))
        assert float(v_sub(crossed_pairs, obs)) == pytest.approx(0.0, abs=1e-12)

    def test_equals_two_sample_on_crd(self):
        d = build_crd(8, 4)
        rng = np.random.default_rng(0)
        po = random_table(rng, 8)
        for w, _ in d.enumerate_support():
            obs = reveal(po, w)
            assert float(v_sub(d, obs)) == pytest.approx(
                float(neyman_variance(obs)), rel=1e-10
            )
            break  # spot check one vector here; the acceptance suite sweeps all

    def test_nonnegative(self, crossed_pairs):
        rng = np.random.default_rng(1)
        for _ in range(20):
            po = random_table(rng, 4)
            for w, _ in crossed_pairs.enumerate_support():
                assert float(v_sub(crossed_pairs, reveal(po, w))) >= 0.0

    def test_string_keyed_substitute_map(self, crossed_pairs):
        g = {
            "1100": ["1001", "0110"],
            "0011": ["1001", "0110"],
            "1001": ["1100", "0011"],
            "0110": ["1100", "0011"],
        }
        obs = ObservedData(_av("1001"), np.array([3.0, 2.0, 3.0, 6.0]))
        assert float(v_sub(crossed_pairs, obs, g)) == pytest.approx(4.0, rel=1e-12)

    def test_missing_anchor_in_custom_map(self, crossed_pairs):
        g = {"1100": ["1001"], "0011": ["1001"], "1001": ["1100"]}
        obs = ObservedData(_av("1001"), np.array([3.0, 2.0, 3.0, 6.0]))
        with pytest.raises(ValidationError, match="0110"):
            v_sub(crossed_pairs, obs, g)

    def test_non_substitute_member_rejected(self, crossed_pairs):
        g = {
            "1100": ["0011"],  # complement, not a substitute
            "0011": ["1001"],
            "1001": ["1100"],
            "0110": ["1100"],
        }
        obs = ObservedData(_av("1100"), np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValidationError):
            v_sub(crossed_pairs, obs, g)

    def test_realized_assignment_must_be_supported(self, crossed_pairs):
        obs = ObservedData(_av("1010"), np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValidationError):
            v_sub(crossed_pairs, obs)

    def test_conservative_with_homogeneous_sharpness(self, crossed_pairs):
        rng = np.random.default_rng(2)
        est = lambda obs: float(v_sub(crossed_pairs, obs))
        for _ in range(20):
            po = random_table(rng, 4)
            gap = estimator_expectation(crossed_pairs, po, est) - true_variance(
                crossed_pairs, po
            )
            assert gap >= -1e-10
        po = random_table(rng, 4, homogeneous=True)
        gap = estimator_expectation(crossed_pairs, po, est) - true_variance(
            crossed_pairs, po
        )
        assert abs(gap) <= 1e-10 * max(1.0, true_variance(crossed_pairs, po))


_CROSSED_MAP = {
    "1100": ["1001", "0110"],
    "0011": ["1001", "0110"],
    "1001": ["1100", "0011"],
    "0110": ["1100", "0011"],
}


def _edited(**entries):
    """The crossed-pairs map with entries replaced (None drops one), in dict
    order: replaced keys keep their place, new keys come first."""
    g = {k.lstrip("_"): v for k, v in entries.items() if k.lstrip("_") not in _CROSSED_MAP}
    for key, members in _CROSSED_MAP.items():
        members = entries.get("_" + key, members)
        if members is not None:
            g[key] = members
    return g


class TestUserMapRefusals:
    """Each refusal of a user substitute map, with its message. The first bad
    entry in dict order is named; within an entry the anchor is checked
    before its members, every member is parsed before any is checked, and
    members are checked in list order."""

    @pytest.mark.parametrize(
        "g, error, message",
        [
            (_edited(_1010=["1001"]), ValidationError,
             "anchor 1010 is not in the design support"),
            (_edited(_1100=[]), AssumptionError,
             "empty substitute set supplied for anchor 1100"),
            (_edited(_1100=["1001", "1010"]), ValidationError,
             "substitute 1010 of anchor 1100 is not in the design support"),
            (_edited(_1100=["1001", "0011"]), ValidationError,
             "0011 is not a substitute of 1100"),
            (_edited(_0110=None), ValidationError,
             "substitute map does not cover the support: no entry for 0110"),
            (_edited(_110=["1001"]), ValidationError,
             "assignment has 3 units, expected 4"),
            (_edited(_1001=["1100", "00110"]), ValidationError,
             "assignment has 5 units, expected 4"),
            (_edited(_1100=["1x01"]), ValidationError,
             "assignment string must be nonempty 0/1, got '1x01'"),
            (_edited(_11z0=["1001"]), ValidationError,
             "assignment string must be nonempty 0/1, got '11z0'"),
            # two bad entries: the first in dict order is named
            (_edited(_0011=["1100"], _1001=["0110", "1010"]), ValidationError,
             "1100 is not a substitute of 0011"),
            (_edited(_1100=["1001"], _0011=[]), AssumptionError,
             "empty substitute set supplied for anchor 0011"),
            # the anchor's own checks run before its members'
            (_edited(_1010=["10x1", "0011"]), ValidationError,
             "anchor 1010 is not in the design support"),
            # members in list order: support and substitute checks alike
            (_edited(_1100=["0011", "1010"]), ValidationError,
             "0011 is not a substitute of 1100"),
            (_edited(_1100=["1010", "0011"]), ValidationError,
             "substitute 1010 of anchor 1100 is not in the design support"),
            # every member parses before any member is checked
            (_edited(_1100=["0011", "10x1"]), ValidationError,
             "assignment string must be nonempty 0/1, got '10x1'"),
            # a value that is not a member list is refused in its entry's turn
            (_edited(_1010=5), ValidationError,
             "anchor 1010 is not in the design support"),
            (_edited(_1100=5), TypeError, "'int' object is not iterable"),
            (_edited(_1100=["1001", "0011"], _0011=5), ValidationError,
             "0011 is not a substitute of 1100"),
        ],
        ids=[
            "anchor-off-support", "empty-members", "member-off-support",
            "not-a-substitute", "uncovered-support", "short-anchor", "long-member",
            "malformed-member", "malformed-anchor", "first-of-two-entries",
            "empty-after-valid", "anchor-before-members", "substitute-check-first",
            "support-check-first", "parse-before-checks", "unlisted-value-off-support",
            "unlisted-value", "unlisted-value-after-bad",
        ],
    )
    def test_refusal_message(self, crossed_pairs, g, error, message):
        obs = ObservedData(_av("1001"), np.array([3.0, 2.0, 3.0, 6.0]))
        with pytest.raises(error) as exc:
            v_sub(crossed_pairs, obs, g)
        assert str(exc.value) == message
        with pytest.raises(error) as exc:
            mse_sub_epsem(crossed_pairs, obs, g)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "g",
        [
            _edited(_1100=["1001", "0110", "1001"], _0110=["0011", "1100", "0011"]),
            {_av(k): v for k, v in _CROSSED_MAP.items()},
            {_av(k): [_av(m) for m in v] for k, v in _CROSSED_MAP.items()},
            {k: [tuple(int(b) for b in m) for m in v] for k, v in _CROSSED_MAP.items()},
            "full-map",
        ],
        ids=["duplicate-members", "vector-keys", "vector-members", "bit-tuples",
             "substitute-sets"],
    )
    def test_accepted_forms_match_default(self, crossed_pairs, g):
        if g == "full-map":
            g = full_substitute_map(crossed_pairs)
        po = random_table(np.random.default_rng(9), 4)
        for w in crossed_pairs.support:
            obs = reveal(po, w)
            assert v_sub(crossed_pairs, obs, g).value == v_sub(crossed_pairs, obs).value
            got = mse_sub_epsem(crossed_pairs, obs, g)
            assert got.value == mse_sub_epsem(crossed_pairs, obs).value
            assert got.params["contributing_anchors"] == 2


class TestVPair:
    def test_equal_differences_give_zero(self):
        obs = ObservedData(
            _av("1100"),
            np.array([1.0, 2.0, 3.0, 4.0]),
            pair_labels=((0, 2), (1, 3)),
        )
        assert float(v_pair(obs)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_substitute_estimator_on_pairs(self):
        pairs = [(0, 4), (1, 5), (2, 6), (3, 7)]
        d = build_matched_pair(pairs)
        rng = np.random.default_rng(3)
        po = random_table(rng, 8)
        for w, _ in d.enumerate_support():
            obs = reveal(po, w, pair_labels=tuple(pairs))
            assert float(v_pair(obs)) == pytest.approx(
                float(v_sub(d, obs)), rel=1e-10
            )

    def test_missing_labels_rejected(self):
        obs = ObservedData(_av("1100"), np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValidationError, match="pair labels"):
            v_pair(obs)

    def test_two_treated_in_one_pair_rejected(self):
        obs = ObservedData(
            _av("1100"),
            np.array([1.0, 2.0, 3.0, 4.0]),
            pair_labels=((0, 1), (2, 3)),
        )
        with pytest.raises(ValidationError):
            v_pair(obs)

    def test_needs_at_least_two_pairs(self):
        obs = ObservedData(
            _av("10"), np.array([1.0, 2.0]), pair_labels=((0, 1),)
        )
        with pytest.raises(AssumptionError, match="at least 4"):
            v_pair(obs)


class TestMseSubEpsem:
    def test_unbiased_under_homogeneity(self):
        d = build_crd(16, 4)
        rng = np.random.default_rng(4)
        po = random_table(rng, 16, homogeneous=True)
        est = lambda obs: float(mse_sub_epsem(d, obs))
        assert estimator_expectation(d, po, est) == pytest.approx(
            true_mse_hajek(d, po), rel=1e-9
        )

    def test_conservative_on_equal_group_closed_design(self, crossed_pairs):
        rng = np.random.default_rng(5)
        est = lambda obs: float(mse_sub_epsem(crossed_pairs, obs))
        for _ in range(20):
            po = random_table(rng, 4)
            gap = estimator_expectation(crossed_pairs, po, est) - true_mse_hajek(
                crossed_pairs, po
            )
            assert gap >= -1e-10

    def test_constant_outcomes_give_zero(self):
        d = build_crd(16, 4)
        w = _av("1111" + "0" * 12)
        obs = ObservedData(w, np.full(16, 3.0))
        assert float(mse_sub_epsem(d, obs)) == pytest.approx(0.0, abs=1e-12)

    def test_non_integral_overlap_rejected(self):
        d = build_crd(8, 2)
        obs = ObservedData(_av("11000000"), np.arange(8.0))
        with pytest.raises(AssumptionError, match="substitution undefined"):
            mse_sub_epsem(d, obs)


def test_full_substitute_map_covers_support():
    d = build_crd(4, 2)
    mapping = full_substitute_map(d)
    assert len(mapping) == d.support_size
    for anchor, sub in mapping.items():
        assert anchor in d.support
        assert all(is_substitute(anchor, m, "equal-size") for m in sub.members)


class TestSubstituteScanParity:
    """The support scan agrees with the pairwise predicate, in support order."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4),
            lambda: build_crd(16, 4),
            lambda: build_matched_pair([(0, 4), (1, 5), (2, 6), (3, 7)]),
            lambda: build_rerandomized(build_crd(8, 4), np.arange(8.0) ** 1.5, 0.6),
        ],
        ids=["crossed-pairs", "crd-16-4", "matched-pairs-4", "rerandomized-8-4"],
    )
    def test_matches_brute_force_predicate(self, make):
        d = make()
        mode = substitution_mode(d)
        sizes = []
        for w in d.support:
            brute = tuple(c for c in d.support if is_substitute(w, c, mode))
            assert full_substitute_set(d, w).members == brute
            sizes.append(len(brute))
        assert substitute_counts(d).tolist() == sizes

    def test_user_map_matches_default_on_crd_8_4(self):
        d = build_crd(8, 4)
        g = full_substitute_map(d)
        po = random_table(np.random.default_rng(6), 8)
        for w in d.support:
            obs = reveal(po, w)
            assert v_sub(d, obs, g).value == v_sub(d, obs).value

    def test_sampler_backed_design_refused(self):
        d = build_crd(32, 16)
        assert not d.is_enumerable
        with pytest.raises(AssumptionError, match="sampler-backed"):
            full_substitute_set(d, _av("1" * 16 + "0" * 16))


def _scanned_counts(d, mode):
    """|G*(w)| by the blocked support scan, which the closed form replaces."""
    return np.concatenate(
        [contrast._substitute_rows(d, rows, mode).sum(axis=1) for rows in contrast._row_blocks(d)]
    )


def _no_scan(*args, **kwargs):
    raise AssertionError("the support was scanned")


def _layers(n, *sizes):
    """The 0/1 rows of every size-m assignment of n units, for each m in sizes."""
    return [row for m in sizes for row in build_crd(n, m).matrix.astype(int).tolist()]


class TestClosedFormCounts:
    """Complete supports count substitutes by formula, equal to the scan."""

    @pytest.mark.parametrize(
        "make, mode",
        [
            (lambda: build_crd(16, 4), "epsem"),
            (lambda: build_crd(12, 6), "equal-size"),
            (lambda: build_crd(16, 8), "equal-size"),
            (lambda: build_matched_pair([(0, 4), (1, 5), (2, 6), (3, 7)]), "equal-size"),
            (lambda: build_matched_pair([(j, 11 - j) for j in range(6)]), "epsem"),
            # weights never enter: the count is of support rows
            (lambda: build_explicit(_layers(8, 4), np.arange(1.0, 71.0) / 2485.0), "equal-size"),
            (lambda: build_explicit(_layers(9, 3, 6), [1.0 / 168] * 168), "epsem"),
        ],
        ids=["crd-16-4", "crd-12-6", "crd-16-8", "pairs-4", "pairs-6",
             "explicit-crd-8-4-unequal", "crd-9-3-and-9-6"],
    )
    def test_matches_scan_without_scanning(self, make, mode, monkeypatch):
        d = make()
        with monkeypatch.context() as patch:
            patch.setattr(contrast, "_substitute_rows", _no_scan)
            counts = substitute_counts(d, mode)
        scanned = _scanned_counts(d, mode)
        assert counts.dtype == scanned.dtype and counts.tolist() == scanned.tolist()
        assert not counts.flags.writeable

    def test_refusal_matches_scan(self):
        d = build_explicit(_layers(9, 3, 6), [1.0 / 168] * 168)
        with pytest.raises(AssumptionError) as scanned:
            _scanned_counts(d, "equal-size")
        with pytest.raises(AssumptionError) as closed:
            substitute_counts(d, "equal-size")
        assert str(closed.value) == str(scanned.value)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4, kind="crd"),
            # 2^J rows under pair labels, but one treats both units of pair (0, 4)
            lambda: build_explicit(
                [*(r for r in build_matched_pair([(0, 4), (1, 5), (2, 6), (3, 7)]).support
                   if r.to_string() != "11110000"), "11001100"],
                [1.0 / 16] * 16, pairs=((0, 4), (1, 5), (2, 6), (3, 7)),
            ),
        ],
        ids=["crossed-pairs-labelled-crd", "pairs-with-unpaired-row"],
    )
    def test_incomplete_support_is_scanned(self, make):
        d = make()
        assert contrast._closed_form_counts(d, "epsem") is None
        assert substitute_counts(d, "epsem").tolist() == _scanned_counts(d, "epsem").tolist()

    def test_crd_20_10_is_never_scanned(self, monkeypatch):
        d = build_crd(20, 10)
        monkeypatch.setattr(contrast, "_substitute_rows", _no_scan)
        counts = substitute_counts(d)
        assert counts.shape == (184_756,)
        assert set(counts.tolist()) == {63_504} == {math.comb(10, 5) ** 2}


def _scan_values(d, w, y, g, mse):
    """v_sub, or with ``mse`` mse_sub_epsem, by the blocked scan that the
    packed-support pass replaced: per block of tables, an overlap GEMM on the
    (S, n) float matrix against every support row, contrasts on every row,
    and one ``np.bincount`` of the hit terms. Returns (values, counts)."""
    s = d.support_size
    rows = d.rows_of(w)
    if np.any(rows < 0):
        r = int(np.argmax(rows < 0))
        w_r = AssignmentVector.from_bits(w[r].astype(np.int8).tolist())
        raise _row_failure(
            ValidationError(f"realized assignment {w_r} is not in the design support"), r
        )
    mode = substitution_mode(d)
    if not mse and mode != contrast.EQUAL_SIZE:
        raise AssumptionError(
            "the contrast variance estimator needs equal group sizes with N "
            f"divisible by 4; this design supports only {mode} substitution "
            "(see mse_sub_epsem)"
        )
    if g is None:
        sizes = substitute_counts(d, mode)
        r = int(np.argmin(sizes))
        contrast._check_count(d.vector(r), int(sizes[r]))

        def hits_of(block):
            return contrast._substitute_rows(d, block, mode)
    else:
        sizes, pairs = contrast._normalize_g(d, g, mode)

        def hits_of(block):
            keys = block[:, None] * s + np.arange(s)
            return pairs.take(np.searchsorted(pairs, keys), mode="clip") == keys

    sums = np.empty(len(rows))
    counts = np.empty(len(rows), dtype=np.int64)
    step = max(1, ROW_BLOCK // s)
    for start in range(0, len(rows), step):
        block, yb = rows[start:start + step], y[start:start + step]
        hits = hits_of(block)
        treated_sum = np.matmul(d.matrix, yb[..., None])[..., 0]
        total = yb.sum(axis=1)[:, None]
        if mse:
            c = treated_sum / d.group_sizes - (total - treated_sum) / (d.n - d.group_sizes)
        else:
            c = 2.0 * treated_sum - total
        flat = np.flatnonzero(hits)
        anchors = flat % s
        per_row = np.count_nonzero(hits, axis=1)
        p_obs = np.repeat(d.probs[block], per_row)
        terms = d.probs[anchors] / p_obs * c.ravel()[flat] ** 2 / sizes[anchors]
        sums[start:start + len(block)] = np.bincount(flat // s, terms, minlength=len(block))
        counts[start:start + len(block)] = per_row
    return (sums if mse else 4.0 / d.n**2 * sums), counts


def _complement_weighted_crd_8_4():
    """CRD(8,4)'s rows with whole-number weights, not all equal, that give a
    row and its complement the same weight: every propensity stays 1/2."""
    rows = build_crd(8, 4).matrix.astype(int)
    r = np.arange(len(rows))  # rows are sorted, so row r's complement is row S-1-r
    return ExplicitDesign(rows, 1.0 + np.minimum(r, len(rows) - 1 - r) % 5)


_PASS_DESIGNS = {
    "crd-8-4": (lambda: build_crd(8, 4), None),
    "crd-16-8-sampled": (lambda: build_crd(16, 8), 200),
    "matched-pairs-4": (lambda: build_matched_pair([(0, 4), (1, 5), (2, 6), (3, 7)]), None),
    "rerandomized-12-6": (
        lambda: build_rerandomized(build_crd(12, 6), np.arange(12.0) ** 1.5, 0.3), None),
    "epsem-9-3-and-9-6": (lambda: build_explicit(_layers(9, 3, 6), [1.0 / 168] * 168), None),
    "whole-weights-crd-8-4": (_complement_weighted_crd_8_4, None),
}


class TestPackedSupportPass:
    """The per-table pass over the packed support against the blocked scan it
    replaced: values within EST_RTOL, the same contributing anchors, a user
    map equal to the relation and every batch row equal to its one-row call,
    to the bit."""

    @pytest.mark.parametrize("name", sorted(_PASS_DESIGNS))
    def test_matches_the_blocked_scan(self, name):
        make, sample = _PASS_DESIGNS[name]
        d = make()
        rng = np.random.default_rng(sorted(_PASS_DESIGNS).index(name))
        picked = np.arange(d.support_size) if sample is None else np.sort(
            rng.choice(d.support_size, size=sample, replace=False))
        po = random_table(rng, d.n)
        u = d.matrix[picked]
        y = np.where(u == 1, po.y1, po.y0)
        # a user map lists every member of every set: 63M vectors on CRD(16,8)
        g = full_substitute_map(d) if d.support_size <= 1000 else None
        modes = [True] if substitution_mode(d) == "epsem" else [False, True]
        if name == "epsem-9-3-and-9-6":
            assert set(d.group_sizes.tolist()) == {3, 6}
        if name == "rerandomized-12-6":
            assert contrast._closed_form_counts(d, "equal-size") is None
        if name == "whole-weights-crd-8-4":
            assert np.ptp(d.probs) > 0 and np.all(d.propensities == 0.5)
        for mse in modes:
            want, want_counts = _scan_values(d, u, y, None, mse)
            got, mode, counts = contrast._substitute_values(d, u, y, None, mse)
            np.testing.assert_allclose(got, want, rtol=EST_RTOL, atol=0)
            assert counts.tolist() == want_counts.tolist()
            if g is not None:
                by_map, _, map_counts = contrast._substitute_values(d, u, y, g, mse)
                assert by_map.tobytes() == got.tobytes()
                assert map_counts.tolist() == counts.tolist()
                scan_map, scan_map_counts = _scan_values(d, u, y, g, mse)
                np.testing.assert_allclose(scan_map, want, rtol=EST_RTOL, atol=0)
                assert scan_map_counts.tolist() == counts.tolist()
            est = mse_sub_epsem if mse else v_sub
            for i in range(0, len(picked), max(1, len(picked) // 25)):
                one = est(d, ObservedData(d.vector(int(picked[i])), y[i]))
                assert one.value == got[i]
                assert one.params == {"mode": mode, "contributing_anchors": int(counts[i])}
                if g is not None:
                    assert est(d, ObservedData(d.vector(int(picked[i])), y[i]), g).value == got[i]

    def test_overlaps_past_255_units(self):
        # crossed pairs with each unit repeated 256 times: substitutes share
        # 256 treated units, a row shares 512 with itself
        d = build_explicit([c * 256 for c in ("1100", "0011", "1001", "0110")], [0.25] * 4)
        y = np.random.default_rng(14).uniform(0.0, 10.0, (4, d.n))
        u = d.matrix
        for mse in (False, True):
            want, want_counts = _scan_values(d, u, y, None, mse)
            got, _, counts = contrast._substitute_values(d, u, y, None, mse)
            np.testing.assert_allclose(got, want, rtol=EST_RTOL, atol=0)
            assert counts.tolist() == want_counts.tolist() == [2] * 4

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "make, rows, mse",
        [
            (lambda: build_crd(8, 4), ["11110000", "10101011"], False),
            (lambda: build_crd(16, 4), ["1111" + "0" * 12], False),
            (lambda: build_explicit(["1100", "0011"], [0.5, 0.5]), ["1100", "0011"], True),
        ],
        ids=["row-off-support", "equal-size-mode", "empty-substitute-set"],
    )
    def test_refusals_keep_message_and_row(self, make, rows, mse):
        d = make()
        w = np.array([[int(b) for b in r] for r in rows])
        y = np.arange(w.size, dtype=float).reshape(w.shape)
        for _ in range(2):  # a refusal decided once per design is raised again
            with pytest.raises((AssumptionError, ValidationError)) as want:
                _scan_values(d, w, y, None, mse)
            with pytest.raises(type(want.value)) as got:
                contrast._substitute_values(d, w, y, None, mse)
            assert str(got.value) == str(want.value)
            assert getattr(got.value, "row", None) == getattr(want.value, "row", None)

    def test_no_float_support_matrix(self, monkeypatch):
        d = build_crd(8, 4)
        po = random_table(np.random.default_rng(13), 8)
        u = d.matrix
        y = np.where(u == 1, po.y1, po.y0)
        monkeypatch.setattr(contrast.ExplicitDesign, "matrix", property(_no_scan))
        values, _, _ = contrast._substitute_values(d, u, y, None, False)
        assert values.shape == (70,)
