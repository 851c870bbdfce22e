"""Substitute predicates and the contrast family of variance estimators."""

from __future__ import annotations

import math
import time

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
import designvar as dv
from designvar import contrast, simulate
from designvar.contrast import substitute_counts
from designvar.core import EST_RTOL, ROW_BLOCK, _row_failure
from designvar.designs import ExplicitDesign
from designvar.oracles import _kernel_values

from conftest import random_table, support_matrix


def _av(bits: str) -> AssignmentVector:
    return AssignmentVector.from_string(bits)


class TestIsSubstitute:
    def test_half_swap_is_substitute(self):
        assert is_substitute(_av("1100"), _av("1001"))

    def test_complement_is_not(self):
        assert not is_substitute(_av("1100"), _av("0011"))

    def test_epsem_overlap_counting(self):
        # N=18, N_t=6, overlap k=2: a substitute treats 2 of the anchor's 6
        # treated units and 4 of its 12 controls.
        w = _av("1" * 6 + "0" * 12)
        cand = _av("110000" + "111100000000")
        assert is_substitute(w, cand)
        off_count = _av("100000" + "111110000000")
        assert not is_substitute(w, off_count)

    def test_equal_size_divisibility_enforced(self):
        with pytest.raises(AssumptionError, match="substitution undefined"):
            is_substitute(_av("110100"), _av("011010"))

    def test_epsem_integrality_enforced(self):
        # N=8, N_t=2 gives k = 4/8, not an integer.
        with pytest.raises(AssumptionError, match="substitution undefined"):
            is_substitute(_av("11000000"), _av("00110000"))


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_explicit(["11", "00"], [0.5, 0.5]),
            lambda: build_explicit([[0] * 4, *_layers(4, 2), [1] * 4], [1.0 / 8] * 8),
        ],
        ids=["all-or-none-of-2", "layers-4-0-2-4"],
    )
    def test_a_vector_that_leaves_a_group_empty_is_refused(self, make):
        d = make()
        message = f"substitution undefined: a support vector treats N_t = 0 of N = {d.n} units"
        obs = ObservedData(d.vector(d.support_size - 1), np.arange(d.n, dtype=float))
        for est in (v_sub, mse_sub_epsem):
            with pytest.raises(AssumptionError, match=message):
                est(d, obs)
        report = dv.check_assumptions(d)
        assert report.substitution is False
        assert report.details["substitution"].startswith(message)


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

    def test_registry_scores_the_design_pairs(self):
        from designvar.simulate import resolve_estimator

        d = build_matched_pair([(0, 4), (1, 5), (2, 6), (3, 7)])
        po = random_table(np.random.default_rng(4), 8)
        scalar = resolve_estimator("v_pair", d)
        w = d.support[5]
        want = scalar(reveal(po, w)).value
        assert want == float(v_pair(reveal(po, w, pair_labels=d.pairs)))
        # the same pairs, labelled in another order and orientation
        assert scalar(reveal(po, w, pair_labels=((5, 1), (0, 4), (7, 3), (2, 6)))).value == want
        with pytest.raises(ValidationError, match="differ from the design's pairs"):
            scalar(reveal(po, w, pair_labels=((0, 1), (4, 5), (2, 6), (3, 7))))
        with pytest.raises(ValidationError, match="observed data has 4 units, design has 8"):
            scalar(ObservedData(_av("1010"), np.ones(4)))

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
        assert all(is_substitute(anchor, m) for m in sub.members)


def test_full_substitute_map_refuses_a_map_over_the_cap_before_building_it():
    # CRD(16,8): 12,870 sets of 4,900 members, about 63 M references in all
    d = build_crd(16, 8)
    start = time.perf_counter()
    with pytest.raises(AssumptionError, match=(
        r"^substitute map too large: 12870 sets hold 63063000 members in all, which "
        r"exceeds cap 1000000; the map would take about \d+\.\d\d GiB$"
    )):
        full_substitute_map(d)
    assert time.perf_counter() - start < 5.0


def _pairs_with_unpaired_row():
    """2^J rows under pair labels, but one treats both units of pair (0, 4):
    propensities run from 7/16 to 9/16, so the design has no substitution
    mode, yet every k = N_t^2 / N is whole."""
    pairs = ((0, 4), (1, 5), (2, 6), (3, 7))
    rows = [r for r in build_matched_pair(list(pairs)).support if r.to_string() != "11110000"]
    return build_explicit([*rows, "11001100"], [1.0 / 16] * 16, pairs=pairs)


class TestSubstituteScanParity:
    """The support scan agrees with the pairwise predicate, in support order."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4),
            lambda: build_crd(16, 4),
            lambda: build_matched_pair([(0, 4), (1, 5), (2, 6), (3, 7)]),
            lambda: build_rerandomized(build_crd(8, 4), np.arange(8.0) ** 1.5, 0.6),
            _pairs_with_unpaired_row,
        ],
        ids=["crossed-pairs", "crd-16-4", "matched-pairs-4", "rerandomized-8-4",
             "pairs-with-unpaired-row"],
    )
    def test_matches_brute_force_predicate(self, make):
        d = make()
        sizes = []
        for w in d.support:
            brute = tuple(c for c in d.support if is_substitute(w, c))
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
        w = _av("1" * 16 + "0" * 16)
        with pytest.raises(AssumptionError, match="sampler-backed"):
            full_substitute_set(d, w)
        for est in (v_sub, mse_sub_epsem):
            with pytest.raises(AssumptionError, match="sampler-backed"):
                est(d, ObservedData(w, np.arange(32.0)))


def _scanned_counts(d):
    """|G*(w)| by the blocked support scan, which the closed form replaces."""
    return np.concatenate(
        [contrast._substitute_rows(d, rows).sum(axis=1) for rows in contrast._row_blocks(d)]
    )


def _no_scan(*args, **kwargs):
    raise AssertionError("the support was scanned")


def _layers(n, *sizes):
    """The 0/1 rows of every size-m assignment of n units, for each m in sizes."""
    return [row for m in sizes for row in support_matrix(build_crd(n, m)).astype(int).tolist()]


class TestClosedFormCounts:
    """Complete supports count substitutes by formula, equal to the scan."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_crd(16, 4),
            lambda: build_crd(12, 6),
            lambda: build_crd(16, 8),
            lambda: build_matched_pair([(0, 4), (1, 5), (2, 6), (3, 7)]),
            lambda: build_matched_pair([(j, 11 - j) for j in range(6)]),
            # weights never enter: the count is of support rows
            lambda: build_explicit(_layers(8, 4), np.arange(1.0, 71.0) / 2485.0),
            lambda: build_explicit(_layers(9, 3, 6), [1.0 / 168] * 168),
        ],
        ids=["crd-16-4", "crd-12-6", "crd-16-8", "pairs-4", "pairs-6",
             "explicit-crd-8-4-unequal", "crd-9-3-and-9-6"],
    )
    def test_matches_scan_without_scanning(self, make, monkeypatch):
        d = make()
        with monkeypatch.context() as patch:
            patch.setattr(contrast, "_substitute_rows", _no_scan)
            counts = substitute_counts(d)
        scanned = _scanned_counts(d)
        assert counts.dtype == scanned.dtype and counts.tolist() == scanned.tolist()
        assert not counts.flags.writeable

    def test_refusal_matches_scan(self):
        # the size-2 layer has k = 4/8; the size-4 layer's k = 2 is whole
        d = build_explicit(_layers(8, 2, 4), [1.0 / 98] * 98)
        with pytest.raises(AssumptionError) as scanned:
            _scanned_counts(d)
        with pytest.raises(AssumptionError) as closed:
            substitute_counts(d)
        assert str(closed.value) == str(scanned.value)
        assert "N_t = 2, N = 8" in str(closed.value)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4, kind="crd"),
            _pairs_with_unpaired_row,
        ],
        ids=["crossed-pairs-labelled-crd", "pairs-with-unpaired-row"],
    )
    def test_incomplete_support_is_scanned(self, make):
        d = make()
        assert contrast._size_counts(d) is None
        assert substitute_counts(d).tolist() == _scanned_counts(d).tolist()

    def test_crd_20_10_is_never_scanned(self, monkeypatch):
        d = build_crd(20, 10)
        monkeypatch.setattr(contrast, "_substitute_rows", _no_scan)
        counts = substitute_counts(d)
        assert counts.shape == (184_756,)
        assert set(counts.tolist()) == {63_504} == {math.comb(10, 5) ** 2}


_SHUFFLED_PAIRS = ((5, 2), (0, 7), (3, 1), (6, 4))


def _without_row(d, r):
    """The explicit design over ``d``'s support less row ``r``, equal weights."""
    rows = [w for k, w in enumerate(d.support) if k != r]
    return build_explicit(rows, [1.0 / len(rows)] * len(rows), pairs=d.pairs)


class TestSupportStructure:
    """One read says which complete structure a support has, from its rows;
    the counts read it, and equal the scan whichever it is."""

    @pytest.mark.parametrize(
        "make, complete",
        [
            (lambda: build_explicit(_layers(16, 4, 12), [1.0 / 3640] * 3640), "layers"),
            (lambda: build_matched_pair(_SHUFFLED_PAIRS), "pairs"),
            (lambda: _without_row(build_explicit(_layers(16, 4, 12), [1.0 / 3640] * 3640), 1000),
             None),
            (lambda: _without_row(build_matched_pair(_SHUFFLED_PAIRS), 6), None),
        ],
        ids=["layers-16-4-and-16-12", "pairs-shuffled", "layers-less-a-row",
             "pairs-less-a-row"],
    )
    def test_structure_decides_the_counts(self, make, complete, monkeypatch):
        d = make()
        structure = d.structure
        assert structure.complete == complete and d.structure is structure
        assert structure.sizes.tolist() == np.bincount(d.group_sizes, minlength=d.n + 1).tolist()
        assert not structure.sizes.flags.writeable
        with monkeypatch.context() as patch:
            if complete is not None:  # a complete support is counted by formula
                patch.setattr(contrast, "_substitute_rows", _no_scan)
            counts = substitute_counts(d)
        assert counts.tolist() == _scanned_counts(d).tolist()
        assert (contrast._size_counts(d) is None) == (complete is None)

    def test_assumption_report_reads_the_sizes(self):
        d = build_explicit(_layers(9, 3, 6), [1.0 / 168] * 168)
        assert d.structure.sizes.tolist() == [0, 0, 0, 84, 0, 0, 84, 0, 0, 0]
        details = dv.check_assumptions(d).details
        assert details["equal_size_constant_propensity"] == "treated-group sizes take values [3, 6]"


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
        sizes = substitute_counts(d)
        r = int(np.argmin(sizes))
        contrast._check_count(d.vector(r), int(sizes[r]))

        def hits_of(block):
            return contrast._substitute_rows(d, block)
    else:
        sizes, pairs = contrast._normalize_g(d, g)

        def hits_of(block):
            keys = block[:, None] * s + np.arange(s)
            return pairs.take(np.searchsorted(pairs, keys), mode="clip") == keys

    sums = np.empty(len(rows))
    counts = np.empty(len(rows), dtype=np.int64)
    step = max(1, ROW_BLOCK // s)
    for start in range(0, len(rows), step):
        block, yb = rows[start:start + step], y[start:start + step]
        hits = hits_of(block)
        treated_sum = np.matmul(support_matrix(d), yb[..., None])[..., 0]
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
    rows = support_matrix(build_crd(8, 4)).astype(int)
    r = np.arange(len(rows))  # rows are sorted, so row r's complement is row S-1-r
    return ExplicitDesign(rows, 1.0 + np.minimum(r, len(rows) - 1 - r) % 5)


_PASS_DESIGNS = {
    "crd-8-4": (lambda: build_crd(8, 4), None),
    "crd-16-8-sampled": (lambda: build_crd(16, 8), 200),
    "matched-pairs-4": (lambda: build_matched_pair([(0, 4), (1, 5), (2, 6), (3, 7)]), None),
    "rerandomized-12-6": (
        lambda: build_rerandomized(build_crd(12, 6), np.arange(12.0) ** 1.5, 0.3), None),
    "epsem-9-3-and-9-6": (lambda: build_explicit(_layers(9, 3, 6), [1.0 / 168] * 168), None),
    "epsem-weighted-9-3-and-9-6": (
        lambda: ExplicitDesign(_layers(9, 3, 6), [2.0] * 84 + [5.0] * 84), None),
    "matched-pairs-12": (lambda: build_matched_pair([(j, 12 + j) for j in range(12)]), 200),
    "whole-weights-crd-8-4": (_complement_weighted_crd_8_4, None),
}
# supports that are not complete with weights constant on each group size
_ANCHOR_ROUTE = ("rerandomized-12-6", "whole-weights-crd-8-4")


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
        u = support_matrix(d)[picked]
        y = np.where(u == 1, po.y1, po.y0)
        # a user map lists every member of every set: 63M vectors on CRD(16,8)
        g = full_substitute_map(d) if d.support_size <= 1000 else None
        modes = [True] if substitution_mode(d) == "epsem" else [False, True]
        if name.startswith("epsem"):
            assert set(d.group_sizes.tolist()) == {3, 6}
        if name == "rerandomized-12-6":
            assert contrast._size_counts(d) is None
        if name == "whole-weights-crd-8-4":
            assert np.ptp(d.probs) > 0 and np.all(d.propensities == 0.5)
        for mse in modes:
            want, want_counts = _scan_values(d, u, y, None, mse)
            got, mode, counts = contrast._substitute_values(d, None)(u, y, equal_size=not mse)
            np.testing.assert_allclose(got, want, rtol=EST_RTOL, atol=0)
            assert counts.tolist() == want_counts.tolist()
            if g is not None:
                by_map, _, map_counts = contrast._substitute_values(d, g)(u, y, equal_size=not mse)
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
        u = support_matrix(d)
        for mse in (False, True):
            want, want_counts = _scan_values(d, u, y, None, mse)
            got, _, counts = contrast._substitute_values(d, None)(u, y, equal_size=not mse)
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
                contrast._substitute_values(d, None)(w, y, equal_size=not mse)
            assert str(got.value) == str(want.value)
            assert getattr(got.value, "row", None) == getattr(want.value, "row", None)

    def test_no_float_support_matrix(self):
        d = build_crd(8, 4)
        po = random_table(np.random.default_rng(13), 8)
        u = support_matrix(d)
        y = np.where(u == 1, po.y1, po.y0)
        values, _, _ = contrast._substitute_values(d, None)(u, y, equal_size=True)
        assert values.shape == (70,)
        assert not hasattr(d, "matrix")
        # nothing the pass kept on the design has a row per support vector and a column per unit
        kept = [v for v in vars(d).values() if isinstance(v, np.ndarray)]
        assert kept and not any(v.shape == (70, 8) for v in kept)

    @pytest.mark.parametrize("name", sorted(_PASS_DESIGNS))
    def test_only_incomplete_or_uneven_supports_take_the_anchor_route(self, name, monkeypatch):
        d = _PASS_DESIGNS[name][0]()
        routed, anchor_sums = [], contrast._anchor_sums
        monkeypatch.setattr(contrast, "_anchor_sums",
                            lambda *args: routed.append(1) or anchor_sums(*args))
        u = support_matrix(d)[:3]
        y = np.where(u == 1, 2.0, -1.0) * np.arange(d.n)
        _, _, counts = contrast._substitute_values(d, None)(u, y)
        assert bool(routed) == (name in _ANCHOR_ROUTE)
        assert counts.tolist() == substitute_counts(d)[:3].tolist()
        complete, even = d.structure.complete, d.structure.even_weights
        assert (complete is not None and even) == (name not in _ANCHOR_ROUTE)


def _observed_tables(d, count, seed):
    """``count`` observed tables on distinct support rows of ``d``."""
    rng = np.random.default_rng(seed)
    rows = rng.choice(d.support_size, size=count, replace=False)
    return [reveal(random_table(rng, d.n), d.vector(int(r))) for r in rows]


def _hex_values(d, calls):
    """float.hex of each (estimator, table) call in order, all on design ``d``."""
    return [est(d, obs).value.hex() for est, obs in calls]


class TestRealizedAnchorSlot:
    """A contrast call keeps nothing of its realized tables: a second table
    leaves the design as the first left it, and every value equals the same
    call on a freshly built design."""

    @pytest.mark.parametrize("name", ["crd-8-4", "rerandomized-12-6"])
    @pytest.mark.parametrize("estimator", [v_sub, mse_sub_epsem], ids=["v_sub", "mse_sub"])
    def test_a_second_table_leaves_the_design_as_it_was(self, name, estimator):
        d = _PASS_DESIGNS[name][0]()
        first, second = _observed_tables(d, 2, 21)
        estimator(d, first)
        after_first = dict(vars(d))
        estimator(d, second)
        assert vars(d).keys() == after_first.keys()
        assert all(vars(d)[k] is v for k, v in after_first.items())

    @pytest.mark.parametrize(
        "make, estimators",
        [
            (lambda: build_crd(8, 4), (v_sub, mse_sub_epsem)),
            (lambda: build_crd(8, 4), (mse_sub_epsem, v_sub)),
            (lambda: build_explicit(_layers(9, 3, 6), [1.0 / 168] * 168), (mse_sub_epsem,)),
        ],
        ids=["crd-8-4-v-sub-first", "crd-8-4-mse-sub-first", "epsem-9-3-and-9-6"],
    )
    def test_interleaved_tables_match_a_fresh_design(self, make, estimators):
        d = make()
        a, b = _observed_tables(d, 2, 22)
        calls = [(est, obs) for obs in (a, b, a) for est in estimators]
        got = _hex_values(d, calls)
        assert got == [_hex_values(make(), [call])[0] for call in calls]
        assert got[:len(estimators)] == got[-len(estimators):]

    def test_batch_kernel_scans_each_table_once_for_both_names(self, monkeypatch):
        d = _PASS_DESIGNS["rerandomized-12-6"][0]()
        substitute_counts(d)  # an incomplete support: counted by a scan, made here
        kernel = simulate._batch_kernel(("v_sub", "mse_sub"), d)
        scanned = []
        scan = contrast._substitute_rows

        def spy(d, rows):
            scanned.append(len(rows))
            return scan(d, rows)

        monkeypatch.setattr(contrast, "_substitute_rows", spy)
        rng = np.random.default_rng(25)
        for tables in (1, 2):
            by_v_sub, by_mse_sub = _kernel_values(d, random_table(rng, d.n), kernel)
            assert sum(scanned) == tables * d.support_size  # 2S per table when not shared
            assert by_v_sub.tobytes() == by_mse_sub.tobytes()


def test_batch_kernel_shares_one_user_map_pass_for_both_names(monkeypatch):
    d = _PASS_DESIGNS["rerandomized-12-6"][0]()  # incomplete: the anchor route
    g = full_substitute_map(d)
    po = random_table(np.random.default_rng(27), d.n)
    want = [_kernel_values(d, po, simulate._batch_kernel((name,), d, substitutes=g))[0]
            for name in ("v_sub", "mse_sub")]
    validated, summed = [], []
    normalize, row_sums = contrast._normalize_g, d._row_sums
    monkeypatch.setattr(contrast, "_normalize_g",
                        lambda *args: validated.append(1) or normalize(*args))
    monkeypatch.setattr(d, "_row_sums", lambda *args: summed.append(1) or row_sums(*args))
    got = _kernel_values(d, po, simulate._batch_kernel(("v_sub", "mse_sub"), d, substitutes=g))
    assert len(validated) == 1
    assert len(summed) == d.support_size  # one anchor pass per table
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    assert got[0].tobytes() == got[1].tobytes()


class TestOneContrastKernel:
    """v_sub is mse_sub_epsem on the equal-size designs: the same bits, by
    the relation and by a user map, each within EST_RTOL of the blocked
    scan's own formula."""

    @pytest.mark.parametrize("name", [k for k in sorted(_PASS_DESIGNS) if not k.startswith("epsem")])
    def test_v_sub_is_mse_sub_epsem(self, name):
        make, sample = _PASS_DESIGNS[name]
        d, fresh = make(), make()  # mse_sub_epsem on its own design: no kept result
        assert substitution_mode(d) == contrast.EQUAL_SIZE
        rng = np.random.default_rng(26)
        po = random_table(rng, d.n)
        picked = rng.choice(d.support_size, size=min(25, d.support_size), replace=False)
        u = support_matrix(d)[picked]
        y = np.where(u == 1, po.y1, po.y0)
        g = full_substitute_map(d) if sample is None else None
        want = {mse: _scan_values(d, u, y, None, mse)[0] for mse in (False, True)}
        for i, r in enumerate(picked.tolist()):
            obs = ObservedData(d.vector(r), y[i])
            value = v_sub(d, obs).value
            assert value == mse_sub_epsem(fresh, obs).value
            if g is not None:
                assert v_sub(d, obs, g).value == mse_sub_epsem(d, obs, g).value == value
            for mse in (False, True):
                np.testing.assert_allclose(value, want[mse][i], rtol=EST_RTOL, atol=0)


def _pairs(j):
    """J complete matched pairs, unit i with unit J + i."""
    return build_matched_pair([(i, j + i) for i in range(j)])


_COMPLETE_DESIGNS = {
    **{f"crd-{n}-{m}": (lambda n=n, m=m: build_crd(n, m))
       for n, m in [(8, 4), (9, 3), (9, 6), (12, 6), (16, 4), (16, 8), (18, 6), (18, 12)]},
    "weighted-9-3-and-9-6": _PASS_DESIGNS["epsem-weighted-9-3-and-9-6"][0],
    **{f"pairs-{j}": (lambda j=j: _pairs(j)) for j in (2, 4, 6, 8, 10, 12)},
}


class TestNeymanFormulas:
    """On complete supports with weights constant on each group size the
    contrast estimators are scored by Neyman's formulas: they match the
    anchor route within EST_RTOL with the same anchor counts, and at
    N_t = N/2 they are neyman_variance, or v_pair on complete pairs, to the
    bit."""

    @pytest.mark.parametrize("name", sorted(_COMPLETE_DESIGNS))
    def test_formula_matches_the_anchor_route(self, name, monkeypatch):
        d = _COMPLETE_DESIGNS[name]()
        rng = np.random.default_rng(sorted(_COMPLETE_DESIGNS).index(name))
        rows = np.sort(rng.choice(d.support_size, size=min(40, d.support_size), replace=False))
        u = support_matrix(d)[rows]
        y = rng.normal(3.0, 2.0, u.shape)
        monkeypatch.setattr(contrast, "_anchor_sums", _no_scan)  # the formula route
        got, _, counts = contrast._substitute_values(d, None)(u, y)
        monkeypatch.undo()
        want, want_counts = contrast._anchor_sums(d, rows, y, substitute_counts(d))
        np.testing.assert_allclose(got, want, rtol=EST_RTOL, atol=0)
        assert counts.tolist() == want_counts.tolist()

    @pytest.mark.parametrize("make, other", [
        *[(lambda n=n: build_crd(n, n // 2), "neyman") for n in (4, 8, 12, 16)],
        *[(lambda j=j: _pairs(j), "v_pair") for j in (2, 4, 6, 8, 10)],
    ], ids=[f"crd-{n}-{n // 2}" for n in (4, 8, 12, 16)] + [f"pairs-{j}" for j in (2, 4, 6, 8, 10)])
    def test_v_sub_is_the_neyman_estimator_to_the_bit(self, make, other):
        d = make()
        po = random_table(np.random.default_rng(d.n), d.n)
        by_v_sub, by_mse_sub, by_other = _kernel_values(
            d, po, simulate._batch_kernel(("v_sub", "mse_sub", other), d))
        assert by_v_sub.tobytes() == by_mse_sub.tobytes() == by_other.tobytes()
        for r in range(0, d.support_size, max(1, d.support_size // 20)):
            obs = reveal(po, d.vector(r), pair_labels=d.pairs)
            want = (neyman_variance if other == "neyman" else v_pair)(obs).value
            assert v_sub(d, obs).value == want == by_v_sub[r]


_ROUTE_DESIGNS = {
    "crd-8-4": (lambda: build_crd(8, 4), ("v_sub", "mse_sub")),
    "layers-9-3-and-9-6": (_PASS_DESIGNS["epsem-9-3-and-9-6"][0], ("mse_sub",)),
    "pairs-8": (lambda: _pairs(8), ("v_sub", "mse_sub")),
}
_SCALAR = {"v_sub": v_sub, "mse_sub": mse_sub_epsem}


def _spy_lookups(monkeypatch) -> list:
    """Record every support-row lookup (ExplicitDesign._find) from here on."""
    found, find = [], ExplicitDesign._find
    monkeypatch.setattr(ExplicitDesign, "_find",
                        lambda self, packed: found.append(1) or find(self, packed))
    return found


class TestFormulaRouteMembership:
    """On complete supports scored by formula a table's membership and its
    anchor count are read from the design's structure, with no lookup of its
    support row; the anchor route looks the rows up once per call, and a
    table off the support is refused as the lookup refused it."""

    @pytest.mark.parametrize("name", sorted(_ROUTE_DESIGNS))
    def test_no_row_lookup_on_the_formula_route(self, name, monkeypatch):
        make, names = _ROUTE_DESIGNS[name]
        d = make()
        rng = np.random.default_rng(sorted(_ROUTE_DESIGNS).index(name))
        po = random_table(rng, d.n)
        rows = rng.choice(d.support_size, size=5, replace=False).tolist()
        found = _spy_lookups(monkeypatch)
        for r in rows:
            obs = reveal(po, d.vector(r))
            for est in names:
                one = _SCALAR[est](d, obs)
                assert one.params["contributing_anchors"] == substitute_counts(d)[r]
        _kernel_values(d, po, simulate._batch_kernel(names, d))
        assert found == []

    @pytest.mark.parametrize("route", ["rerandomized-12-6", "partial-map-crd-8-4"])
    def test_the_anchor_route_looks_rows_up(self, route, monkeypatch):
        if route == "rerandomized-12-6":
            d, g = _PASS_DESIGNS[route][0](), None
        else:
            d = build_crd(8, 4)
            g = {w: list(full_substitute_set(d, w))[:2] for w in d.support}
        kernel = contrast._substitute_values(d, g)
        u = support_matrix(d)[:3]
        y = np.arange(u.size, dtype=float).reshape(u.shape)
        kernel(u, y)  # validates the map once in the kernel's life
        found = _spy_lookups(monkeypatch)
        _, _, counts = kernel(u, y)
        assert found == [1]  # one lookup of the tables' rows per call
        if g is not None:  # not the whole relation's anchor counts
            assert counts.tolist() != substitute_counts(d)[:3].tolist()

    @pytest.mark.parametrize(
        "make, off, equal_size",
        [
            (lambda: build_crd(8, 4), "11100000", True),
            (_PASS_DESIGNS["epsem-9-3-and-9-6"][0], "110000000", True),  # before v_sub's mode refusal
            (lambda: _pairs(8), "1" * 9 + "0" * 7, False),  # units 0 and 8 are a pair
        ],
        ids=["crd-8-4-three-treated", "layers-9-size-2", "pairs-8-both-treated"],
    )
    def test_an_off_support_table_is_refused_at_its_row(self, make, off, equal_size):
        d = make()
        on = d.vector(3).to_string()
        w = np.array([[int(b) for b in bits] for bits in (on, off, on)])
        y = np.arange(w.size, dtype=float).reshape(w.shape)
        with pytest.raises(ValidationError) as exc:
            contrast._substitute_values(d, None)(w, y, equal_size)
        assert str(exc.value) == f"realized assignment {off} is not in the design support"
        assert exc.value.row == 1
        obs = ObservedData(AssignmentVector.from_string(off), y[1])
        with pytest.raises(ValidationError, match="is not in the design support"):
            (v_sub if equal_size else mse_sub_epsem)(d, obs)

    def test_entries_that_are_not_zero_or_one_are_refused(self):
        d = build_crd(8, 4)
        u = support_matrix(d)[:2]
        with pytest.raises(ValidationError, match="0 or 1, got 2.0"):
            contrast._substitute_values(d, None)(2.0 * u, u)

    def test_pair_formula_is_the_within_pair_estimator_to_the_bit(self):
        d = _pairs(8)
        rng = np.random.default_rng(30)
        u = support_matrix(d)[rng.choice(d.support_size, size=50, replace=False)]
        y = 1e3 + rng.normal(size=u.shape)
        a, b = np.arange(8), np.arange(8, 16)
        diffs = np.ascontiguousarray(np.where(u[:, a] == 1, y[:, a] - y[:, b], y[:, b] - y[:, a]))
        dev = diffs - diffs.mean(axis=1, keepdims=True)
        want = 4.0 / (16 * 14) * (dev * dev).sum(axis=1)
        got, _, _ = contrast._substitute_values(d, None)(u, y)
        assert got.tobytes() == want.tobytes() == contrast._v_pair_values(d.pairs, u, y).tobytes()
