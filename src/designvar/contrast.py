"""Variance estimation from substitute assignments.

A substitute of an assignment w is another support vector whose treated
group straddles w's treated and control groups in fixed proportions.
Squared contrasts of the observed outcomes along the substitutes of the
realized assignment, reweighted by support probabilities, estimate the
design variance of the difference-in-means estimator without touching
pairwise assignment probabilities (v_sub). With group-size weights the
same sum estimates the MSE of the ratio (Hajek) estimator on
equal-propensity designs (mse_sub_epsem); at N_t = N/2 both estimators are
one kernel, so v_sub is mse_sub_epsem on the equal-size designs. On complete
designs the sum is Neyman's, and is scored so: s2_t/N_c + s2_c/N_t under
complete randomization (the two-sample estimator at N_t = N/2), the
within-pair estimator on complete matched pairs. Substitution is one of the
assumptions that check_assumptions, here too, reports on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from .core import (
    PROB_TOL,
    ROW_BLOCK,
    SUBSTITUTE_CAP,
    WEIGHT_TOL,
    AssignmentVector,
    AssumptionError,
    ObservedData,
    ValidationError,
    VarianceEstimate,
    _check_pairs,
    _mask_key,
    _row_failure,
)
from .designs import Design, ExplicitDesign
from .estimators import _group_variances, _squared_deviations

EQUAL_SIZE = "equal-size"
EPSEM = "epsem"


def _as_assignment(x, n: int) -> AssignmentVector:
    if isinstance(x, AssignmentVector):
        w = x
    elif isinstance(x, str):
        w = AssignmentVector.from_string(x)
    else:
        w = AssignmentVector.from_bits(x)
    if w.n != n:
        raise ValidationError(f"assignment has {w.n} units, expected {n}")
    return w


def _group_sizes(d: Design) -> set[int]:
    if isinstance(d, ExplicitDesign):
        return set(np.flatnonzero(d.structure.sizes).tolist())
    if d.kind == "crd" and "n_treated" in d.meta:
        return {int(d.meta["n_treated"])}
    raise AssumptionError(
        "substitution undefined: treated-group sizes are unknown for this "
        f"sampler-backed {d.kind} design"
    )


def substitution_mode(d: Design) -> str:
    """Classify the design's substitution scheme.

    'equal-size' when every support vector splits the units in half and N
    is divisible by 4; otherwise 'epsem' when the overlap count
    N_t(w)^2 / N is a whole number for every group size in the support.
    Anything else, or a support vector that treats no unit or every unit,
    cannot define substitutes and raises. Cached per design.
    Both modes share one substitute relation, k = N_t(w)^2 / N, and one
    kernel; the mode says which estimators apply: v_sub needs
    'equal-size', where its value is mse_sub_epsem's.
    """
    mode = d._memo("_substitution_mode", lambda: _substitution_mode(d))
    if mode not in (EQUAL_SIZE, EPSEM):
        raise AssumptionError(mode)
    return mode


def _substitution_mode(d: Design) -> str:
    """The mode, or the message of its refusal: a kept exception's traceback
    would hold the design."""
    try:
        pi = d.propensities
    except AssumptionError as exc:
        return f"substitution undefined: {exc}"
    if float(np.ptp(pi)) > PROB_TOL:
        return ("substitution undefined: propensities vary across units "
                f"(min {float(pi.min())!r}, max {float(pi.max())!r})")
    try:
        sizes = sorted(_group_sizes(d))
        for nt in sizes:
            if nt in (0, d.n):
                return (f"substitution undefined: a support vector treats N_t = {nt} of "
                        f"N = {d.n} units, which leaves one group empty")
            _overlap_count(d.n, nt)  # raises unless N_t^2 / N is whole
    except AssumptionError as exc:
        return str(exc)
    return EQUAL_SIZE if sizes == [d.n // 2] and d.n % 4 == 0 else EPSEM


def _overlap_count(n: int, n_treated: int) -> int:
    """How many of w's treated units a substitute must treat: k = N_t(w)^2 / N,
    which is N/4 when N_t(w) = N/2."""
    k, rem = divmod(n_treated * n_treated, n)
    if rem:
        raise AssumptionError(
            f"substitution undefined: overlap count N_t(w)^2/N = "
            f"{n_treated * n_treated / n} is not an integer "
            f"(N_t = {n_treated}, N = {n})"
        )
    return k


def is_substitute(w: AssignmentVector, cand: AssignmentVector) -> bool:
    """Whether cand treats the required split of w's treated and control units:
    exactly k of w's treated units and N_t(w) - k of its controls, with
    k = N_t(w)^2 / N. Raises when k is not a whole number.
    """
    if cand.n != w.n:
        raise ValidationError(f"assignments have different lengths {w.n} and {cand.n}")
    k = _overlap_count(w.n, w.n_treated)
    same = (w.mask & cand.mask).bit_count()
    return same == k and cand.n_treated == w.n_treated


@dataclass(frozen=True)
class SubstituteSet:
    """The substitutes of one anchor assignment."""

    anchor: AssignmentVector
    members: tuple[AssignmentVector, ...]

    def __post_init__(self) -> None:
        masks = frozenset(m.mask for m in self.members)
        if len(masks) != len(self.members):
            raise ValidationError("substitute members must be distinct")
        if any(m.n != self.anchor.n for m in self.members):
            raise ValidationError("substitute member length differs from anchor")
        object.__setattr__(self, "_masks", masks)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, w: AssignmentVector) -> bool:
        return w.n == self.anchor.n and w.mask in self._masks

    @property
    def is_label_closed(self) -> bool:
        """True when the members come in complement pairs."""
        return all(m.complement().mask in self._masks for m in self.members)


def _substitute_rule(d: ExplicitDesign, anchors, members) -> tuple[np.ndarray, np.ndarray]:
    """The substitute predicate on support rows ``anchors`` and ``members``,
    broadcast, as (k, same_size): a member substitutes for its anchor when the
    group sizes match and it shares k = N_t^2 / N of the anchor's treated
    units."""
    sizes = d.group_sizes
    anchor_sizes = sizes[anchors]
    k = np.zeros(d.n + 1)
    for nt in np.flatnonzero(np.bincount(anchor_sizes.ravel())).tolist():
        k[nt] = _overlap_count(d.n, nt)
    return k[anchor_sizes], anchor_sizes == sizes[members]


def _substitute_rows(d: ExplicitDesign, rows) -> np.ndarray:
    """(len(rows), S) boolean block: entry (i, s) says support[s] substitutes
    for support[rows[i]]. The relation is symmetric, so row r also lists the
    anchors whose substitute set contains support[r].
    """
    rows = np.asarray(rows)
    k, same_size = _substitute_rule(d, rows[:, None], slice(None))
    overlap = d._overlaps(rows)
    return (overlap == k.astype(overlap.dtype)) & same_size


def _row_blocks(d: ExplicitDesign) -> Iterator[np.ndarray]:
    s = d.support_size
    step = max(1, ROW_BLOCK // s)
    for start in range(0, s, step):
        yield np.arange(start, min(start + step, s))


# a member's tuple slot and its frozenset entry: 91 bytes per member measured with
# tracemalloc on CRD(12,6)'s full map (369,600 members), CPython 3.11
_MAP_BYTES_PER_MEMBER = 91


def _check_count(w: AssignmentVector, count: int, cap: float = math.inf) -> None:
    if count > cap:
        raise AssumptionError(
            f"substitute set too large: {count} members exceeds cap {cap}"
        )
    if not count:
        raise AssumptionError(
            f"no substitutes exist for assignment {w}: the substitution "
            "assumption fails at this vector"
        )


def _require_explicit(d: Design, what: str) -> ExplicitDesign:
    if not isinstance(d, ExplicitDesign):
        raise AssumptionError(
            f"cannot {what} substitutes for a sampler-backed {d.kind} design"
        )
    return d


def full_substitute_set(d: Design, w, *, cap: int = SUBSTITUTE_CAP) -> SubstituteSet:
    """All substitutes of ``w`` within the design, in support order.

    Scans the support with the substitute predicate. Raises when the set is
    empty, which breaks the assumption the estimators rest on.
    """
    d = _require_explicit(d, "enumerate")
    w = _as_assignment(w, d.n)
    hits = _substitute_rows(d, [d.index_of(w)])[0]
    _check_count(w, int(hits.sum()), cap)
    members = tuple(d.vector(s) for s in np.flatnonzero(hits))
    return SubstituteSet(anchor=w, members=members)


def _size_counts(d: ExplicitDesign) -> np.ndarray | None:
    """The substitute count of a row by its treated-group size on a complete
    support (:attr:`ExplicitDesign.structure`), else None: (N + 1,) int64,
    read-only and kept on the design, whose entry m is C(m, k)·C(N - m, m - k)
    on complete layers and C(J, k) on J complete pairs (every row of size J),
    k the overlap count, and 0 for a size the support does not hold."""

    def build() -> np.ndarray | None:
        n, (sizes, complete, _) = d.n, d.structure
        if complete is None:
            return None
        per_size = np.zeros(n + 1, dtype=np.int64)
        # ascending: a refusal names the scan's size
        for m in np.flatnonzero(sizes).tolist():
            k = _overlap_count(n, m)
            count = math.comb(m, k)
            per_size[m] = count if complete == "pairs" else count * math.comb(n - m, m - k)
        per_size.setflags(write=False)
        return per_size

    return d._memo("_size_counts", build)


def substitute_counts(d: Design) -> np.ndarray:
    """|G*(w)| for every support vector, in support order; cached, read-only.

    The count depends on the support alone: a k = N_t^2 / N that is not a
    whole number is refused, but unequal propensities are not (the
    estimators refuse those through :func:`substitution_mode`).

    A complete support takes a counting formula, with no scan: one whose
    every treated-group size m has all C(N, m) vectors (complete
    randomization, or a union of such layers), where a size-m vector has
    C(m, k)·C(N - m, m - k) substitutes, k = m^2 / N; and complete matched
    pairs (``pairs`` set, all 2^J one-per-pair vectors), C(J, J/2) each.
    Weights never enter: the count is of support rows. Any other support,
    whatever its ``kind``, is scanned in blocks of about ROW_BLOCK
    (rows, support) elements.
    """
    d = _require_explicit(d, "count")

    def count() -> np.ndarray:
        per_size = _size_counts(d)
        if per_size is None:
            counts = np.concatenate([_substitute_rows(d, rows).sum(axis=1)
                                     for rows in _row_blocks(d)])
        else:
            counts = per_size[d.group_sizes]
        counts.setflags(write=False)
        return counts

    return d._memo("_substitute_counts", count)


def full_substitute_map(
    d: ExplicitDesign, *, cap: int = SUBSTITUTE_CAP
) -> dict[AssignmentVector, SubstituteSet]:
    """G*(w) for every support vector, keyed by anchor.

    ``cap`` bounds each set and also the members of all sets together: the map
    holds one Python reference and one set entry per member, so a larger map
    is refused before any set is built.
    """
    d = _require_explicit(d, "enumerate")
    support = d.support
    counts = substitute_counts(d)
    # the largest set trips the cap first, then the first empty set
    for r in (int(np.argmax(counts)), int(np.argmin(counts))):
        _check_count(support[r], int(counts[r]), cap)
    total = int(counts.sum())
    if total > cap:
        raise AssumptionError(
            f"substitute map too large: {d.support_size} sets hold {total} members "
            f"in all, which exceeds cap {cap}; the map would take about "
            f"{total * _MAP_BYTES_PER_MEMBER / 2**30:.2f} GiB"
        )
    out = {}
    for rows in _row_blocks(d):
        for r, hits in zip(rows, _substitute_rows(d, rows)):
            w = support[r]
            members = tuple(support[s] for s in np.flatnonzero(hits))
            out[w] = SubstituteSet(anchor=w, members=members)
    return out


def _rows_of_items(d: ExplicitDesign, items: list) -> np.ndarray:
    """Support row of each assignment given as a bit string, AssignmentVector
    or 0/1 sequence; -1 if it is not in the support or does not parse. A map
    names each vector many times, so each distinct string is parsed once."""

    def key_of(n: int, x) -> bytes | None:
        try:
            return _mask_key(n, _as_assignment(x, n).mask)
        except Exception:  # raised again, in check order, if its entry is refused
            return None

    text = {x: key_of(d.n, x) for x in {x for x in items if isinstance(x, str)}}
    keys = [text[x] if isinstance(x, str) else key_of(d.n, x) for x in items]
    rows = d._find(b"".join(k or _mask_key(d.n, 0) for k in keys))
    rows[[k is None for k in keys]] = -1
    return rows


def _normalize_g(d: ExplicitDesign, g: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """Validate a user map in one pass; return each anchor's set size and the
    distinct (member, anchor) row pairs as sorted keys member * S + anchor.

    Every support vector must appear with a nonempty set of genuine in-support
    substitutes; the estimators refuse partial coverage because their
    unbiasedness argument sums over all anchors. Duplicate members count once.
    The first faulty entry is refused: its anchor, then the parse of every
    member, then each member in list order.
    """
    s = d.support_size
    keys, vals = list(g), []
    for v in g.values():
        try:
            vals.append(list(v))  # a SubstituteSet iterates its members
        except Exception:  # kept as given: its entry is refused in map order below
            vals.append(v)
    counts = [len(v) if isinstance(v, list) else 0 for v in vals]
    anchors = _rows_of_items(d, keys)
    members = _rows_of_items(d, [m for v, c in zip(vals, counts) if c for m in v])
    owner = np.repeat(np.arange(len(keys)), counts)
    a = anchors[owner]
    ok = (a >= 0) & (members >= 0)
    k, same_size = _substitute_rule(d, a[ok], members[ok])
    ok[ok] = (d._pair_overlaps(a[ok], members[ok]) == k) & same_size
    faulty = (anchors < 0) | np.equal(counts, 0)
    faulty |= np.bincount(owner[~ok], minlength=len(keys)) > 0
    if faulty.any():
        e = int(np.argmax(faulty))
        w = _as_assignment(keys[e], d.n)
        if anchors[e] < 0:
            raise ValidationError(f"anchor {w} is not in the design support")
        listed = [_as_assignment(m, d.n) for m in vals[e]]
        if not listed:
            raise AssumptionError(f"empty substitute set supplied for anchor {w}")
        i = int(np.argmin(ok[owner == e]))
        m = listed[i]
        if members[owner == e][i] < 0:
            raise ValidationError(f"substitute {m} of anchor {w} is not in the design support")
        raise ValidationError(f"{m} is not a substitute of {w}")
    pairs = np.sort(members * s + a)
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    sizes = np.bincount(pairs % s, minlength=s)
    if not sizes.all():
        w = d.vector(int(np.argmin(sizes)))
        raise ValidationError(f"substitute map does not cover the support: no entry for {w}")
    return sizes, pairs


def _layer_values(w: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s2_t/N_c + s2_c/N_t on k realized tables, and each table's treated
    count N_t (arguments as in :func:`_group_variances`)."""
    s2_t, s2_c, n_t = _group_variances(w, y)
    return s2_t / (np.shape(w)[1] - n_t) + s2_c / n_t, n_t


def _anchor_sums(d: ExplicitDesign, rows: np.ndarray, y: np.ndarray, sizes: np.ndarray,
                 pairs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each table's anchor sum and anchor count: table i, realized at row
    W = ``rows[i]``, sums (p_w / p_W) c_w^2 / |G(w)| over the anchors w whose
    set holds W, with |G(w)| = ``sizes[w]`` and c_w = s/m - (T - s)/(N - m)
    for w's treated sum s of ``y[i]``, its total T and W's group size m. The
    anchors are W's substitutes (the relation is symmetric), one pass over
    the support per table, or those of a user map's sorted keys
    member * S + anchor ``pairs``: the whole relation's map gives its bits."""
    weight, s = d.probs / sizes, d.support_size
    if pairs is not None:
        lo = np.searchsorted(pairs, rows * s).tolist()
        hi = np.searchsorted(pairs, rows * s + s).tolist()
    sums = np.empty(len(rows))
    counts = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows.tolist()):
        if pairs is None:
            a = np.flatnonzero(_substitute_rows(d, [row])[0])
        else:
            a = pairs[lo[i]:hi[i]] - row * s
        treated_sum, total = d._row_sums(y[i], a), y[i].sum()
        m = int(d.group_sizes[row])  # every anchor has the group size of the row
        c = treated_sum / m - (total - treated_sum) / (d.n - m)
        # every term is >= 0, so the sum does not cancel
        sums[i] = (weight[a] * c**2).sum() / d.probs[row]
        counts[i] = len(a)
    return sums, counts


def _substitute_values(
    d: Design, g: Mapping | None
) -> Callable[..., tuple[np.ndarray, str, np.ndarray]]:
    """The kernel of mse_sub_epsem, and of v_sub: from k realized tables
    (w, y) it returns the values, the design's :func:`substitution_mode`
    (which refuses unequal propensities before any count) and each table's
    number of anchors. With ``equal_size`` (v_sub) it also refuses, right
    after the mode, a design whose mode is not equal-size.

    Anchors come from the substitute relation or a user map ``g``, validated
    once in the kernel's life. On a complete support whose weights are
    constant on each group size (:attr:`ExplicitDesign.structure`), with the
    whole relation as anchors (no map, or one with the relation's set
    sizes), the anchor sum is Neyman's and is scored so: by
    :func:`_layer_values` on complete layers and :func:`_pair_values` on
    complete pairs. Elsewhere it is :func:`_anchor_sums`, which needs each
    table's support row (:meth:`ExplicitDesign.rows_of`), looked up once per
    call on the anchor route only: a complete support's membership is
    :meth:`ExplicitDesign.in_support`, read from its structure, and an
    incomplete support's is its lookup. A call keeps nothing of its tables.
    """
    kept: dict[str, Any] = {}  # a user map's validation

    def values(w: np.ndarray, y: np.ndarray, equal_size: bool = False) -> tuple:
        _require_explicit(d, "enumerate")
        if w.shape[1] != d.n:
            raise ValidationError(f"observed data has {w.shape[1]} units, design has {d.n}")
        _, complete, even = d.structure
        # an incomplete support is scored by anchors, which need each table's row
        rows = None if complete else d.rows_of(w)
        off = ~d.in_support(w) if rows is None else rows < 0
        if off.any():
            r = int(np.argmax(off))
            w_r = AssignmentVector.from_bits(w[r].astype(np.int8).tolist())
            raise _row_failure(
                ValidationError(f"realized assignment {w_r} is not in the design support"), r
            )
        mode = substitution_mode(d)
        if equal_size and mode != EQUAL_SIZE:
            raise AssumptionError(
                "the contrast variance estimator needs equal group sizes with N "
                f"divisible by 4; this design supports only {mode} substitution "
                "(see mse_sub_epsem)"
            )
        if g is not None and "map" not in kept:
            kept["map"] = _normalize_g(d, g)
        if even and complete and (
                g is None or np.array_equal(kept["map"][0], substitute_counts(d))):
            # complete layers and pairs give every row substitutes
            t, per_size = np.asarray(w, dtype=bool), _size_counts(d)
            if complete == "layers":
                values, n_t = _layer_values(t, y)
                return values, mode, per_size[n_t]
            first, second = d.pair_units
            return (_pair_values(t[:, first], y[:, first], y[:, second]), mode,
                    np.full(len(t), per_size[len(d.pairs)]))
        if rows is None:
            rows = d.rows_of(w)
        sizes, pairs = (substitute_counts(d), None) if g is None else kept["map"]
        r = int(np.argmin(sizes))  # a map covers every row; the relation may not
        _check_count(d.vector(r), int(sizes[r]))
        sums, counts = _anchor_sums(d, rows, y, sizes, pairs)
        return sums, mode, counts

    return values


def _contrast_estimate(d: Design, obs: ObservedData, g: Mapping | None, estimator: str,
                       equal_size: bool = False) -> VarianceEstimate:
    values, mode, counts = _substitute_values(d, g)(
        obs.w.to_array()[None], obs.y_obs[None], equal_size)
    return VarianceEstimate(value=float(values[0]), estimator=estimator,
                            params={"mode": mode, "contributing_anchors": int(counts[0])})


def v_sub(d: Design, obs: ObservedData, g: Mapping | None = None) -> VarianceEstimate:
    """Substitute-contrast estimate of Var(tau_hat) for half/half designs.

    Sums (4/N^2) (p_w / p_W) |G(w)|^{-1} {l(w)' Y_obs}^2 over the anchors w
    whose substitute set contains the realized assignment, where l(w) is +-1
    by w's arm labels. Nonnegative by construction. It is mse_sub_epsem's
    value, to the bit: at N_t = N/2 that contrast is (2/N) l(w)' Y_obs. On
    CRD(N, N/2) it is neyman_variance, and on complete pairs v_pair, to the
    bit.
    """
    return _contrast_estimate(d, obs, g, "substitute_contrast", equal_size=True)


def _v_pair_values(pairs, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """v_pair's value on k realized tables at once: (k, n) 0/1 assignments
    ``w`` and the matching observed outcomes ``y``, units paired by ``pairs``."""
    t = np.asarray(w, dtype=bool)
    if pairs is None:
        raise ValidationError("matched-pair variance needs pair labels")
    n = t.shape[1]
    pairs = _check_pairs(pairs, n)
    if n < 4:
        raise AssumptionError(f"matched-pair variance needs at least 4 units, got {n}")
    a, b = np.array(pairs).T
    t_a = t[:, a]
    unbalanced = t_a == t[:, b]
    if unbalanced.any():
        r, j = np.argwhere(unbalanced)[0]
        raise _row_failure(ValidationError(
            f"pair ({a[j]}, {b[j]}) does not have exactly one treated unit"
        ), int(r))
    return _pair_values(t_a, y[:, a], y[:, b])


def _pair_values(t_a: np.ndarray, y_a: np.ndarray, y_b: np.ndarray) -> np.ndarray:
    """v_pair's value on k tables whose every pair (a, b) has one treated unit,
    from ``t_a``, whether a is treated, and the outcomes of a and b, each
    (k, J)."""
    n = 2 * t_a.shape[1]
    # rows contiguous, so each row is summed alike in any batch: y[:, a] is column-major
    diffs = np.ascontiguousarray(np.where(t_a, y_a - y_b, y_b - y_a))
    return 4.0 / (n * (n - 2)) * _squared_deviations(diffs)


def _v_pair_scalar(pairs, obs: ObservedData) -> VarianceEstimate:
    """v_pair scored with a design's ``pairs``; observed pair labels, if
    given, must pair the units the same way (``pairs`` None: the observed
    labels). One row of the batch kernel ``_v_pair_values``."""
    if pairs is None:
        pairs = obs.pair_labels
    elif obs.n != 2 * len(pairs):
        raise ValidationError(f"observed data has {obs.n} units, design has {2 * len(pairs)}")
    elif obs.pair_labels is not None and (
        {frozenset(p) for p in obs.pair_labels} != {frozenset(p) for p in pairs}
    ):
        raise ValidationError("observed pair labels differ from the design's pairs")
    value = _v_pair_values(pairs, obs.w.to_array()[None], obs.y_obs[None])
    return VarianceEstimate(
        value=float(value[0]),
        estimator="matched_pair",
        params={"n_pairs": len(pairs)},
    )


def v_pair(obs: ObservedData) -> VarianceEstimate:
    """Classic matched-pair variance estimate from within-pair differences,
    units paired by the observed labels."""
    return _v_pair_scalar(None, obs)


def mse_sub_epsem(
    d: Design, obs: ObservedData, g: Mapping | None = None
) -> VarianceEstimate:
    """Substitute-contrast estimate of the ratio estimator's MSE.

    Same anchor sum as v_sub but with group-size contrast weights
    (+1/N_t(w) treated, -1/N_c(w) control) and no 4/N^2 prefactor, which
    accommodates equal-propensity designs with unequal group sizes. On an
    equal-size design it is v_sub's value, to the bit; on complete layers it
    is s2_t/N_c + s2_c/N_t.
    """
    return _contrast_estimate(d, obs, g, "substitute_mse")


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionReport:
    """Per-design flags for the assumptions the estimators rely on.

    ``None`` means the check needs enumeration and the design is
    sampler-backed. ``details`` carries a human-readable diagnostic per flag.
    """

    positivity: bool | None
    equal_size_constant_propensity: bool | None
    epsem: bool | None
    measurable: bool | None
    closed_under_label_switching: bool | None
    substitution: bool | None
    fixed_total_weight: bool | None
    details: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        flags = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "details"}
        return {"flags": flags, "details": dict(self.details)}


def check_assumptions(d: Design) -> AssumptionReport:
    """Evaluate every design assumption the estimators in this package use."""
    details: dict[str, str] = {}
    if not isinstance(d, ExplicitDesign):
        try:
            pi = d.propensities
            positivity = bool(np.all((pi > 0.0) & (pi < 1.0)))
            epsem = bool(np.ptp(pi) <= PROB_TOL)
        except AssumptionError:
            positivity = None
            epsem = None
        details["support"] = "sampler-backed design: enumeration-based checks skipped"
        return AssumptionReport(positivity, None, epsem, None, None, None, None, details)

    n = d.n
    pi = d.propensities

    positivity = bool(np.all((pi > 0.0) & (pi < 1.0)))
    if not positivity:
        bad = int(np.argmax(~((pi > 0.0) & (pi < 1.0))))
        details["positivity"] = f"unit {bad} has propensity {float(pi[bad])!r}"

    epsem = bool(np.ptp(pi) <= PROB_TOL)
    if not epsem:
        details["epsem"] = f"propensities range over [{pi.min():.6g}, {pi.max():.6g}]"

    sizes = d.structure.sizes
    equal_groups = bool(n % 2 == 0 and sizes[n // 2] == d.support_size)
    equal_size = equal_groups and epsem
    if not equal_size:
        if not equal_groups:
            details["equal_size_constant_propensity"] = (
                f"treated-group sizes take values {np.flatnonzero(sizes).tolist()}"
            )
        else:
            details["equal_size_constant_propensity"] = "propensities are not constant"

    cells = np.stack(d.pairwise_cells())
    off = ~np.eye(n, dtype=bool)
    measurable = bool(np.all(cells[:, off] > PROB_TOL))
    if not measurable:
        c, i, j = np.argwhere((cells <= PROB_TOL) & off[None, :, :])[0]
        wi, wj = [(1, 1), (1, 0), (0, 1), (0, 0)][c]
        details["measurable"] = (
            f"Pr(W_{i}={wi}, W_{j}={wj}) = 0 for units ({i},{j})"
        )

    unmatched = np.flatnonzero(d._complement_rows() < 0)
    closed = not unmatched.size
    if not closed:
        w = d.vector(int(unmatched[0]))
        details["closed_under_label_switching"] = f"complement of {w} is not in support"

    try:
        substitution_mode(d)  # a design the estimators refuse fails the check
        counts = substitute_counts(d)
        substitution = bool(np.all(counts > 0))
        if not substitution:
            w = d.vector(int(np.argmax(counts == 0)))
            details["substitution"] = f"{w} has no substitute in the support"
    except AssumptionError as exc:
        substitution = False
        details["substitution"] = str(exc)

    if positivity:
        # sum over treated units of 1/pi - 1/(1-pi), plus 1/(1-pi) over all units
        weights = d._row_sums(1.0 / pi - 1.0 / (1.0 - pi))
        weights += (1.0 / (1.0 - pi)).sum()
        fixed_weight = bool(np.all(np.abs(weights - 2.0 * n) <= WEIGHT_TOL))
        if not fixed_weight:
            k = int(np.argmax(np.abs(weights - 2.0 * n) > WEIGHT_TOL))
            details["fixed_total_weight"] = (
                f"total weight at {d.vector(k)} is {weights[k]:.6g}, not {2 * n}"
            )
    else:
        fixed_weight = False
        details.setdefault("fixed_total_weight", "positivity fails")

    return AssumptionReport(
        positivity=positivity,
        equal_size_constant_propensity=equal_size,
        epsem=epsem,
        measurable=measurable,
        closed_under_label_switching=closed,
        substitution=substitution,
        fixed_total_weight=fixed_weight,
        details=details,
    )
