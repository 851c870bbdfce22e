"""Variance estimation from substitute assignments.

A substitute of an assignment w is another support vector whose treated
group straddles w's treated and control groups in fixed proportions.
Squared contrasts of the observed outcomes along the substitutes of the
realized assignment, reweighted by support probabilities, estimate the
design variance of the difference-in-means estimator without touching
pairwise assignment probabilities. An analogous construction with
group-size weights estimates the MSE of the ratio (Hajek) estimator on
equal-propensity designs with unequal group sizes. check_assumptions lives
here too: substitution is one of the assumptions it reports on.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, fields
from typing import Any, Iterator, Mapping

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

EQUAL_SIZE = "equal-size"
EPSEM = "epsem"

_COUNTS_CACHE: "weakref.WeakKeyDictionary[Design, dict]" = (
    weakref.WeakKeyDictionary()
)


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


def _constant_propensity(d: Design) -> float:
    try:
        pi = d.propensities
    except AssumptionError as exc:
        raise AssumptionError(f"substitution undefined: {exc}") from exc
    if float(np.ptp(pi)) > PROB_TOL:
        raise AssumptionError(
            "substitution undefined: propensities vary across units "
            f"(min {float(pi.min())!r}, max {float(pi.max())!r})"
        )
    return float(pi[0])


def _group_sizes(d: Design) -> set[int]:
    if isinstance(d, ExplicitDesign):
        return set(np.flatnonzero(np.bincount(d.group_sizes)).tolist())
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
    Anything else cannot define substitutes and raises. Cached per design.
    """
    per_design = _COUNTS_CACHE.setdefault(d, {})
    if "mode" not in per_design:
        try:
            per_design["mode"] = _substitution_mode(d)
        except AssumptionError as exc:
            per_design["mode"] = str(exc)  # its traceback would hold d and pin the entry
    if per_design["mode"] not in (EQUAL_SIZE, EPSEM):
        raise AssumptionError(per_design["mode"])
    return per_design["mode"]


def _substitution_mode(d: Design) -> str:
    _constant_propensity(d)
    n = d.n
    sizes = sorted(_group_sizes(d))
    if sizes == [n // 2] and n % 4 == 0:
        return EQUAL_SIZE
    for nt in sizes:
        _overlap_count(n, nt, EPSEM)  # raises unless N_t^2 / N is whole
    return EPSEM


def _overlap_count(n: int, n_treated: int, mode: str) -> int:
    """How many of w's treated units a substitute must treat."""
    if mode == EQUAL_SIZE:
        if n % 4 or n_treated != n // 2:
            raise AssumptionError(
                "substitution undefined: equal-size mode needs N_t(w) = N/2 "
                f"with N divisible by 4 (N_t = {n_treated}, N = {n})"
            )
        return n // 4
    if mode == EPSEM:
        k, rem = divmod(n_treated * n_treated, n)
        if rem:
            raise AssumptionError(
                f"substitution undefined: overlap count N_t(w)^2/N = "
                f"{n_treated * n_treated / n} is not an integer "
                f"(N_t = {n_treated}, N = {n})"
            )
        return k
    raise ValidationError(f"unknown substitution mode {mode!r}")


def is_substitute(w: AssignmentVector, cand: AssignmentVector, mode: str) -> bool:
    """Whether cand treats the required split of w's treated and control units.

    In both modes the condition is: cand treats exactly k of w's treated units
    and N_t(w) - k of w's controls, with k = N_t(w)^2 / N (which is N/4 in the
    equal-size case).
    """
    if cand.n != w.n:
        raise ValidationError(f"assignments have different lengths {w.n} and {cand.n}")
    k = _overlap_count(w.n, w.n_treated, mode)
    same = (w.mask & cand.mask).bit_count()
    return same == k and cand.n_treated == w.n_treated


@dataclass(frozen=True)
class SubstituteSet:
    """The substitutes of one anchor assignment."""

    anchor: AssignmentVector
    members: tuple[AssignmentVector, ...]
    mode: str

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


def _substitute_rule(
    d: ExplicitDesign, anchors, members, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """The substitute predicate on support rows ``anchors`` and ``members``,
    broadcast, as (k, same_size): a member substitutes for its anchor when the
    group sizes match and it shares k = N_t^2 / N of the anchor's treated
    units (N/4 in equal-size mode)."""
    sizes = d.group_sizes
    anchor_sizes = sizes[anchors]
    k = np.zeros(d.n + 1)
    for nt in np.flatnonzero(np.bincount(anchor_sizes.ravel())).tolist():
        k[nt] = _overlap_count(d.n, nt, mode)
    return k[anchor_sizes], anchor_sizes == sizes[members]


def _substitute_rows(d: ExplicitDesign, rows, mode: str) -> np.ndarray:
    """(len(rows), S) boolean block: entry (i, s) says support[s] substitutes
    for support[rows[i]]. The relation is symmetric, so row r also lists the
    anchors whose substitute set contains support[r].
    """
    rows = np.asarray(rows)
    u = d.matrix
    k, same_size = _substitute_rule(d, rows[:, None], slice(None), mode)
    # overlaps of 0/1 rows are small integers, exact in floating point
    return (u[rows] @ u.T == k) & same_size


def _row_blocks(d: ExplicitDesign) -> Iterator[np.ndarray]:
    s = d.support_size
    step = max(1, ROW_BLOCK // s)
    for start in range(0, s, step):
        yield np.arange(start, min(start + step, s))


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


def full_substitute_set(
    d: Design,
    w,
    mode: str | None = None,
    *,
    cap: int = SUBSTITUTE_CAP,
) -> SubstituteSet:
    """All substitutes of ``w`` within the design, in support order.

    Scans the support with the substitute predicate. Raises when the set is
    empty, which breaks the assumption the estimators rest on.
    """
    d = _require_explicit(d, "enumerate")
    w = _as_assignment(w, d.n)
    if mode is None:
        mode = substitution_mode(d)
    hits = _substitute_rows(d, [d.index_of(w)], mode)[0]
    _check_count(w, int(hits.sum()), cap)
    members = tuple(d.vector(s) for s in np.flatnonzero(hits))
    return SubstituteSet(anchor=w, members=members, mode=mode)


def _closed_form_counts(d: ExplicitDesign, mode: str) -> np.ndarray | None:
    """The counts of :func:`substitute_counts` by formula when the support is
    complete, else None. Rows are distinct, so C(N, m) rows of size m are the
    whole layer, and 2^J rows that treat one unit of each of J pairs
    partitioning the units are all of them; k is the overlap count."""
    n, sizes = d.n, d.group_sizes
    present = {m: c for m, c in enumerate(np.bincount(sizes).tolist()) if c}
    if all(c == math.comb(n, m) for m, c in present.items()):
        per_size = np.zeros(n + 1, dtype=np.int64)
        for m in present:  # ascending, so a refusal names the size the scan names
            k = _overlap_count(n, m, mode)
            per_size[m] = math.comb(m, k) * math.comb(n - m, m - k)
        return per_size[sizes]
    pairs = d.pairs or ()
    units = sorted(u for ab in pairs for u in ab)
    if (pairs and units == list(range(n)) and all(len(ab) == 2 for ab in pairs)
            and d.support_size == 1 << len(pairs)):

        def treats(i: int) -> np.ndarray:
            return (d._packed[:, i // 8] & (0x80 >> i % 8)) != 0

        if all(np.all(treats(a) != treats(b)) for a, b in pairs):
            j = len(pairs)
            return np.full(d.support_size, math.comb(j, _overlap_count(n, j, mode)))
    return None


def substitute_counts(d: Design, mode: str | None = None) -> np.ndarray:
    """|G*(w)| for every support vector, in support order; cached, read-only.

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
    if mode is None:
        mode = substitution_mode(d)
    per_design = _COUNTS_CACHE.setdefault(d, {})
    if mode not in per_design:
        counts = _closed_form_counts(d, mode)
        if counts is None:
            counts = np.concatenate(
                [_substitute_rows(d, rows, mode).sum(axis=1) for rows in _row_blocks(d)]
            )
        counts.setflags(write=False)
        per_design[mode] = counts
    return per_design[mode]


def full_substitute_map(
    d: ExplicitDesign,
    mode: str | None = None,
    *,
    cap: int = SUBSTITUTE_CAP,
) -> dict[AssignmentVector, SubstituteSet]:
    """G*(w) for every support vector, keyed by anchor."""
    d = _require_explicit(d, "enumerate")
    if mode is None:
        mode = substitution_mode(d)
    support = d.support
    counts = substitute_counts(d, mode)
    # the largest set trips the cap first, then the first empty set
    for r in (int(np.argmax(counts)), int(np.argmin(counts))):
        _check_count(support[r], int(counts[r]), cap)
    out = {}
    for rows in _row_blocks(d):
        for r, hits in zip(rows, _substitute_rows(d, rows, mode)):
            w = support[r]
            members = tuple(support[s] for s in np.flatnonzero(hits))
            out[w] = SubstituteSet(anchor=w, members=members, mode=mode)
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
    rows = d._find(b"".join(k or bytes((d.n + 7) // 8) for k in keys))
    rows[[k is None for k in keys]] = -1
    return rows


def _normalize_g(d: ExplicitDesign, g: Mapping, mode: str) -> tuple[np.ndarray, np.ndarray]:
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
    k, same_size = _substitute_rule(d, a[ok], members[ok], mode)
    overlap = np.unpackbits(d._packed[a[ok]] & d._packed[members[ok]], axis=1).sum(axis=1)
    ok[ok] = (overlap == k) & same_size
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


_BYTE_VALUES = np.arange(256, dtype=np.uint8)
#: (8, 256): entry [j, v] is bit j of byte v in ``np.packbits`` order (high bit first)
_BYTE_BITS = np.unpackbits(_BYTE_VALUES[:, None], axis=1).T.astype(float)
_POPCOUNT = _BYTE_BITS.sum(axis=0).astype(np.uint8)


def _byte_tables(values: np.ndarray, width: int) -> np.ndarray:
    """(width, 256) table whose entry [b, v] sums ``values[8b + j]`` over the
    set bits j of byte v, at most 8 values; units past the end count 0."""
    v = np.zeros(8 * width)
    v[:len(values)] = values
    return v.reshape(width, 8) @ _BYTE_BITS


def _lookup(tables: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Sum over bytes b of ``tables[b][columns[b]]``, added in byte order, for
    (width, k) packed rows by column: each row's sum of the per-unit values
    of its set bits."""
    out = tables[0].take(columns[0])
    for b in range(1, len(columns)):
        out += tables[b].take(columns[b])
    return out


def _relation(d: ExplicitDesign, mode: str) -> tuple[int, np.ndarray | None]:
    """Facts of the substitute relation decided once per design and mode,
    next to the cached counts: the support row with the fewest substitutes
    if it has none (else -1), and otherwise each anchor's weight
    p_w / |G*(w)|."""
    per_design = _COUNTS_CACHE.setdefault(d, {})
    if (mode, "relation") not in per_design:
        counts = substitute_counts(d, mode)
        r = int(np.argmin(counts))
        per_design[mode, "relation"] = (-1, d.probs / counts) if counts[r] else (r, None)
    return per_design[mode, "relation"]


def _relation_anchors(d: ExplicitDesign, mode: str, row: int) -> np.ndarray:
    """The support rows, ascending, whose substitute set holds support row
    ``row``. The relation is symmetric, so they are the rows of its size that
    share k of its treated units: one pass over the packed support, with a
    256-entry table per byte of the overlap with the row."""
    columns = d._packed_columns
    m = int(d.group_sizes[row])
    tables = _POPCOUNT[_BYTE_VALUES & columns[:, row, None]]
    overlap = _lookup(tables.astype(np.min_scalar_type(d.n), copy=False), columns)
    return np.flatnonzero((overlap == _overlap_count(d.n, m, mode)) & (d.group_sizes == m))


def _substitute_values(
    d: Design, w, y, g: Mapping | None, mse: bool
) -> tuple[np.ndarray, str, np.ndarray]:
    """v_sub, or with ``mse`` mse_sub_epsem, on k realized tables: the
    values, the substitution mode and each table's number of anchors.

    Table r sums (p_w / p_W) c_w^2 / |G(w)| over the anchors w whose
    substitute set holds its assignment W, c_w being l(w)'y (v_sub, scaled by
    4/N^2) or the group-size contrast (mse_sub_epsem). Anchors come from the
    substitute relation, one pass over the packed support per table, or from
    a user map ``g``, validated once per call, as the range of its sorted
    (member, anchor) pairs whose member is W. Either way each anchor's
    treated sum comes from per-byte 256-entry tables of the table's y, and
    the contrasts and terms are formed on the anchors alone, with the same
    arithmetic: a user map and the relation give the same bits, and a row's
    value does not depend on its batch.
    """
    if not isinstance(d, ExplicitDesign):
        raise AssumptionError(
            f"substitute estimators need an enumerable design, got {d.kind} sampler"
        )
    if w.shape[1] != d.n:
        raise ValidationError(f"observed data has {w.shape[1]} units, design has {d.n}")
    rows = d.rows_of(w)
    if np.any(rows < 0):
        r = int(np.argmax(rows < 0))
        w_r = AssignmentVector.from_bits(w[r].astype(np.int8).tolist())
        raise _row_failure(
            ValidationError(f"realized assignment {w_r} is not in the design support"), r
        )
    mode = substitution_mode(d)
    if not mse and mode != EQUAL_SIZE:
        raise AssumptionError(
            "the contrast variance estimator needs equal group sizes with N "
            f"divisible by 4; this design supports only {mode} substitution "
            "(see mse_sub_epsem)"
        )
    s = d.support_size
    if g is None:
        empty, weight = _relation(d, mode)
        if empty >= 0:
            _check_count(d.vector(empty), 0)
    else:
        sizes, pairs = _normalize_g(d, g, mode)
        weight = d.probs / sizes
        lo = np.searchsorted(pairs, rows * s).tolist()
        hi = np.searchsorted(pairs, rows * s + s).tolist()
    columns = d._packed_columns
    sums = np.empty(len(rows))
    counts = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows.tolist()):
        if g is None:
            a = _relation_anchors(d, mode, row)
        else:
            a = pairs[lo[i]:hi[i]] - row * s
        treated_sum = _lookup(_byte_tables(y[i], len(columns)), columns.take(a, axis=1))
        total = y[i].sum()
        if mse:  # every anchor has the group size of the row
            m = int(d.group_sizes[row])
            c = treated_sum / m - (total - treated_sum) / (d.n - m)
        else:
            c = 2.0 * treated_sum - total
        # every term is >= 0, so the sum does not cancel
        sums[i] = (weight[a] * c**2).sum() / d.probs[row]
        counts[i] = len(a)
    return (sums if mse else 4.0 / d.n**2 * sums), mode, counts


def v_sub(d: Design, obs: ObservedData, g: Mapping | None = None) -> VarianceEstimate:
    """Substitute-contrast estimate of Var(tau_hat) for half/half designs.

    Sums (4/N^2) (p_w / p_W) |G(w)|^{-1} {l(w)' Y_obs}^2 over the anchors w
    whose substitute set contains the realized assignment, where l(w) is +-1
    by w's arm labels. Nonnegative by construction.
    """
    return _substitute_estimate(d, obs, g, mse=False)


def _substitute_estimate(
    d: Design, obs: ObservedData, g: Mapping | None, mse: bool
) -> VarianceEstimate:
    """v_sub, or with ``mse`` mse_sub_epsem: one row of ``_substitute_values``."""
    values, mode, counts = _substitute_values(d, obs.w.to_array()[None], obs.y_obs[None], g, mse)
    return VarianceEstimate(
        value=float(values[0]),
        estimator="substitute_mse" if mse else "substitute_contrast",
        params={"mode": mode, "contributing_anchors": int(counts[0])},
    )


def _v_pair_values(pairs, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """v_pair's value on k realized tables at once: (k, n) 0/1 assignments
    ``w`` and the matching observed outcomes ``y``, units paired by ``pairs``."""
    t = np.asarray(w, dtype=bool)
    if pairs is None:
        raise ValidationError("matched-pair variance needs pair labels")
    n = t.shape[1]
    _check_pairs(pairs, n)
    if n < 4:
        raise AssumptionError(f"matched-pair variance needs at least 4 units, got {n}")
    a, b = np.array(pairs).T
    unbalanced = t[:, a] == t[:, b]
    if unbalanced.any():
        r, j = np.argwhere(unbalanced)[0]
        raise _row_failure(ValidationError(
            f"pair ({a[j]}, {b[j]}) does not have exactly one treated unit"
        ), int(r))
    diffs = np.where(t[:, a], y[:, a] - y[:, b], y[:, b] - y[:, a])
    dev = diffs - diffs.mean(axis=1, keepdims=True)
    return 4.0 / (n * (n - 2)) * (dev * dev).sum(axis=1)


def v_pair(obs: ObservedData) -> VarianceEstimate:
    """Classic matched-pair variance estimate from within-pair differences.
    One row of the batch kernel ``_v_pair_values``."""
    value = _v_pair_values(obs.pair_labels, obs.w.to_array()[None], obs.y_obs[None])
    return VarianceEstimate(
        value=float(value[0]),
        estimator="matched_pair",
        params={"n_pairs": len(obs.pair_labels)},
    )


def mse_sub_epsem(
    d: Design, obs: ObservedData, g: Mapping | None = None
) -> VarianceEstimate:
    """Substitute-contrast estimate of the ratio estimator's MSE.

    Same anchor sum as v_sub but with group-size contrast weights
    (+1/N_t(w) treated, -1/N_c(w) control) and no 4/N^2 prefactor, which
    accommodates equal-propensity designs with unequal group sizes.
    """
    return _substitute_estimate(d, obs, g, mse=True)


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
    u = d.matrix

    positivity = bool(np.all((pi > 0.0) & (pi < 1.0)))
    if not positivity:
        bad = int(np.argmax(~((pi > 0.0) & (pi < 1.0))))
        details["positivity"] = f"unit {bad} has propensity {float(pi[bad])!r}"

    epsem = bool(np.ptp(pi) <= PROB_TOL)
    if not epsem:
        details["epsem"] = f"propensities range over [{pi.min():.6g}, {pi.max():.6g}]"

    group_sizes = d.group_sizes
    equal_groups = bool(n % 2 == 0 and np.all(group_sizes == n // 2))
    equal_size = equal_groups and epsem
    if not equal_size:
        if not equal_groups:
            details["equal_size_constant_propensity"] = (
                f"treated-group sizes take values {sorted(set(group_sizes.tolist()))}"
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

    unmatched = np.flatnonzero(d.rows_of(u == 0) < 0)
    closed = not unmatched.size
    if not closed:
        w = d.vector(int(unmatched[0]))
        details["closed_under_label_switching"] = f"complement of {w} is not in support"

    try:
        mode = substitution_mode(d)
        counts = substitute_counts(d, mode)
        substitution = bool(np.all(counts > 0))
        if not substitution:
            w = d.vector(int(np.argmax(counts == 0)))
            details["substitution"] = f"{w} has no substitute in the support"
    except AssumptionError as exc:
        substitution = False
        details["substitution"] = str(exc)

    if positivity:
        weights = u @ (1.0 / pi) + (1.0 - u) @ (1.0 / (1.0 - pi))
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
