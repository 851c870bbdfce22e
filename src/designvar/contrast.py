"""Variance estimation from substitute assignments.

A substitute of an assignment w is another support vector whose treated
group straddles w's treated and control groups in fixed proportions.
Squared contrasts of the observed outcomes along the substitutes of the
realized assignment, reweighted by support probabilities, estimate the
design variance of the difference-in-means estimator without touching
pairwise assignment probabilities. An analogous construction with
group-size weights estimates the MSE of the ratio (Hajek) estimator on
equal-propensity designs with unequal group sizes.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .core import (
    PROB_TOL,
    SUBSTITUTE_CAP,
    AssignmentVector,
    AssumptionError,
    ObservedData,
    ValidationError,
    VarianceEstimate,
)
from .designs import Design, ExplicitDesign

EQUAL_SIZE = "equal-size"
EPSEM = "epsem"

# Elements of the (rows, support) overlap block a substitute scan holds at once.
_SCAN_BLOCK = 1 << 18

_COUNTS_CACHE: "weakref.WeakKeyDictionary[ExplicitDesign, dict]" = (
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
    Anything else cannot define substitutes and raises.
    """
    _constant_propensity(d)
    n = d.n
    sizes = sorted(_group_sizes(d))
    if sizes == [n // 2] and n % 4 == 0:
        return EQUAL_SIZE
    for nt in sizes:
        if (nt * nt) % n:
            raise AssumptionError(
                f"substitution undefined: overlap count N_t(w)^2/N = {nt * nt / n} "
                f"is not an integer (N_t = {nt}, N = {n})"
            )
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


def _substitute_rows(d: ExplicitDesign, rows, mode: str) -> np.ndarray:
    """(len(rows), S) boolean block: entry (i, s) says support[s] substitutes
    for support[rows[i]].

    A substitute has the anchor's group size and treats exactly k of the
    anchor's treated units. The relation is symmetric, so row r also lists
    the anchors whose substitute set contains support[r].
    """
    u = d.matrix
    sizes = d.group_sizes
    anchor_sizes = sizes[rows]
    nts = anchor_sizes.tolist()
    k_of = {nt: _overlap_count(d.n, nt, mode) for nt in set(nts)}
    k = np.array([k_of[nt] for nt in nts], dtype=float)
    # overlaps of 0/1 rows are small integers, exact in floating point
    return (u[rows] @ u.T == k[:, None]) & (anchor_sizes[:, None] == sizes)


def _row_blocks(d: ExplicitDesign) -> Iterator[np.ndarray]:
    s = d.support_size
    step = max(1, _SCAN_BLOCK // s)
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
    members = tuple(d.support[s] for s in np.flatnonzero(hits))
    return SubstituteSet(anchor=w, members=members, mode=mode)


def substitute_counts(d: Design, mode: str | None = None) -> np.ndarray:
    """|G*(w)| for every support vector, in support order."""
    d = _require_explicit(d, "count")
    if mode is None:
        mode = substitution_mode(d)
    per_design = _COUNTS_CACHE.setdefault(d, {})
    if mode not in per_design:
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


def _normalize_g(
    d: ExplicitDesign,
    g: Mapping,
    mode: str,
    r_obs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a user map; return the anchors whose set holds support[r_obs],
    ascending, with their set sizes.

    Every support vector must appear with a nonempty set of genuine in-support
    substitutes; the estimators refuse partial coverage because their
    unbiasedness argument sums over all anchors.
    """
    member_rows: dict[int, set[int]] = {}
    for key, val in g.items():
        w = _as_assignment(key, d.n)
        if w not in d:
            raise ValidationError(f"anchor {w} is not in the design support")
        rows = member_rows.setdefault(d.index_of(w), set())
        members: Iterable = val.members if isinstance(val, SubstituteSet) else val
        members = tuple(_as_assignment(m, d.n) for m in members)
        if not members:
            raise AssumptionError(
                f"empty substitute set supplied for anchor {w}"
            )
        for m in members:
            if m not in d:
                raise ValidationError(
                    f"substitute {m} of anchor {w} is not in the design support"
                )
            if not is_substitute(w, m, mode):
                raise ValidationError(f"{m} is not a substitute of {w}")
            rows.add(d.index_of(m))
    if len(member_rows) < d.support_size:
        w = next(v for r, v in enumerate(d.support) if r not in member_rows)
        raise ValidationError(
            f"substitute map does not cover the support: no entry for {w}"
        )
    anchors = sorted(r for r, held in member_rows.items() if r_obs in held)
    sizes = [len(member_rows[r]) for r in anchors]
    return np.array(anchors, dtype=np.intp), np.array(sizes, dtype=np.int64)


def _anchor_arrays(
    d: ExplicitDesign, obs: ObservedData, g: Mapping | None, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of anchors whose substitute set contains the realized W, with
    those anchors' set sizes."""
    r_obs = d.index_of(obs.w)
    if g is not None:
        return _normalize_g(d, g, mode, r_obs)
    counts = substitute_counts(d, mode)
    r = int(np.argmin(counts))
    _check_count(d.support[r], int(counts[r]))
    anchors = np.flatnonzero(_substitute_rows(d, [r_obs], mode)[0])
    return anchors, counts[anchors]


def _require_realized(d: Design, obs: ObservedData) -> ExplicitDesign:
    if not isinstance(d, ExplicitDesign):
        raise AssumptionError(
            f"substitute estimators need an enumerable design, got {d.kind} sampler"
        )
    if obs.w.n != d.n:
        raise ValidationError(f"observed data has {obs.w.n} units, design has {d.n}")
    if obs.w not in d:
        raise ValidationError(
            f"realized assignment {obs.w} is not in the design support"
        )
    return d


def v_sub(d: Design, obs: ObservedData, g: Mapping | None = None) -> VarianceEstimate:
    """Substitute-contrast estimate of Var(tau_hat) for half/half designs.

    Sums (4/N^2) (p_w / p_W) |G(w)|^{-1} {l(w)' Y_obs}^2 over the anchors w
    whose substitute set contains the realized assignment, where l(w) is +-1
    by w's arm labels. Nonnegative by construction.
    """
    d = _require_realized(d, obs)
    mode = substitution_mode(d)
    if mode != EQUAL_SIZE:
        raise AssumptionError(
            "the contrast variance estimator needs equal group sizes with N "
            f"divisible by 4; this design supports only {mode} substitution "
            "(see mse_sub_epsem)"
        )
    anchors, counts = _anchor_arrays(d, obs, g, mode)
    n = d.n
    contrasts = d.sign_matrix @ obs.y_obs
    p_obs = d.prob_of(obs.w)
    terms = (
        d.probs[anchors] / p_obs * contrasts[anchors] ** 2 / counts
    )
    value = 4.0 / n**2 * math.fsum(terms.tolist())
    return VarianceEstimate(
        value=value,
        estimator="substitute_contrast",
        params={"mode": mode, "contributing_anchors": int(anchors.size)},
    )


def v_pair(obs: ObservedData) -> VarianceEstimate:
    """Classic matched-pair variance estimate from within-pair differences."""
    if obs.pair_labels is None:
        raise ValidationError("matched-pair variance needs pair labels")
    n = obs.n
    if n < 4:
        raise AssumptionError(f"matched-pair variance needs at least 4 units, got {n}")
    bits = obs.w.bits
    diffs = []
    for a, b in obs.pair_labels:
        if bits[a] + bits[b] != 1:
            raise ValidationError(
                f"pair ({a}, {b}) does not have exactly one treated unit"
            )
        t, c = (a, b) if bits[a] == 1 else (b, a)
        diffs.append(float(obs.y_obs[t] - obs.y_obs[c]))
    dbar = math.fsum(diffs) / len(diffs)
    value = 4.0 / (n * (n - 2)) * math.fsum((dj - dbar) ** 2 for dj in diffs)
    return VarianceEstimate(
        value=value, estimator="matched_pair", params={"n_pairs": len(diffs)}
    )


def mse_sub_epsem(
    d: Design, obs: ObservedData, g: Mapping | None = None
) -> VarianceEstimate:
    """Substitute-contrast estimate of the ratio estimator's MSE.

    Same anchor sum as v_sub but with group-size contrast weights
    (+1/N_t(w) treated, -1/N_c(w) control) and no 4/N^2 prefactor, which
    accommodates equal-propensity designs with unequal group sizes.
    """
    d = _require_realized(d, obs)
    mode = substitution_mode(d)
    anchors, counts = _anchor_arrays(d, obs, g, mode)
    u = d.matrix
    sizes = d.group_sizes
    treated_sum = u @ obs.y_obs
    total = float(obs.y_obs.sum())
    contrasts = treated_sum / sizes - (total - treated_sum) / (d.n - sizes)
    p_obs = d.prob_of(obs.w)
    terms = (
        d.probs[anchors] / p_obs * contrasts[anchors] ** 2 / counts
    )
    value = math.fsum(terms.tolist())
    return VarianceEstimate(
        value=value,
        estimator="substitute_mse",
        params={"mode": mode, "contributing_anchors": int(anchors.size)},
    )
