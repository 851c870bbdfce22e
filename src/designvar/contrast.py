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

import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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

_MEMBERSHIP_CACHE: "weakref.WeakKeyDictionary[ExplicitDesign, dict]" = (
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
        return {int(w.n_treated) for w in d.support}
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


def _crd_substitutes(w: AssignmentVector, k: int, cap: int) -> list[AssignmentVector]:
    nt = w.n_treated
    count = math.comb(nt, k) * math.comb(w.n - nt, nt - k)
    if count > cap:
        raise AssumptionError(
            f"substitute set too large: {count} members exceeds cap {cap}"
        )
    top = w.n - 1
    members = []
    for keep in itertools.combinations(w.treated, k):
        base = 0
        for i in keep:
            base |= 1 << (top - i)
        for take in itertools.combinations(w.controls, nt - k):
            mask = base
            for i in take:
                mask |= 1 << (top - i)
            members.append(AssignmentVector(w.n, mask))
    return members


def _pair_substitutes(
    pairs: Sequence[tuple[int, int]], w: AssignmentVector, cap: int
) -> list[AssignmentVector]:
    j = len(pairs)
    count = math.comb(j, j // 2)
    if count > cap:
        raise AssumptionError(
            f"substitute set too large: {count} members exceeds cap {cap}"
        )
    top = w.n - 1
    toggles = [(1 << (top - a)) | (1 << (top - b)) for a, b in pairs]
    members = []
    # a substitute agrees with w on exactly half the pairs and swaps the rest
    for keep in itertools.combinations(range(j), j // 2):
        mask = w.mask
        keep_set = frozenset(keep)
        for pj in range(j):
            if pj not in keep_set:
                mask ^= toggles[pj]
        members.append(AssignmentVector(w.n, mask))
    return members


def _scan_substitutes(
    d: ExplicitDesign, w: AssignmentVector, k: int, cap: int
) -> list[AssignmentVector]:
    nt = w.n_treated
    members = [
        cand
        for cand in d.support
        if cand.n_treated == nt and (cand.mask & w.mask).bit_count() == k
    ]
    if len(members) > cap:
        raise AssumptionError(
            f"substitute set too large: {len(members)} members exceeds cap {cap}"
        )
    return members


def full_substitute_set(
    d: Design,
    w,
    mode: str | None = None,
    *,
    cap: int = SUBSTITUTE_CAP,
) -> SubstituteSet:
    """All substitutes of ``w`` within the design.

    Completely randomized and matched-pair designs get direct combinatorial
    generation; other explicit designs are scanned with the predicate. Raises
    when the set is empty, which breaks the assumption the estimators rest on.
    """
    w = _as_assignment(w, d.n)
    if mode is None:
        mode = substitution_mode(d)
    if isinstance(d, ExplicitDesign) and w not in d:
        raise ValidationError(f"assignment {w} is not in the design support")
    k = _overlap_count(d.n, w.n_treated, mode)
    if d.kind == "crd":
        members = _crd_substitutes(w, k, cap)
    elif d.kind == "matched_pair" and getattr(d, "pairs", None):
        members = _pair_substitutes(d.pairs, w, cap)
    elif isinstance(d, ExplicitDesign):
        members = _scan_substitutes(d, w, k, cap)
    else:
        raise AssumptionError(
            f"cannot enumerate substitutes for a sampler-backed {d.kind} design"
        )
    if not members:
        raise AssumptionError(
            f"no substitutes exist for assignment {w}: the substitution "
            "assumption fails at this vector"
        )
    return SubstituteSet(anchor=w, members=tuple(members), mode=mode)


def _membership(d: ExplicitDesign, mode: str) -> np.ndarray:
    """S x S boolean matrix: entry (r, s) says support[s] substitutes for support[r]."""
    per_design = _MEMBERSHIP_CACHE.setdefault(d, {})
    if mode not in per_design:
        u = d.matrix.astype(np.int64)
        sizes = u.sum(axis=1)
        if mode == EQUAL_SIZE:
            k = np.full(sizes.shape, d.n // 4, dtype=np.int64)
        else:
            k_float = sizes.astype(np.int64) ** 2 / d.n
            k = np.rint(k_float).astype(np.int64)
            if np.any(k != k_float):
                bad = int(sizes[int(np.argmax(k != k_float))])
                raise AssumptionError(
                    f"substitution undefined: overlap count N_t(w)^2/N = "
                    f"{bad * bad / d.n} is not an integer (N_t = {bad}, N = {d.n})"
                )
        overlap = u @ u.T
        a = (overlap == k[:, None]) & (sizes[None, :] == sizes[:, None])
        a.setflags(write=False)
        per_design[mode] = a
    return per_design[mode]


def substitute_counts(d: Design, mode: str | None = None) -> np.ndarray:
    """|G*(w)| for every support vector, in support order."""
    if not isinstance(d, ExplicitDesign):
        raise AssumptionError(
            f"cannot count substitutes for a sampler-backed {d.kind} design"
        )
    if mode is None:
        mode = substitution_mode(d)
    return _membership(d, mode).sum(axis=1)


def full_substitute_map(
    d: ExplicitDesign,
    mode: str | None = None,
    *,
    cap: int = SUBSTITUTE_CAP,
) -> dict[AssignmentVector, SubstituteSet]:
    """G*(w) for every support vector, keyed by anchor."""
    if not isinstance(d, ExplicitDesign):
        raise AssumptionError(
            f"cannot enumerate substitutes for a sampler-backed {d.kind} design"
        )
    if mode is None:
        mode = substitution_mode(d)
    a = _membership(d, mode)
    counts = a.sum(axis=1)
    if counts.max(initial=0) > cap:
        raise AssumptionError(
            f"substitute set too large: {int(counts.max())} members exceeds cap {cap}"
        )
    support = d.support
    out = {}
    for r, w in enumerate(support):
        members = tuple(support[s] for s in np.flatnonzero(a[r]))
        if not members:
            raise AssumptionError(
                f"no substitutes exist for assignment {w}: the substitution "
                "assumption fails at this vector"
            )
        out[w] = SubstituteSet(anchor=w, members=members, mode=mode)
    return out


def _normalize_g(
    d: ExplicitDesign,
    g: Mapping,
    mode: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a user map and return per-anchor (membership, sizes) arrays.

    Every support vector must appear with a nonempty set of genuine in-support
    substitutes; the estimators refuse partial coverage because their
    unbiasedness argument sums over all anchors.
    """
    s = d.support_size
    covered = np.zeros(s, dtype=bool)
    member_of = np.zeros((s, s), dtype=bool)
    for key, val in g.items():
        w = _as_assignment(key, d.n)
        if w not in d:
            raise ValidationError(f"anchor {w} is not in the design support")
        r = d.index_of(w)
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
            member_of[r, d.index_of(m)] = True
        covered[r] = True
    if not covered.all():
        w = d.support[int(np.argmin(covered))]
        raise ValidationError(
            f"substitute map does not cover the support: no entry for {w}"
        )
    return member_of, member_of.sum(axis=1)


def _anchor_arrays(
    d: ExplicitDesign, obs: ObservedData, g: Mapping | None, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of anchors whose substitute set contains the realized W, with sizes."""
    if g is None:
        a = _membership(d, mode)
        counts = a.sum(axis=1)
        if not counts.all():
            w = d.support[int(np.argmin(counts > 0))]
            raise AssumptionError(
                f"no substitutes exist for assignment {w}: the substitution "
                "assumption fails at this vector"
            )
    else:
        a, counts = _normalize_g(d, g, mode)
    r_obs = d.index_of(obs.w)
    anchors = np.flatnonzero(a[:, r_obs])
    return anchors, counts


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
        d.probs[anchors] / p_obs * contrasts[anchors] ** 2 / counts[anchors]
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
    sizes = u.sum(axis=1)
    treated_sum = u @ obs.y_obs
    total = float(obs.y_obs.sum())
    contrasts = treated_sum / sizes - (total - treated_sum) / (d.n - sizes)
    p_obs = d.prob_of(obs.w)
    terms = (
        d.probs[anchors] / p_obs * contrasts[anchors] ** 2 / counts[anchors]
    )
    value = math.fsum(terms.tolist())
    return VarianceEstimate(
        value=value,
        estimator="substitute_mse",
        params={"mode": mode, "contributing_anchors": int(anchors.size)},
    )
