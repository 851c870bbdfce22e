"""Randomized designs: probability queries, enumeration, sampling, checks.

A design is either explicit (materialized support + weights, every
query exact) or sampler-backed (draws available; probability queries are
answered in closed form or refused). Monte Carlo answers come from draws
made into an explicit design, as ``simulate._empirical_design`` does.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .core import (
    PROB_TOL,
    ROW_BLOCK,
    SUPPORT_CAP,
    AssignmentVector,
    AssumptionError,
    ValidationError,
    _mask_key,
    _row_failure,
)
from .estimators import check_propensities

BalanceCriterion = Callable[[np.ndarray, AssignmentVector], float]


def _pack(u: np.ndarray) -> np.ndarray:
    """(k, n) 0/1 rows as (k, ceil(n/8)) uint8 rows in ``np.packbits`` layout."""
    if u.dtype.kind not in "biu" or (u.size and not 0 <= u.min() <= u.max() <= 1):
        bad = ~np.isin(u, (0, 1))
        if bad.any():
            raise ValidationError(f"assignment entries must be 0 or 1, got {u[bad][0].item()!r}")
        u = u != 0
    return np.packbits(u, axis=1)


def _contrast_rows(w: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """(k, n) contrast rows D_wi = w_i/pi_i - (1-w_i)/(1-pi_i) of k 0/1 rows w: the
    Horvitz-Thompson estimate at w is tau + D_w . c / N, c = (1-pi) Y(1) + pi Y(0)."""
    return np.where(w == 1, 1.0 / pi, -1.0 / (1.0 - pi))


class Design:
    """Common interface of explicit and sampler-backed designs."""

    n: int
    kind: str
    is_enumerable: bool

    @property
    def propensities(self) -> np.ndarray:
        raise NotImplementedError

    def propensity(self, i: int) -> float:
        self._check_unit(i)
        return float(self.propensities[i])

    def sample_matrix(self, m: int, seed: int | np.random.Generator | None) -> np.ndarray:
        """Draw ``m`` assignments as an (m, n) 0/1 array."""
        raise NotImplementedError

    def sample_assignment(self, seed: int | np.random.Generator | None) -> AssignmentVector:
        row = self.sample_matrix(1, seed)[0]
        return AssignmentVector.from_bits(row.tolist())

    def pairwise_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(P11, P10, P01, P00) joint-assignment matrices, built once and read-only;
        off-diagonal entries are the cell probabilities, diagonals are degenerate."""
        return self._cells  # type: ignore[attr-defined]

    def pairwise_prob(self, i: int, j: int, wi: int, wj: int) -> float:
        self._check_pair(i, j)
        if wi not in (0, 1) or wj not in (0, 1):
            raise ValidationError(f"cell indicators must be 0/1, got ({wi},{wj})")
        return float(self.pairwise_cells()[3 - 2 * int(wi) - int(wj)][i, j])

    def conditional_propensities(self, i: int, wi: int) -> np.ndarray:
        """Pr(W_j = 1 | W_i = wi) for every j; entry i is NaN."""
        self._check_unit(i)
        if wi not in (0, 1):
            raise ValidationError(f"conditioning state must be 0/1, got {wi}")
        pi = self.propensities
        denom = pi[i] if wi == 1 else 1.0 - pi[i]
        if denom <= 0.0:
            raise AssumptionError(
                f"cannot condition on W_{i}={wi}: that event has probability 0"
            )
        out = self.conditional_tables[int(wi), i].copy()
        out[i] = np.nan
        return out

    @cached_property
    def conditional_tables(self) -> np.ndarray:
        """(2, n, n) array whose entry [wi, i, j] is Pr(W_j = 1 | W_i = wi).

        Built on first use from :meth:`pairwise_cells` (P11/pi_i and
        P01/(1-pi_i)) and clipped to [0, 1]. Diagonals are degenerate, and a
        row conditioning on a probability-0 event is meaningless: callers
        check the event first.
        """
        pi = self.propensities
        p11, _, p01, _ = self.pairwise_cells()
        with np.errstate(divide="ignore", invalid="ignore"):
            tables = np.stack([p01 / (1.0 - pi)[:, None], p11 / pi[:, None]])
        np.clip(tables, 0.0, 1.0, out=tables)
        tables.setflags(write=False)
        return tables

    @cached_property
    def _loo_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """(2, 2, n, n) arrays ``inv`` and ``dead``, indexed [a, b, i, j]: ``inv``
        holds 1/Pr(W_j = b | W_i = a) and ``dead`` flags the cells where that
        probability is within PROB_TOL of 0, which hold 0 in ``inv``. The
        diagonal is 0 and not dead.

        Built on first use from :attr:`conditional_tables`. Both are laid out
        in memory as [a, i, b, j], so ``x.transpose(0, 2, 1, 3).reshape(2n, 2n)``
        is a view: the block matrix with rows (a, i) and columns (b, j).
        """
        cond = self.conditional_tables[:, :, None, :]  # [a, i, ., j]
        others = ~np.eye(self.n, dtype=bool)[None, :, None, :]
        dead = np.concatenate([cond >= 1.0 - PROB_TOL, cond <= PROB_TOL], axis=2) & others
        arm = np.concatenate([1.0 - cond, cond], axis=2)  # [a, i, b, j]: Pr(W_j = b | W_i = a)
        inv = np.divide(1.0, arm, out=np.zeros_like(arm), where=~dead & others)
        inv, dead = inv.transpose(0, 2, 1, 3), dead.transpose(0, 2, 1, 3)
        inv.setflags(write=False)
        dead.setflags(write=False)
        return inv, dead

    def _memo(self, name: str, build: Callable[[], Any]) -> Any:
        """``build()``, made on the first call with ``name`` and kept on the
        design: an estimator's operator that depends on the design alone."""
        if name not in self.__dict__:
            self.__dict__[name] = build()
        return self.__dict__[name]

    def _slot(self, name: str, key: Any, build: Callable[[], Any]) -> Any:
        """``build()``, kept on the design in one slot ``name`` with its ``key``:
        an operator of the design and one argument. A call with an equal key
        reads the slot; another key builds and replaces it, so one operator is
        kept at a time. A build that raises leaves the slot as it was."""
        slot = self.__dict__.get(name)
        if slot is None or slot[0] != key:
            slot = self.__dict__[name] = (key, build())
        return slot[1]

    def _check_unit(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValidationError(f"unit index {i} out of range for n={self.n}")

    def _check_pair(self, i: int, j: int) -> None:
        self._check_unit(i)
        self._check_unit(j)
        if i == j:
            raise ValidationError("pairwise probabilities need two distinct units")


class ExplicitDesign(Design):
    """A design with a materialized support; all queries are exact.

    The support is kept once, as (support_size, ceil(n/8)) uint8 rows in
    ``np.packbits`` layout sorted by their bytes (lexicographic bit-string
    order); support vectors and the float matrix are decoded from them.
    Each row carries a positive weight, and its probability is the weight
    over the weights' total. Builders that know whole-number weights (ones,
    draw counts) pass them, which makes every probability query exact: one
    correctly rounded division of an exact sum.
    """

    is_enumerable = True

    def __init__(
        self,
        rows: np.ndarray | Sequence[Sequence[int]],
        weights: Sequence[float] | np.ndarray,
        *,
        kind: str = "explicit",
        pairs: tuple[tuple[int, int], ...] | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        if len(rows) == 0:
            raise ValidationError("design support is empty")
        if not isinstance(rows, np.ndarray):
            ns = {len(r) for r in rows}
            if len(ns) != 1:
                raise ValidationError(f"support vectors have mixed lengths: {sorted(ns)}")
        u = np.asarray(rows)
        if u.ndim != 2 or u.shape[1] == 0:
            raise ValidationError("assignment length must be positive, got 0")
        packed = _pack(u)
        order = np.lexsort(packed.T[::-1])
        self._packed = packed = packed[order]
        packed.setflags(write=False)
        # one void key per row; keys compare as the rows' bytes
        self._keys = keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        if np.any(keys[1:] == keys[:-1]):
            raise ValidationError("support vectors must be distinct")
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(u),):
            raise ValidationError(f"{len(u)} support vectors but {w.size} probabilities")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValidationError("probabilities must be finite and strictly positive")

        self.n = u.shape[1]
        self.kind = kind
        self._weights = w[order]
        self._weights.setflags(write=False)
        self._total = math.fsum(memoryview(self._weights))  # no list of S Python floats
        self.pairs = pairs
        self.meta = dict(meta or {})

    # -- support -----------------------------------------------------------
    @cached_property
    def support(self) -> tuple[AssignmentVector, ...]:
        """Every support vector in support order, decoded on first use."""
        return tuple(self.vector(k) for k in range(self.support_size))

    @property
    def support_size(self) -> int:
        return len(self._keys)

    @cached_property
    def probs(self) -> np.ndarray:
        p = self._weights / self._total
        p.setflags(write=False)
        return p

    def vector(self, k: int) -> AssignmentVector:
        """The support vector in row ``k``."""
        mask = int.from_bytes(self._packed[k].tobytes(), "big") >> (-self.n % 8)  # drop padding
        return AssignmentVector(self.n, mask)

    def enumerate_support(self) -> Iterator[tuple[AssignmentVector, float]]:
        """Support in lexicographic bit-string order with probabilities."""
        return ((self.vector(k), p) for k, p in enumerate(self.probs.tolist()))

    def rows_of(self, w: np.ndarray) -> np.ndarray:
        """Support row of each (k, n) 0/1 assignment; -1 if not in the support."""
        w = np.asarray(w)
        if w.ndim != 2 or w.shape[1] != self.n:
            raise ValidationError(f"need (k, {self.n}) assignments, got shape {w.shape}")
        return self._find(_pack(w))

    def _find(self, packed: np.ndarray | bytes) -> np.ndarray:
        """Support row of each packed row (or key bytes); -1 if not in the support."""
        keys = np.frombuffer(packed, self._keys.dtype)
        pos = np.searchsorted(self._keys, keys)
        return np.where(self._keys.take(pos, mode="clip") == keys, pos, -1)

    def index_of(self, w: AssignmentVector) -> int:
        if w.n != self.n:
            raise ValidationError(f"assignment has {w.n} units, design has {self.n}")
        k = int(self._find(_mask_key(w.n, w.mask))[0])
        if k < 0:
            raise ValidationError(f"assignment {w} is not in the design support")
        return k

    def __contains__(self, w: AssignmentVector) -> bool:
        return w.n == self.n and self._find(_mask_key(w.n, w.mask))[0] >= 0

    @cached_property
    def matrix(self) -> np.ndarray:
        """(support_size, n) float matrix of assignment indicators."""
        m = np.unpackbits(self._packed, axis=1, count=self.n).astype(float)
        m.setflags(write=False)
        return m

    @cached_property
    def _packed_columns(self) -> np.ndarray:
        """The packed support by column, (ceil(n/8), support_size) uint8 and
        read-only: one contiguous row per byte position, built on first use."""
        columns = np.ascontiguousarray(self._packed.T)
        columns.setflags(write=False)
        return columns

    @cached_property
    def group_sizes(self) -> np.ndarray:
        """(support_size,) treated-group size N_t(w) of each support vector."""
        sizes = np.unpackbits(self._packed, axis=1).sum(axis=1, dtype=np.int64)
        sizes.setflags(write=False)
        return sizes

    # -- probability queries -------------------------------------------------
    def _blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The support as (rows, n) 0/1 float blocks of about ROW_BLOCK entries,
        each with its rows' weights."""
        step = max(1, ROW_BLOCK // self.n)
        for start in range(0, self.support_size, step):
            rows = self._packed[start:start + step]
            yield (np.unpackbits(rows, axis=1, count=self.n).astype(float),
                   self._weights[start:start + step])

    @cached_property
    def propensities(self) -> np.ndarray:
        # Whole-number weights below 2^53 sum exactly in any order, so each
        # propensity is one correctly rounded division.
        pi = sum(w @ u for u, w in self._blocks()) / self._total
        pi.setflags(write=False)
        return pi

    @cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n11 = sum((u * w[:, None]).T @ u for u, w in self._blocks())
        s1, t = np.diag(n11), self._total
        cells = (n11 / t, (s1[:, None] - n11) / t, (s1[None, :] - n11) / t,
                 (t - s1[:, None] - s1[None, :] + n11) / t)
        for cell in cells:
            np.maximum(cell, 0.0, out=cell)  # float weights can leave a tiny negative
            cell.setflags(write=False)
        return cells

    # -- sampling ------------------------------------------------------------
    def sample_matrix(self, m: int, seed: int | np.random.Generator | None) -> np.ndarray:
        rng = np.random.default_rng(seed)
        rows = rng.choice(self.support_size, size=m, p=self.probs)
        return np.unpackbits(self._packed[rows], axis=1, count=self.n).astype(np.int8)

    @cached_property
    def _psi_factor(self) -> np.ndarray:
        """Upper-triangular R with R'R = D' diag(p) D, D the support's :func:`_contrast_rows`.

        The Horvitz-Thompson error is (1/N) D_w . c, so psi(v) =
        (1/N^2) sum_w p_w (D_w . v)^2 = ||R v||^2 / N^2. Each row block of
        sqrt(p) D is stacked under the R so far and factored again (TSQR), so
        no S x n float array is formed; R is (S, n) when S < n.
        """
        pi = check_propensities(self.propensities, self.n)
        r = np.empty((0, self.n))
        step = max(1, ROW_BLOCK // self.n)
        for start in range(0, self.support_size, step):
            bits = np.unpackbits(self._packed[start:start + step], axis=1, count=self.n)
            block = _contrast_rows(bits, pi)
            block *= np.sqrt(self._weights[start:start + step] / self._total)[:, None]
            r = np.linalg.qr(np.vstack([r, block]), mode="r")
        r.setflags(write=False)
        return r


class SampledDesign(Design):
    """A design known only through a sampler (support too large to list).

    Queries are answered in closed form or refused with AssumptionError:
    propensities and the four cell probabilities (P11, P10, P01, P00), one
    value each for every pair of units, come as data where a closed form
    exists. Monte Carlo answers come from draws, not from queries.
    """

    is_enumerable = False

    def __init__(
        self,
        n: int,
        sampler: Callable[[np.random.Generator, int], np.ndarray],
        *,
        kind: str = "sampled",
        propensities: np.ndarray | None = None,
        cells: tuple[float, float, float, float] | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        if n <= 0:
            raise ValidationError(f"n must be positive, got {n}")
        self.n = n
        self.kind = kind
        self._sampler = sampler
        self._pi = None if propensities is None else np.asarray(propensities, float)
        self._cell_values = cells
        self.meta = dict(meta or {})

    def enumerate_support(self) -> Iterator[tuple[AssignmentVector, float]]:
        raise AssumptionError(
            f"{self.kind} design with n={self.n} is sampler-backed; "
            "its support cannot be enumerated"
        )

    @property
    def propensities(self) -> np.ndarray:
        if self._pi is None:
            raise AssumptionError(
                f"no analytic propensities for a {self.kind} sampler-backed design"
            )
        return self._pi

    @cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._cell_values is None:
            raise AssumptionError(
                "this estimator needs exact pairwise assignment probabilities, "
                f"which a {self.kind} sampler-backed design does not provide"
            )
        # read-only O(1) views: every entry, the diagonal too, holds the cell value
        return tuple(np.broadcast_to(float(p), (self.n, self.n)) for p in self._cell_values)

    def sample_matrix(self, m: int, seed: int | np.random.Generator | None) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return self._sampler(rng, m)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _support_rows(support: Sequence[AssignmentVector | str | Sequence[int]]) -> list:
    """Support entries (bit strings, vectors or 0/1 lists) as 0/1 lists."""
    return [AssignmentVector.from_string(w).bits if isinstance(w, str)
            else w.bits if isinstance(w, AssignmentVector) else w for w in support]


def build_explicit(
    support: Sequence[AssignmentVector | str | Sequence[int]],
    probs: Sequence[float],
    *,
    kind: str = "explicit",
    pairs: tuple[tuple[int, int], ...] | None = None,
) -> ExplicitDesign:
    """Explicit design from user probabilities, which must sum to 1 within PROB_TOL;
    they are summed and divided in float, so no exactness is claimed for them."""
    d = ExplicitDesign(_support_rows(support), probs, kind=kind, pairs=pairs)
    if abs(d._total - 1.0) > PROB_TOL:
        raise ValidationError(f"probabilities sum to {d._total!r}, not 1")
    return d


def _crd_rows(n: int, k: int) -> np.ndarray:
    """The C(n, k) rows with k ones, in lexicographic order, as uint8. Grown
    a unit at a time from the last: ``blocks[t]`` holds, in order, the rows
    over the trailing units with t ones; leading 0s precede leading 1s."""
    blocks = {0: np.zeros((1, 0), dtype=np.uint8)}
    for j in range(1, n + 1):
        none = np.empty((0, j - 1), dtype=np.uint8)
        grown = {}
        for t in range(max(0, k - (n - j)), min(k, j) + 1):
            zero, one = blocks.get(t, none), blocks.get(t - 1, none)
            grown[t] = out = np.empty((len(zero) + len(one), j), dtype=np.uint8)
            out[:len(zero), 0], out[len(zero):, 0] = 0, 1
            out[:len(zero), 1:], out[len(zero):, 1:] = zero, one
        blocks = grown
    return blocks[k]


def build_crd(
    n: int,
    n_treated: int,
    *,
    cap: int = SUPPORT_CAP,
    allow_sampler: bool = True,
) -> Design:
    """Completely randomized design: uniform over all size-``n_treated`` groups."""
    if not 0 < n_treated < n:
        raise ValidationError(f"need 0 < n_treated < n, got n_treated={n_treated}, n={n}")
    count = math.comb(n, n_treated)
    meta = {"n_treated": n_treated}
    if count <= cap:
        rows = _crd_rows(n, n_treated)
        return ExplicitDesign(rows, np.ones(count), kind="crd", meta=meta)
    if not allow_sampler:
        raise AssumptionError(
            f"support too large: C({n},{n_treated}) = {count} exceeds cap {cap}"
        )

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        out = np.zeros((m, n), dtype=np.int8)
        for r in range(m):
            out[r, rng.choice(n, size=n_treated, replace=False)] = 1
        return out

    k, denom = n_treated, n * (n - 1)
    return SampledDesign(
        n,
        sampler,
        kind="crd",
        propensities=np.full(n, k / n),
        cells=(k * (k - 1) / denom, k * (n - k) / denom, k * (n - k) / denom,
               (n - k) * (n - k - 1) / denom),
        meta=meta,
    )


def build_matched_pair(
    pairs: Sequence[tuple[int, int]],
    *,
    cap: int = SUPPORT_CAP,
) -> ExplicitDesign:
    """Matched-pair design: exactly one treated unit per pair, all splits equal."""
    pairs = tuple((int(a), int(b)) for a, b in pairs)
    units = [u for ab in pairs for u in ab]
    n = 2 * len(pairs)
    if sorted(units) != list(range(n)):
        raise ValidationError("pairs must be disjoint and cover units 0..n-1")
    count = 1 << len(pairs)
    if count > cap:
        raise AssumptionError(
            f"support too large: 2^{len(pairs)} = {count} exceeds cap {cap}"
        )
    # bit J-1-j of the row number picks the treated unit of pair j
    rows = np.empty((count, n), dtype=np.uint8)
    for j, (a, b) in enumerate(pairs):
        bit = (np.arange(count) >> (len(pairs) - 1 - j)) & 1
        rows[:, a], rows[:, b] = 1 - bit, bit
    return ExplicitDesign(rows, np.ones(count), kind="matched_pair", pairs=pairs)


def _covariates(covariates: Sequence[float] | np.ndarray, n: int) -> np.ndarray:
    """Covariates as a finite (n, p) float array, p >= 1; a vector is one column."""
    x = np.asarray(covariates, dtype=float)
    x = x[:, None] if x.ndim == 1 else x
    if x.ndim != 2 or x.shape[0] != n or x.shape[1] == 0 or not np.isfinite(x).all():
        raise ValidationError(f"covariates must be finite, with {n} rows; got shape {x.shape}")
    return x


def _max_asmd_rows(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """max_asmd of every row of a (k, n) 0/1 batch ``w``, one numpy pass per group size:
    row r equals the one-row call to the bit; the first failing row sets ``exc.row``."""
    t = np.asarray(w, dtype=bool)
    n, kt = t.shape[1], t.sum(axis=1)
    diff, scale = np.zeros((2, len(t), x.shape[1]))
    for size in set(kt.tolist()) - {0, 1, n - 1, n}:  # a group under 2 units leaves scale 0
        rows = kt == size
        # (p, rows, size): each column's treated (control) values in unit order
        xt = x.T.take(np.nonzero(t[rows])[1].reshape(-1, size), axis=1)
        xc = x.T.take(np.nonzero(~t[rows])[1].reshape(-1, n - size), axis=1)
        diff[rows] = np.abs(xt.mean(axis=2) - xc.mean(axis=2)).T
        scale[rows] = np.sqrt((xt.var(axis=2, ddof=1) + xc.var(axis=2, ddof=1)) / 2.0).T
    if (scale == 0.0).any():
        r = int(np.argmax((scale == 0.0).any(axis=1)))
        raise _row_failure(ValidationError(
            "asmd needs at least two units per group" if min(kt[r], n - kt[r]) < 2
            else "asmd undefined: zero pooled variance"
        ), r)
    return (diff / scale).max(axis=1)


def asmd(x: Sequence[float] | np.ndarray, w: AssignmentVector) -> float:
    """Absolute standardized mean difference of ``x`` between the two groups.

    |mean_t - mean_c| / sqrt((s2_t + s2_c) / 2) with sample variances.
    """
    if np.shape(x) != (w.n,):
        raise ValidationError(f"covariate length {np.shape(x)} does not match n={w.n}")
    return max_asmd(x, w)


def max_asmd(covariates: np.ndarray, w: AssignmentVector) -> float:
    """The rerandomization criterion, the largest ASMD across covariate columns."""
    return float(_max_asmd_rows(_covariates(covariates, w.n), w.to_array()[None])[0])


def build_rerandomized(
    base: Design,
    covariates: np.ndarray,
    threshold: float,
    *,
    criterion: str | BalanceCriterion = "max-asmd",
    retry_budget: int = 200_000,
) -> Design:
    """Keep only assignments whose balance criterion is below ``threshold``.

    Enumerable bases are filtered exactly (kept weights, over their new total);
    sampler-backed bases become accept-reject samplers. A ``criterion`` callable gets the
    (n, p) covariates and one :class:`AssignmentVector` per candidate row, in row order.

    The accept-reject sampler draws base rows in batches: m rows first, then as many as
    the acceptance rate so far expects to need (twice the last batch while none was
    accepted), at most 1024 and never past ``retry_budget`` candidates in all. It
    returns the first m accepted rows in draw order, so on a base whose sampler draws
    row after row (CRD) the draws do not depend on the batch sizes. Candidates after the
    m-th accepted row are drawn and discarded: the generator's state after the call is
    not part of the contract.
    """
    x = _covariates(covariates, base.n)
    if criterion == "max-asmd":
        score = partial(_max_asmd_rows, x)
    elif callable(criterion):
        def score(rows: np.ndarray) -> np.ndarray:
            vectors = map(AssignmentVector.from_bits, rows.tolist())
            return np.array([float(criterion(x, w)) for w in vectors])  # type: ignore[operator]
    else:
        raise ValidationError(f"unknown balance criterion {criterion!r}")

    meta = {"threshold": float(threshold), "base_kind": base.kind}

    if isinstance(base, ExplicitDesign):
        rows = np.unpackbits(base._packed, axis=1, count=base.n)
        b = max(1, ROW_BLOCK // (base.n * x.shape[1]))  # rows per call: bounded gathers
        keep = np.concatenate([score(rows[i:i + b]) for i in range(0, len(rows), b)]) < threshold
        if not keep.any():
            raise ValidationError(
                f"infeasible threshold {threshold}: no support vector is balanced enough"
            )
        return ExplicitDesign(
            rows[keep], base._weights[keep], kind="rerandomized",
            meta={**meta, "base_support": base.support_size},
        )

    assert isinstance(base, SampledDesign)

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        out = np.zeros((m, base.n), dtype=np.int8)
        tries = got = 0
        size = m
        while got < m:
            if tries >= retry_budget:
                raise AssumptionError(
                    f"accept-reject budget {retry_budget} exhausted; "
                    f"acceptance rate so far about {got / max(tries, 1):.2e}"
                )
            if tries:  # the rows the acceptance rate so far expects, or twice as many
                size = -(-(m - got) * tries // got) if got else 2 * size
            size = min(size, 1024, retry_budget - tries)
            batch = base.sample_matrix(size, rng)
            tries += len(batch)
            keep = batch[score(batch) < threshold][:m - got]
            out[got:got + len(keep)] = keep
            got += len(keep)
        return out

    # On an equal-group CRD base max-ASMD is invariant under swapping the groups, so
    # the accepted set stays closed under label switching and every propensity is 1/2.
    halves = base.kind == "crd" and base.meta.get("n_treated") == base.n / 2
    return SampledDesign(
        base.n, sampler, kind="rerandomized", meta=meta,
        propensities=np.full(base.n, 0.5) if halves and criterion == "max-asmd" else None,
    )
