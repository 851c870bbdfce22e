"""Randomized designs: probability queries, enumeration, sampling, checks.

A design is either explicit (materialized support + weights, every
query exact) or sampler-backed (draws available; probability queries are
answered in closed form or refused). Monte Carlo answers come from draws
made into an explicit design, as ``simulate._empirical_design`` does.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    PROB_TOL,
    ROW_BLOCK,
    SUPPORT_CAP,
    AssignmentVector,
    AssumptionError,
    ValidationError,
    _check_pairs,
    _mask_key,
    _row_failure,
)
from .estimators import check_propensities

BalanceCriterion = Callable[[np.ndarray, AssignmentVector], float]


def _bits(u: np.ndarray) -> np.ndarray:
    """(k, n) 0/1 rows, refused if an entry is not 0 or 1: ``u`` itself when
    its dtype is bool or integer, else as bool."""
    if u.dtype.kind not in "biu" or (u.size and not 0 <= u.min() <= u.max() <= 1):
        bad = ~np.isin(u, (0, 1))
        if bad.any():
            raise ValidationError(f"assignment entries must be 0 or 1, got {u[bad][0].item()!r}")
        u = u != 0
    return u


def _pack(u: np.ndarray) -> np.ndarray:
    """(k, n) 0/1 rows as (k, ceil(n/8)) uint8 rows in ``np.packbits`` layout."""
    return np.packbits(_bits(u), axis=1)


_BYTE_VALUES = np.arange(256, dtype=np.uint8)
#: (8, 256): entry [j, v] is bit j of byte v in ``np.packbits`` order (high bit first)
_BYTE_BITS = np.unpackbits(_BYTE_VALUES[:, None], axis=1).T.astype(float)
_POPCOUNT = _BYTE_BITS.sum(axis=0).astype(np.uint8)


def _lookup(tables: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Sum over bytes b of ``tables[..., b, :]`` read at ``columns[b]``, added in byte
    order: for (width, k) packed rows by column and a 256-entry table per byte of a
    per-unit quantity, each row's total over its set bits."""
    out = tables[..., 0, :].take(columns[0], axis=-1)
    for b in range(1, len(columns)):
        out += tables[..., b, :].take(columns[b], axis=-1)
    return out


def _contrast_rows(w: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """(k, n) contrast rows D_wi = w_i/pi_i - (1-w_i)/(1-pi_i) of k 0/1 rows w: the
    Horvitz-Thompson estimate at w is tau + D_w . c / N, c = (1-pi) Y(1) + pi Y(0)."""
    return np.where(w == 1, 1.0 / pi, -1.0 / (1.0 - pi))


def _cell_tables(n11: np.ndarray, total: float) -> tuple[np.ndarray, ...]:
    """(P11, P10, P01, P00) of a support from the (n, n) weight n11[i, j] of its rows
    that treat both i and j (on the diagonal, that treat i) and the weights' total,
    each read-only. Whole-number weights make every entry one correctly rounded
    division of an exact count."""
    s1, t = np.diag(n11), total
    cells = (n11 / t, (s1[:, None] - n11) / t, (s1[None, :] - n11) / t,
             (t - s1[:, None] - s1[None, :] + n11) / t)
    for cell in cells:
        np.maximum(cell, 0.0, out=cell)  # float weights can leave a tiny negative
        cell.setflags(write=False)
    return cells


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

    def _checked_propensities(self) -> np.ndarray:
        """:attr:`propensities` passed through :func:`check_propensities` once per
        design. A design that fails the check keeps nothing, so it raises the
        same error on every call."""
        return self._memo("_valid_propensities",
                          lambda: check_propensities(self.propensities, self.n))

    def _slot(self, name: str, key: Any, build: Callable[[], Any]) -> Any:
        """``build()``, kept on the design in one slot ``name`` with its ``key``:
        what the design and one argument determine, such as the operator of a
        Q matrix. A call with an equal key reads the slot; another key builds
        and replaces it, so one value is kept at a time. A build that raises
        leaves the slot as it was."""
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


class Structure(NamedTuple):
    """What a support's rows and weights say about its layout, read once per design
    or handed to it by its builder."""

    #: (n + 1,) read-only: entry m is the number of support rows that treat m units
    sizes: np.ndarray
    #: "layers" when every size m present has all C(n, m) rows (complete
    #: randomization, or a union of such layers); "pairs" when the support holds
    #: all 2^J rows that treat one unit of each of its J pairs; else None
    complete: str | None
    #: True when the rows of each treated-group size all carry one weight
    even_weights: bool


class ExplicitDesign(Design):
    """A design with a materialized support; all queries are exact.

    The support is kept once, as (support_size, ceil(n/8)) uint8 rows in
    ``np.packbits`` layout sorted by their bytes (lexicographic bit-string
    order). Only this module packs, unpacks or reads them. The constructor
    sorts 0/1 rows given in any order; builders know their row order and hand
    packed rows that already ascend (``_from_packed``), which are not sorted
    again. Other modules read the support through private helpers and
    :attr:`structure`. Every pass reads the packed rows in bounded row blocks
    (``_blocks``) or byte by byte, so no (support_size, n) array is formed.
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
        if u.ndim != 2:
            raise ValidationError(f"support rows must be 2-D, got shape {u.shape}")
        if u.shape[1] == 0:
            raise ValidationError("assignment length must be positive, got 0")
        packed = _pack(u)
        order = np.lexsort(packed.T[::-1])  # the one sort of support rows
        w = np.asarray(weights, dtype=float)
        if w.shape == order.shape:  # else _init_packed refuses the count
            w = w[order]
        self._init_packed(packed[order], u.shape[1], w, kind, pairs, meta)

    @classmethod
    def _from_packed(cls, packed: np.ndarray, n: int, weights: Sequence[float] | np.ndarray,
                     *, facts: dict[str, Any] | None = None, **kwargs: Any) -> ExplicitDesign:
        """The design over (k, ceil(n/8)) uint8 rows in ``np.packbits`` layout, padding
        bits 0, that strictly ascend by their bytes: the constructor without its
        0/1 rows and its sort. The design keeps ``packed`` and ``weights`` as given
        (made read-only), so a builder hands arrays of its own. ``facts`` maps
        cached properties to the values a builder knows without a support pass
        (:func:`_uniform_facts`), which the design keeps in place of computing them."""
        d = cls.__new__(cls)
        d._init_packed(packed, n, weights, **kwargs)
        d.__dict__.update(facts or {})
        return d

    @classmethod
    def _from_draws(cls, rows: np.ndarray, **kwargs: Any) -> ExplicitDesign:
        """The design over the distinct rows of (m, n) 0/1 draws, weighted by their counts."""
        packed = _pack(rows)  # sorting one void key per row sorts the rows
        keys, counts = np.unique(packed.view((np.void, packed.shape[1])), return_counts=True)
        return cls._from_packed(keys.view(np.uint8).reshape(-1, packed.shape[1]), rows.shape[1],
                                counts, **kwargs)

    def _init_packed(self, packed: np.ndarray, n: int, weights: Sequence[float] | np.ndarray,
                     kind: str = "explicit", pairs: tuple[tuple[int, int], ...] | None = None,
                     meta: dict[str, Any] | None = None) -> None:
        """Check that the rows strictly ascend by their bytes (a duplicate is refused
        as one), check weights and pair labels, set every field."""
        if len(packed) == 0:
            raise ValidationError("design support is empty")
        self._packed = packed
        packed.setflags(write=False)
        # one void key per row; keys compare as the rows' bytes
        self._keys = keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        # fixed-width bytes keys order as the rows' bytes: one pass checks the order
        ordered = packed.view(f"S{packed.shape[1]}").ravel()
        if not np.all(ordered[1:] > ordered[:-1]):
            if np.any(keys[1:] == keys[:-1]):
                raise ValidationError("support vectors must be distinct")
            raise ValidationError("support rows must ascend by their bytes")
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(packed),):
            raise ValidationError(f"{len(packed)} support vectors but {w.size} probabilities")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValidationError("probabilities must be finite and strictly positive")
        if pairs is not None:
            pairs = _check_pairs(pairs, n)

        self.n = n
        self.kind = kind
        self._weights = w
        w.setflags(write=False)
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
        return self._find(np.packbits(self._assignments(w), axis=1))

    def in_support(self, w: np.ndarray) -> np.ndarray:
        """(k,) bool: whether each (k, n) 0/1 assignment is a support row. A
        complete support (:attr:`structure`) answers from the rows alone, with
        no lookup: on layers a row is in it iff its treated count is a layer
        size, on pairs iff it treats one unit of each pair."""
        u = self._assignments(w)
        sizes, complete, _ = self.structure
        if complete == "layers":
            return sizes[u.sum(axis=1)] != 0
        if complete == "pairs":
            first, second = self.pair_units
            return (u[:, first] != u[:, second]).all(axis=1)
        return self._find(np.packbits(u, axis=1)) >= 0

    def _assignments(self, w: np.ndarray) -> np.ndarray:
        """``w`` as (k, n) 0/1 rows (:func:`_bits`), refused in another shape."""
        w = np.asarray(w)
        if w.ndim != 2 or w.shape[1] != self.n:
            raise ValidationError(f"need (k, {self.n}) assignments, got shape {w.shape}")
        return _bits(w)

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
    def _packed_columns(self) -> np.ndarray:
        """The packed support by column, (ceil(n/8), support_size) uint8 and
        read-only: one contiguous row per byte position, built on first use."""
        columns = np.ascontiguousarray(self._packed.T)
        columns.setflags(write=False)
        return columns

    @cached_property
    def group_sizes(self) -> np.ndarray:
        """(support_size,) treated-group size N_t(w) of each support vector."""
        sizes = _POPCOUNT[self._packed].sum(axis=1, dtype=np.int64)
        sizes.setflags(write=False)
        return sizes

    @cached_property
    def structure(self) -> Structure:
        """The support's :class:`Structure`, read from its rows and weights on first use.

        Rows are distinct, so a size m with C(n, m) rows holds that whole layer,
        and 2^J rows that each treat one unit of each of the J ``pairs`` are all
        of them."""
        per_size = np.zeros(self.n + 1)
        per_size[self.group_sizes] = self._weights  # any one weight of each size
        even_weights = bool(np.all(self._weights == per_size[self.group_sizes]))
        sizes = np.bincount(self.group_sizes, minlength=self.n + 1)
        sizes.setflags(write=False)
        complete = None
        if all(c == math.comb(self.n, m) for m, c in enumerate(sizes.tolist()) if c):
            complete = "layers"
        elif self.pairs and self.support_size == 1 << len(self.pairs) and all(
                np.all(self._treats(a) != self._treats(b)) for a, b in self.pairs):
            complete = "pairs"
        return Structure(sizes, complete, even_weights)

    @cached_property
    def pair_units(self) -> tuple[np.ndarray, np.ndarray]:
        """The first and the second unit of each of the design's ``pairs``, as
        two read-only (J,) index arrays."""
        first, second = np.array(self.pairs).T
        first.setflags(write=False)
        second.setflags(write=False)
        return first, second

    def _treats(self, i: int) -> np.ndarray:
        """(support_size,) bool: whether each support row treats unit ``i``."""
        return (self._packed[:, i // 8] & (0x80 >> i % 8)) != 0

    def _overlaps(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), support_size) exact counts, in the smallest unsigned dtype that
        holds n, of the treated units support row ``rows[i]`` shares with each support
        row: per row and byte, a table of the bits each byte value shares with it."""
        tables = _POPCOUNT[_BYTE_VALUES & self._packed[rows][:, :, None]]
        return _lookup(tables.astype(np.min_scalar_type(self.n), copy=False),
                       self._packed_columns)

    def _pair_overlaps(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact count of the treated units support rows ``a[i]`` and ``b[i]`` share."""
        return _POPCOUNT[self._packed[a] & self._packed[b]].sum(axis=1, dtype=np.int64)

    def _row_sums(self, values: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Each support row's sum of ``values`` (one per unit) over its treated
        units, added in byte order; at support rows ``rows`` only when given."""
        columns = self._packed_columns if rows is None else self._packed_columns.take(rows, axis=1)
        v = np.zeros(8 * len(columns))
        v[:len(values)] = values  # units past the end count 0
        return _lookup(v.reshape(len(columns), 8) @ _BYTE_BITS, columns)

    def _unclosed_row(self) -> int:
        """The first support row whose complement (arms swapped) is not in the
        support; -1 when the support is closed under label switching. A complete
        support (:attr:`structure`) answers with no lookup: the complement of a
        one-per-pair row is one, and a size-m row's complement has size n - m,
        so layers are closed iff their sizes are."""
        sizes, complete, _ = self.structure
        if complete == "pairs":
            return -1
        if complete == "layers":
            if all(sizes[self.n - m] for m in np.flatnonzero(sizes).tolist()):
                return -1
            return int(np.argmax(sizes[self.n - self.group_sizes] == 0))
        complements = ~self._packed
        complements[:, -1] &= 0xFF << (-self.n % 8) & 0xFF  # keep the padding bits 0
        unmatched = np.flatnonzero(self._find(complements) < 0)
        return int(unmatched[0]) if unmatched.size else -1

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
        return _cell_tables(sum((u * w[:, None]).T @ u for u, w in self._blocks()), self._total)

    # -- sampling ------------------------------------------------------------
    def sample_matrix(self, m: int, seed: int | np.random.Generator | None) -> np.ndarray:
        rng = np.random.default_rng(seed)
        rows = rng.choice(self.support_size, size=m, p=self.probs)
        return np.unpackbits(self._packed[rows], axis=1, count=self.n).astype(np.int8)

    @cached_property
    def _psi_factor(self) -> np.ndarray:
        """R with R'R = D' diag(p) D, D the support's :func:`_contrast_rows`.

        The Horvitz-Thompson error is (1/N) D_w . c, so psi(v) =
        (1/N^2) sum_w p_w (D_w . v)^2 = ||R v||^2 / N^2. A complete support
        with one weight per group size (:attr:`structure`) has R in closed
        form, Neyman's variance: on one layer of size m, with pi = m/N,
        R = sqrt(N / ((N - 1) pi (1 - pi))) (I - J/N); on J complete pairs,
        R = sqrt(2) (I - P), P the swap of each unit with its partner. Any
        other support is factored by :meth:`_qr_factor`.
        """
        pi = self._checked_propensities()
        n, (sizes, complete, even) = self.n, self.structure
        layers = np.flatnonzero(sizes)
        if even and complete == "layers" and len(layers) == 1:
            m = int(layers[0])
            r = math.sqrt(n ** 3 / ((n - 1) * m * (n - m))) * (np.eye(n) - 1.0 / n)
        elif even and complete == "pairs":
            swap = np.zeros((n, n))
            first, second = self.pair_units
            swap[first, second] = swap[second, first] = 1.0
            r = math.sqrt(2.0) * (np.eye(n) - swap)
        else:
            r = self._qr_factor(pi)
        r.setflags(write=False)
        return r

    def _qr_factor(self, pi: np.ndarray) -> np.ndarray:
        """Upper-triangular R with R'R = D' diag(p) D at propensities ``pi``: each
        row block of sqrt(p) D is stacked under the R so far and factored again
        (TSQR), so no S x n float array is formed; R is (S, n) when S < n."""
        r = np.empty((0, self.n))
        for block, w in self._blocks():
            block = _contrast_rows(block, pi)  # drops the 0/1 block before the stack
            block *= np.sqrt(w / self._total)[:, None]
            r = np.linalg.qr(np.vstack([r, block]), mode="r")
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


def _uniform_facts(n11: np.ndarray, size: int, count: int, complete: str) -> dict[str, Any]:
    """What a builder knows of its ``count`` rows of weight 1, each treating ``size``
    units, that make a complete support (:class:`Structure`), from the exact count
    n11[i, j] of rows that treat both i and j (on the diagonal, that treat i): the
    facts a support pass would compute, to the bit, for :meth:`ExplicitDesign._from_packed`.
    Each is O(n^2) or read-only; ``group_sizes`` is a broadcast view."""
    n = len(n11)
    pi = np.diag(n11) / float(count)
    pi.setflags(write=False)
    sizes = np.zeros(n + 1, dtype=np.intp)
    sizes[size] = count
    sizes.setflags(write=False)
    return {"propensities": pi, "_cells": _cell_tables(n11, float(count)),
            "structure": Structure(sizes, complete, True),
            "group_sizes": np.broadcast_to(np.int64(size), (count,))}


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


def _crd_sample(n: int, k: int, rng: np.random.Generator, m: int) -> np.ndarray:
    """(m, n) int8 rows with k ones, the same rows and generator state as m calls of
    ``rng.choice(n, k, replace=False)``, each setting its picks of a zero row to 1.

    ``choice`` draws each pick with one bounded integer on [0, i], in a fixed order of
    ranges; ``rng.integers`` with an array of highs makes the same draws in the same
    order, so one call per row block takes them all. Floyd's algorithm then rebuilds
    the chosen sets of the block in k vectorized steps (the draws of the shuffle that
    follows it are consumed but do not change the set), and the tail shuffle is
    replayed as k vectorized swaps. Blocks keep the draws and the swapped (rows, n)
    index array to about ROW_BLOCK entries.
    """
    # choice's own switch: it tail-shuffles an arange(n), else runs Floyd's algorithm
    tail = n > 10_000 and k > n // 50
    if tail:  # swap slot i with a draw on [0, i], for i = n-1 ... n-k
        highs = np.arange(n, n - k, -1)
        slot = np.arange(n - 1, n - k - 1, -1)
    else:  # Floyd on [0, j] for j = n-k ... n-1, then shuffle on [0, i] for i = k-1 ... 1
        highs = np.concatenate([np.arange(n - k + 1, n + 1), np.arange(k, 1, -1)])
        slot = np.arange(n - k, n)
    out = np.zeros((m, n), dtype=np.int8)
    step = max(1, ROW_BLOCK // (2 * n))
    for s in range(0, m, step):
        rows = min(step, m - s)
        draws = rng.integers(0, highs, size=(rows, len(highs)), dtype=np.int64)
        base = np.arange(rows) * n  # flat offset of each row of the block
        # (k, rows) flat positions: step t's slot and draw in every row
        slots = slot[:, None] + base
        picks = np.ascontiguousarray((draws[:, :k] + base[:, None]).T)
        flat = out[s:s + rows].reshape(-1)
        if tail:
            idx = np.tile(np.arange(n), rows)
            for a, b in zip(slots, picks):
                idx[a], idx[b] = idx[b], idx[a]
            flat[idx.reshape(rows, n)[:, n - k:] + base[:, None]] = 1
        else:
            taken = flat.view(bool)
            for j, v in zip(slots, picks):  # a draw already taken picks slot j
                taken[np.where(taken[v], j, v)] = True
    return out


def build_crd(
    n: int,
    n_treated: int,
    *,
    cap: int = SUPPORT_CAP,
    allow_sampler: bool = True,
) -> Design:
    """Completely randomized design: uniform over all size-``n_treated`` groups.

    Up to ``cap`` rows the support is enumerated. A larger design is sampler-backed
    (unless ``allow_sampler`` is false): a batch of m rows is drawn as m calls of
    ``rng.choice(n, n_treated, replace=False)`` would draw it, to the bit and with
    the same generator state afterwards (:func:`_crd_sample`), so the rows do not
    depend on how the draws are split into batches.
    """
    if not 0 < n_treated < n:
        raise ValidationError(f"need 0 < n_treated < n, got n_treated={n_treated}, n={n}")
    count = math.comb(n, n_treated)
    meta = {"n_treated": n_treated}
    if count <= cap:  # _crd_rows ascend, so their packed rows do
        k = n_treated  # k(k-1)/(n(n-1)) of the rows treat two given units, k/n one
        n11 = np.full((n, n), float(count * k * (k - 1) // (n * (n - 1))))
        np.fill_diagonal(n11, count * k // n)
        return ExplicitDesign._from_packed(np.packbits(_crd_rows(n, k), axis=1), n,
                                           np.ones(count), kind="crd", meta=meta,
                                           facts=_uniform_facts(n11, k, count, "layers"))
    if not allow_sampler:
        raise AssumptionError(
            f"support too large: C({n},{n_treated}) = {count} exceeds cap {cap}"
        )

    k, denom = n_treated, n * (n - 1)
    return SampledDesign(
        n,
        partial(_crd_sample, n, k),
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
    pairs = tuple(pairs)
    n = 2 * len(pairs)
    pairs = _check_pairs(pairs, n)
    count = 1 << len(pairs)
    if count > cap:
        raise AssumptionError(
            f"support too large: 2^{len(pairs)} = {count} exceeds cap {cap}"
        )
    # Rows ascend: with pairs j taken by their lower unit, bit J-1-j of the row
    # number, when set, treats pair j's lower unit (row 0 treats every higher
    # unit). Two rows first differ at the lower unit of the first pair they split,
    # which the higher row number treats. From the last pair back, the rows so far
    # are copied once and each half sets its unit's bit.
    packed = np.zeros((count, (n + 7) // 8), dtype=np.uint8)
    size = 1
    for low, high in sorted(sorted(ab) for ab in pairs)[::-1]:
        packed[size:2 * size] = packed[:size]
        packed[:size, high // 8] |= 0x80 >> high % 8
        packed[size:2 * size, low // 8] |= 0x80 >> low % 8
        size *= 2
    # a row treats both units of two pairs in a quarter of the rows, both of one pair in none
    n11 = np.full((n, n), float(count // 4))
    for a, b in pairs:
        n11[a, b] = n11[b, a] = 0.0
    np.fill_diagonal(n11, count // 2)
    # one pair is also the complete layer of size 1, which the support pass names first
    complete = "layers" if math.comb(n, len(pairs)) == count else "pairs"
    return ExplicitDesign._from_packed(packed, n, np.ones(count), kind="matched_pair",
                                       pairs=pairs,
                                       facts=_uniform_facts(n11, len(pairs), count, complete))


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


_SCREEN_MARGIN = 1e-9  # band around the threshold that the exact kernel decides


class _MaxAsmdScreen:
    """max-ASMD scores of (k, n) 0/1 batches from centered sufficient statistics.

    Scores agree with :func:`_max_asmd_rows` to rounding, and every accept decision
    ``score < threshold`` is the exact kernel's: a row whose screened score lies
    within ``_SCREEN_MARGIN`` of the threshold (relative, absolute below 1) carries
    the exact kernel's score, which has the same bits in any batch. A batch with a
    degenerate row (a group under 2 units, or a pooled variance at rounding level)
    is scored whole by the exact kernel, so each refusal keeps its message and row.
    """

    def __init__(self, x: np.ndarray, threshold: float) -> None:
        self.x, self.threshold = x, float(threshold)
        self.band = _SCREEN_MARGIN * max(self.threshold, 1.0)

    @cached_property
    def _sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """[xc, xc²] as one (n, 2p) operand, its column totals, and each column's
        pooled-variance floor. Centering keeps Σx² − k·m² from cancelling; ASMD is
        shift-invariant."""
        x = self.x
        xc = x - x.mean(axis=0)
        xs = np.hstack([xc, xc * xc])
        total = xs.sum(axis=0)
        # Below the floor, the rounding of these sums (first term) or of the exact
        # kernel's uncentered means (second) could move a score by half the band.
        n, eps = len(x), np.finfo(float).eps
        floor = (2 * n * eps * total[x.shape[1]:]
                 + (n * eps * np.abs(x).max(axis=0)) ** 2 / _SCREEN_MARGIN) / _SCREEN_MARGIN
        return xs, total, floor

    def __call__(self, w: np.ndarray) -> np.ndarray:
        t = np.asarray(w, dtype=float)
        n, p = t.shape[1], self.x.shape[1]
        kt = t.sum(axis=1)[:, None]
        kc = n - kt
        if min(kt.min(), kc.min()) < 2:
            return _max_asmd_rows(self.x, w)
        xs, total, floor = self._sums
        st = t @ xs  # treated sums of xc and xc²; control sums are the totals minus these
        sc = total - st
        mt, mc = st[:, :p] / kt, sc[:, :p] / kc
        pooled = ((st[:, p:] - st[:, :p] * mt) / (kt - 1)
                  + (sc[:, p:] - sc[:, :p] * mc) / (kc - 1)) / 2.0
        if (pooled <= floor).any():
            return _max_asmd_rows(self.x, w)
        score = (np.abs(mt - mc) / np.sqrt(pooled)).max(axis=1)
        near = np.abs(score - self.threshold) <= self.band
        if near.any():
            score[near] = _max_asmd_rows(self.x, w[near])
        return score


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
    retry_budget: int = 5_000_000,
) -> Design:
    """Keep only assignments whose balance criterion is below ``threshold``.

    Enumerable bases are filtered exactly (kept weights, over their new total);
    sampler-backed bases become accept-reject samplers. A ``criterion`` callable gets the
    (n, p) covariates and one :class:`AssignmentVector` per candidate row, in row order.

    ``"max-asmd"`` scores each candidate batch with a screen: on the first batch the
    covariates are centered once, and each row's group means and sample variances come
    from ``t @ [xc, xc**2]``, the control sums being the column totals minus the treated
    sums. The screen agrees with :func:`max_asmd` to rounding, and :func:`max_asmd`'s
    exact kernel settles every near tie: it rescores each row whose screened score lies
    within 1e-9 of the threshold (relative; absolute below 1), and scores whole any batch
    with a group under 2 units or a pooled variance at rounding level. So every accept
    decision, and every refusal with its row, is the one :func:`max_asmd` gives.

    The accept-reject sampler draws base rows in batches: m rows first, then as many as
    the acceptance rate so far expects to need (twice the last batch while none was
    accepted), at most 1024 and never past ``retry_budget`` candidates in all. It
    returns the first m accepted rows in draw order. A CRD base's batch makes the draws
    of one ``Generator.choice`` per row, so on it the accepted draws do not depend on
    the batch sizes. Candidates after the m-th accepted row are drawn and discarded:
    the generator's state after the call is not part of the contract.
    """
    x = _covariates(covariates, base.n)
    if criterion == "max-asmd":
        score = _MaxAsmdScreen(x, threshold)
    elif callable(criterion):
        def score(rows: np.ndarray) -> np.ndarray:
            vectors = map(AssignmentVector.from_bits, rows.tolist())
            return np.array([float(criterion(x, w)) for w in vectors])  # type: ignore[operator]
    else:
        raise ValidationError(f"unknown balance criterion {criterion!r}")

    meta = {"threshold": float(threshold), "base_kind": base.kind}

    if isinstance(base, ExplicitDesign):
        b = max(1, ROW_BLOCK // (base.n * x.shape[1]))  # rows per call: bounded gathers
        parts = []
        for i in range(0, base.support_size, b):
            try:
                parts.append(score(np.unpackbits(base._packed[i:i + b], axis=1, count=base.n))
                             < threshold)
            except Exception as exc:
                if hasattr(exc, "row"):  # a refusal names its support row, not its chunk's
                    exc.row += i
                raise
        keep = np.concatenate(parts)
        if not keep.any():
            raise ValidationError(
                f"infeasible threshold {threshold}: no support vector is balanced enough"
            )
        return ExplicitDesign._from_packed(
            base._packed[keep], base.n, base._weights[keep], kind="rerandomized",
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
