"""Core data types shared by every estimation module.

:class:`AssignmentVector` is the public type of one assignment: an int bit mask
whose top bit is unit 1, so mask order is lexicographic bit-string order.
Designs keep their supports as sorted packed rows, not as these objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

# Tolerance ladder: probability identities are tightest, weight identities
# looser, estimator equalities relative.
PROB_TOL = 1e-12
WEIGHT_TOL = 1e-9
EST_RTOL = 1e-10

SUPPORT_CAP = 5_000_000
SUBSTITUTE_CAP = 1_000_000
MC_DEFAULT_DRAWS = 100_000

# Elements of the row block a batch kernel holds at once.
ROW_BLOCK = 1 << 18


class ValidationError(ValueError):
    """Malformed input: bad probabilities, ragged arrays, unparsable files."""


class AssumptionError(RuntimeError):
    """A design assumption an estimator relies on does not hold; the
    estimator refuses to run rather than returning a silently wrong value."""


@dataclass(frozen=True, order=True)
class AssignmentVector:
    """A length-``n`` binary treatment assignment, packed into an int mask.

    Bit ``n - 1 - k`` of ``mask`` holds the indicator of unit ``k`` (0-based),
    so the string form reads left to right as units 1..n and ordering by
    ``mask`` is lexicographic ordering of the bit strings.
    """

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValidationError(f"assignment length must be positive, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ValidationError(f"mask {self.mask} out of range for n={self.n}")

    @classmethod
    def from_bits(cls, bits: Sequence[int] | np.ndarray) -> "AssignmentVector":
        bits = list(bits)
        mask = 0
        for b in bits:
            if b not in (0, 1):
                raise ValidationError(f"assignment entries must be 0 or 1, got {b!r}")
            mask = (mask << 1) | int(b)
        return cls(n=len(bits), mask=mask)

    @classmethod
    def from_string(cls, s: str) -> "AssignmentVector":
        s = s.strip()
        if not s or s.strip("01"):
            raise ValidationError(f"assignment string must be nonempty 0/1, got {s!r}")
        return cls(n=len(s), mask=int(s, 2))

    def to_string(self) -> str:
        return format(self.mask, f"0{self.n}b")

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.to_string()

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.mask >> (self.n - 1 - k)) & 1 for k in range(self.n))

    def to_array(self) -> np.ndarray:
        row = np.frombuffer(_mask_key(self.n, self.mask), np.uint8)
        return np.unpackbits(row, count=self.n).view(np.int8)

    @property
    def n_treated(self) -> int:
        return self.mask.bit_count()

    @property
    def n_control(self) -> int:
        return self.n - self.n_treated

    @property
    def treated(self) -> tuple[int, ...]:
        """0-based indices of treated units."""
        return tuple(k for k in range(self.n) if (self.mask >> (self.n - 1 - k)) & 1)

    def complement(self) -> "AssignmentVector":
        """The label-switched vector 1 - w."""
        return AssignmentVector(self.n, self.mask ^ ((1 << self.n) - 1))


def _mask_key(n: int, mask: int) -> bytes:
    """An n-unit mask as one ``np.packbits`` row: shifted over the padding, big-endian."""
    return (mask << (-n % 8)).to_bytes((n + 7) // 8, "big")


def _as_float_vector(x: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _row_failure(exc: Exception, row: int) -> Exception:
    """Record on a batch-kernel error which row it failed on (``exc.row``)."""
    exc.row = row
    return exc


def _check_pairs(pairs: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, int], ...]:
    """``pairs`` as (int, int) labels: each label must name two units, and the
    labels must partition units 0..n-1."""
    labels = []
    for ab in pairs:
        try:
            a, b = ab
            label = (int(a), int(b))
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"pair label {ab!r} does not name two units") from None
        if label != (a, b):  # 0.5 or "1" is not a unit; 1.0 and np.int64(1) are
            raise ValidationError(f"pair label {ab!r} does not name two units")
        labels.append(label)
    if sorted(u for ab in labels for u in ab) != list(range(n)):
        raise ValidationError("pair labels must partition units 0..n-1")
    return tuple(labels)


@dataclass(frozen=True)
class PotentialOutcomes:
    """The science table: control and treated potential outcomes."""

    y0: np.ndarray
    y1: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "y0", _as_float_vector(self.y0, "y0"))
        object.__setattr__(self, "y1", _as_float_vector(self.y1, "y1"))
        if self.y0.shape != self.y1.shape:
            raise ValidationError(
                f"y0 and y1 lengths differ: {len(self.y0)} vs {len(self.y1)}"
            )

    @property
    def n(self) -> int:
        return len(self.y0)

    @property
    def effects(self) -> np.ndarray:
        return self.y1 - self.y0

    @property
    def tau(self) -> float:
        return float(np.mean(self.effects))

    @property
    def s2_treated(self) -> float:
        """Finite-population variance of y1 (divisor n - 1)."""
        return float(np.var(self.y1, ddof=1))

    @property
    def s2_control(self) -> float:
        """Finite-population variance of y0 (divisor n - 1)."""
        return float(np.var(self.y0, ddof=1))

    @property
    def s2_effect(self) -> float:
        """Finite-population variance of the unit-level effects (divisor n - 1)."""
        return float(np.var(self.effects, ddof=1))


@dataclass(frozen=True)
class ObservedData:
    """One realized experiment: the assignment and the observed outcomes."""

    w: AssignmentVector
    y_obs: np.ndarray
    pair_labels: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "y_obs", _as_float_vector(self.y_obs, "y_obs"))
        if len(self.y_obs) != self.w.n:
            raise ValidationError(
                f"y_obs length {len(self.y_obs)} does not match assignment length {self.w.n}"
            )
        if self.pair_labels is not None:
            object.__setattr__(self, "pair_labels", _check_pairs(self.pair_labels, self.w.n))

    @property
    def n(self) -> int:
        return self.w.n


def reveal(po: PotentialOutcomes, w: AssignmentVector, *,
           pair_labels: tuple[tuple[int, int], ...] | None = None) -> ObservedData:
    """Observe a science table under assignment ``w``.

    Forms Y_obs = W*Y(1) + (1-W)*Y(0) for one assignment. The oracles do not
    call it: their one support pass, ``oracles._kernel_values``, forms it for a
    whole row block at once, and a scalar estimator gets each row's table, the
    same values, from that block.
    """
    if po.n != w.n:
        raise ValidationError(f"table has {po.n} units but assignment has {w.n}")
    bits = w.to_array().astype(bool)
    y_obs = np.where(bits, po.y1, po.y0)
    return ObservedData(w=w, y_obs=y_obs, pair_labels=pair_labels)


@dataclass(frozen=True)
class VarianceEstimate:
    """A variance (or MSE) estimate plus provenance.

    ``exact`` is False for Monte Carlo values, in which case ``mc_draws`` and
    ``mc_se`` describe the sampling error of the reported value.
    """

    value: float
    estimator: str
    exact: bool = True
    mc_draws: int | None = None
    mc_se: float | None = None
    params: Mapping[str, Any] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __float__(self) -> float:
        return float(self.value)

    def to_dict(self) -> dict[str, Any]:
        """The estimate's fields as ``designvar analyze`` prints them."""
        out: dict[str, Any] = {
            "estimator": self.estimator,
            "value": self.value,
            "exact": self.exact,
            "warnings": list(self.warnings),
            "params": dict(self.params),
        }
        if self.mc_draws:
            out["mc_draws"] = self.mc_draws
            out["mc_se"] = self.mc_se
        return out
