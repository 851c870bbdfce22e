"""File formats used by the command line.

Designs are JSON; outcome tables and matrices are CSV.  Unit ids in files are
1-based (as a statistician would write them); everything returned to the
library is 0-based.

Design JSON, by ``kind``::

    {"kind": "explicit", "n": 4, "support": ["1100", "0011"], "probs": [0.5, 0.5]}
    {"kind": "crd", "n": 8, "n_treated": 4}
    {"kind": "matched_pair", "pairs": [[1, 2], [3, 4]]}
    {"kind": "rerandomized", "base": {...}, "covariates": [[...], ...],
     "threshold": 0.2}

``kind`` defaults to "explicit" when a support list is present; ``probs``
defaults to uniform; support entries may be bit strings or 0/1 lists.
Matched-pair ``pairs`` use 1-based unit ids.

Science tables are CSV with header ``unit_id,y0,y1``; observed tables use
``unit_id,w,y_obs`` plus an optional ``pair`` column carrying a shared label
per matched pair.  Q matrices are plain numeric CSV with N rows of N values.
Substitute maps are JSON objects: anchor bit string to list of member bit
strings.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .core import (
    AssignmentVector,
    ObservedData,
    PotentialOutcomes,
    ValidationError,
)
from .designs import (
    Design,
    ExplicitDesign,
    _support_rows,
    build_crd,
    build_explicit,
    build_matched_pair,
    build_rerandomized,
)

__all__ = [
    "build_design",
    "load_design",
    "load_matrix",
    "load_observed",
    "load_science_table",
    "load_substitute_map",
]


def _read_json(path) -> object:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _require(payload: dict, key: str, context: str):
    if key not in payload:
        raise ValidationError(f"{context}: missing required field {key!r}")
    return payload[key]


def _whole(value, field: str) -> int:
    """A count or unit id from JSON: an integer, or a float with no fraction."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"{field} must be a whole number, got {value!r}")


def _number(value, field: str) -> float:
    """A JSON number (not a string, boolean or null) as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValidationError(f"{field} must be a number, got {value!r}")


def _numbers(value, field: str) -> np.ndarray:
    """A JSON list, or rectangular nested lists, of numbers as a float array."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ValidationError(f"{field} must be a rectangular list of numbers") from exc
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{field} must hold numbers only")
    return arr.astype(float)


def build_design(payload: dict) -> Design:
    """Build a design from a parsed JSON payload (see module docstring)."""
    if not isinstance(payload, dict):
        raise ValidationError(f"design payload must be an object, got {type(payload).__name__}")
    kind = payload.get("kind", "explicit" if "support" in payload else None)
    if kind is None:
        raise ValidationError("design payload needs a 'kind' (or a 'support' list)")
    if kind == "explicit":
        support = _require(payload, "support", "explicit design")
        if not support:
            raise ValidationError("explicit design: support must be nonempty")
        probs = payload.get("probs")
        if probs is None:  # weights of one: exact uniform probabilities
            return ExplicitDesign(_support_rows(support), np.ones(len(support)))
        return build_explicit(support, probs)
    if kind == "crd":
        n = _whole(_require(payload, "n", "crd design"), "crd design: 'n'")
        n_treated = _whole(_require(payload, "n_treated", "crd design"), "crd design: 'n_treated'")
        return build_crd(n, n_treated)
    if kind == "matched_pair":
        pairs = _require(payload, "pairs", "matched-pair design")
        if not isinstance(pairs, list):
            raise ValidationError(f"matched-pair design: 'pairs' must be a list, got {pairs!r}")
        zero_based = []
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValidationError(f"pair {pair} must have exactly two unit ids")
            zero_based.append(tuple(_whole(u, "matched-pair design: 'pairs'") - 1 for u in pair))
        return build_matched_pair(zero_based)
    if kind == "rerandomized":
        context = "rerandomized design"
        base = build_design(_require(payload, "base", context))
        covariates = _numbers(_require(payload, "covariates", context), f"{context}: 'covariates'")
        threshold = _number(_require(payload, "threshold", context), f"{context}: 'threshold'")
        return build_rerandomized(base, covariates, threshold)
    raise ValidationError(
        f"unknown design kind {kind!r}; expected explicit, crd, matched_pair, "
        "or rerandomized"
    )


def load_design(path) -> Design:
    """Parse a design JSON file."""
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: design file must hold a JSON object")
    return build_design(payload)


def _read_rows(path) -> tuple[list[str], list[dict[str, str]]]:
    try:
        with Path(path).open(newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise ValidationError(f"{path}: empty CSV file")
            header = [name.strip() for name in reader.fieldnames]
            rows = [
                {k.strip(): (v or "").strip() for k, v in row.items() if k is not None}
                for row in reader
            ]
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    return header, rows


def _unit_order(rows: list[dict[str, str]], path) -> list[dict[str, str]]:
    try:
        ordered = sorted(rows, key=lambda row: int(row["unit_id"]))
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"{path}: every row needs an integer unit_id") from exc
    ids = [int(row["unit_id"]) for row in ordered]
    if ids != list(range(1, len(ids) + 1)):
        raise ValidationError(
            f"{path}: unit_id must cover 1..{len(ids)} exactly, got {ids}"
        )
    return ordered


def _parse_float(row: dict[str, str], key: str, path) -> float:
    try:
        return float(row[key])
    except (KeyError, ValueError) as exc:
        raise ValidationError(
            f"{path}: unit {row.get('unit_id', '?')} needs a numeric {key!r}"
        ) from exc


def load_science_table(path) -> PotentialOutcomes:
    """CSV with header unit_id,y0,y1 -> full potential-outcome table."""
    header, rows = _read_rows(path)
    if "w" in header or "y_obs" in header:
        raise ValidationError(
            f"{path} holds an observed table (unit_id,w,y_obs); this command "
            "needs the full science table (unit_id,y0,y1)"
        )
    missing = {"unit_id", "y0", "y1"} - set(header)
    if missing:
        raise ValidationError(f"{path}: missing columns {sorted(missing)}")
    rows = _unit_order(rows, path)
    y0 = [_parse_float(row, "y0", path) for row in rows]
    y1 = [_parse_float(row, "y1", path) for row in rows]
    return PotentialOutcomes(y1=np.array(y1), y0=np.array(y0))


def load_observed(path) -> ObservedData:
    """CSV with header unit_id,w,y_obs (optional pair column) -> observed data."""
    header, rows = _read_rows(path)
    missing = {"unit_id", "w", "y_obs"} - set(header)
    if missing:
        if {"y0", "y1"} <= set(header):
            raise ValidationError(
                f"{path} holds a science table (unit_id,y0,y1); this command "
                "needs observed data (unit_id,w,y_obs)"
            )
        raise ValidationError(f"{path}: missing columns {sorted(missing)}")
    rows = _unit_order(rows, path)
    bits = []
    for row in rows:
        if row["w"] not in ("0", "1"):
            raise ValidationError(
                f"{path}: unit {row['unit_id']} has w={row['w']!r}, expected 0 or 1"
            )
        bits.append(int(row["w"]))
    y_obs = np.array([_parse_float(row, "y_obs", path) for row in rows])
    w = AssignmentVector.from_bits(bits)
    pair_labels = None
    if "pair" in header:
        groups: dict[str, list[int]] = {}
        for k, row in enumerate(rows):
            groups.setdefault(row["pair"], []).append(k)
        for label, members in groups.items():
            if len(members) != 2:
                raise ValidationError(
                    f"{path}: pair {label!r} has {len(members)} units, expected 2"
                )
        pair_labels = tuple(tuple(members) for _, members in sorted(groups.items()))
    return ObservedData(w=w, y_obs=y_obs, pair_labels=pair_labels)


def load_matrix(path) -> np.ndarray:
    """Plain numeric CSV (no header) -> 2-D float array. Trailing empty cells
    (a trailing comma) are dropped; an empty cell before a value is refused."""
    try:
        with Path(path).open(newline="") as handle:
            records = [(number, row) for number, row in enumerate(csv.reader(handle), 1) if row]
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    rows = []
    for number, record in records:
        cells = [cell.strip() for cell in record]
        gap = cells.index("") if "" in cells else len(cells)
        if any(cells[gap:]):
            raise ValidationError(f"{path}: row {number}, column {gap + 1} is empty")
        try:
            rows.append([float(cell) for cell in cells[:gap]])
        except ValueError as exc:
            raise ValidationError(f"{path}: matrix entries must be numeric: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: empty matrix file")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValidationError(f"{path}: ragged rows; a matrix needs equal-length rows")
    return np.array(rows)


def load_substitute_map(path) -> dict[str, list[str]]:
    """JSON object anchor -> list of members, all as assignment bit strings."""
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: substitute map must be a JSON object")
    out: dict[str, list[str]] = {}
    for anchor, members in payload.items():
        if not isinstance(members, list):
            raise ValidationError(
                f"{path}: substitute entry for {anchor!r} must be a list"
            )
        out[str(anchor)] = [str(m) for m in members]
    return out
