"""Batch kernels of the exact estimators against their per-row formulas.

Each kernel scores k realized tables at once. The references below are the
per-row formulas, written out as one loop per table and summed with
``math.fsum``; row r must equal its reference within EST_RTOL relative or
1e-12 absolute (neyman: to the bit). The kernels sum in floating point, not
exactly, but a row's value never depends on its batch: every scalar
estimator equals its row of the batch kernel to the bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import designvar as dv
from designvar import build_crd, build_explicit, build_matched_pair, study_a_design
from designvar.contrast import _substitute_values, _v_pair_values
from designvar.core import EST_RTOL, PROB_TOL
from designvar.decomposition import _decomposition_values, _v_am_values
from designvar.estimators import _neyman_values

from conftest import random_table, support_matrix

DESIGNS = {
    "crossed-pairs": lambda: build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4),
    "crd-8-4": lambda: build_crd(8, 4),
    "crd-9-3": lambda: build_crd(9, 3),
    "matched-pairs": lambda: build_matched_pair([(0, 4), (1, 5), (2, 6), (3, 7)]),
    "study-a": lambda: study_a_design(seed=0)[0],
}
CROSS_Q = np.outer([1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0]) / 16.0

_CELL_SIGNS = (1.0, -1.0, -1.0, 1.0)


def _v_sub_values(d, w, y, g=None):
    return _substitute_values(d, g)(w, y, equal_size=True)[0]


def _mse_sub_values(d, w, y, g=None):
    return _substitute_values(d, g)(w, y)[0]


def _cell_products(t):
    return (np.outer(t, t), np.outer(t, 1.0 - t), np.outer(1.0 - t, t),
            np.outer(1.0 - t, 1.0 - t))


def ref_decomposition(d, q, t, y):
    n = d.n
    pi = d.propensities
    cells = d.pairwise_cells()
    shift = q - 1.0 / n**2
    prods = _cell_products(pi)
    coefs = [p / (n**2 * prod) + shift for p, prod in zip(cells, prods)]
    terms = list(t * y * y / (n**2 * pi**2))
    terms += list((1.0 - t) * y * y / (n**2 * (1.0 - pi) ** 2))
    iu, ju = np.triu_indices(n, k=1)
    yy = np.outer(y, y)
    for sign, realized, p, c in zip(_CELL_SIGNS, _cell_products(t), cells, coefs):
        ratio = np.divide(c, p, out=np.zeros_like(c), where=p > PROB_TOL)
        terms.extend((2.0 * sign * realized[iu, ju] * yy[iu, ju] * ratio[iu, ju]).tolist())
    return math.fsum(terms)


def ref_v_am(d, t, y):
    n = d.n
    pi = d.propensities
    scale = n / (n - 1.0)
    sq_t = t * y * y / pi
    sq_c = (1.0 - t) * y * y / (1.0 - pi)
    terms = list(t * y * y / pi**2) + list((1.0 - t) * y * y / (1.0 - pi) ** 2)
    bound_sq = ((sq_t, sq_t), (sq_t, sq_c), (sq_c, sq_t), (sq_c, sq_c))
    yy = np.outer(y, y)
    iu, ju = np.triu_indices(n, k=1)
    for sign, realized, p, prod, (sq_i, sq_j) in zip(
        _CELL_SIGNS, _cell_products(t), d.pairwise_cells(), _cell_products(pi), bound_sq
    ):
        coef = p / prod - scale
        alive = p[iu, ju] > PROB_TOL
        vals = 2.0 * sign * realized[iu, ju] * yy[iu, ju] * np.divide(
            coef[iu, ju], p[iu, ju], out=np.zeros_like(coef[iu, ju]), where=alive
        )
        terms.extend(vals[alive].tolist())
        dead_i, dead_j = iu[~alive], ju[~alive]
        terms.extend((scale * (sq_i[dead_i] + sq_j[dead_j])).tolist())
    return math.fsum(terms) / n**2


def _anchors(d, g, r_obs):
    """Anchors of map g whose substitute set holds support row r_obs, with
    their set sizes."""
    w = d.support[r_obs]
    anchors = [d.index_of(a) for a, members in g.items() if w in members]
    counts = [len(g[d.support[a]]) for a in anchors]
    return np.array(anchors, dtype=np.intp), np.array(counts, dtype=np.int64)


def ref_v_sub(d, g, r_obs, y):
    anchors, counts = _anchors(d, g, r_obs)
    contrasts = 2.0 * (support_matrix(d) @ y) - float(y.sum())
    terms = d.probs[anchors] / float(d.probs[r_obs]) * contrasts[anchors] ** 2 / counts
    return 4.0 / d.n**2 * math.fsum(terms.tolist())


def ref_mse_sub(d, g, r_obs, y):
    anchors, counts = _anchors(d, g, r_obs)
    sizes = d.group_sizes
    treated_sum = support_matrix(d) @ y
    total = float(y.sum())
    contrasts = treated_sum / sizes - (total - treated_sum) / (d.n - sizes)
    terms = d.probs[anchors] / float(d.probs[r_obs]) * contrasts[anchors] ** 2 / counts
    return math.fsum(terms.tolist())


def ref_neyman(t, y):
    bits = t.astype(bool)
    kt, kc = int(bits.sum()), int((~bits).sum())
    s2_t = float(np.var(y[bits], ddof=1))
    s2_c = float(np.var(y[~bits], ddof=1))
    return s2_t / kt + s2_c / kc


def ref_v_pair(pairs, t, y):
    diffs = []
    for a, b in pairs:
        tr, co = (a, b) if t[a] == 1 else (b, a)
        diffs.append(float(y[tr] - y[co]))
    dbar = math.fsum(diffs) / len(diffs)
    n = len(t)
    return 4.0 / (n * (n - 2)) * math.fsum((dj - dbar) ** 2 for dj in diffs)


def _with_map(ref):
    """A per-row reference that reads the design's full substitute map."""

    def per_design(d):
        g = dv.full_substitute_map(d)
        return lambda r, t, y: ref(d, g, r, y)

    return per_design


# kernel name -> (batch call, per-design per-row reference, designs it is
# defined on)
KERNELS = {
    "decomposition": (
        lambda d, w, y: _decomposition_values(d, _q(d), w, y),
        lambda d: lambda r, t, y: ref_decomposition(d, _q(d), t, y),
        ("crossed-pairs", "crd-8-4", "crd-9-3"),
    ),
    "v_am": (
        lambda d, w, y: _v_am_values(d, w, y)[0],
        lambda d: lambda r, t, y: ref_v_am(d, t, y),
        tuple(DESIGNS),
    ),
    "v_sub": (
        _v_sub_values,
        _with_map(ref_v_sub),
        ("crossed-pairs", "crd-8-4", "matched-pairs", "study-a"),
    ),
    "mse_sub": (
        _mse_sub_values,
        _with_map(ref_mse_sub),
        tuple(DESIGNS),
    ),
    "neyman": (
        lambda d, w, y: _neyman_values(w, y),
        lambda d: lambda r, t, y: ref_neyman(t, y),
        tuple(DESIGNS),
    ),
    "v_pair": (
        lambda d, w, y: _v_pair_values(d.pairs, w, y),
        lambda d: lambda r, t, y: ref_v_pair(d.pairs, t, y),
        ("matched-pairs",),
    ),
}


def _q(d):
    return CROSS_Q if d.n == 4 else dv.default_q_crd(d.n)


_CASES = [(k, name) for k, (_, _, names) in KERNELS.items() for name in names]


@pytest.mark.parametrize("kernel, design", _CASES, ids=[f"{k}-{d}" for k, d in _CASES])
def test_batch_row_equals_scalar_formula(kernel, design):
    d = DESIGNS[design]()
    batch, ref, _ = KERNELS[kernel]
    po = random_table(np.random.default_rng(11), d.n)
    u = support_matrix(d)
    y = np.where(u == 1, po.y1, po.y0)
    got = batch(d, u, y)
    assert got.shape == (d.support_size,)
    per_row = ref(d)
    want = [per_row(r, u[r], y[r]) for r in range(d.support_size)]
    if kernel == "neyman":  # the one kernel that rounds as its reference does
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    else:
        np.testing.assert_allclose(got, want, rtol=EST_RTOL, atol=1e-12)


@pytest.mark.parametrize("design", ["crd-8-4", "matched-pairs", "study-a"])
def test_scalar_estimators_are_one_row_calls(design):
    d = DESIGNS[design]()
    po = random_table(np.random.default_rng(12), d.n)
    u = support_matrix(d)
    y = np.where(u == 1, po.y1, po.y0)
    pairs = {
        "v_am": (_v_am_values(d, u, y)[0], lambda obs: dv.v_am(d, obs)),
        "v_sub": (_v_sub_values(d, u, y), lambda obs: dv.v_sub(d, obs)),
        "mse_sub": (_mse_sub_values(d, u, y), lambda obs: dv.mse_sub_epsem(d, obs)),
        "neyman": (_neyman_values(u, y), dv.neyman_variance),
    }
    if design == "crd-8-4":
        q = _q(d)
        pairs["decomposition"] = (
            _decomposition_values(d, q, u, y), lambda obs: dv.estimate_decomposition(d, obs, q)
        )
    if design == "matched-pairs":
        pairs["v_pair"] = (_v_pair_values(d.pairs, u, y), dv.v_pair)
    for r in range(0, d.support_size, max(1, d.support_size // 25)):
        obs = dv.reveal(po, d.support[r], pair_labels=d.pairs)
        for name, (values, scalar) in pairs.items():
            assert scalar(obs).value == values[r], (name, r)


def test_user_substitute_map_is_validated_once_per_batch(monkeypatch):
    import designvar.contrast as contrast

    d = build_crd(8, 4)
    g = dv.full_substitute_map(d)
    calls = []
    normalize = contrast._normalize_g
    monkeypatch.setattr(
        contrast, "_normalize_g", lambda *args: calls.append(1) or normalize(*args)
    )
    po = random_table(np.random.default_rng(13), d.n)
    u = support_matrix(d)
    y = np.where(u == 1, po.y1, po.y0)
    assert np.array_equal(_v_sub_values(d, u, y, g), _v_sub_values(d, u, y))
    assert np.array_equal(_mse_sub_values(d, u, y, g), _mse_sub_values(d, u, y))
    assert len(calls) == 2


def test_v_am_params_count_dead_cells():
    d = DESIGNS["matched-pairs"]()
    po = random_table(np.random.default_rng(14), 8)
    obs = dv.reveal(po, d.support[3], pair_labels=d.pairs)
    # each of the four pairs has two dead cells: both treated, both control
    assert dv.v_am(d, obs).params == {"bounded_cells": 8}


@pytest.mark.parametrize(
    "call, row",
    [
        (lambda u, y: _neyman_values(u, y), 2),
        (lambda u, y: _v_pair_values(((0, 1), (2, 3)), u, y), 1),
    ],
    ids=["neyman", "v_pair"],
)
def test_kernel_error_names_first_failing_row(call, row):
    u = np.array([[1, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]])
    y = np.arange(12.0).reshape(3, 4)
    with pytest.raises((dv.AssumptionError, dv.ValidationError)) as exc:
        call(u, y)
    assert exc.value.row == row


def test_substitute_kernel_names_the_first_row_off_the_support():
    d = build_crd(4, 2)
    u = np.vstack([support_matrix(d)[:2], np.ones((1, 4)), np.zeros((1, 4))])
    with pytest.raises(dv.ValidationError, match="realized assignment 1111 is not") as exc:
        _v_sub_values(d, u, np.ones((4, 4)))
    assert exc.value.row == 2
    with pytest.raises(dv.ValidationError, match="observed data has 3 units, design has 4"):
        _v_sub_values(d, support_matrix(d)[:, :3], support_matrix(d)[:, :3])
