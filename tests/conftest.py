"""Shared fixtures and the acceptance-criterion summary hook."""

from __future__ import annotations

import numpy as np
import pytest

from designvar import PotentialOutcomes, build_crd, build_explicit

#: terminal-summary lines for tests named test_criterion_* in test_acceptance.py
_ACCEPTANCE_STATUS: dict[str, str] = {}


@pytest.fixture
def crossed_pairs():
    """Four-unit design supported on {1100, 0011, 1001, 0110}, uniform."""
    return build_explicit(["1100", "0011", "1001", "0110"], [0.25] * 4)


@pytest.fixture
def weighted_crossed_pairs():
    """Same support with probabilities (1/3, 1/3, 1/6, 1/6)."""
    return build_explicit(
        ["1100", "0011", "1001", "0110"],
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
    )


@pytest.fixture
def crd42():
    return build_crd(4, 2)


def random_table(rng: np.random.Generator, n: int, homogeneous: bool = False) -> PotentialOutcomes:
    """Random science table with Unif(0,10) controls and Unif(-5,5) effects."""
    y0 = rng.uniform(0.0, 10.0, n)
    if homogeneous:
        y1 = y0 + rng.uniform(-5.0, 5.0)
    else:
        y1 = y0 + rng.uniform(-5.0, 5.0, n)
    return PotentialOutcomes(y0=y0, y1=y1)


def support_matrix(d) -> np.ndarray:
    """An explicit design's support as an (S, n) 0/1 float array in support
    order, unpacked from its packed rows: a reference for the tests."""
    return np.unpackbits(d._packed, axis=1, count=d.n).astype(float)


def pytest_runtest_logreport(report):
    nodeid = report.nodeid
    if "test_acceptance.py" not in nodeid or "test_criterion" not in nodeid:
        return
    name = nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE_STATUS[name] = "PASS" if report.passed else "FAIL"
    elif report.failed:
        _ACCEPTANCE_STATUS[name] = "ERROR"
    elif report.skipped:
        _ACCEPTANCE_STATUS[name] = "SKIP"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_STATUS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_STATUS):
        terminalreporter.write_line(f"{_ACCEPTANCE_STATUS[name]:<5s} {name}")
