"""Shared fixtures: cached reference runs and the acceptance summary hook."""

import math

import pytest
from hypothesis import strategies as st

from obstring import core, fd_solver

# (criterion number, formatted line) pairs filled in by tests/test_acceptance.py
_ACCEPTANCE_LINES: list[tuple[int, str]] = []


def record_acceptance(number: int, label: str, passed: bool, detail: str) -> None:
    """Register one acceptance-criterion verdict for the terminal summary."""
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number:2d} ({label}): {detail}"
    _ACCEPTANCE_LINES.append((number, line))
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance summary")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def log_uniform(low: float, high: float):
    """Floats spread evenly in log10 between low and high."""
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


@pytest.fixture(scope="session")
def desk_ex1():
    """Oscillatory-drop preset at desk resolution (dt = dx = 1e-3, eps = 2e-3).

    M = 300 so the auto stride is 1 and consecutive frames are stored.
    """
    cfg = core.example1_config(resolution=1000, epsilon=0.002)
    series, ledger = fd_solver.run(cfg)
    return cfg, series, ledger


@pytest.fixture(scope="session")
def desk_ex2():
    """Piecewise-ramp preset at desk resolution (stride 1, M = 500)."""
    cfg = core.example2_config(resolution=1000, epsilon=0.002)
    series, ledger = fd_solver.run(cfg)
    return cfg, series, ledger


@pytest.fixture(scope="session")
def desk_ex2_stiff():
    """The piecewise ramp at desk resolution with eps = 1e-3."""
    cfg = core.example2_config(resolution=1000, epsilon=0.001)
    series, ledger = fd_solver.run(cfg)
    return cfg, series, ledger
