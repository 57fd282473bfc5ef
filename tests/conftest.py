"""Shared fixtures and the acceptance-gate summary hook.

The full default-grid oracle table builds in about 20-30 ms; it is
session-scoped and shared by the verification and acceptance tests, so
they all read the same rows.
"""

import math

import pytest
from hypothesis import settings, strategies as st

from besselbounds.verify import Grid, OracleTable, default_grid

# property tests run derandomized, so the suite's outcome is reproducible
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=50)


def log_x(lo: float, hi: float):
    """Arguments log-uniform in [lo, hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)

_gate_lines: list = []


def record_gate_line(line: str) -> None:
    """Collect a criterion result line for the end-of-run summary."""
    _gate_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # surface the per-criterion lines even when stdout capture is on
    if _gate_lines:
        terminalreporter.section("acceptance gate")
        for line in _gate_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def default_table() -> OracleTable:
    return OracleTable(default_grid())


@pytest.fixture(scope="session")
def small_table() -> OracleTable:
    # cheap table: a handful of orders, short geometric x grid
    grid = Grid(
        nu_values=(-1.0, -0.5, 0.5, 1.5, 2.5),
        x_values=(0.01, 0.1, 1.0, 10.0, 100.0),
    )
    return OracleTable(grid)
