"""Fixtures: assembled problems on small meshes, built once per test run.

The builders behind them live in saddle_problems.py.
"""

import pytest

from saddleprec import (build_mesh, layout_from_cells, assign_epsilon,
                        build_problem)

from saddle_problems import ACCEPTANCE_VERDICTS, Problem, make_problem


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_VERDICTS):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def prob8():
    return make_problem(8, 2, eps=1e-4)


@pytest.fixture(scope="session")
def prob16():
    return make_problem(16, 2, eps=1e-4)


@pytest.fixture(scope="session")
def single_inclusion16():
    mesh = build_mesh(16)
    layout = layout_from_cells(mesh, 2, [(7, 7)])
    layout = assign_epsilon(layout, "uniform", epsilon=1e-4)
    ordering, A, blocks, op = build_problem(mesh, layout)
    return Problem(mesh, layout, ordering, A, blocks, op)


@pytest.fixture(scope="session")
def tiny_problem():
    """M=4 with one hand-checkable k=1 inclusion in the middle."""
    mesh = build_mesh(4)
    layout = layout_from_cells(mesh, 1, [(1, 1)])
    layout = assign_epsilon(layout, "uniform", epsilon=1e-2)
    ordering, A, blocks, op = build_problem(mesh, layout)
    return Problem(mesh, layout, ordering, A, blocks, op)


@pytest.fixture(scope="session")
def run_log():
    """Accumulates SolverReports produced by the acceptance sweeps."""
    return []
