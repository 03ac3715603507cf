"""Problem builders shared by the test modules.

Stiffness factorizations dominate the suite's wall time, so placements are
cached per (M, k, layout) and re-dressed with new inclusion parameters per
test; every eps copy of a cached placement shares its ordering, stiffness
block and block matrices, and one exact factorization serves them all.

The test modules import these from here rather than from conftest: with
bench/tests collected in the same run, the name `conftest` may resolve
to that directory's conftest instead.
"""

import collections
import functools

from saddleprec import (
    build_mesh, place_periodic, place_random, assign_epsilon, build_problem,
    BlockPreconditioner, SchurPreconditioner, ExactAInverse,
)

Problem = collections.namedtuple(
    "Problem", "mesh layout ordering A blocks op")

# the acceptance gate registers one verdict line per criterion; conftest
# prints them from the terminal-summary hook, visible without -s
ACCEPTANCE_VERDICTS = []


@functools.lru_cache(maxsize=None)
def _cached_base(M, k, layout_mode, removal, layout_seed):
    mesh = build_mesh(M)
    if layout_mode == "periodic":
        layout = place_periodic(mesh, k)
    elif layout_mode == "random":
        layout = place_random(mesh, k, removal, seed=layout_seed)
    else:
        raise ValueError(layout_mode)
    return mesh, layout


def make_problem(M, k, eps=1e-4, layout_mode="periodic", removal=0,
                 layout_seed=0, eps_mode="uniform", eps_min=None,
                 eps_max=1e-2, eps_seed=0):
    if layout_mode == "periodic":   # place_periodic reads neither
        removal = layout_seed = 0
    mesh, layout = _cached_base(M, k, layout_mode, removal, layout_seed)
    if eps_mode == "uniform":
        layout = assign_epsilon(layout, "uniform", epsilon=eps)
    else:
        layout = assign_epsilon(layout, "random", eps_min=eps_min,
                                eps_max=eps_max, seed=eps_seed)
    ordering, A, blocks, op = build_problem(mesh, layout)
    return Problem(mesh, layout, ordering, A, blocks, op)


def make_exact_precond(problem: Problem) -> BlockPreconditioner:
    """Exact-H_A block preconditioner reusing the placement's LU of A, kept
    in the placement's slot and so shared by its eps copies."""
    slot = problem.layout.slot
    if "exact_ainv" not in slot:
        slot["exact_ainv"] = ExactAInverse(problem.A)
    return BlockPreconditioner(a_inv=slot["exact_ainv"],
                               schur=SchurPreconditioner(problem.blocks),
                               N=problem.op.N)
