"""Problem builders shared by the test modules.

Stiffness factorizations dominate the suite's wall time, so problems are
cached per (M, k, layout) and re-dressed with new inclusion parameters per
test; the stiffness block and its factorization do not depend on eps.

The test modules import these from here rather than from conftest: with
bench/tests collected in the same run, the name `conftest` may resolve
to that directory's conftest instead.
"""

import collections
import functools

from saddleprec import (
    build_mesh, place_periodic, place_random, assign_epsilon, build_problem,
    build_block_preconditioner, BlockPreconditioner, SchurPreconditioner,
    ExactAInverse,
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


@functools.lru_cache(maxsize=None)
def _cached_exact_ainv(M, k, layout_mode, removal, layout_seed):
    mesh, layout = _cached_base(M, k, layout_mode, removal, layout_seed)
    probe = assign_epsilon(layout, "uniform", epsilon=1e-4)
    _, A, _, _ = build_problem(mesh, probe)
    return A, ExactAInverse(A)


def make_problem(M, k, eps=1e-4, layout_mode="periodic", removal=0,
                 layout_seed=0, eps_mode="uniform", eps_min=None,
                 eps_max=1e-2, eps_seed=0):
    mesh, layout = _cached_base(M, k, layout_mode, removal, layout_seed)
    if eps_mode == "uniform":
        layout = assign_epsilon(layout, "uniform", epsilon=eps)
    else:
        layout = assign_epsilon(layout, "random", eps_min=eps_min,
                                eps_max=eps_max, seed=eps_seed)
    ordering, A, blocks, op = build_problem(mesh, layout)
    return Problem(mesh, layout, ordering, A, blocks, op)


def make_exact_precond(problem: Problem) -> BlockPreconditioner:
    """Exact-H_A block preconditioner reusing the cached LU of A."""
    M = problem.mesh.M
    lay = problem.layout
    if lay.mode not in ("periodic", "random"):
        return build_block_preconditioner(problem.A, problem.blocks)
    key = (M, lay.k, lay.mode, lay.removal_count,
           lay.seed if lay.mode == "random" else 0)
    A, a_inv = _cached_exact_ainv(*key)
    assert A.shape == problem.A.shape
    return BlockPreconditioner(a_inv=a_inv,
                               schur=SchurPreconditioner(problem.blocks),
                               N=problem.op.N, n=problem.op.n)
