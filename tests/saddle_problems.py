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
import os
import subprocess
import sys

from saddleprec import (
    build_mesh, place_periodic, place_random, assign_epsilon, build_problem,
    BlockPreconditioner, SchurPreconditioner, ExactAInverse,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


def run_with_one_blas_thread(*args):
    """Run the interpreter with args in a fresh process with one BLAS thread
    and return its standard output.  The last digits of results that pass
    through BLAS (final_ratio, Ritz values, solution vectors) follow the BLAS
    thread count, which only a fresh process can set.  The process imports
    saddleprec from this checkout and these helpers from tests/, and turns
    warnings into errors as the suite does."""
    path = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.update({var: "1" for var in ("OMP_NUM_THREADS",
                                     "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")})
    return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          check=True, capture_output=True, text=True).stdout
