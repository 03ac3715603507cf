"""Contrast-robust saddle-point solvers for elliptic problems with stiff
inclusions.

The diffusion problem -div(sigma grad u) = f with sigma = 1 + 1/eps_s on a
family of square inclusions is reformulated as a symmetric saddle system
whose condition does not degrade as eps -> 0.  The package assembles the
block operator, applies a block-diagonal preconditioner whose Schur part
costs O(n) through projector identities, and solves with three methods
(preconditioned Uzawa, preconditioned Lanczos, CG on the squared operator)
whose iteration counts stay flat in the contrast.  A dense spectral suite
verifies the two-interval eigenvalue structure that drives those counts.
"""

__version__ = "0.1.0"

from .mesh import (
    MeshError, LayoutError, ParameterError,
    StructuredMesh, build_mesh,
    Inclusion, InclusionLayout, layout_from_cells, place_periodic,
    place_random, assign_epsilon,
    OrderingMap, build_ordering,
)
from .assembly import (
    AssemblyError,
    assemble_stiffness, assemble_sigma_matrix, assemble_load,
    InclusionBlocks, assemble_inclusion_blocks,
    SaddleOperator, build_saddle_operator, build_problem,
    recover_p_from_u, write_matrix_market,
)
from .precond import (
    ContractViolationError, SolverBreakdownError, OpCounter,
    SchurPreconditioner,
    ExactAInverse, DiagonalAInverse, InnerCgAInverse, make_a_preconditioner,
    BlockPreconditioner, build_block_preconditioner,
)
from .solvers import (
    OperatorContractError, MaxIterationsError,
    SolverReport, random_guess,
    pu_solve, pl_solve, pcg_k_solve, cg_solve,
)
from .spectral import (
    MU_HAT_1, MU_HAT_2, DENSE_LIMIT, INTERVAL_TOL,
    sector_pair, dense_spectrum, schur_complement_dense,
    complement_basis, measure_a0_b0, SpectrumReport, verify_intervals,
)

__all__ = [name for name in dir() if not name.startswith("_")]
