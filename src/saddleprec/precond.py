"""Block preconditioner H = diag(H_A, H_S) for the saddle operator.

H_S = (B_D + Q)^{-1} is applied exactly in O(n) through the projector
identities

    H_S B_D = I - P,      H_S Q = P,

where P is the blockwise projector onto constants along the mass weights.
Every vector the solvers feed to H_S arrives as B_D a + Q b with known tags
(a, b), so H_S (B_D a + Q b) = a + P (b - a) and no system with B_D + Q is
ever solved in the iteration.  A Cholesky-based reference solver backs the
identity tests and handles untagged right-hand sides during setup.

H_A is pluggable: exact sparse LU, a fixed number of inner CG steps
preconditioned by a symmetrized incomplete LU, or plain diagonal scaling.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import InclusionBlocks
from .mesh import ParameterError


class ContractViolationError(RuntimeError):
    """An operator broke a structural promise (symmetry, positivity, tags)."""


class SolverBreakdownError(RuntimeError):
    """A Krylov recurrence hit a nonpositive or vanishing denominator."""


@dataclasses.dataclass(eq=False)
class OpCounter:
    """Running totals of the two operations that dominate cost.

    a counts sparse multiplications by the stiffness block A (including the
    ones inside inner CG); ha counts invocations of the H_A operator.
    """

    a: int = 0
    ha: int = 0

    @property
    def total(self) -> int:
        return self.a + self.ha

    def snapshot(self):
        return (self.a, self.ha)


class SchurPreconditioner:
    """Exact application of (B_D + Q)^{-1} at O(n) cost via tags."""

    def __init__(self, blocks: InclusionBlocks):
        self.blocks = blocks

    def apply(self, source: np.ndarray) -> np.ndarray:
        """Deliberately unsupported: the O(n) path needs tagged images.

        Every vector this preconditioner sees inside the solvers is produced
        as B_D a + Q b with known (a, b); a general solve would hide a missing
        tag behind an O(n^2) fallback.  Use ReferenceSchurSolver for honest
        untagged right-hand sides.
        """
        raise ContractViolationError(
            "H_S received an untagged operand; apply_tagged/apply_bd_image/"
            "apply_q_image carry the image structure, or use "
            "ReferenceSchurSolver for a direct solve")

    def apply_tagged(self, bd_pre: np.ndarray, q_pre: np.ndarray) -> np.ndarray:
        """H_S (B_D a + Q b) for tag vectors a = bd_pre, b = q_pre."""
        return bd_pre + self.blocks.apply_projector(q_pre - bd_pre)

    def apply_bd_image(self, a: np.ndarray) -> np.ndarray:
        """H_S B_D a = (I - P) a."""
        return a - self.blocks.apply_projector(a)

    def apply_q_image(self, b: np.ndarray) -> np.ndarray:
        """H_S Q b = P b."""
        return self.blocks.apply_projector(b)


class ReferenceSchurSolver:
    """Dense per-block Cholesky solve of (B_D + Q) x = r.

    Exists to cross-check the tagged fast path and to absorb the rare
    untagged right-hand side (inhomogeneous constraint data at setup).
    """

    def __init__(self, blocks: InclusionBlocks):
        self.blocks = blocks
        local = blocks.B_loc + np.outer(blocks.weights, blocks.weights) / (
            blocks.d * blocks.d)
        self._chol = scipy.linalg.cho_factor(local, lower=True)

    def solve(self, r: np.ndarray) -> np.ndarray:
        R = r.reshape(self.blocks.m, self.blocks.ns)
        X = scipy.linalg.cho_solve(self._chol, R.T)
        return X.T.ravel()


def pcg_steps(A, x, r, apply_m, breakdown: str,
              counter: OpCounter | None = None):
    """CG on the SPD matrix A preconditioned by apply_m: advances x and its
    residual r = b - A x in place and yields (k, step length, direction
    ratio) after each step k, leaving the stopping rule to the caller; the
    ratio is the one that formed the direction just stepped along (0 at
    k = 1).  A direction of nonpositive curvature raises
    SolverBreakdownError(breakdown.format(k=k)).
    """
    z = apply_m(r)
    p = z.copy()
    rz = r @ z
    ratio = 0.0
    for k in itertools.count(1):
        Ap = A @ p
        if counter is not None:
            counter.a += 1
        pAp = p @ Ap
        if pAp <= 0.0:
            raise SolverBreakdownError(breakdown.format(k=k))
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        yield k, alpha, ratio
        z = apply_m(r)
        rz_new = r @ z
        ratio = rz_new / rz
        p = z + ratio * p
        rz = rz_new


class ExactAInverse:
    """H_A = A^{-1} through a sparse LU factorization."""

    kind = "exact"

    def __init__(self, A: sp.csr_matrix):
        self._lu = spla.splu(A.tocsc())

    def apply(self, r: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
        if counter is not None:
            counter.ha += 1
        return self._lu.solve(r)


class DiagonalAInverse:
    """H_A = diag(A)^{-1}; cheap but not contrast- or mesh-robust."""

    kind = "diagonal"

    def __init__(self, A: sp.csr_matrix):
        d = A.diagonal()
        if np.any(d <= 0):
            raise ContractViolationError("stiffness diagonal must be positive")
        self._inv = 1.0 / d

    def apply(self, r: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
        if counter is not None:
            counter.ha += 1
        return self._inv * r


class InnerCgAInverse:
    """H_A = fixed number of ILU-preconditioned CG steps on A from zero.

    A fixed step count keeps the operator close to a fixed polynomial in A
    (exactly so only for stationary methods; CG's coefficients depend mildly
    on the input, which in practice does not disturb the outer iterations).
    The base preconditioner is the symmetrized incomplete LU
    0.5 (M^{-1} + M^{-T}): SuperLU's symmetric mode keeps the factors close
    to an incomplete Cholesky, and the explicit symmetrization removes the
    leftover asymmetry so the inner CG sees a symmetric operator.
    """

    kind = "cg"

    def __init__(self, A: sp.csr_matrix, steps: int = 12, base: str = "ilu",
                 drop_tol: float = 5e-4, fill_factor: float = 12.0):
        check_a_options(self.kind, {"steps": steps, "base": base,
                                    "drop_tol": drop_tol,
                                    "fill_factor": fill_factor})
        self.A = A.tocsr()
        self.steps = steps
        self._ilu = spla.spilu(A.tocsc(), drop_tol=drop_tol,
                               fill_factor=fill_factor,
                               diag_pivot_thresh=0.0,
                               permc_spec="MMD_AT_PLUS_A",
                               options=dict(SymmetricMode=True))

    def _base(self, r):
        return 0.5 * (self._ilu.solve(r) + self._ilu.solve(r, trans="T"))

    def apply(self, r: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
        if counter is not None:
            counter.ha += 1
        x = np.zeros_like(r)
        res = r.copy()
        res_norm = np.linalg.norm(res)
        if res_norm == 0.0:
            return x
        res_floor = 1e-15 * res_norm
        for k, _, _ in pcg_steps(self.A, x, res, self._base,
                                 "inner CG direction lost positivity; base "
                                 "preconditioner is not positive definite "
                                 "on this input", counter):
            if k == self.steps or np.linalg.norm(res) <= res_floor:
                break
        return x


A_KINDS = {cls.kind: cls
           for cls in (ExactAInverse, InnerCgAInverse, DiagonalAInverse)}


def check_a_options(kind: str, opts: dict) -> None:
    """Raise ParameterError, naming the kind or the option, for an H_A
    configuration make_a_preconditioner refuses; only kind cg takes options."""
    if kind not in A_KINDS:
        raise ParameterError(f"unknown H_A kind {kind!r}")
    if kind != InnerCgAInverse.kind and opts:
        raise ParameterError(
            f"H_A kind {kind!r} takes no options, got {', '.join(sorted(opts))}")
    steps = opts.get("steps", 1)
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ParameterError(
            f"inner CG steps: a whole number, at least 1 step, got {steps!r}")
    if opts.get("base", "ilu") != "ilu":
        raise ParameterError(
            f"unknown inner CG base {opts['base']!r}; only 'ilu' is supported")
    # SuperLU loops forever on a zero fill factor, rejects a negative one
    # and runs out of memory on a non-finite one; NaN fails both tests
    if not 0.0 < opts.get("fill_factor", 1.0) < np.inf:
        raise ParameterError("ILU fill factor must be positive and finite, "
                             f"got {opts['fill_factor']}")
    if not 0.0 <= opts.get("drop_tol", 0.0) < np.inf:
        raise ParameterError("ILU drop tolerance must be nonnegative and "
                             f"finite, got {opts['drop_tol']}")


def make_a_preconditioner(A: sp.csr_matrix, kind: str = "exact", **opts):
    """Factory for the pluggable H_A operator."""
    check_a_options(kind, opts)
    return A_KINDS[kind](A, **opts)


@dataclasses.dataclass(eq=False)
class BlockPreconditioner:
    """H = diag(H_A, H_S) applied to images of the saddle operator.

    apply_to_image computes H X for X = A_eps(source) - extra from the lower
    tags of X (SaddleOperator.source_tags less those of extra), keeping the
    Schur part at O(n).  H reads no eps: it serves every eps copy.
    """

    a_inv: object
    schur: SchurPreconditioner
    N: int
    n: int

    def apply_to_image(self, image: np.ndarray, bd_pre: np.ndarray,
                       q_pre: np.ndarray,
                       counter: OpCounter | None = None) -> np.ndarray:
        top = self.a_inv.apply(image[:self.N], counter)
        bottom = self.schur.apply_tagged(bd_pre, q_pre)
        return np.concatenate((top, bottom))


def build_block_preconditioner(A: sp.csr_matrix, blocks: InclusionBlocks,
                               ha_kind: str = "exact",
                               **ha_opts) -> BlockPreconditioner:
    return BlockPreconditioner(a_inv=make_a_preconditioner(A, ha_kind, **ha_opts),
                               schur=SchurPreconditioner(blocks),
                               N=A.shape[0], n=blocks.n)
