"""Block preconditioner H = diag(H_A, H_S) for the saddle operator.

H_S = (B_D + Q)^{-1} is applied exactly in O(n) through the projector
identities

    H_S B_D = I - P,      H_S Q = P,

where P is the blockwise projector onto constants along the mass weights.
Every vector the solvers feed to H_S arrives as B_D a + Q b with known tags
(a, b), so H_S (B_D a + Q b) = a + P (b - a) and no system with B_D + Q is
ever solved by a solver.  A Cholesky-based reference solver is the oracle
that the identity tests check the tagged path against.

H_A is pluggable: exact sparse LU, a fixed number of inner CG steps
preconditioned by a symmetrized incomplete LU, or plain diagonal scaling.
The inner CG is H_A's own loop; the outer Krylov recurrences live in
solvers, so this module holds only operators.
The two factorizing kinds hand SuperLU the transpose view of a CSR A,
which is A's own CSC form only because A is symmetric; they probe that
symmetry first and refuse an A that fails the probe.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import InclusionBlocks
from .mesh import ParameterError, real_number, whole_number


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


class SchurPreconditioner:
    """Exact application of (B_D + Q)^{-1} at O(n) cost via tags.

    Every vector the solvers feed it arrives as B_D a + Q b with known
    (a, b), so it has no untagged apply: a general solve would hide a
    missing tag behind an O(n^2) fallback.  ReferenceSchurSolver is the
    oracle it is tested against.
    """

    def __init__(self, blocks: InclusionBlocks):
        self.blocks = blocks

    def apply_tagged(self, bd_pre: np.ndarray, q_pre: np.ndarray) -> np.ndarray:
        """H_S (B_D a + Q b) = a + P (b - a) for tag vectors a = bd_pre,
        b = q_pre, which it leaves as they are."""
        out = self.blocks.apply_projector(q_pre - bd_pre)
        out += bd_pre
        return out


class ReferenceSchurSolver:
    """Dense per-block Cholesky solve of (B_D + Q) x = r.

    The oracle of the tagged fast path: tests and the acceptance criteria
    check SchurPreconditioner against it; no solve uses it.
    """

    def __init__(self, blocks: InclusionBlocks):
        self.blocks = blocks
        local = blocks.B_D[:blocks.ns, :blocks.ns].toarray() + np.outer(
            blocks.weights, blocks.weights) / (blocks.d * blocks.d)
        self._chol = scipy.linalg.cho_factor(local, lower=True)

    def solve(self, r: np.ndarray) -> np.ndarray:
        R = r.reshape(self.blocks.m, self.blocks.ns)
        X = scipy.linalg.cho_solve(self._chol, R.T)
        return X.T.ravel()


# relative bound on |x.Ay - y.Ax| / (|x| |Ay|) in the symmetry probe; the
# rounding of a symmetric A stays near sqrt(N) times the machine epsilon
_SYMMETRY_RTOL = 1e-10


def _symmetric_csc(A: sp.spmatrix, kind: str) -> sp.csc_matrix:
    """CSC form of the symmetric A for SuperLU: the transpose view of a CSR
    A, which shares its arrays, or a conversion of any other format.

    The view stands for A only if A is symmetric, so a seeded two-matvec
    probe checks that first: unless x.Ay and y.Ax differ by at most
    _SYMMETRY_RTOL |x| |Ay|, which a NaN or an infinity in A also fails,
    ContractViolationError names the H_A kind.
    """
    x, y = np.random.default_rng(0).standard_normal((2, A.shape[0]))
    Ay = A @ y
    scale = np.linalg.norm(x) * np.linalg.norm(Ay)
    gap = x @ Ay
    del Ay      # at most three vectors of length N live at once
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN
        gap -= y @ (A @ x)
    if not abs(gap) <= _SYMMETRY_RTOL * scale:
        raise ContractViolationError(
            f"H_A kind {kind!r} needs a symmetric A; the probe found "
            f"x.Ay - y.Ax = {gap:.3e} against |x| |Ay| = {scale:.3e}")
    return A.T if A.format == "csr" else A.tocsc()


class ExactAInverse:
    """H_A = A^{-1} through a sparse LU factorization of the symmetric A."""

    kind = "exact"

    def __init__(self, A: sp.csr_matrix):
        self._lu = spla.splu(_symmetric_csc(A, self.kind))

    def apply(self, r: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
        if counter is not None:
            counter.ha += 1
        return self._lu.solve(r)


class DiagonalAInverse:
    """H_A = diag(A)^{-1}; cheap but not contrast- or mesh-robust."""

    kind = "diagonal"

    def __init__(self, A: sp.csr_matrix):
        d = A.diagonal()
        if not np.all((d > 0) & (d < np.inf)):      # a NaN fails too
            raise ContractViolationError(
                "stiffness diagonal must be finite and positive")
        self._inv = 1.0 / d

    def apply(self, r: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
        if counter is not None:
            counter.ha += 1
        return self._inv * r


class InnerCgAInverse:
    """H_A = fixed number of ILU-preconditioned CG steps on A from zero,
    in the Fletcher-Reeves form, stopping early only at a residual of
    1e-15 times the input's.

    A fixed step count keeps the operator close to a fixed polynomial in A,
    but CG's coefficients depend on the input: the defaults measured a
    nonlinearity <= 3.0e-14 up to M = 128 and 1.5e-6 at M = 256 (README),
    drop_tol 1e-2 with fill factor 8 a nonlinearity of 9.3e-3 at M = 128.
    The base preconditioner is the symmetrized incomplete LU
    0.5 (M^{-1} + M^{-T}): SuperLU's symmetric mode keeps the factors close
    to an incomplete Cholesky, and the explicit symmetrization removes the
    leftover asymmetry so the inner CG sees a symmetric operator.  A
    must be symmetric, as for ExactAInverse.
    """

    kind = "cg"

    def __init__(self, A: sp.csr_matrix, steps: int = 12, base: str = "ilu",
                 drop_tol: float = 5e-4, fill_factor: float = 12.0):
        for name, value in (("steps", steps), ("drop_tol", drop_tol),
                            ("fill_factor", fill_factor)):
            if not real_number(value):
                raise ParameterError(
                    f"inner CG option {name!r} takes a number, got {value!r}")
        if not whole_number(steps) or steps < 1:
            raise ParameterError("inner CG steps: a whole number, at least "
                                 f"1 step, got {steps!r}")
        if base != "ilu":
            raise ParameterError(
                f"unknown inner CG base {base!r}; only 'ilu' is supported")
        # SuperLU loops forever on a zero fill factor, rejects a negative one
        # and runs out of memory on a non-finite one; NaN fails both tests
        if not 0.0 < fill_factor < np.inf:
            raise ParameterError("ILU fill factor must be positive and finite, "
                                 f"got {fill_factor}")
        if not 0.0 <= drop_tol < np.inf:
            raise ParameterError("ILU drop tolerance must be nonnegative and "
                                 f"finite, got {drop_tol}")
        self.A = A.tocsr()
        self.steps = steps
        self._ilu = spla.spilu(_symmetric_csc(A, self.kind),
                               drop_tol=drop_tol, fill_factor=fill_factor,
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
        p = z = self._base(res)
        rz = res @ z
        for k in range(1, self.steps + 1):
            Ap = self.A @ p
            if counter is not None:
                counter.a += 1
            pAp = p @ Ap
            if pAp <= 0.0:
                raise SolverBreakdownError(
                    "inner CG direction lost positivity; base preconditioner "
                    "is not positive definite on this input")
            alpha = rz / pAp
            x += alpha * p
            res -= alpha * Ap
            if k == self.steps or np.linalg.norm(res) <= res_floor:
                break
            z = self._base(res)
            rz, rz_old = res @ z, rz
            p = z + (rz / rz_old) * p
        return x


A_KINDS = {cls.kind: cls
           for cls in (ExactAInverse, InnerCgAInverse, DiagonalAInverse)}


def make_a_preconditioner(A: sp.csr_matrix, kind: str = "exact", **opts):
    """Factory for the pluggable H_A operator: ParameterError names an
    unknown kind or option; only kind cg takes options, and it checks
    their values itself."""
    if kind not in A_KINDS:
        raise ParameterError(f"unknown H_A kind {kind!r}")
    if kind != InnerCgAInverse.kind and opts:
        raise ParameterError(
            f"H_A kind {kind!r} takes no options, got {', '.join(sorted(opts))}")
    names = list(inspect.signature(InnerCgAInverse).parameters)[1:]
    unknown = sorted(set(opts) - set(names))
    if unknown:
        raise ParameterError(f"unknown inner CG option {unknown[0]!r}; "
                             f"options are {', '.join(names)}")
    return A_KINDS[kind](A, **opts)


@dataclasses.dataclass(eq=False)
class BlockPreconditioner:
    """H = diag(H_A, H_S) applied to images of the saddle operator.

    apply_to_image computes H X for an X whose lower block is that of
    A_eps(source), such as A_eps(source) - (f, 0), from the tags
    SaddleOperator.source_tags(source), keeping the Schur part at O(n).
    H reads no eps: it serves every eps copy.
    """

    a_inv: object
    schur: SchurPreconditioner
    N: int

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
                               N=A.shape[0])
