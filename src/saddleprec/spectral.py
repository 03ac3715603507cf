"""Spectral verification of the preconditioned saddle operator.

Computes dense generalized spectra of the saddle operator against the block
preconditioner, measures the extreme eigenvalues (a0, b0) of the projected
Schur pencil that govern the theory, and classifies every eigenvalue against
two unions of closed intervals, both from the one root formula sector_pair:
the literal two-interval prediction

    [mu_check1(r_max), (1 - sqrt 5)/2]  union  [1, (1 + sqrt 5)/2],

with mu_check1 the negative root of sector_pair(1, r_max), and a
measured-constant envelope, SpectrumReport.envelope, with (a0, b0) in place
of the unknown extension constant.  Every dense generalized eigenproblem goes
through dense_spectrum.  Dense solves cap at total dimension 2000; beyond
that the extreme eigenvalues come from the solvers themselves:
SolverReport.ritz_extremes reads them off the Lanczos tridiagonal of a PU,
PL or PCG-K run.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .mesh import InclusionLayout, ParameterError
from .assembly import InclusionBlocks, build_problem
from .precond import ContractViolationError, ExactAInverse

# Largest total dimension (N + n) accepted by the dense eigensolvers.
DENSE_LIMIT = 2000
# Half-width by which verify_intervals widens every interval it tests.
INTERVAL_TOL = 1e-8
# Gram blocks of verify_intervals on the p rows: B_D + Q, or S_0
PENCILS = ("preconditioner", "ideal")


def check_dense_size(layout: InclusionLayout) -> None:
    """ParameterError if the instance's dimension N + n exceeds DENSE_LIMIT."""
    dim = layout.mesh.n_interior + layout.n
    if dim > DENSE_LIMIT:
        raise ParameterError(
            f"instance M={layout.mesh.M} k={layout.k} has dimension {dim} > "
            f"{DENSE_LIMIT}; dense verification is desk-scale only, use "
            "smaller M (or the ritz_extremes of a solver report)")


def sector_pair(t, eps):
    """Roots of lam^2 + (eps - 1) lam - (eps + t) = 0.

    Generic eigenvalue pair of the implemented pencil (B_D + Q as the Gram
    block) for a projected Schur mode with Rayleigh value t and uniform eps.
    Both roots are decreasing in eps; the negative root is decreasing and the
    positive root increasing in t.  sector_pair(1, r) is the paper's pair
    (mu_check1, mu_check2) at r = eps_s / t, the generic pair of the ideal
    pencil (exact Schur complement as the Gram block); r = 0 gives
    (MU_HAT_1, MU_HAT_2) = ((1 - sqrt 5)/2, (1 + sqrt 5)/2).
    """
    t = np.asarray(t, dtype=float)
    disc = np.sqrt((1.0 - eps) ** 2 + 4.0 * (eps + t))
    return ((1.0 - eps) - disc) / 2.0, ((1.0 - eps) + disc) / 2.0


MU_HAT_1, MU_HAT_2 = map(float, sector_pair(1.0, 0.0))


def in_intervals(eigs, intervals):
    """Per-eigenvalue membership in the union of the closed intervals
    (lo, hi), each widened by INTERVAL_TOL on both sides."""
    inside = np.zeros(np.shape(eigs), dtype=bool)
    for lo, hi in intervals:
        inside |= (eigs >= lo - INTERVAL_TOL) & (eigs <= hi + INTERVAL_TOL)
    return inside


def dense_spectrum(op_mat, gram_mat):
    """Sorted generalized eigenvalues of Op x = mu Gram x, dense and symmetric.

    The Gram factor must be SPD; a failed Cholesky raises
    ContractViolationError.  Above DENSE_LIMIT rows it always refuses from
    the shape, before a sparse input is made dense; there the ritz_extremes
    of a solver report estimate the extreme eigenvalues.
    """
    shape = np.shape(op_mat)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ParameterError(f"operator must be square, got {shape}")
    if shape[0] > DENSE_LIMIT:
        raise ParameterError(
            f"dense spectrum refused at dimension {shape[0]} > {DENSE_LIMIT}; "
            "use the ritz_extremes of a solver report for large instances")
    if np.shape(gram_mat) != shape:
        raise ParameterError(
            f"operator and Gram shapes differ: {shape} vs {np.shape(gram_mat)}")
    op = _symmetric_dense(op_mat, "operator block")
    gram = _symmetric_dense(gram_mat, "Gram block")
    try:
        return sla.eigh(op, gram, eigvals_only=True)
    except sla.LinAlgError as exc:
        if "of B is not positive definite" not in str(exc):     # B = Gram
            raise
        raise ContractViolationError(
            "Gram block is not positive definite") from exc


def _scale(mat):
    s = np.abs(mat).max()
    return s if s > 0.0 else 1.0


def _symmetric_dense(mat, name):
    """The dense form of mat; raises ContractViolationError naming the
    block unless it is symmetric to 1e-10 of its largest entry."""
    mat = mat.toarray() if sp.issparse(mat) else np.asarray(mat, float)
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-10 * _scale(mat)):
        raise ContractViolationError(f"{name} is not symmetric")
    return mat


def schur_complement_dense(A: sp.csr_matrix, blocks: InclusionBlocks) -> np.ndarray:
    """Exact Schur complement S0 = Q + B A^{-1} B^T at eps = 0, dense n x n."""
    N = A.shape[0]
    n = blocks.n
    rhs = np.zeros((N, n))
    rhs[:n] = blocks.B_D.toarray()
    X = ExactAInverse(A).apply(rhs)
    S0 = blocks.q_sparse().toarray() + blocks.B_D @ X[:n]
    return 0.5 * (S0 + S0.T)


def complement_basis(blocks: InclusionBlocks) -> np.ndarray:
    """Orthonormal basis of the (B_D + Q)-orthogonal complement of ker B_D.

    ker B_D is spanned by the per-inclusion constant vectors e_s, and
    (B_D + Q)-orthogonality to e_s reduces to weights . x = 0 blockwise, so a
    per-block Householder complement of the weight vector, kron-extended,
    spans exactly the invariant subspace carrying the generic spectrum.
    """
    ns, m = blocks.ns, blocks.m
    w = blocks.weights / np.linalg.norm(blocks.weights)
    Qf, _ = np.linalg.qr(np.column_stack([w, np.eye(ns)[:, 1:]]))
    loc = Qf[:, 1:]                       # ns x (ns-1), w^T loc = 0
    return sla.block_diag(*[loc] * m)


def measure_a0_b0(layout: InclusionLayout):
    """Extreme eigenvalues (a0, b0) of H_S S0 off the kernel of B_D.

    The kernel contributes an exact eigenvalue-1 cluster (one per inclusion)
    which says nothing about the preconditioner quality; it is removed by
    restricting the pencil (S0, B_D + Q) to the complement basis rather than
    by filtering eigenvectors, because the value 1 is also attained by honest
    interior modes and eigensolvers mix the two subspaces freely inside the
    degenerate cluster.  check_dense_size refuses an oversize instance
    before it is built.
    """
    check_dense_size(layout)
    _, A, blocks, _ = build_problem(layout.mesh, layout)
    return _schur_pencil(A, blocks)[2:]


def _schur_pencil(A: sp.csr_matrix, blocks: InclusionBlocks):
    """Dense S0 and B_D + Q of an instance, then a0 and b0 of their pencil."""
    S0 = schur_complement_dense(A, blocks)
    BDQ = (blocks.B_D + blocks.q_sparse()).toarray()
    # kernel sanity: S0 e_s = (B_D + Q) e_s exactly, so 1 is an eigenvalue
    e0 = np.zeros(blocks.n)
    e0[:blocks.ns] = 1.0
    gap = np.abs(S0 @ e0 - BDQ @ e0).max()
    if gap > 1e-8 * _scale(BDQ):
        raise ContractViolationError(
            f"kernel eigenpair violated by {gap:.2e}; Schur assembly is wrong")
    Z = complement_basis(blocks)
    tvals = dense_spectrum(Z.T @ S0 @ Z, Z.T @ BDQ @ Z)
    return S0, BDQ, float(tvals[0]), float(tvals[-1])


@dataclasses.dataclass
class SpectrumReport:
    """Dense-spectrum verdict for one preconditioned saddle instance."""

    eigenvalues: np.ndarray
    lam_min: float
    lam_max: float
    eps_min: float
    eps_max: float
    a0: float
    b0: float
    r_max: float
    mu_check1: float
    mu_check2: float
    mu_hat1: float
    mu_hat2: float
    # the measured envelope as (lo, hi) intervals: the -1 cluster, the
    # sector swept by the negative generic root and [1, positive sweep top]
    envelope: tuple
    in_stated: np.ndarray       # per-eigenvalue membership, literal interval set
    in_envelope: np.ndarray     # per-eigenvalue membership, measured envelope
    stated_ok: bool
    envelope_ok: bool
    n_minus_one: int
    n_plus_one: int

    def violations(self, which: str = "stated") -> np.ndarray:
        mask = self.in_stated if which == "stated" else self.in_envelope
        return self.eigenvalues[~mask]


def verify_intervals(layout: InclusionLayout, pencil: str = "preconditioner",
                     corrupt_q: bool = False) -> SpectrumReport:
    """Dense spectrum of H A_eps with interval classification.

    The contrast is the eps stored on the layout; an assign_epsilon copy
    of it gives another one.  H_A is the exact A^{-1}, so the A block itself
    is the Gram factor on the A rows (alpha = 1).  Every interval is widened
    by INTERVAL_TOL.  An unknown pencil and an oversize instance are refused
    before anything is built.
    corrupt_q zeroes the rank-one coupling inside the saddle operator, a
    deliberate defect that must land eigenvalues outside both interval sets.
    """
    if pencil not in PENCILS:
        raise ParameterError(f"unknown pencil {pencil!r}")
    check_dense_size(layout)
    _, A, blocks, op = build_problem(layout.mesh, layout)
    N = op.N

    K = op.to_sparse().toarray()
    if corrupt_q:
        K[N:, N:] += blocks.q_sparse().toarray()   # strips -Q from the C block

    gram = np.zeros_like(K)
    gram[:N, :N] = A.toarray()
    S0, BDQ, a0, b0 = _schur_pencil(A, blocks)
    gram[N:, N:] = BDQ if pencil == "preconditioner" else S0

    eigs = dense_spectrum(K, gram)
    eps_min = float(layout.eps.min())
    eps_max = float(layout.eps.max())
    r_max = eps_max / a0
    mc1, mc2 = map(float, sector_pair(1.0, r_max))
    # sector ends from the monotonicity of both roots in (t, eps), with eps
    # at the instance extremes: exact for uniform eps, an extrapolated
    # classification otherwise
    if pencil == "ideal":
        neg, pos_hi = (mc1, MU_HAT_1), MU_HAT_2
    else:
        neg = (sector_pair(b0, eps_max)[0], sector_pair(a0, eps_min)[0])
        pos_hi = sector_pair(b0, eps_min)[1]
    envelope = ((-1.0, -1.0), tuple(map(float, neg)), (1.0, float(pos_hi)))

    in_stated = in_intervals(eigs, ((mc1, MU_HAT_1), (1.0, MU_HAT_2)))
    in_env = in_intervals(eigs, envelope)
    return SpectrumReport(
        eigenvalues=eigs,
        lam_min=float(eigs[0]),
        lam_max=float(eigs[-1]),
        eps_min=eps_min,
        eps_max=eps_max,
        a0=a0,
        b0=b0,
        r_max=r_max,
        mu_check1=mc1,
        mu_check2=mc2,
        mu_hat1=MU_HAT_1,
        mu_hat2=MU_HAT_2,
        envelope=envelope,
        in_stated=in_stated,
        in_envelope=in_env,
        stated_ok=bool(in_stated.all()),
        envelope_ok=bool(in_env.all()),
        n_minus_one=int(in_intervals(eigs, ((-1.0, -1.0),)).sum()),
        n_plus_one=int(in_intervals(eigs, ((1.0, 1.0),)).sum()),
    )
