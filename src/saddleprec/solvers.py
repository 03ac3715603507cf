"""Outer Krylov iterations for the saddle system.

Three methods, all preconditioned by H = diag(H_A, H_S):

  * pu_solve   -- Uzawa: CG on the Schur complement equation S_eps p = g,
                  preconditioned by H_S; one S_eps application (hence one
                  H_A) per iteration.
  * pl_solve   -- three-term Lanczos recurrence on the indefinite saddle
                  system; one saddle apply and one H apply per iteration.
  * pcg_k_solve-- CG on the squared operator K = A_eps H A_eps; two saddle
                  applies and two H applies per iteration.

PU and PCG-K share one CG recurrence on two SPD operators (S_eps with H_S,
K with H).  All four solvers, cg_solve included, stop once the stopping
norm falls to delta times its start value.

Each solver records its stopping-norm history, the operation counts that
make up the cost tables and the Lanczos tridiagonal T_k that its own
recurrence coefficients form (Saad, Iterative Methods for Sparse Linear
Systems, 2nd ed., 6.7.3; Meurant and Strakos, Acta Numerica 2006), whose
extreme eigenvalues estimate those of the preconditioned operator.  For the
homogeneous benchmark runs (F = 0) the stopping norms are exactly the error
norms that the convergence theory bounds (S_eps-norm for PU, K-norm for PL
and PCG), so CG optimality makes the recorded sequences non-increasing.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import scipy.linalg as sla

from .assembly import SaddleOperator
from .mesh import ParameterError
from .precond import (BlockPreconditioner, OpCounter, ReferenceSchurSolver,
                      SolverBreakdownError, pcg_steps)

# relative slack granted to rounding before a "nonnegative" quadratic form
# or a monotone norm sequence is declared broken
NORM_GUARD = 1e-12


class OperatorContractError(RuntimeError):
    """A quadratic form that must be nonnegative came out negative."""


class MaxIterationsError(RuntimeError):
    """Iteration budget exhausted before the stopping test was met."""


def random_guess(size: int, seed: int) -> np.ndarray:
    """Deterministic random initial guess, uniform on [-1, 1]."""
    gen = np.random.Generator(np.random.Philox(seed))
    return gen.uniform(-1.0, 1.0, size)


def _guarded_sqrt(value: float, scale: float, what: str) -> float:
    if value < -NORM_GUARD * max(scale, 1.0):
        raise OperatorContractError(
            f"{what} evaluated to {value:.3e}; the operator lost definiteness")
    return float(np.sqrt(max(value, 0.0)))


@dataclasses.dataclass(eq=False)
class SolverReport:
    method: str
    iterations: int
    converged: bool
    norms: np.ndarray          # stopping-norm history, norms[0] at k=0
    a_applies: int
    ha_applies: int
    wall_time: float
    u: np.ndarray | None = None
    p: np.ndarray | None = None
    stop_rule: str = ""
    # (diagonal, off-diagonal) of the Lanczos tridiagonal T_k of the
    # preconditioned operator: H_S S_eps for PU, H A_eps for PL,
    # (H A_eps)^2 for PCG-K and M A for cg_solve with preconditioner M;
    # NaN off the diagonal where a direction ratio was not positive
    tridiagonal: tuple = (np.empty(0), np.empty(0))

    @property
    def total_applies(self) -> int:
        return self.a_applies + self.ha_applies

    @property
    def final_ratio(self) -> float:
        if self.norms[0] == 0.0:
            return 0.0
        return float(self.norms[-1] / self.norms[0])

    def is_monotone(self, rel_tol: float = NORM_GUARD) -> bool:
        scale = self.norms[0]
        return bool(np.all(np.diff(self.norms) <= rel_tol * max(scale, 1.0)))

    def ritz_extremes(self) -> tuple[float, float]:
        """Smallest and largest eigenvalue of T_k, computed on request.

        In exact arithmetic they lie inside the spectrum of the
        preconditioned operator and approach, from within as the run goes
        on, the extremes of the part of it that the start residual excites;
        the dense spectrum is needed only to check them.  Steps taken after
        the residual reached rounding level (a delta near 1e-15) add noise
        coefficients, which can put values outside the spectrum; a direction
        ratio that is not positive raises ParameterError naming its step.
        """
        diag, off = self.tridiagonal
        if diag.size == 0:
            raise ParameterError(
                f"{self.method} took no Lanczos step; its report has no "
                "Ritz values")
        bad = np.flatnonzero(np.isnan(off))
        if bad.size:
            # off[j] comes from the direction ratio of step j + 2 when T_k
            # has a row per step (PL's last step adds none)
            step = bad[0] + 2 + self.iterations - diag.size
            raise ParameterError(
                f"{self.method} direction ratio of step {step} is not "
                "positive: the run went past the rounding floor")
        theta = sla.eigvalsh_tridiagonal(diag, off)
        return float(theta[0]), float(theta[-1])


class _Run:
    """Clock, operation counter and stopping-norm history of one solve.

    Iterating yields k = 1, 2, ... while the last recorded norm exceeds
    delta times the first, so a zero start takes no step, and raises
    MaxIterationsError once max_iter steps leave it above; report() builds
    the SolverReport of the run.
    """

    def __init__(self, method, stop_rule, delta, max_iter, counter):
        self.t0 = time.perf_counter()
        self.method, self.stop_rule = method, stop_rule
        self.delta, self.max_iter = delta, max_iter
        self.counter = counter if counter is not None else OpCounter()
        self.norms = []
        self.k = 0

    def record(self, form: float) -> None:
        """Append the stopping norm sqrt(form) of a quadratic form that
        rounding may leave slightly negative, relative to the first."""
        scale = self.norms[0] * self.norms[0] if self.norms else 1.0
        self.norms.append(_guarded_sqrt(form, scale, self.stop_rule))

    def __iter__(self):
        while not self.norms[-1] <= self.delta * self.norms[0]:
            if self.k == self.max_iter:
                raise MaxIterationsError(
                    f"{self.method.upper().replace('_', '-')} did not reach "
                    f"{self.delta:g} within {self.max_iter} iterations "
                    f"(ratio {self.norms[-1] / self.norms[0]:.3e})")
            self.k += 1
            yield self.k

    def report(self, u, p, tridiagonal) -> SolverReport:
        return SolverReport(
            method=self.method, iterations=self.k, converged=True,
            norms=np.asarray(self.norms), a_applies=self.counter.a,
            ha_applies=self.counter.ha,
            wall_time=time.perf_counter() - self.t0, u=u, p=p,
            stop_rule=self.stop_rule, tridiagonal=tridiagonal)


def _sqrt_ratios(b):
    """sqrt(b), NaN without a warning where b is not positive."""
    return np.sqrt(b, out=np.full_like(b, np.nan), where=b > 0.0)


def _cg_tridiagonal(coeffs):
    """T_k of a CG run from its (step length, direction ratio) pairs: the
    diagonal 1/a_j + b_j/a_{j-1} and the off-diagonal sqrt(b_j)/a_{j-1},
    where b_j formed the j-th direction (b_1 = 0 is not read)."""
    a, b = np.reshape(coeffs, (-1, 2)).T
    diag = 1.0 / a
    diag[1:] += b[1:] / a[:-1]
    return diag, _sqrt_ratios(b[1:]) / a[:-1]


def _conjugate_cg(run, start, precondition, images, form, breakdown):
    """CG on an SPD operator K with the direction conjugated explicitly,
    alpha = (z . K xi_prev) / (xi_prev . K xi_prev); returns T_k.

    start() builds the state (x, r, ...) with r = K x - b at step 1, so a
    converged start costs nothing; precondition(*state) gives z, images(xi)
    (xi, K xi, ...) that each state entry moves along and form() the
    stopping norm's quadratic form."""
    coeffs = []
    for k in run:
        if k == 1:
            state = start()
            alpha, xi = 0.0, precondition(*state)
        else:
            z = precondition(*state)
            alpha = (z @ kxi) / denom
            xi = z - alpha * xi
        moves = images(xi)
        kxi = moves[1]
        denom = kxi @ xi
        if denom <= 0.0:
            raise SolverBreakdownError(breakdown.format(k=k))
        beta = (state[1] @ xi) / denom
        coeffs.append((beta, -alpha))
        for vec, move in zip(state, moves):
            vec -= beta * move
        run.record(form())
    return _cg_tridiagonal(coeffs)


def _split_rhs(op, F, g_tags):
    """Normalize right-hand side input to (fbar, gbar, g_tags)."""
    if F is None:
        return np.zeros(op.N), np.zeros(op.n), None
    F = np.asarray(F, dtype=float)
    if F.shape != (op.size,):
        raise ParameterError(f"right-hand side must have length {op.size}")
    return F[:op.N], F[op.N:], g_tags


def _gbar_tags(blocks, gbar, g_tags):
    """Tags (a, b) with B_D a + Q b = gbar, or None when gbar vanishes.

    With (B_D + Q) x = gbar, the pair (x, x) tags gbar exactly, so untagged
    constraint data costs one reference solve at setup.
    """
    if not np.any(gbar):
        return None
    if g_tags is None:
        x = ReferenceSchurSolver(blocks).solve(gbar)
        return x, x
    return g_tags


def _schur_pre(op, a_inv, x, counter, fbar=None):
    """B_D tag of S_eps x (its Q tag is x itself), through one H_A call.

    Returns eps x + (H_A ([B_D x; 0] - fbar))|_n; the optional fbar folds
    the B H_A fbar part of the Uzawa right-hand side into the same call.
    """
    top = np.zeros(op.N)
    top[:op.n] = op.blocks.B_D @ x
    if fbar is not None:
        top -= fbar
    w = a_inv.apply(top, counter)
    return op.eps_node * x + w[:op.n]


def pu_solve(op: SaddleOperator, precond: BlockPreconditioner, F=None,
             g_tags=None, p0=None, delta: float = 1e-6, max_iter: int = 1000,
             counter: OpCounter | None = None) -> SolverReport:
    """Preconditioned Uzawa: CG on S_eps p = B H_A fbar - gbar.

    S_eps = Sig B_D + Q + B A^{-1} B^T is applied through one H_A call per
    iteration; H_S applications ride on the residual tags.  The homogeneous
    benchmark (F = 0) stops on the S_eps-norm of the iterate, which equals
    the error norm; otherwise the H_S-weighted residual norm is used.
    """
    fbar, gbar, g_tags = _split_rhs(op, F, g_tags)
    homogeneous = not (np.any(fbar) or np.any(gbar))
    run = _Run("pu", "iterate-S-norm" if homogeneous
               else "preconditioned-residual", delta, max_iter, counter)
    counter = run.counter
    blocks = op.blocks
    p = np.zeros(op.n) if p0 is None else np.asarray(p0, dtype=float).copy()

    # r0 = S_eps p0 - (B H_A fbar - gbar) with tags r = B_D u_pre + Q q_pre
    # carried along the whole iteration
    u_pre = _schur_pre(op, precond.a_inv, p, counter, fbar)
    q_pre = p.copy()
    g = _gbar_tags(blocks, gbar, g_tags)
    if g is not None:
        u_pre, q_pre = u_pre + g[0], q_pre + g[1]
    r = blocks.from_tags(u_pre, q_pre)
    z = None        # H_S r of the last stopping norm, when it took one

    def form():
        nonlocal z
        if homogeneous:
            return r @ p
        z = precond.schur.apply_tagged(u_pre, q_pre)
        return r @ z

    def images(xi):
        # S_eps xi with tags (s_u_pre, xi)
        s_u_pre = _schur_pre(op, precond.a_inv, xi, counter)
        return xi, blocks.from_tags(s_u_pre, xi), s_u_pre, xi

    run.record(form())
    tridiagonal = _conjugate_cg(
        run, lambda: (p, r, u_pre, q_pre),
        lambda p, r, u_pre, q_pre: (precond.schur.apply_tagged(u_pre, q_pre)
                                    if z is None else z),
        images, form, "Uzawa direction lost S-positivity at iteration {k}")
    u = fbar.copy()
    u[:op.n] -= blocks.B_D @ p
    return run.report(precond.a_inv.apply(u, counter), p, tridiagonal)


def _saddle_start(op, precond, F, g_tags, z0, run):
    """Shared PL/PCG-K start: z0, rho = A_eps z0 - F and v = H rho, and the
    initial K-norm.  The lower block of rho is tagged by the source tags of
    z0 minus the tags of the constraint data gbar."""
    z = (np.zeros(op.size) if z0 is None
         else np.asarray(z0, dtype=float).copy())
    fbar, gbar, g_tags = _split_rhs(op, F, g_tags)
    rho = op.apply(z, run.counter)
    rho[:op.N] -= fbar
    rho[op.N:] -= gbar
    bd0, q0 = op.source_tags(z)
    g = _gbar_tags(op.blocks, gbar, g_tags)
    if g is not None:
        bd0, q0 = bd0 - g[0], q0 - g[1]
    v = precond.apply_to_image(rho, bd0, q0, run.counter)
    run.record(rho @ v)
    return z, rho, v


def pl_solve(op: SaddleOperator, precond: BlockPreconditioner, F=None,
             g_tags=None, z0=None, delta: float = 1e-6, max_iter: int = 2000,
             counter: OpCounter | None = None) -> SolverReport:
    """Preconditioned Lanczos on the indefinite saddle system.

    Three-term recurrence with exact coefficient formulas; the products
    t_k = A_eps xi_k are advanced by the same recurrence so each iteration
    costs one saddle apply (for w = A_eps u_{k-1}) and one H apply.
    Stopping norm: H-weighted residual, which equals the K-norm of the error.
    """
    run = _Run("pl", "K-norm", delta, max_iter, counter)
    z, rho, v = _saddle_start(op, precond, F, g_tags, z0, run)
    # T_{k-1} has diagonal alpha_j and off-diagonal sqrt(gamma_j): the
    # vectors xi_j are K-orthogonal with |xi_j|_K^2 / |xi_{j-1}|_K^2 = gamma_j
    alphas, gammas = [], []
    for k in run:
        if k == 1:
            xi = v.copy()
            t = op.apply(xi, run.counter)
        else:
            w = op.apply(u, run.counter)
            alpha = (w @ u) / tu
            alphas.append(alpha)
            xi_next = u - alpha * xi
            t_next = w - alpha * t
            if k >= 3:
                gamma = (w @ u_prev) / tu_prev
                gammas.append(gamma)
                xi_next -= gamma * xi_prev
                t_next -= gamma * t_prev
            xi_prev, xi = xi, xi_next
            t_prev, t = t, t_next
            u_prev, tu_prev = u, tu
        u = precond.apply_to_image(t, *op.source_tags(xi), run.counter)
        tu = t @ u
        if tu <= 0.0:
            raise SolverBreakdownError(
                f"Lanczos direction lost K-positivity at iteration {k}")
        beta = (rho @ u) / tu
        z -= beta * xi
        rho -= beta * t
        v -= beta * u
        run.record(rho @ v)
    return run.report(z[:op.N], z[op.N:],
                      (np.array(alphas), _sqrt_ratios(np.array(gammas))))


def pcg_k_solve(op: SaddleOperator, precond: BlockPreconditioner, F=None,
                g_tags=None, z0=None, delta: float = 1e-6,
                max_iter: int = 2000,
                counter: OpCounter | None = None) -> SolverReport:
    """CG on the squared operator K = A_eps H A_eps, right side A_eps H F.

    The saddle residual rho = A_eps z - F and its preconditioned image
    v = H rho ride along the recurrences, so the K-norm of the error,
    sqrt(rho . v), is available at no extra cost and decreases monotonically
    by CG optimality.
    """
    run = _Run("pcg_k", "K-norm", delta, max_iter, counter)
    z, rho, v = _saddle_start(op, precond, F, g_tags, z0, run)

    def images(xi):
        # K xi = A_eps s with s = H A_eps xi; rho and v move along t and s
        t = op.apply(xi, run.counter)
        s = precond.apply_to_image(t, *op.source_tags(xi), run.counter)
        return xi, op.apply(s, run.counter), t, s

    # the residual of the squared system rK = K z - G = A_eps v
    tridiagonal = _conjugate_cg(
        run, lambda: (z, op.apply(v, run.counter), rho, v),
        lambda z, rK, rho, v: precond.apply_to_image(
            rK, *op.source_tags(v), run.counter),
        images, lambda: rho @ v,
        "PCG direction lost K-positivity at iteration {k}")
    return run.report(z[:op.N], z[op.N:], tridiagonal)


def cg_solve(A, b, precond=None, x0=None, delta: float = 1e-6,
             max_iter: int = 5000,
             counter: OpCounter | None = None) -> SolverReport:
    """Plain (optionally preconditioned) CG on the SPD stiffness block.

    Homogeneous systems (b = 0) stop on the A-norm of the iterate, which is
    the error norm; otherwise on the 2-norm of the residual relative to b.
    """
    b = np.zeros(A.shape[0]) if b is None else np.asarray(b, dtype=float)
    homogeneous = not np.any(b)
    run = _Run("cg", "iterate-A-norm" if homogeneous else "residual-2-norm",
               delta, max_iter, counter)
    x = (np.zeros(A.shape[0]) if x0 is None
         else np.asarray(x0, dtype=float).copy())
    r = b - A @ x
    run.counter.a += 1

    record = ((lambda: run.record(-(x @ r))) if homogeneous
              else lambda: run.norms.append(float(np.linalg.norm(r))))
    record()
    steps = pcg_steps(A, x, r, (lambda r: r) if precond is None else precond,
                      "CG direction lost A-positivity at iteration {k}",
                      run.counter)
    coeffs = []
    for _ in run:
        _, step, ratio = next(steps)
        coeffs.append((step, ratio))
        record()
    return run.report(x, None, _cg_tridiagonal(coeffs))


def evaluate_norm(kind: str, vec: np.ndarray, A=None,
                  op: SaddleOperator | None = None,
                  precond: BlockPreconditioner | None = None,
                  counter: OpCounter | None = None) -> float:
    """Elliptic norms used by the stopping criteria.

    kind 'A': sqrt(v . A v) for v on the interior nodes.
    kind 'S': sqrt(p . S_eps p) for p on the inclusion nodes (uses the H_A
              of `precond`, exact in verification runs).
    kind 'K': sqrt((A_eps v) . H (A_eps v)) for a full saddle vector.
    """
    counter = counter if counter is not None else OpCounter()
    v = np.asarray(vec, dtype=float)
    if kind == "A":
        if A is None:
            raise ParameterError("kind 'A' needs the stiffness matrix")
        return _guarded_sqrt(v @ (A @ v), v @ v, "A-norm")
    if kind in ("S", "K") and (op is None or precond is None):
        raise ParameterError(f"kind {kind!r} needs the saddle operator and "
                             "preconditioner")
    if kind == "S":
        s = op.blocks.from_tags(_schur_pre(op, precond.a_inv, v, counter), v)
        return _guarded_sqrt(v @ s, v @ v, "S-norm")
    if kind == "K":
        img = op.apply(v, counter)
        hv = precond.apply_to_image(img, *op.source_tags(v), counter)
        return _guarded_sqrt(img @ hv, v @ v, "K-norm")
    raise ParameterError(f"unknown norm kind {kind!r}")
