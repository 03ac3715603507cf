"""Outer Krylov iterations for the saddle system.

Three methods, all preconditioned by H = diag(H_A, H_S):

  * pu_solve   -- Uzawa: CG on the Schur complement equation S_eps p = g,
                  preconditioned by H_S; one S_eps application (hence one
                  H_A) per iteration.
  * pl_solve   -- three-term Lanczos recurrence on the indefinite saddle
                  system; one saddle apply and one H apply per iteration.
  * pcg_k_solve-- CG on the squared operator K = A_eps H A_eps; two saddle
                  applies and two H applies per iteration.

PU, PCG-K and cg_solve share one CG recurrence with explicit conjugation
on three SPD operators (S_eps with H_S, K with H, A with its optional
preconditioner).  All four solvers stop once the stopping norm falls to
delta times its start value.

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

import numpy as np
import scipy.linalg as sla

from .assembly import SaddleOperator
from .mesh import ParameterError, first_non_number, real_number, whole_number
from .precond import BlockPreconditioner, OpCounter, SolverBreakdownError

# relative slack granted to rounding before a "nonnegative" quadratic form
# or a monotone norm sequence is declared broken
NORM_GUARD = 1e-12


class OperatorContractError(RuntimeError):
    """A quadratic form that must be nonnegative came out negative."""


class MaxIterationsError(RuntimeError):
    """Iteration budget exhausted before the stopping test was met."""


def random_guess(size: int, seed: int) -> np.ndarray:
    """Deterministic random initial guess, uniform on [-1, 1]; size and
    seed must be whole numbers >= 0."""
    if not whole_number(size) or size < 0:
        raise ParameterError(
            f"random_guess size must be a whole number >= 0, got {size!r}")
    if not whole_number(seed) or seed < 0:
        raise ParameterError(
            f"random_guess seed must be a whole number >= 0, got {seed!r}")
    gen = np.random.Generator(np.random.Philox(seed))
    return gen.uniform(-1.0, 1.0, size)


@dataclasses.dataclass(eq=False)
class SolverReport:
    method: str
    iterations: int
    converged: bool
    norms: np.ndarray          # stopping-norm history, norms[0] at k=0
    a_applies: int
    ha_applies: int
    u: np.ndarray
    p: np.ndarray | None       # None for cg_solve
    stop_rule: str
    # (diagonal, off-diagonal) of the Lanczos tridiagonal T_k of the
    # preconditioned operator: H_S S_eps for PU, H A_eps for PL,
    # (H A_eps)^2 for PCG-K and M A for cg_solve with preconditioner M;
    # NaN off the diagonal where a direction ratio was not positive
    tridiagonal: tuple

    @property
    def total_applies(self) -> int:
        return self.a_applies + self.ha_applies

    @property
    def final_ratio(self) -> float:
        if self.norms[0] == 0.0:
            return 0.0
        return float(self.norms[-1] / self.norms[0])

    def is_monotone(self) -> bool:
        """No norm rises by more than NORM_GUARD times max(norms[0], 1)."""
        scale = self.norms[0]
        return bool(np.all(np.diff(self.norms)
                           <= NORM_GUARD * max(scale, 1.0)))

    def ritz_extremes(self) -> tuple[float, float]:
        """Smallest and largest eigenvalue of T_k, computed on request.

        In exact arithmetic they lie inside the spectrum of the
        preconditioned operator and approach, from within as the run goes
        on, the extremes of the part of it that the start residual excites;
        the dense spectrum is needed only to check them.  Steps taken after
        the residual reached rounding level (a delta near 1e-15) add noise
        coefficients, which can put values outside the spectrum; a direction
        ratio that is not positive raises ParameterError naming its step.  A
        run that leaves T_k without a row raises it with the number of steps
        taken: PL's T_k gets its first row at step 2.
        """
        diag, off = self.tridiagonal
        if diag.size == 0 and self.iterations:
            raise ParameterError(
                f"{self.method} took {self.iterations} Lanczos step; it needs "
                "two, as its T_k gets its first row at step 2")
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
    """Operation counter and stopping-norm history of one solve.

    Iterating yields k = 1, 2, ... while the last recorded norm exceeds
    delta times the first, so a zero start takes no step, and raises
    MaxIterationsError once max_iter steps leave it above; report() builds
    the SolverReport of the run.  delta must be a real number in (0, 1) and
    max_iter a whole number >= 0, neither a boolean; anything else raises
    ParameterError before the solver applies an operator.
    """

    def __init__(self, method, stop_rule, delta, max_iter, counter):
        if not real_number(delta) or not 0.0 < delta < 1.0:
            raise ParameterError(
                f"{method} delta must be a real number in (0, 1), got {delta!r}")
        if not whole_number(max_iter) or max_iter < 0:
            raise ParameterError(f"{method} max_iter must be a whole number "
                                 f">= 0, got {max_iter!r}")
        self.method, self.stop_rule = method, stop_rule
        self.delta, self.max_iter = delta, max_iter
        self.counter = counter if counter is not None else OpCounter()
        self.norms = []
        self.k = 0

    def record(self, form: float) -> None:
        """Append the stopping norm sqrt(form) of a quadratic form that
        rounding may leave slightly negative, relative to the first."""
        scale = self.norms[0] * self.norms[0] if self.norms else 1.0
        if form < -NORM_GUARD * max(scale, 1.0):
            raise OperatorContractError(
                f"{self.stop_rule} evaluated to {form:.3e}; the operator "
                "lost definiteness")
        self.norms.append(float(np.sqrt(max(form, 0.0))))

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
            ha_applies=self.counter.ha, u=u, p=p,
            stop_rule=self.stop_rule, tridiagonal=tridiagonal)


def _sqrt_ratios(b):
    """sqrt(b), NaN without a warning where b is not positive."""
    return np.sqrt(b, out=np.full_like(b, np.nan), where=b > 0.0)


def _conjugate_cg(run, start, precondition, images, form, breakdown):
    """CG on an SPD operator K with the direction conjugated explicitly,
    alpha = (z . K xi_prev) / (xi_prev . K xi_prev).

    start() builds the state (x, r, ...) with r = K x - b at step 1, so a
    converged start costs nothing; precondition(*state) gives z, images(xi)
    (xi, K xi, ...) that each state entry moves along and form() the
    stopping norm's quadratic form.  Returns T_k from the step lengths a_j
    and direction ratios b_j (b_j formed the j-th direction): the diagonal
    1/a_j + b_j/a_{j-1} and the off-diagonal sqrt(b_j)/a_{j-1}."""
    coeffs = []
    for k in run:
        if k == 1:
            state = start()
            alpha, xi = 0.0, precondition(*state)
        else:
            z = precondition(*state)
            alpha = (z @ kxi) / denom
            xi = alpha * xi
            np.subtract(z, xi, out=xi)
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
    a, b = np.reshape(coeffs, (-1, 2)).T
    diag = 1.0 / a
    diag[1:] += b[1:] / a[:-1]
    return diag, _sqrt_ratios(b[1:]) / a[:-1]


def _input_vector(name, v, size):
    """A float copy of the solver input v, or zeros when v is None; raises
    ParameterError naming it unless it holds real numbers (a float cast
    misreads complex, boolean and string ones) of shape (size,), all finite:
    a NaN or inf would run the whole iteration budget."""
    if v is None:
        return np.zeros(size)
    bad = first_non_number(v)
    if bad is not None:
        raise ParameterError(f"{name}{[int(i) for i in bad[0]]} is "
                             f"{bad[1]!r}; solver input must be real numbers")
    v = np.array(v, dtype=float)
    if v.shape != (size,):
        raise ParameterError(
            f"{name} has shape {v.shape}; the system needs ({size},)")
    finite = np.isfinite(v)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ParameterError(f"{name}[{i}] is {v[i]}; solver input must be "
                             "finite")
    return v


def _load_block(op, F):
    """The upper block f of the right-hand side F = (f, 0), zeros when F is
    None.  The constraint row carries no data: a nonzero entry in the lower
    block raises ParameterError naming its index."""
    F = _input_vector("F", F, op.size)
    lower = np.flatnonzero(F[op.N:])
    if lower.size:
        i = op.N + int(lower[0])
        raise ParameterError(
            f"F[{i}] is {F[i]}; the lower block of F must be zero")
    return F[:op.N]


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
    out = op.eps_node * x
    out += w[:op.n]
    return out


def pu_solve(op: SaddleOperator, precond: BlockPreconditioner, F=None,
             p0=None, delta: float = 1e-6, max_iter: int = 1000,
             counter: OpCounter | None = None) -> SolverReport:
    """Preconditioned Uzawa: CG on S_eps p = B H_A f for F = (f, 0).

    S_eps = Sig B_D + Q + B A^{-1} B^T is applied through one H_A call per
    iteration; H_S applications ride on the residual tags.  The homogeneous
    benchmark (F = 0) stops on the S_eps-norm of the iterate, which equals
    the error norm; otherwise the H_S-weighted residual norm is used.
    """
    fbar = _load_block(op, F)
    homogeneous = not np.any(fbar)
    run = _Run("pu", "iterate-S-norm" if homogeneous
               else "preconditioned-residual", delta, max_iter, counter)
    counter = run.counter
    blocks = op.blocks
    p = _input_vector("p0", p0, op.n)

    # r0 = S_eps p0 - B H_A fbar with tags r = B_D u_pre + Q q_pre carried
    # along the whole iteration
    u_pre = _schur_pre(op, precond.a_inv, p, counter, fbar)
    q_pre = p.copy()
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


def _saddle_start(op, precond, F, z0, run):
    """Shared PL/PCG-K start: z0, rho = A_eps z0 - (f, 0) and v = H rho, and
    the initial K-norm.  The lower block of rho is that of A_eps z0, so the
    source tags of z0 tag it."""
    z = _input_vector("z0", z0, op.size)
    fbar = _load_block(op, F)
    rho = op.apply(z, run.counter)
    rho[:op.N] -= fbar
    v = precond.apply_to_image(rho, *op.source_tags(z), run.counter)
    run.record(rho @ v)
    return z, rho, v


def _three_term(head, alpha, cur, gamma, prev):
    """head - alpha cur - gamma prev, rounded as written, with each
    operation written into one of its operands: the new product alpha cur,
    then prev, which the caller gives up.  prev is None at the first step,
    which has no gamma term."""
    out = alpha * cur
    np.subtract(head, out, out=out)
    if prev is None:
        return out
    prev *= gamma
    return np.subtract(out, prev, out=prev)


def pl_solve(op: SaddleOperator, precond: BlockPreconditioner, F=None,
             z0=None, delta: float = 1e-6, max_iter: int = 2000,
             counter: OpCounter | None = None) -> SolverReport:
    """Preconditioned Lanczos on the indefinite saddle system.

    Three-term recurrence with exact coefficient formulas; the products
    t_k = A_eps xi_k are advanced by the same recurrence so each iteration
    costs one saddle apply (for w = A_eps u_{k-1}) and one H apply.
    Stopping norm: H-weighted residual, which equals the K-norm of the error.
    """
    run = _Run("pl", "K-norm", delta, max_iter, counter)
    z, rho, v = _saddle_start(op, precond, F, z0, run)
    # T_{k-1} has diagonal alpha_j and off-diagonal sqrt(gamma_j): the
    # vectors xi_j are K-orthogonal with |xi_j|_K^2 / |xi_{j-1}|_K^2 = gamma_j
    alphas, gammas = [], []
    xi_prev = t_prev = gamma = None
    for k in run:
        if k == 1:
            xi = v.copy()
            t = op.apply(xi, run.counter)
        else:
            w = op.apply(u, run.counter)
            alpha = (w @ u) / tu
            alphas.append(alpha)
            if k >= 3:
                gamma = (w @ u_prev) / tu_prev
                gammas.append(gamma)
            xi_prev, xi = xi, _three_term(u, alpha, xi, gamma, xi_prev)
            t_prev, t = t, _three_term(w, alpha, t, gamma, t_prev)
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
                z0=None, delta: float = 1e-6, max_iter: int = 2000,
                counter: OpCounter | None = None) -> SolverReport:
    """CG on the squared operator K = A_eps H A_eps, right side A_eps H F.

    The saddle residual rho = A_eps z - F and its preconditioned image
    v = H rho ride along the recurrences, so the K-norm of the error,
    sqrt(rho . v), is available at no extra cost and decreases monotonically
    by CG optimality.
    """
    run = _Run("pcg_k", "K-norm", delta, max_iter, counter)
    z, rho, v = _saddle_start(op, precond, F, z0, run)

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
    """Plain (optionally preconditioned) CG on the SPD stiffness block;
    precond(r) must return a new array, not r itself.

    Homogeneous systems (b = 0) stop on the A-norm of the iterate, which is
    the error norm; otherwise on the 2-norm of the residual relative to b.
    """
    b = _input_vector("b", b, A.shape[0])
    homogeneous = not np.any(b)
    run = _Run("cg", "iterate-A-norm" if homogeneous else "residual-2-norm",
               delta, max_iter, counter)
    x = _input_vector("x0", x0, A.shape[0])
    r = A @ x - b
    run.counter.a += 1

    def images(xi):
        run.counter.a += 1
        return xi, A @ xi

    # x . Ax of a homogeneous run, |r|^2 otherwise
    form = (lambda: x @ r) if homogeneous else lambda: r @ r
    run.record(form())
    # the direction must be a fresh array: r moves along A xi in place
    tridiagonal = _conjugate_cg(
        run, lambda: (x, r),
        lambda x, r: r.copy() if precond is None else precond(r),
        images, form, "CG direction lost A-positivity at iteration {k}")
    return run.report(x, None, tridiagonal)
