import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from saddleprec import (
    pu_solve, pl_solve, pcg_k_solve, cg_solve, evaluate_norm, random_guess,
    assemble_load, build_block_preconditioner, ReferenceSchurSolver,
    MaxIterationsError, OperatorContractError, ParameterError, OpCounter,
    SolverBreakdownError,
)

from saddle_problems import make_problem, make_exact_precond


def _load_rhs(prob, value=1.0):
    F = np.zeros(prob.op.size)
    F[:prob.op.N] = assemble_load(prob.mesh, value, prob.ordering)
    return F


def _dense_saddle_solution(prob, F):
    return np.linalg.solve(prob.op.to_sparse().toarray(), F)


def _dense_schur(prob):
    """S_eps and the reduced right-hand side for F = (fbar, 0)."""
    A = prob.A.toarray()
    blocks = prob.blocks
    n, N = prob.op.n, prob.op.N
    B = np.zeros((n, N))
    B[:, :n] = blocks.B_D.toarray()
    Sig = np.diag(prob.op.eps_node)
    S = Sig @ blocks.B_D.toarray() + blocks.q_sparse().toarray() \
        + B @ np.linalg.solve(A, B.T)
    return S, B, A


# ---------------------------------------------------------------------------
# preconditioned Uzawa


def test_pu_homogeneous_drives_iterate_to_zero(prob16):
    pre = make_exact_precond(prob16)
    p0 = random_guess(prob16.op.n, 101)
    rep = pu_solve(prob16.op, pre, p0=p0, delta=1e-6)
    assert rep.converged and rep.stop_rule == "iterate-S-norm"
    assert rep.is_monotone()
    # the stopping norm is the S_eps-norm of the iterate itself
    s_norm = evaluate_norm("S", rep.p, op=prob16.op, precond=pre)
    np.testing.assert_allclose(s_norm, rep.norms[-1], rtol=1e-8, atol=1e-12)
    assert rep.norms[-1] <= 1e-6 * rep.norms[0]


def test_pu_matches_dense_schur_solve(prob8):
    pre = make_exact_precond(prob8)
    F = _load_rhs(prob8)
    S, B, A = _dense_schur(prob8)
    p_star = np.linalg.solve(S, B @ np.linalg.solve(A, F[:prob8.op.N]))
    rep = pu_solve(prob8.op, pre, F=F, delta=1e-10)
    assert rep.converged and rep.stop_rule == "preconditioned-residual"
    np.testing.assert_allclose(rep.p, p_star, atol=1e-8 * np.abs(p_star).max())
    # recovered interior solution satisfies A u = fbar - B^T p
    resid = A @ rep.u - (F[:prob8.op.N]
                         - np.concatenate([prob8.blocks.B_D.toarray() @ rep.p,
                                           np.zeros(prob8.op.N - prob8.op.n)]))
    assert np.abs(resid).max() <= 1e-10


def test_pu_solution_solves_reduced_system(tiny_problem):
    pre = make_exact_precond(tiny_problem)
    F = _load_rhs(tiny_problem)
    rep = pu_solve(tiny_problem.op, pre, F=F, delta=1e-12)
    S, B, A = _dense_schur(tiny_problem)
    rhs = B @ np.linalg.solve(A, F[:tiny_problem.op.N])
    assert np.abs(S @ rep.p - rhs).max() <= 1e-10


def test_pu_operation_accounting(prob16):
    pre = make_exact_precond(prob16)
    rep = pu_solve(prob16.op, pre, p0=random_guess(prob16.op.n, 101),
                   delta=1e-6)
    # setup H_A + one per iteration + one recovery solve; no raw A applies
    assert rep.ha_applies == rep.iterations + 2
    assert rep.a_applies == 0


@pytest.mark.parametrize("rhs", ["load", "homogeneous"])
def test_pu_applies_h_s_once_per_step(prob16, monkeypatch, rhs):
    # a nonzero right-hand side takes one more for the start's stopping norm
    # and hands each stopping norm's H_S r on to the next direction
    pre = make_exact_precond(prob16)
    calls = []
    tagged = pre.schur.apply_tagged
    monkeypatch.setattr(pre.schur, "apply_tagged",
                        lambda *tags: calls.append(1) or tagged(*tags))
    if rhs == "load":
        rep = pu_solve(prob16.op, pre, F=_load_rhs(prob16))
    else:
        rep = pu_solve(prob16.op, pre, p0=random_guess(prob16.op.n, 101))
    assert rep.iterations > 5
    assert len(calls) == rep.iterations + (rhs == "load")


def test_pu_iteration_count_is_contrast_robust():
    # frozen counts: 11 iterations at every contrast on the periodic layout
    for eps in (1e-2, 1e-4, 1e-6):
        prob = make_problem(16, 2, eps=eps)
        rep = pu_solve(prob.op, make_exact_precond(prob),
                       p0=random_guess(prob.op.n, 101), delta=1e-6)
        assert rep.converged
        assert abs(rep.iterations - 11) <= 2


def test_pu_max_iteration_error(prob8):
    pre = make_exact_precond(prob8)
    with pytest.raises(MaxIterationsError):
        pu_solve(prob8.op, pre, p0=random_guess(prob8.op.n, 7), delta=1e-10,
                 max_iter=2)


# ---------------------------------------------------------------------------
# preconditioned Lanczos


def test_pl_matches_dense_saddle_solve(prob8):
    pre = make_exact_precond(prob8)
    F = _load_rhs(prob8)
    z_star = _dense_saddle_solution(prob8, F)
    rep = pl_solve(prob8.op, pre, F=F, delta=1e-10)
    assert rep.converged
    z = np.concatenate([rep.u, rep.p])
    assert np.abs(z - z_star).max() <= 1e-8 * np.abs(z_star).max()


def test_pl_homogeneous_monotone_k_norm(prob16):
    pre = make_exact_precond(prob16)
    rep = pl_solve(prob16.op, pre, z0=random_guess(prob16.op.size, 101),
                   delta=1e-6)
    assert rep.converged and rep.stop_rule == "K-norm"
    assert 20 <= rep.iterations <= 26     # frozen 22-23 at M=16
    assert rep.is_monotone()


def test_pl_operation_accounting(prob16):
    pre = make_exact_precond(prob16)
    rep = pl_solve(prob16.op, pre, z0=random_guess(prob16.op.size, 101),
                   delta=1e-6)
    assert rep.a_applies == rep.iterations + 1
    assert rep.ha_applies == rep.iterations + 1


# ---------------------------------------------------------------------------
# PCG on the squared operator


def test_k_operator_is_symmetric(prob8):
    pre = make_exact_precond(prob8)
    op = prob8.op

    def apply_k(x):
        y = op.apply(x)
        v = pre.apply_to_image(y, *op.source_tags(x))
        return op.apply(v)

    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.standard_normal(op.size)
        y = rng.standard_normal(op.size)
        kx, ky = apply_k(x), apply_k(y)
        scale = max(abs(kx @ y), 1.0)
        assert abs(kx @ y - x @ ky) <= 1e-12 * scale
        # K is positive definite although A_eps is indefinite
        assert x @ apply_k(x) > 0


def test_pcg_k_matches_dense_saddle_solve(prob8):
    pre = make_exact_precond(prob8)
    F = _load_rhs(prob8)
    z_star = _dense_saddle_solution(prob8, F)
    rep = pcg_k_solve(prob8.op, pre, F=F, delta=1e-10)
    assert rep.converged
    z = np.concatenate([rep.u, rep.p])
    assert np.abs(z - z_star).max() <= 1e-8 * np.abs(z_star).max()


def test_pl_and_pcg_k_agree(prob16):
    pre = make_exact_precond(prob16)
    F = _load_rhs(prob16)
    z_pl = pl_solve(prob16.op, pre, F=F, delta=1e-10)
    z_k = pcg_k_solve(prob16.op, pre, F=F, delta=1e-10)
    u_scale = np.abs(z_pl.u).max()
    assert np.abs(z_pl.u - z_k.u).max() <= 1e-7 * u_scale
    assert np.abs(z_pl.p - z_k.p).max() <= 1e-7 * max(np.abs(z_pl.p).max(), 1e-30)


def test_pcg_k_homogeneous_monotone(prob16):
    pre = make_exact_precond(prob16)
    rep = pcg_k_solve(prob16.op, pre, z0=random_guess(prob16.op.size, 101),
                      delta=1e-6)
    assert rep.converged and rep.stop_rule == "K-norm"
    assert 31 <= rep.iterations <= 39     # frozen 34-35 at M=16
    assert rep.is_monotone()


def test_pcg_k_operation_accounting(prob16):
    pre = make_exact_precond(prob16)
    rep = pcg_k_solve(prob16.op, pre, z0=random_guess(prob16.op.size, 101),
                      delta=1e-6)
    # setup: two applies and two H; per iteration: two applies, one H_S+H_A
    # pair for the direction and one for the next preconditioned residual
    assert rep.a_applies == 2 * rep.iterations + 2
    assert rep.ha_applies == 2 * rep.iterations + 1


def test_solver_iteration_ordering(prob16):
    # PU converges in the fewest iterations, PCG-K needs the most
    pre = make_exact_precond(prob16)
    rpu = pu_solve(prob16.op, pre, p0=random_guess(prob16.op.n, 101),
                   delta=1e-6)
    rpl = pl_solve(prob16.op, pre, z0=random_guess(prob16.op.size, 101),
                   delta=1e-6)
    rk = pcg_k_solve(prob16.op, pre, z0=random_guess(prob16.op.size, 101),
                     delta=1e-6)
    assert rpu.iterations < rpl.iterations < rk.iterations


# ---------------------------------------------------------------------------
# inner CG and norm evaluation helpers


def test_cg_exact_preconditioner_converges_in_one_step(prob8):
    import scipy.sparse.linalg as spla
    lu = spla.splu(prob8.A.tocsc())
    b = np.ones(prob8.A.shape[0])
    rep = cg_solve(prob8.A, b, precond=lu.solve, delta=1e-12)
    assert rep.iterations == 1


def test_cg_tolerance_ordering(prob16):
    b = np.ones(prob16.A.shape[0])
    loose = cg_solve(prob16.A, b, delta=1e-2)
    tight = cg_solve(prob16.A, b, delta=1e-8)
    assert loose.iterations < tight.iterations
    assert tight.norms[-1] <= 1e-8 * tight.norms[0]


def test_cg_matches_dense_solve(prob8):
    b = random_guess(prob8.A.shape[0], 3)
    x_star = np.linalg.solve(prob8.A.toarray(), b)
    rep = cg_solve(prob8.A, b, delta=1e-12)
    a_err = evaluate_norm("A", rep.u - x_star, A=prob8.A)
    a_sol = evaluate_norm("A", x_star, A=prob8.A)
    assert a_err <= 1e-9 * a_sol


def test_cg_homogeneous_stop_rule(prob8):
    rep = cg_solve(prob8.A, None, x0=random_guess(prob8.A.shape[0], 2),
                   delta=1e-8)
    assert rep.stop_rule == "iterate-A-norm"
    assert rep.converged and rep.is_monotone()


def test_cg_breakdown_on_negative_definite_matrix(prob8):
    with pytest.raises(SolverBreakdownError,
                       match="CG direction lost A-positivity at iteration 1$"):
        cg_solve(-prob8.A, np.ones(prob8.A.shape[0]))


def test_evaluate_norm_basics(prob8):
    pre = make_exact_precond(prob8)
    assert evaluate_norm("A", np.zeros(prob8.A.shape[0]), A=prob8.A) == 0.0
    from saddleprec import build_mesh, assemble_stiffness
    A2 = assemble_stiffness(build_mesh(2))
    np.testing.assert_allclose(evaluate_norm("A", np.ones(1), A=A2), 2.0)
    with pytest.raises(ParameterError):
        evaluate_norm("A", np.ones(1))
    with pytest.raises(ParameterError):
        evaluate_norm("Z", np.ones(1), A=A2)


def test_evaluate_norm_k_consistency(prob8):
    pre = make_exact_precond(prob8)
    op = prob8.op
    z = random_guess(op.size, 13)
    rho = op.apply(z)
    v = pre.apply_to_image(rho, *op.source_tags(z))
    direct = np.sqrt(rho @ v)
    np.testing.assert_allclose(
        evaluate_norm("K", z, op=op, precond=pre), direct, rtol=1e-12)


def test_random_guess_reproducible():
    a = random_guess(50, 42)
    b = random_guess(50, 42)
    c = random_guess(50, 43)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a).max() <= 1.0
    assert not np.array_equal(a, c)


def test_rhs_length_validation(prob8):
    pre = make_exact_precond(prob8)
    with pytest.raises(ParameterError):
        pl_solve(prob8.op, pre, F=np.ones(3))


# ---------------------------------------------------------------------------
# inhomogeneous constraint data (nonzero lower block of F)


@pytest.mark.parametrize("tagged", [False, True], ids=["untagged", "tagged"])
@pytest.mark.parametrize("solver", [pu_solve, pl_solve, pcg_k_solve],
                         ids=["pu", "pl", "pcgk"])
def test_full_rhs_with_constraint_data_matches_sparse_solve(prob16, solver,
                                                            tagged):
    op = prob16.op
    pre = make_exact_precond(prob16)
    F = np.random.default_rng(29).standard_normal(op.size)
    g_tags = None
    if tagged:
        # (B_D + Q) x = gbar makes (x, x) an exact tag pair for gbar
        x = ReferenceSchurSolver(prob16.blocks).solve(F[op.N:])
        g_tags = (x, x)
    rep = solver(op, pre, F=F, g_tags=g_tags, delta=1e-12)
    assert rep.converged
    z = np.concatenate([rep.u, rep.p])
    z_star = spla.spsolve(op.to_sparse().tocsc(), F)
    assert np.linalg.norm(z - z_star) <= 1e-11 * np.linalg.norm(z_star)


# ---------------------------------------------------------------------------
# the stopping rule all four solvers share


def _solve(method, prob, exact, **kwargs):
    """The solver of `method` on prob from an exact start (zero residual) or
    from one that needs steps."""
    op, A = prob.op, prob.A
    if method == "cg":
        x = random_guess(A.shape[0], 5)
        return cg_solve(A, A @ x if exact else np.ones(A.shape[0]),
                        x0=x if exact else None, **kwargs)
    pre = make_exact_precond(prob)
    if method == "pu":      # p = 0 solves the homogeneous system
        return pu_solve(op, pre, p0=None if exact else random_guess(op.n, 7),
                        **kwargs)
    z = random_guess(op.size, 5 if exact else 7)
    solver = {"pl": pl_solve, "pcg_k": pcg_k_solve}[method]
    return solver(op, pre, F=op.apply(z) if exact else None, z0=z, **kwargs)


# (A, H_A) applications of an exact start: the start residual, plus PU's
# recovery of u through one H_A
_EXACT_START_COUNTS = {"pu": (0, 2), "pl": (1, 1), "pcg_k": (1, 1),
                       "cg": (1, 0)}


@pytest.mark.parametrize("method", sorted(_EXACT_START_COUNTS))
def test_exact_start_returns_immediately(prob8, method):
    counter = OpCounter()
    rep = _solve(method, prob8, exact=True, counter=counter)
    assert rep.method == method
    assert rep.iterations == 0 and rep.converged
    assert rep.norms[0] == 0.0 and rep.final_ratio == 0.0
    assert (rep.a_applies, rep.ha_applies) == _EXACT_START_COUNTS[method]
    assert counter.snapshot() == _EXACT_START_COUNTS[method]


# (A, H_A) applications when max_iter 0 and 1 run out: the start, then per
# step what the step itself uses (no direction for a step never taken)
_MAX_ITER_COUNTS = {"pu": [(0, 1), (0, 2)], "pl": [(1, 1), (2, 2)],
                    "pcg_k": [(1, 1), (4, 3)], "cg": [(1, 0), (2, 0)]}


@pytest.mark.parametrize("max_iter", [0, 1])
@pytest.mark.parametrize("method", sorted(_MAX_ITER_COUNTS))
def test_max_iteration_error(prob8, method, max_iter):
    counter = OpCounter()
    name = method.upper().replace("_", "-")
    with pytest.raises(MaxIterationsError,
                       match=f"^{name} did not reach 1e-06 within {max_iter} "
                             "iterations"):
        _solve(method, prob8, exact=False, max_iter=max_iter,
               counter=counter)
    assert counter.snapshot() == _MAX_ITER_COUNTS[method][max_iter]
