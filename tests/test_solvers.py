import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from saddleprec import (
    pu_solve, pl_solve, pcg_k_solve, cg_solve, evaluate_norm, random_guess,
    assemble_load, build_block_preconditioner,
    MaxIterationsError, OperatorContractError, ParameterError, OpCounter,
    SolverBreakdownError, BlockPreconditioner, SchurPreconditioner,
)

from saddle_problems import (make_problem, make_exact_precond,
                             run_with_one_blas_thread)


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


class _TinyAInverse:
    """H_A = 1e-8 I, an SPD stand-in with which PL on make_problem(8, 2)
    from random_guess seeds 0-5 loses K-positivity at steps 54-60."""

    def apply(self, r, counter=None):
        if counter is not None:
            counter.ha += 1
        return 1e-8 * r


def test_pl_breakdown_when_the_k_product_loses_positivity():
    prob = make_problem(8, 2, eps=1e-4)
    pre = BlockPreconditioner(a_inv=_TinyAInverse(),
                              schur=SchurPreconditioner(prob.blocks),
                              N=prob.op.N)
    with pytest.raises(SolverBreakdownError,
                       match="^Lanczos direction lost K-positivity at "
                             "iteration "):
        pl_solve(prob.op, pre, z0=random_guess(prob.op.size, 0))


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
    for kind in ("S", "K"):
        for given in ({"op": prob8.op}, {"precond": pre}):
            with pytest.raises(ParameterError, match=f"^kind '{kind}' needs "
                               "the saddle operator and preconditioner$"):
                evaluate_norm(kind, np.ones(prob8.op.n), **given)


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
    op, A = prob8.op, prob8.A
    # every start vector and right-hand side of every solver is refused by
    # name with both shapes, before any operator sees it; one test, so its
    # id stays the one it had with the first case alone
    cases = [
        (lambda: pl_solve(op, pre, F=np.ones(3)), "F", 3, op.size),
        (lambda: pu_solve(op, pre, F=np.ones(op.N)), "F", op.N, op.size),
        (lambda: pu_solve(op, pre, p0=np.ones(op.size)), "p0", op.size, op.n),
        (lambda: pl_solve(op, pre, z0=np.ones(op.n)), "z0", op.n, op.size),
        (lambda: pcg_k_solve(op, pre, z0=[1.0]), "z0", 1, op.size),
        (lambda: cg_solve(A, np.ones(op.n)), "b", op.n, op.N),
        (lambda: cg_solve(A, None, x0=np.ones(op.size)), "x0", op.size, op.N),
    ]
    for call, name, got, need in cases:
        with pytest.raises(ParameterError,
                           match=rf"^{name} has shape \({got},\); the system "
                                 rf"needs \({need},\)$"):
            call()


# ---------------------------------------------------------------------------
# inhomogeneous constraint data (nonzero lower block of F)


# the constraint data arrives untagged: each solver tags it at start-up
@pytest.mark.parametrize("solver", [pu_solve, pl_solve, pcg_k_solve],
                         ids=["pu-untagged", "pl-untagged", "pcgk-untagged"])
def test_full_rhs_with_constraint_data_matches_sparse_solve(prob16, solver):
    op = prob16.op
    pre = make_exact_precond(prob16)
    F = np.random.default_rng(29).standard_normal(op.size)
    rep = solver(op, pre, F=F, delta=1e-12)
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
    assert (counter.a, counter.ha) == _EXACT_START_COUNTS[method]


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
    assert (counter.a, counter.ha) == _MAX_ITER_COUNTS[method][max_iter]


def test_solvers_leave_their_inputs_as_they_are(prob16):
    op = prob16.op
    pre = make_exact_precond(prob16)
    F = random_guess(op.size, 11)
    given = {"F": F, "z0": random_guess(op.size, 5),
             "p0": random_guess(op.n, 5), "b": F[:op.N],
             "x0": random_guess(op.N, 6)}
    kept = {name: v.copy() for name, v in given.items()}
    for solve in (pl_solve, pcg_k_solve):
        solve(op, pre, F=given["F"], z0=given["z0"])
    pu_solve(op, pre, F=given["F"], p0=given["p0"])
    cg_solve(prob16.A, given["b"], precond=pre.a_inv.apply,
             x0=given["x0"])
    for name, v in given.items():
        assert v.tobytes() == kept[name].tobytes(), name


# every solver on both H_A kinds that the benchmark runs, from a random start
# on F = 0 and from a zero start on a random F, at M = 32 in a process with
# one BLAS thread; prints the sha256 over each (layout, kind)'s reports
_SOLVE_DIGESTS = """
import hashlib
import json

from saddleprec import (build_block_preconditioner, pcg_k_solve, pl_solve,
                        pu_solve, random_guess)
from saddle_problems import make_problem

problems = {
    "periodic": make_problem(32, 2),
    "random": make_problem(32, 2, layout_mode="random", removal=5,
                           layout_seed=3, eps_mode="random", eps_min=1e-6,
                           eps_seed=4),
}
digests = {}
for layout, prob in problems.items():
    op = prob.op
    for kind in ("exact", "diagonal"):
        pre = build_block_preconditioner(prob.A, prob.blocks, kind)
        sha = hashlib.sha256()
        for solve, start in ((pu_solve, "p0"), (pl_solve, "z0"),
                             (pcg_k_solve, "z0")):
            size = op.n if solve is pu_solve else op.size
            for args in ({start: random_guess(size, 5)},
                         {"F": random_guess(op.size, 11)}):
                rep = solve(op, pre, **args)
                for part in (rep.norms, rep.u, rep.p, *rep.tridiagonal):
                    sha.update(part.tobytes())
        digests[f"{layout} {kind}"] = sha.hexdigest()
print(json.dumps(digests))
"""

# recorded with one BLAS thread; the CLI pins show final_ratio to 7 digits and
# no Ritz data, so these are what hold every bit of a solve
_SOLVE_BYTES = {
    "periodic exact":
        "326e17ac3509ae82d243e14b7ab32de21073f80ccdff1b156827ec0aa7655de0",
    "periodic diagonal":
        "4f3b562915ad2cae4cb1554b7c909ffbe4807a1167507377f4e029922cddfb4f",
    "random exact":
        "e35fa44de528f6341e4afaceda90fc64ad899a1b3aeab354b18ed6049e65378e",
    "random diagonal":
        "c64878749a8afac6dd298ec01142cf67bc4f0685c6131dcf03473661d297cda7",
}


def test_solver_reports_keep_their_bits():
    got = json.loads(run_with_one_blas_thread("-c", _SOLVE_DIGESTS))
    assert got == _SOLVE_BYTES


# ---------------------------------------------------------------------------
# argument contract


_SOLVES = {
    "pu": lambda prob, pre, **kw: pu_solve(
        prob.op, pre, p0=random_guess(prob.op.n, 1), **kw),
    "pl": lambda prob, pre, **kw: pl_solve(
        prob.op, pre, z0=random_guess(prob.op.size, 1), **kw),
    "pcg_k": lambda prob, pre, **kw: pcg_k_solve(
        prob.op, pre, z0=random_guess(prob.op.size, 1), **kw),
    "cg": lambda prob, pre, **kw: cg_solve(
        prob.A, None, x0=random_guess(prob.op.N, 1), **kw),
}


@pytest.mark.parametrize("name,value", [
    ("delta", 0.0), ("delta", -1.0), ("delta", 1.0), ("delta", 2.0),
    ("delta", float("nan")), ("delta", True), ("delta", np.True_),
    ("delta", "1e-6"), ("delta", None),
    ("max_iter", 2.5), ("max_iter", 2.0), ("max_iter", -1),
    ("max_iter", True), ("max_iter", np.True_), ("max_iter", None)])
@pytest.mark.parametrize("method", sorted(_SOLVES))
def test_solvers_refuse_a_bad_delta_or_budget_before_any_apply(
        prob8, method, name, value):
    counter = OpCounter()
    with pytest.raises(ParameterError, match=f"^{method} {name} must be"):
        _SOLVES[method](prob8, make_exact_precond(prob8), counter=counter,
                        **{name: value})
    assert (counter.a, counter.ha) == (0, 0)


@pytest.mark.parametrize("method", sorted(_SOLVES))
def test_solvers_take_a_numpy_budget_and_a_zero_budget(prob8, method):
    pre = make_exact_precond(prob8)
    rep = _SOLVES[method](prob8, pre, delta=np.float64(1e-6),
                          max_iter=np.int64(500))
    assert rep.converged and rep.iterations > 0
    with pytest.raises(MaxIterationsError, match="within 0 iterations"):
        _SOLVES[method](prob8, pre, max_iter=0)


@pytest.mark.parametrize("seed", [True, np.True_, -1, 1.0, None])
def test_random_guess_refuses_a_seed_that_is_not_a_whole_number(seed):
    with pytest.raises(ParameterError, match="^random_guess seed must be"):
        random_guess(10, seed)
