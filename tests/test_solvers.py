import json
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from saddleprec import (
    pu_solve, pl_solve, pcg_k_solve, cg_solve, random_guess,
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


def _dense_k_norm(prob, z):
    """sqrt(z . K z) with K = A_eps H A_eps and H = diag(A^{-1},
    (B_D + Q)^{-1}), every factor dense."""
    N = prob.op.N
    y = prob.op.to_sparse().toarray() @ z
    bdq = (prob.blocks.B_D + prob.blocks.q_sparse()).toarray()
    return np.sqrt(y[:N] @ np.linalg.solve(prob.A.toarray(), y[:N])
                   + y[N:] @ np.linalg.solve(bdq, y[N:]))


# ---------------------------------------------------------------------------
# preconditioned Uzawa


def test_pu_homogeneous_drives_iterate_to_zero(prob16):
    pre = make_exact_precond(prob16)
    p0 = random_guess(prob16.op.n, 101)
    rep = pu_solve(prob16.op, pre, p0=p0, delta=1e-6)
    assert rep.converged and rep.stop_rule == "iterate-S-norm"
    assert rep.is_monotone()
    # the stopping norm is the S_eps-norm of the iterate itself
    S = _dense_schur(prob16)[0]
    s_norm = np.sqrt(rep.p @ (S @ rep.p))
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
# stopping norms against dense oracles


@pytest.mark.parametrize("M", [8, 16])
@pytest.mark.parametrize("method", ["pu", "pl", "pcgk"])
def test_stopping_norms_match_a_dense_oracle(method, M):
    # homogeneous runs: each stopping norm is the norm of the iterate that
    # the theory bounds, the S_eps-norm for PU and the K-norm for PL and
    # PCG-K; the oracles share no code with the solvers' own applies
    prob = make_problem(M, 2, eps=1e-4)
    pre = make_exact_precond(prob)
    if method == "pu":
        S = _dense_schur(prob)[0]
        p0 = random_guess(prob.op.n, 101)
        rep = pu_solve(prob.op, pre, p0=p0)
        start, end = (np.sqrt(p @ (S @ p)) for p in (p0, rep.p))
    else:
        solver = pl_solve if method == "pl" else pcg_k_solve
        z0 = random_guess(prob.op.size, 101)
        rep = solver(prob.op, pre, z0=z0)
        start = _dense_k_norm(prob, z0)
        end = _dense_k_norm(prob, np.concatenate([rep.u, rep.p]))
    np.testing.assert_allclose(rep.norms[0], start, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(rep.norms[-1], end, rtol=1e-8, atol=0.0)


# ---------------------------------------------------------------------------
# inner CG


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
    e = rep.u - x_star
    a_err = np.sqrt(e @ (prob8.A @ e))
    a_sol = np.sqrt(x_star @ (prob8.A @ x_star))
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


@pytest.mark.parametrize("precond", [lambda r: r, lambda r: r[:]],
                         ids=["itself", "view"])
def test_cg_refuses_a_preconditioner_output_that_shares_its_input(
        prob16, precond):
    # r moves in place after the direction is taken from it, so an output
    # sharing r's memory would run another recurrence without a word
    b = np.ones(prob16.A.shape[0])
    with pytest.raises(ParameterError, match="^precond returned an array "
                                             "that shares memory with its "
                                             "input"):
        cg_solve(prob16.A, b, precond=precond)
    # a fresh copy is the unpreconditioned run, bit for bit
    copied = cg_solve(prob16.A, b, precond=lambda r: r.copy())
    assert copied.u.tobytes() == cg_solve(prob16.A, b).u.tobytes()


def test_negative_stopping_form_is_refused(prob8):
    # x . (-A) x < 0: the first recorded norm already fails the guard
    with pytest.raises(OperatorContractError,
                       match=r"^iterate-A-norm evaluated to -\d\.\d{3}e\+\d\d; "
                             "the operator lost definiteness$"):
        cg_solve(-prob8.A, None, x0=random_guess(prob8.A.shape[0], 2))


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


def _non_finite(size, value):
    """Ones with value at entry 7 and a NaN at entry 9."""
    v = np.ones(size)
    v[7], v[9] = value, np.nan
    return v


_NON_FINITE_INPUTS = {
    "pu-F": lambda prob, pre, bad, c: pu_solve(
        prob.op, pre, F=bad(prob.op.size), counter=c),
    "pu-p0": lambda prob, pre, bad, c: pu_solve(
        prob.op, pre, p0=bad(prob.op.n), counter=c),
    "pl-F": lambda prob, pre, bad, c: pl_solve(
        prob.op, pre, F=bad(prob.op.size), counter=c),
    "pl-z0": lambda prob, pre, bad, c: pl_solve(
        prob.op, pre, z0=bad(prob.op.size), counter=c),
    "pcg_k-F": lambda prob, pre, bad, c: pcg_k_solve(
        prob.op, pre, F=bad(prob.op.size), counter=c),
    "pcg_k-z0": lambda prob, pre, bad, c: pcg_k_solve(
        prob.op, pre, z0=bad(prob.op.size), counter=c),
    "cg-b": lambda prob, pre, bad, c: cg_solve(
        prob.A, bad(prob.op.N), counter=c),
    "cg-x0": lambda prob, pre, bad, c: cg_solve(
        prob.A, None, x0=bad(prob.op.N), counter=c),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(_NON_FINITE_INPUTS))
def test_solvers_refuse_a_non_finite_input_before_any_apply(prob8, case,
                                                            value):
    # a NaN or inf start or right-hand side would otherwise run the whole
    # budget and end in MaxIterationsError with ratio nan
    counter = OpCounter()
    name = case.split("-")[1]
    with pytest.raises(ParameterError, match=rf"^{name}\[7\] is {value}; "
                                             "solver input must be finite$"):
        _NON_FINITE_INPUTS[case](prob8, make_exact_precond(prob8),
                                 lambda size: _non_finite(size, value),
                                 counter)
    assert (counter.a, counter.ha) == (0, 0)


def _true_at_7(size):
    """A list of ones with the boolean True at entry 7."""
    v = [1.0] * size
    v[7] = True
    return v


# each input a float cast would misread: complex as its real part (with a
# ComplexWarning), booleans as 1.0 and 0.0, strings as the numbers they spell
_NON_NUMBERS = {
    "complex": (lambda size: 1j * np.ones(size), "[0] is 1j"),
    "bool": (lambda size: np.ones(size, dtype=bool), "[0] is True"),
    "string": (lambda size: ["1"] * size, "[0] is '1'"),
    "bool-entry": (_true_at_7, "[7] is True"),
    "object-entry": (lambda size: _object_at_7(size, "x"), "[7] is 'x'"),
}


def _object_at_7(size, value):
    """An object ndarray of ones with value at entry 7."""
    v = np.ones(size, dtype=object)
    v[7] = value
    return v


@pytest.mark.parametrize("kind", sorted(_NON_NUMBERS))
@pytest.mark.parametrize("case", sorted(_NON_FINITE_INPUTS))
def test_solvers_refuse_an_input_that_is_not_real_numbers(prob8, case, kind):
    counter = OpCounter()
    name = case.split("-")[1]
    make, where = _NON_NUMBERS[kind]
    with pytest.raises(ParameterError, match=f"^{re.escape(name + where)}; "
                                             "solver input must be real "
                                             "numbers$"):
        _NON_FINITE_INPUTS[case](prob8, make_exact_precond(prob8),
                                 make, counter)
    assert (counter.a, counter.ha) == (0, 0)


@pytest.mark.parametrize("solver,name", [(pu_solve, "p0"), (pl_solve, "z0"),
                                         (pcg_k_solve, "z0")],
                         ids=["pu", "pl", "pcg_k"])
def test_solvers_read_an_object_array_of_numbers_entry_by_entry(prob8, solver,
                                                                name):
    # an object ndarray of numbers runs as its float64 copy, bit for bit
    size = prob8.op.n if name == "p0" else prob8.op.size
    start = random_guess(size, 5)
    pre = make_exact_precond(prob8)
    ref = solver(prob8.op, pre, **{name: start})
    rep = solver(prob8.op, pre, **{name: start.astype(object)})
    assert rep.iterations == ref.iterations
    np.testing.assert_array_equal(rep.u, ref.u)
    np.testing.assert_array_equal(rep.p, ref.p)


# ---------------------------------------------------------------------------
# the right-hand side F = (f, 0): the constraint row carries no data


@pytest.mark.parametrize("solver", [pu_solve, pl_solve, pcg_k_solve],
                         ids=["pu-untagged", "pl-untagged", "pcgk-untagged"])
def test_full_rhs_with_constraint_data_matches_sparse_solve(prob16, solver):
    op = prob16.op
    pre = make_exact_precond(prob16)
    F = np.random.default_rng(29).standard_normal(op.size)
    F[op.N:] = 0.0
    rep = solver(op, pre, F=F, delta=1e-12)
    assert rep.converged
    z = np.concatenate([rep.u, rep.p])
    z_star = spla.spsolve(op.to_sparse().tocsc(), F)
    assert np.linalg.norm(z - z_star) <= 1e-11 * np.linalg.norm(z_star)


@pytest.mark.parametrize("solver", [pu_solve, pl_solve, pcg_k_solve],
                         ids=["pu", "pl", "pcg_k"])
def test_solvers_refuse_constraint_data_before_any_apply(prob8, solver):
    op = prob8.op
    F = random_guess(op.size, 11)
    F[op.N:] = 0.0
    F[op.N + 3] = 0.3
    counter = OpCounter()
    with pytest.raises(ParameterError, match=re.escape(
            f"F[{op.N + 3}] is 0.3; the lower block of F must be zero")):
        solver(op, make_exact_precond(prob8), F=F, counter=counter)
    assert (counter.a, counter.ha) == (0, 0)


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
    solver = {"pl": pl_solve, "pcg_k": pcg_k_solve}[method]
    if not exact:
        return solver(op, pre, z0=random_guess(op.size, 7), **kwargs)
    # p = 0 and u constant on each inclusion: B_D annihilates per-inclusion
    # constants, exactly for small dyadic ones, so A_eps z = (f, 0)
    z = np.zeros(op.size)
    z[:op.N] = random_guess(op.N, 5)
    z[:op.n] = np.repeat(np.arange(op.blocks.m) - 0.5, op.blocks.ns)
    F = op.apply(z)
    assert np.all(F[op.N:] == 0.0)
    return solver(op, pre, F=F, z0=z, **kwargs)


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
    F[op.N:] = 0.0
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
# on F = 0 and from a zero start on a random F = (f, 0), at M = 32 in a
# process with one BLAS thread; prints the sha256 over each (layout, kind)'s
# reports
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
        F = random_guess(op.size, 11)
        F[op.N:] = 0.0
        for solve, start in ((pu_solve, "p0"), (pl_solve, "z0"),
                             (pcg_k_solve, "z0")):
            size = op.n if solve is pu_solve else op.size
            for args in ({start: random_guess(size, 5)}, {"F": F}):
                rep = solve(op, pre, **args)
                for part in (rep.norms, rep.u, rep.p, *rep.tridiagonal):
                    sha.update(part.tobytes())
        digests[f"{layout} {kind}"] = sha.hexdigest()
print(json.dumps(digests))
"""

# recorded with one BLAS thread; the CLI pins show final_ratio to 7 digits and
# no Ritz data, so these are what hold every bit of a solve.  The solvers that
# still took constraint data printed the same digests for this fixture
_SOLVE_BYTES = {
    "periodic exact":
        "28c2770cb561f5642280abd45449a371609495b95f6341ee0f178b2124538a33",
    "periodic diagonal":
        "75abd1aa04c6d8f4a99de6e7e20f6f6c87d2fb90e849b7450cf8ee7b771e4b5d",
    "random exact":
        "ecd632c1065d618a718b0ca10cabfcf6cbbf654eab127e5a6f29c83f41d59500",
    "random diagonal":
        "5ab6b7681e19baca63563cc64e775a7929eb21f42b98ea72a898dbbea1120e29",
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


@pytest.mark.parametrize("size", [True, 2.5, -1, "3"])
def test_random_guess_refuses_a_size_that_is_not_a_whole_number(size):
    with pytest.raises(ParameterError, match="^random_guess size must be"):
        random_guess(size, 0)
    assert random_guess(np.int64(3), 0).shape == (3,)


@pytest.mark.parametrize("seed", [True, np.True_, -1, 1.0, None])
def test_random_guess_refuses_a_seed_that_is_not_a_whole_number(seed):
    with pytest.raises(ParameterError, match="^random_guess seed must be"):
        random_guess(10, seed)
