import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from saddleprec import (
    MU_HAT_1, MU_HAT_2, DENSE_LIMIT,
    sector_pair, dense_spectrum, schur_complement_dense,
    complement_basis, measure_a0_b0, verify_intervals,
    build_mesh, place_periodic, assign_epsilon, assemble_sigma_matrix,
    build_problem, cg_solve, pu_solve, pl_solve, pcg_k_solve, random_guess,
    ParameterError, ContractViolationError,
)

from saddleprec import precond, spectral
from saddleprec.assembly import _assemble_local
from saddle_problems import make_problem, make_exact_precond

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# scalar eigenvalue formulas; the paper's mu_check pair at r is
# sector_pair(1, r)


def test_mu_check_pair_recovers_golden_ratio_at_zero():
    lo, hi = sector_pair(1.0, 0.0)
    np.testing.assert_allclose(lo, 1.0 - GOLDEN, rtol=1e-15)
    np.testing.assert_allclose(hi, GOLDEN, rtol=1e-15)
    np.testing.assert_allclose((MU_HAT_1, MU_HAT_2), (lo, hi), rtol=1e-15)


def test_mu_check_pair_monotone_in_r():
    r = np.linspace(0.0, 2.0, 40)
    lo, hi = sector_pair(1.0, r)
    assert np.all(np.diff(lo) < 0)        # negative root falls with r
    assert np.all(lo <= MU_HAT_1 + 1e-15)
    assert np.all(np.diff(hi) < 0)        # positive root falls toward 1
    assert np.all(hi <= MU_HAT_2)
    assert np.all(hi >= 1.0)
    # both roots solve the quadratic
    for mu in (lo, hi):
        np.testing.assert_allclose(mu ** 2 + (r - 1) * mu - (1 + r), 0.0,
                                   atol=1e-12)


def test_sector_pair_limits_and_monotonicity():
    lo0, hi0 = sector_pair(1.0, 0.0)
    np.testing.assert_allclose((lo0, hi0), (1.0 - GOLDEN, GOLDEN), rtol=1e-15)
    t = np.linspace(0.05, 1.0, 30)
    lo_a, hi_a = sector_pair(t, 1e-6)
    assert np.all(np.diff(lo_a) < 0)      # negative root decreasing in t
    assert np.all(np.diff(hi_a) > 0)      # positive root increasing in t
    assert np.all(hi_a > 1.0 - 1e-12)
    for eps_small, eps_large in [(1e-6, 1e-2)]:
        lo_s, _ = sector_pair(0.5, eps_small)
        lo_l, _ = sector_pair(0.5, eps_large)
        assert lo_l < lo_s                # decreasing in eps as well
    lo, hi = sector_pair(0.25, 1e-4)
    eps = 1e-4
    for lam in (lo, hi):
        np.testing.assert_allclose(lam ** 2 + (eps - 1) * lam - (eps + 0.25),
                                   0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# dense generalized spectra


def test_dense_spectrum_of_gram_against_itself(prob8):
    A = prob8.A.toarray()
    eigs = dense_spectrum(A, A)
    np.testing.assert_allclose(eigs, 1.0, atol=1e-12)


def test_dense_spectrum_kernel_of_neumann_block(tiny_problem):
    B_loc, M_loc = _assemble_local(1, tiny_problem.mesh.h)
    eigs = dense_spectrum(B_loc, M_loc)
    # one zero eigenvalue, whose eigenvector is the constant
    np.testing.assert_allclose(eigs[0], 0.0, atol=1e-12)
    assert eigs[1] > 1e-6
    np.testing.assert_allclose(B_loc @ np.ones(B_loc.shape[0]), 0.0,
                               atol=1e-12)


def test_dense_spectrum_refuses_a_large_sparse_input_before_densifying():
    # the dense copy of a 2001-row identity would take 30.6 MiB
    big = sp.identity(DENSE_LIMIT + 1, format="csr")
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="dense spectrum refused"):
            dense_spectrum(big, big)
        with pytest.raises(ParameterError, match="shapes differ"):
            dense_spectrum(sp.identity(4), big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_dense_spectrum_input_contracts(prob8):
    A = prob8.A.toarray()
    with pytest.raises(ParameterError):
        dense_spectrum(A[:, :-1], np.eye(A.shape[0]))
    lopsided = A.copy()
    lopsided[0, 1] += 1.0
    with pytest.raises(ContractViolationError):
        dense_spectrum(lopsided, np.eye(A.shape[0]))
    with pytest.raises(ContractViolationError,
                       match="^Gram block is not symmetric$"):
        dense_spectrum(A, lopsided)
    with pytest.raises(ContractViolationError):
        dense_spectrum(A, -np.eye(A.shape[0]))   # Gram must be SPD


def test_dense_spectrum_refuses_shapes_before_symmetry(prob8):
    A = prob8.A.toarray()
    lopsided = A.copy()
    lopsided[0, 1] += 1.0
    with pytest.raises(ParameterError, match="shapes differ"):
        dense_spectrum(lopsided, np.eye(A.shape[0] - 1))
    for flat in (np.ones(3), 1.0):
        with pytest.raises(ParameterError, match="^operator must be square"):
            dense_spectrum(flat, np.eye(3))
    with pytest.raises(ContractViolationError,
                       match="^operator block is not symmetric$"):
        dense_spectrum(sp.csr_matrix(lopsided), lopsided)


def test_complement_basis_spans_weight_orthogonal_space(prob8):
    blocks = prob8.blocks
    Z = complement_basis(blocks)
    assert Z.shape == (blocks.n, blocks.n - blocks.m)
    np.testing.assert_allclose(Z.T @ Z, np.eye(Z.shape[1]), atol=1e-13)
    W = Z.reshape(blocks.m, blocks.ns, Z.shape[1])
    np.testing.assert_allclose(
        np.einsum("j,sjk->sk", blocks.weights, W), 0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# measured Schur interval [a0, b0]


def test_a0_b0_reference_values_periodic():
    mesh8 = build_mesh(8)
    a0, b0 = measure_a0_b0(assign_epsilon(place_periodic(mesh8, 2),
                                          "uniform", epsilon=1e-4))
    np.testing.assert_allclose(a0, 3.0 / 14.0, atol=1e-10)
    np.testing.assert_allclose(b0, 1.0, atol=1e-10)
    # the bound is mesh-independent for the scale-periodic layout
    mesh16 = build_mesh(16)
    a0_16, b0_16 = measure_a0_b0(assign_epsilon(place_periodic(mesh16, 2),
                                                "uniform", epsilon=1e-4))
    np.testing.assert_allclose(a0_16, a0, atol=1e-10)
    np.testing.assert_allclose(b0_16, 1.0, atol=1e-10)


def test_a0_stable_under_self_similar_refinement():
    # the same geometry at three resolutions: a0 drifts by < 10 percent
    vals = {}
    for M, k in ((8, 2), (16, 4), (32, 8)):
        layout = assign_epsilon(place_periodic(build_mesh(M), k),
                                "uniform", epsilon=1e-4)
        a0, b0 = measure_a0_b0(layout)
        vals[(M, k)] = a0
        assert b0 <= 1.0 + 1e-10
    np.testing.assert_allclose(vals[(8, 2)], 0.21428571, atol=1e-7)
    np.testing.assert_allclose(vals[(16, 4)], 0.23006993, atol=1e-7)
    np.testing.assert_allclose(vals[(32, 8)], 0.23522564, atol=1e-7)
    lo, hi = min(vals.values()), max(vals.values())
    assert (hi - lo) / hi <= 0.10


def test_a0_single_inclusion(single_inclusion16):
    a0, b0 = measure_a0_b0(single_inclusion16.layout)
    np.testing.assert_allclose(a0, 0.30215852, atol=1e-7)
    assert 0.0 < a0 <= b0 <= 1.0 + 1e-10


# ---------------------------------------------------------------------------
# full dense verification of the preconditioned saddle spectrum


def test_verify_intervals_preconditioner_pencil(prob8):
    rep = verify_intervals(prob8.layout, pencil="preconditioner")
    blocks = prob8.blocks
    assert rep.envelope_ok
    assert not rep.stated_ok              # literal set misses the -1 cluster
    assert rep.n_minus_one == blocks.m
    assert rep.n_plus_one == prob8.op.N - blocks.n + blocks.m
    assert len(rep.violations("stated")) == 32
    assert len(rep.violations("envelope")) == 0
    np.testing.assert_allclose(rep.lam_min, -1.0, atol=1e-10)
    # spectral gap: nothing lives between the negative sector and +1
    from saddleprec import sector_pair as sp_pair
    gap_lo, _ = sp_pair(rep.a0, rep.eps_min)
    eigs = rep.eigenvalues
    assert not np.any((eigs > gap_lo + 1e-8) & (eigs < 1.0 - 1e-8))


def test_verify_intervals_ideal_pencil(prob8):
    rep = verify_intervals(prob8.layout, pencil="ideal")
    assert rep.envelope_ok
    assert not rep.stated_ok
    viol = rep.violations("stated")
    assert len(viol) == prob8.blocks.m    # exactly the kernel cluster
    np.testing.assert_allclose(viol, -1.0, atol=1e-10)
    eigs = rep.eigenvalues
    assert not np.any((eigs > rep.mu_hat1 + 1e-8) & (eigs < 1.0 - 1e-8))
    # positive roots decrease with r, so the r = 0 endpoint bounds them
    assert eigs[-1] <= rep.mu_hat2 + 1e-8


@pytest.mark.parametrize("pencil", spectral.PENCILS)
def test_envelope_ends_come_from_sector_pair(pencil):
    # mixed contrast, so eps_min and eps_max pick different ends
    prob = make_problem(8, 2, eps_mode="random", eps_min=1e-6, eps_max=1e-2,
                        eps_seed=7)
    rep = verify_intervals(prob.layout, pencil=pencil)
    a0, b0 = rep.a0, rep.b0
    if pencil == "preconditioner":
        ends = (sector_pair(b0, rep.eps_max)[0],
                sector_pair(a0, rep.eps_min)[0],
                sector_pair(b0, rep.eps_min)[1])
    else:
        ends = (sector_pair(1.0, rep.eps_max / a0)[0], MU_HAT_1, MU_HAT_2)
        assert ends[0] == rep.mu_check1
    assert rep.envelope == ((-1.0, -1.0), (ends[0], ends[1]), (1.0, ends[2]))
    # in_envelope is membership in those intervals, widened by INTERVAL_TOL
    assert spectral.INTERVAL_TOL == 1e-8
    eigs = rep.eigenvalues
    inside = np.zeros(eigs.shape, dtype=bool)
    for lo, hi in rep.envelope:
        inside |= (eigs >= lo - 1e-8) & (eigs <= hi + 1e-8)
    np.testing.assert_array_equal(rep.in_envelope, inside)
    assert rep.envelope_ok and inside.all()


def _count_calls(monkeypatch, calls, owner, name):
    """Count the calls of owner.name in calls[name] for one test."""
    fn = getattr(owner, name)
    calls.setdefault(name, 0)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)


def test_verify_intervals_builds_and_factorizes_once(prob8, monkeypatch):
    calls = {}
    _count_calls(monkeypatch, calls, spectral, "build_problem")
    _count_calls(monkeypatch, calls, precond.spla, "splu")
    verify_intervals(prob8.layout, pencil="ideal")
    assert calls == {"build_problem": 1, "splu": 1}


def test_every_dense_eigenproblem_goes_through_dense_spectrum(prob8,
                                                             monkeypatch):
    # one eigh per dense_spectrum call: the Schur pencil's and the saddle
    # pencil's, each with its symmetry and SPD checks
    calls = {}
    _count_calls(monkeypatch, calls, spectral, "dense_spectrum")
    _count_calls(monkeypatch, calls, spectral.sla, "eigh")
    measure_a0_b0(prob8.layout)
    assert calls == {"dense_spectrum": 1, "eigh": 1}
    verify_intervals(prob8.layout)
    assert calls == {"dense_spectrum": 3, "eigh": 3}


def test_measure_a0_b0_refuses_an_oversize_instance_before_building(
        monkeypatch):
    calls = {}
    _count_calls(monkeypatch, calls, spectral, "build_problem")
    big = assign_epsilon(place_periodic(build_mesh(64), 2), "uniform",
                         epsilon=1e-4)
    with pytest.raises(ParameterError, match="instance M=64 k=2 has "
                                             "dimension 6273 > 2000"):
        measure_a0_b0(big)
    assert calls == {"build_problem": 0}


def test_verify_intervals_mixed_contrast_envelope():
    prob = make_problem(8, 2, eps_mode="random", eps_min=1e-6, eps_max=1e-2,
                        eps_seed=7)
    for pencil in ("preconditioner", "ideal"):
        rep = verify_intervals(prob.layout, pencil=pencil)
        assert rep.envelope_ok, pencil
        assert rep.eps_min < rep.eps_max


def test_verify_intervals_flags_corrupted_coupling(prob8):
    rep = verify_intervals(prob8.layout, corrupt_q=True)
    assert not rep.envelope_ok and not rep.stated_ok
    # the defect produces a zero cluster inside the forbidden gap
    assert np.abs(rep.eigenvalues).min() <= 1e-10


def test_verify_intervals_parameter_contracts(prob8, monkeypatch):
    calls = {}
    _count_calls(monkeypatch, calls, spectral, "build_problem")
    with pytest.raises(ParameterError, match="'exotic'"):
        verify_intervals(prob8.layout, pencil="exotic")
    big = assign_epsilon(place_periodic(build_mesh(64), 2), "uniform",
                         epsilon=1e-4)
    with pytest.raises(ParameterError):
        verify_intervals(big)
    assert calls == {"build_problem": 0}    # each refused before any build


def test_verify_intervals_uniform_override(prob8):
    rep = verify_intervals(assign_epsilon(prob8.layout, "uniform",
                                          epsilon=1e-6))
    assert rep.eps_min == rep.eps_max == 1e-6
    assert rep.envelope_ok


# ---------------------------------------------------------------------------
# extreme Ritz values from the solvers' own recurrences


def test_lanczos_identity_operator():
    eye = sp.identity(40, format="csr")
    rep = cg_solve(eye, None, x0=random_guess(40, 0))
    assert rep.iterations == 1
    np.testing.assert_allclose(rep.ritz_extremes(), (1.0, 1.0), rtol=1e-15)
    with pytest.raises(ParameterError, match="no Lanczos step"):
        cg_solve(eye, None).ritz_extremes()       # zero start: no step


def test_pl_ritz_extremes_after_one_step_name_the_steps_taken():
    # PL's T_k gets its first row at step 2, so a run that stops after one
    # step has none, although it took a step
    prob = make_problem(8, 2, eps=1e-2)
    pre = make_exact_precond(prob)
    rep = pl_solve(prob.op, pre, z0=random_guess(prob.op.size, 0), delta=0.9)
    assert rep.iterations == 1
    with pytest.raises(ParameterError, match=r"^pl took 1 Lanczos step; it "
                                             r"needs two, as its T_k gets "
                                             r"its first row at step 2$"):
        rep.ritz_extremes()
    with pytest.raises(ParameterError, match="^pl took no Lanczos step"):
        pl_solve(prob.op, pre).ritz_extremes()     # zero start: no step


def test_lanczos_euclidean_matches_dense(prob16):
    # cg_solve's T_k belongs to the matrix itself: A and, with a condition
    # number near 4e5, A_sigma
    for A in (prob16.A, assemble_sigma_matrix(prob16.layout)):
        dense = np.linalg.eigvalsh(A.toarray())
        rep = cg_solve(A, None, x0=random_guess(A.shape[0], 0), delta=1e-10)
        np.testing.assert_allclose(rep.ritz_extremes(),
                                   (dense[0], dense[-1]), rtol=1e-8)


def test_lanczos_budget_too_small(prob16):
    # a short run's Ritz values lie strictly inside the spectrum
    A = prob16.A
    dense = np.linalg.eigvalsh(A.toarray())
    rep = cg_solve(A, None, x0=random_guess(A.shape[0], 0), delta=0.5)
    lo, hi = rep.ritz_extremes()
    assert rep.iterations < 10
    assert dense[0] * (1.0 + 1e-3) < lo <= hi < dense[-1] * (1.0 - 1e-3)


def test_lanczos_saddle_pencil_matches_dense(prob16):
    pre = make_exact_precond(prob16)
    rep = pl_solve(prob16.op, pre, z0=random_guess(prob16.op.size, 0),
                   delta=1e-8)
    dense = verify_intervals(prob16.layout)
    np.testing.assert_allclose(rep.ritz_extremes(),
                               (dense.lam_min, dense.lam_max), rtol=1e-8)
    np.testing.assert_allclose(rep.ritz_extremes(), (-1.0, 1.618006350324),
                               atol=1e-8)


def test_lanczos_schur_pencil_extremes(prob16):
    # for uniform eps, H_S S_eps has the spectrum 1 on ker B_D and eps + t
    # off it, t in [a0, b0]; its low end is clustered (the two lowest
    # values differ by 1.2 %), so the lowest Ritz value is still 2e-4 above
    # a0 + eps when the iterate has converged to 1e-12
    pre = make_exact_precond(prob16)
    rep = pu_solve(prob16.op, pre, p0=random_guess(prob16.blocks.n, 0),
                   delta=1e-12)
    a0, b0 = measure_a0_b0(prob16.layout)
    lo, hi = rep.ritz_extremes()
    np.testing.assert_allclose(a0, 3.0 / 14.0, atol=1e-10)
    np.testing.assert_allclose(hi, b0 + 1e-4, rtol=1e-8)
    assert (a0 + 1e-4) * (1.0 - 1e-12) <= lo <= (a0 + 1e-4) * (1.0 + 1e-3)


def test_pcg_k_ritz_extremes_approach_the_squared_spectrum(prob16):
    # PCG-K's T_k belongs to (H A_eps)^2; its lowest value is the square of
    # the negative-sector end nearest 0, again clustered (2 % apart)
    pre = make_exact_precond(prob16)
    rep = pcg_k_solve(prob16.op, pre, z0=random_guess(prob16.op.size, 0),
                      delta=1e-12)
    squares = np.sort(verify_intervals(prob16.layout).eigenvalues ** 2)
    lo, hi = rep.ritz_extremes()
    np.testing.assert_allclose(hi, squares[-1], rtol=1e-6)
    assert squares[0] * (1.0 - 1e-12) <= lo <= squares[0] * (1.0 + 1e-3)


def test_ritz_extremes_exhaust_a_small_krylov_space(single_inclusion16):
    # one inclusion leaves H_S S_eps seven distinct eigenvalues, H A_eps
    # fourteen and (H A_eps)^2 thirteen, so each run spans (nearly) its
    # whole Krylov space and its extreme Ritz values are the extreme
    # eigenvalues
    prob = single_inclusion16
    pre = make_exact_precond(prob)
    a0, b0 = measure_a0_b0(prob.layout)
    dense = verify_intervals(prob.layout)
    squares = np.sort(dense.eigenvalues ** 2)
    z0 = random_guess(prob.op.size, 0)
    reports = {
        "pu": pu_solve(prob.op, pre, p0=random_guess(prob.blocks.n, 0),
                       delta=1e-10),
        "pl": pl_solve(prob.op, pre, z0=z0, delta=1e-10),
        "pcg_k": pcg_k_solve(prob.op, pre, z0=z0, delta=1e-10),
    }
    expected = {"pu": (a0 + 1e-4, b0 + 1e-4),
                "pl": (dense.lam_min, dense.lam_max),
                "pcg_k": (squares[0], squares[-1])}
    for method, rep in reports.items():
        np.testing.assert_allclose(rep.ritz_extremes(), expected[method],
                                   rtol=1e-8, err_msg=method)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed,step", [(0, 27), (2, 26)])
def test_ritz_extremes_refuse_a_run_past_the_rounding_floor(prob16, seed,
                                                            step):
    # at delta = 1e-15 PU steps on after its residual reached rounding
    # level; the noise turns a direction ratio negative, which the solve
    # passes without a warning and ritz_extremes names
    pre = make_exact_precond(prob16)
    rep = pu_solve(prob16.op, pre, p0=random_guess(prob16.blocks.n, seed),
                   delta=1e-15)
    assert rep.converged and rep.iterations == 27
    with pytest.raises(ParameterError, match=f"^pu direction ratio of step "
                                             f"{step} is not positive"):
        rep.ritz_extremes()


def test_sigma_system_conditioning_grows_with_contrast():
    # euclidean condition numbers of the untransformed system at M=16
    mesh = build_mesh(16)
    base = place_periodic(mesh, 2)
    conds = []
    for eps in (1e-2, 1e-3, 1e-4):
        layout = assign_epsilon(base, "uniform", epsilon=eps)
        A_sig = assemble_sigma_matrix(layout).toarray()
        conds.append(np.linalg.cond(A_sig))
    np.testing.assert_allclose(conds, [3840.18, 37479.6, 373870.0], rtol=1e-3)
    for lo, hi in zip(conds, conds[1:]):
        assert 5.0 <= hi / lo <= 20.0     # roughly one decade per decade
