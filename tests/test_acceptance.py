"""Acceptance gate: eight criteria with pinned tolerances.

Each test emits exactly one ``CRITERION n: PASS/FAIL - detail`` line before
asserting; the lines are echoed in an "acceptance criteria" section of the
terminal summary so a plain ``pytest -v`` run documents every verdict.  The
checks encode the stated targets literally; where a target is not attainable
with the components in scope, the test is allowed to fail and says precisely
why.
"""

import time

import numpy as np
import pytest

from saddleprec import (
    pu_solve, pl_solve, pcg_k_solve, random_guess,
    assemble_load, assemble_sigma_matrix, build_block_preconditioner,
    build_mesh, place_periodic, assign_epsilon,
    verify_intervals, ReferenceSchurSolver, SchurPreconditioner, OpCounter,
    recover_p_from_u,
)

from saddleprec.assembly import _assemble_local, _block_diagonal
from saddle_problems import ACCEPTANCE_VERDICTS, make_problem, make_exact_precond

EPS_SWEEP = (1e-2, 1e-4, 1e-6)
SEED = 101


def _verdict(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_VERDICTS.append(line)
    return ok


def _run(method, prob, pre, delta=1e-6, **kw):
    fn = {"pu": pu_solve, "pl": pl_solve, "pcgk": pcg_k_solve}[method]
    if method == "pu":
        kw.setdefault("p0", random_guess(prob.op.n, SEED))
    else:
        kw.setdefault("z0", random_guess(prob.op.size, SEED))
    return fn(prob.op, pre, delta=delta, **kw)


def test_criterion_1_two_interval_spectrum():
    """Dense spectrum of H A_eps inside the literal two-interval set."""
    t0 = time.time()
    bad = []
    for M in (8, 16):
        for eps in EPS_SWEEP:
            prob = make_problem(M, 2, eps=eps)
            rep = verify_intervals(prob.layout)
            if not rep.stated_ok:
                viol = rep.violations("stated")
                at_minus_one = np.abs(viol + 1.0) <= 1e-8
                above = viol[viol > rep.mu_hat1]
                where = (f" in [{above.min():.3f}, {above.max():.3f}]"
                         if len(above) else "")
                bad.append(f"M={M} eps={eps:g}: {len(viol)} of "
                           f"{len(rep.eigenvalues)} eigenvalues outside, "
                           f"{at_minus_one.sum()} at -1 (below mu_check1 = "
                           f"{rep.mu_check1:.3f}) and {len(above)}{where} "
                           f"(above (1-sqrt 5)/2)")
    elapsed = time.time() - t0
    ok = not bad
    detail = (f"all 6 instances inside the set ({elapsed:.1f}s)" if ok else
              f"{len(bad)}/6 instances escape the set: the kernel cluster "
              f"at -1 lies below the stated lower endpoint and part of the "
              f"B_D+Q negative sector above its upper endpoint; "
              + "; ".join(bad) + f" ({elapsed:.1f}s)")
    _verdict(1, ok, detail)
    assert elapsed < 6 * 60
    assert ok, ("the exact -1 eigenvalue cluster (one per inclusion) and the "
                "negative sector of the B_D+Q pencil lie outside "
                "[mu_check1(r_max), (1-sqrt 5)/2] u [1, (1+sqrt 5)/2]; see "
                "the measured-envelope columns of the spectrum CLI for the "
                "verified confinement intervals")


def test_criterion_2_contrast_robustness(run_log):
    """Iteration flatness across contrast and layout at M=64, k=2."""
    t0 = time.time()
    counts = {}
    for layout, removal in (("periodic", 0), ("random", 128)):
        for eps in EPS_SWEEP:
            prob = make_problem(64, 2, eps=eps, layout_mode=layout,
                                removal=removal, layout_seed=SEED)
            pre = make_exact_precond(prob)
            for method in ("pu", "pl", "pcgk"):
                rep = _run(method, prob, pre)
                counts[(method, layout, eps)] = rep.iterations
                run_log.append((2, method, rep))
    elapsed = time.time() - t0

    flat_ok, flat_msg = True, []
    for method in ("pu", "pl", "pcgk"):
        for layout in ("periodic", "random"):
            vals = [counts[(method, layout, e)] for e in EPS_SWEEP]
            flat_msg.append(f"{method}/{layout} {vals}")
            if max(vals) - min(vals) > 2:
                flat_ok = False
        for eps in EPS_SWEEP:
            gap = abs(counts[(method, "periodic", eps)]
                      - counts[(method, "random", eps)])
            if gap > 2:
                flat_ok = False
                flat_msg.append(f"{method} layout gap {gap} at eps={eps:g}")

    # reference counts for the AMG-based interior preconditioner this
    # benchmark mirrors: PU 10-11, PL 40-46, PCG 88-93; ours must land
    # within +-50 percent of those ranges
    bands = {"pu": (5.0, 16.5), "pl": (20.0, 69.0), "pcgk": (44.0, 139.5)}
    band_ok, band_msg = True, []
    for method, (lo, hi) in bands.items():
        vals = [v for key, v in counts.items() if key[0] == method]
        if not (lo <= min(vals) and max(vals) <= hi):
            band_ok = False
            band_msg.append(f"{method} {min(vals)}-{max(vals)} outside "
                            f"[{lo:g}, {hi:g}]")
        else:
            band_msg.append(f"{method} {min(vals)}-{max(vals)} in "
                            f"[{lo:g}, {hi:g}]")
    ok = flat_ok and band_ok
    _verdict(2, ok, f"flatness {'ok' if flat_ok else 'VIOLATED'} "
             f"({', '.join(flat_msg[:6])}); bands: {'; '.join(band_msg)} "
             f"({elapsed:.1f}s)")
    assert elapsed < 5 * 60
    assert flat_ok, "iteration counts drift with contrast or layout"
    assert band_ok, (
        "an exact interior solve halves the Krylov iteration counts relative "
        "to the AMG-based reference (the squared-operator CG sits below its "
        "band); the flatness property above still holds")


def test_criterion_3_mesh_robustness(run_log):
    """Counts vary by at most 20 percent across M at fixed k/M."""
    t0 = time.time()
    counts = {m: [] for m in ("pu", "pl", "pcgk")}
    for M, k in ((16, 2), (32, 4), (64, 8)):
        prob = make_problem(M, k, eps=1e-6)
        pre = make_exact_precond(prob)
        for method in counts:
            rep = _run(method, prob, pre)
            counts[method].append(rep.iterations)
            run_log.append((3, method, rep))
    elapsed = time.time() - t0
    worst = 0.0
    for vals in counts.values():
        worst = max(worst, (max(vals) - min(vals)) / max(vals))
    ok = worst <= 0.20
    _verdict(3, ok, f"PU {counts['pu']}, PL {counts['pl']}, "
             f"PCGK {counts['pcgk']}; worst spread "
             f"{100 * worst:.1f}% of the larger count ({elapsed:.1f}s)")
    assert elapsed < 10 * 60
    assert ok


def test_criterion_4_cost_ordering(run_log):
    """Total application counts: PL < PU < PCG-K and PL <= half of PCG-K."""
    t0 = time.time()
    prob = make_problem(64, 2, eps=1e-4)
    # PU pays for its interior solves: benchmark configuration runs the
    # inner-CG H_A; the Krylov methods use the exact factorization
    pre_cg = build_block_preconditioner(prob.A, prob.blocks, "cg", steps=12,
                                        base="ilu", drop_tol=1e-2,
                                        fill_factor=8.0)
    pre_ex = make_exact_precond(prob)
    totals = {}
    for method, pre in (("pu", pre_cg), ("pl", pre_ex), ("pcgk", pre_ex)):
        rep = _run(method, prob, pre)
        totals[method] = rep.total_applies
        run_log.append((4, method, rep))
    elapsed = time.time() - t0
    chain_ok = totals["pl"] < totals["pu"] < totals["pcgk"]
    ratio = totals["pl"] / totals["pcgk"]
    ratio_ok = ratio <= 0.5
    ok = chain_ok and ratio_ok
    _verdict(4, ok, f"totals PL {totals['pl']}, PU {totals['pu']}, "
             f"PCGK {totals['pcgk']}; PL/PCGK = {ratio:.2f} ({elapsed:.1f}s)")
    assert elapsed < 5 * 60
    assert ratio_ok
    assert totals["pl"] < totals["pu"]
    assert totals["pu"] < totals["pcgk"], (
        "with the exact interior factorization the squared-operator CG "
        "needs half the iterations the reference configuration reports, "
        "undercutting inner-CG Uzawa; PL < PU and the PL/PCG-K ratio hold")


def test_criterion_5_solution_equivalence(run_log):
    """Saddle solution reproduces the direct sigma-formulation solve."""
    t0 = time.time()
    prob = make_problem(16, 2, eps=1e-4)
    assert prob.blocks.m == 16
    pre = make_exact_precond(prob)
    F = np.zeros(prob.op.size)
    F[:prob.op.N] = assemble_load(prob.mesh, 1.0, prob.ordering)
    # p recovery divides by eps, amplifying the u error by 1e4: the solve
    # must land well below both match tolerances
    rep = pl_solve(prob.op, pre, F=F, delta=1e-12)
    run_log.append((5, "pl", rep))

    A_sig = assemble_sigma_matrix(prob.layout, prob.ordering)
    u_direct = np.linalg.solve(A_sig.toarray(), F[:prob.op.N])
    err = rep.u - u_direct
    err_a = np.sqrt(err @ (prob.A @ err))
    ref_a = np.sqrt(u_direct @ (prob.A @ u_direct))
    u_ok = err_a <= 1e-7 * ref_a

    p_from_u = recover_p_from_u(rep.u, prob.op)
    p_err = np.linalg.norm(p_from_u - rep.p) / np.linalg.norm(rep.p)
    p_ok = p_err <= 1e-6
    elapsed = time.time() - t0
    ok = u_ok and p_ok
    _verdict(5, ok, f"u error {err_a / ref_a:.2e} (A-norm, tol 1e-7), "
             f"p recovery error {p_err:.2e} (tol 1e-6) ({elapsed:.1f}s)")
    assert elapsed < 60
    assert ok


def test_criterion_6_preconditioner_identity_suite(prob16):
    """Tagged H_S against the factorized reference and projector algebra."""
    t0 = time.time()
    blocks = prob16.blocks
    schur = SchurPreconditioner(blocks)
    ref = ReferenceSchurSolver(blocks)
    rng = np.random.default_rng(SEED)

    worst_tag = 0.0
    for _ in range(100):
        a = rng.standard_normal(blocks.n)
        b = rng.standard_normal(blocks.n)
        direct = ref.solve(blocks.B_D @ a + blocks.apply_q(b))
        scale = max(1.0, np.abs(direct).max())
        worst_tag = max(worst_tag,
                        np.abs(schur.apply_tagged(a, b) - direct).max() / scale)

    P = np.column_stack([blocks.apply_projector(col)
                         for col in np.eye(blocks.n)])
    idem = np.abs(P @ P - P).max()
    M_loc = _assemble_local(prob16.layout.k, prob16.mesh.h)[1]
    MD = _block_diagonal(blocks.m, M_loc).toarray()
    sym = np.abs(MD @ P - (MD @ P).T).max() / np.abs(MD).max()

    worst_id = 0.0
    for _ in range(20):
        v = rng.standard_normal(blocks.n)
        zero = np.zeros_like(v)
        resid = schur.apply_tagged(v, zero) + schur.apply_tagged(zero, v) - v
        worst_id = max(worst_id, np.abs(resid).max() / np.abs(v).max())
    elapsed = time.time() - t0

    ok = worst_tag <= 1e-12 and idem <= 1e-13 and sym <= 1e-13 \
        and worst_id <= 1e-13
    _verdict(6, ok, f"tagged-vs-reference {worst_tag:.2e} (tol 1e-12), "
             f"idempotence {idem:.2e}, M-symmetry {sym:.2e}, "
             f"H_S(B_D+Q)=I {worst_id:.2e} (tol 1e-13) ({elapsed:.1f}s)")
    assert elapsed < 10
    assert ok


def test_criterion_7_condition_growth():
    """cond(A_sigma) grows by 5x-20x per contrast decade at M=32."""
    t0 = time.time()
    mesh = build_mesh(32)
    base = place_periodic(mesh, 2)
    conds = []
    for eps in (1e-1, 1e-2, 1e-3):
        layout = assign_epsilon(base, "uniform", epsilon=eps)
        conds.append(np.linalg.cond(
            assemble_sigma_matrix(layout).toarray()))
    growth = [hi / lo for lo, hi in zip(conds, conds[1:])]
    elapsed = time.time() - t0
    ok = all(5.0 <= g <= 20.0 for g in growth)
    _verdict(7, ok, "cond " + ", ".join(f"{c:.4g}" for c in conds)
             + "; per-decade growth " + ", ".join(f"{g:.2f}" for g in growth)
             + f" ({elapsed:.1f}s)")
    assert elapsed < 2 * 60
    assert ok


def test_criterion_8_monotone_stopping_norms(run_log):
    """PU and PCG-K stopping norms never increase beyond 1e-12 relative."""
    checked, bad = 0, []
    for crit, method, rep in run_log:
        if rep.method not in ("pu", "pcg_k"):
            continue
        checked += 1
        if not rep.is_monotone():
            bumps = np.diff(rep.norms)
            bad.append(f"criterion-{crit} {method} rise {bumps.max():.2e}")
    ok = checked > 0 and not bad
    _verdict(8, ok, f"{checked} PU/PCG-K histories monotone to 1e-12 relative"
             + (f"; violations: {'; '.join(bad)}" if bad else ""))
    assert checked >= 20, "acceptance sweeps did not register their runs"
    assert ok
