"""Eigenvalue structure of the preconditioned saddle operator.

Computes the dense spectrum of H A_eps on a desk-size instance and shows
how it splits into the -1 kernel cluster, a negative sector parametrized
by the measured Schur interval [a0, b0], the eigenvalue-1 cluster, and a
positive sector; then confirms the confinement intervals and, on a mesh
past the dense check, reads the extremes off the Lanczos tridiagonal that
the PU and PL solves build as they iterate.
"""

import numpy as np

from saddleprec import (
    build_mesh, place_periodic, assign_epsilon, build_problem,
    build_block_preconditioner, pu_solve, pl_solve, random_guess,
    verify_intervals, measure_a0_b0,
)

mesh = build_mesh(8)
layout = assign_epsilon(place_periodic(mesh, 2), "uniform", epsilon=1e-4)

a0, b0 = measure_a0_b0(layout)
print(f"Schur pencil off the kernel: t in [a0, b0] = [{a0:.8f}, {b0:.8f}]")
print(f"(a0 = 3/14 = {3/14:.8f} for this layout family)\n")

rep = verify_intervals(layout, pencil="preconditioner")
eigs = rep.eigenvalues
print(f"spectrum of H A_eps ({len(eigs)} eigenvalues): "
      f"[{rep.lam_min:.6f}, {rep.lam_max:.6f}]")
print(f"  exact -1 cluster: {rep.n_minus_one} (one per inclusion)")
print(f"  exact +1 cluster: {rep.n_plus_one}")
# the measured envelope: the -1 cluster, the negative sector and [1, top]
_, (lo_neg, hi_neg), (_, hi_pos) = rep.envelope
neg = eigs[(eigs > -1 + 1e-8) & (eigs < 0)]
print(f"  negative sector [{neg.min():.6f}, {neg.max():.6f}] inside "
      f"[{lo_neg:.6f}, {hi_neg:.6f}]")
pos = eigs[eigs > 1 + 1e-8]
print(f"  positive sector [{pos.min():.6f}, {pos.max():.6f}] inside "
      f"[1, {hi_pos:.6f}]")
print(f"  measured-envelope verdict: "
      f"{'PASS' if rep.envelope_ok else 'FAIL'}")

print(f"\nliteral two-interval set [{rep.mu_check1:.6f}, {rep.mu_hat1:.6f}] u "
      f"[1, {rep.mu_hat2:.6f}]: "
      f"{len(rep.violations('stated'))} eigenvalues outside "
      f"(the -1 cluster and most of the negative sector; "
      f"strict verdict {'PASS' if rep.stated_ok else 'FAIL'})")

# deliberately corrupt the rank-one coupling: eigenvalues collapse into the
# forbidden gap around zero and the verification flags it
bad = verify_intervals(layout, corrupt_q=True)
zero_cluster = np.abs(bad.eigenvalues).min()
print(f"\ncorrupted coupling: closest eigenvalue to 0 is {zero_cluster:.2e}, "
      f"verdict {'PASS' if bad.envelope_ok else 'FAIL'}")

# the same extremes at M = 32, from the solvers' own recurrences: PU's T_k
# belongs to H_S S_eps, whose spectrum is 1 on ker B_D and eps + [a0, b0] off
# it, and PL's to H A_eps
mesh32 = build_mesh(32)
lay32 = assign_epsilon(place_periodic(mesh32, 2), "uniform", epsilon=1e-4)
_, A32, blocks32, op32 = build_problem(mesh32, lay32)
pre32 = build_block_preconditioner(A32, blocks32)
pu = pu_solve(op32, pre32, p0=random_guess(blocks32.n, 0), delta=1e-10)
lo, hi = pu.ritz_extremes()
print(f"\nM=32 H_S S_eps Ritz extremes from PU: [{lo:.8f}, {hi:.8f}] "
      f"({pu.iterations} iterations; the low end approaches "
      f"a0 + eps = {a0 + 1e-4:.8f} from above)")
pl = pl_solve(op32, pre32, z0=random_guess(op32.size, 0), delta=1e-10)
lo, hi = pl.ritz_extremes()
print(f"M=32 H A_eps Ritz extremes from PL: [{lo:.8f}, {hi:.8f}] "
      f"({pl.iterations} iterations)")
