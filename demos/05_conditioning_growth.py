"""Why the saddle reformulation: conditioning of the direct formulation.

The untransformed stiffness system A_sigma u = f has a condition number
growing like 1/eps (one decade per contrast decade).  With one shared eps
the large eigenvalues cluster and plain CG partially escapes the growth,
so this script spreads the contrasts randomly across inclusions: the
cluster smears out, plain CG degrades with the contrast range, and the
preconditioned saddle iteration does not move.
"""

import numpy as np

from saddleprec import (
    build_mesh, place_periodic, assign_epsilon, build_problem,
    assemble_sigma_matrix, build_block_preconditioner,
    cg_solve, pl_solve, random_guess,
)

M, k, eps_max = 32, 2, 1e-1
mesh = build_mesh(M)
base = place_periodic(mesh, k)

print(f"M={M}, k={k}, per-inclusion eps uniform on [eps_min, {eps_max:g}]\n")
print(f"{'eps_min':>8s} {'cond(A_sigma)':>14s} {'CG iters':>9s} "
      f"{'PL iters':>9s}")

for eps_min in (1e-1, 1e-2, 1e-3, 1e-4):
    layout = assign_epsilon(base, "random", eps_min=eps_min, eps_max=eps_max,
                            seed=5)
    A_sig = assemble_sigma_matrix(layout)

    # plain CG on the direct system, homogeneous benchmark; the extreme
    # Ritz values of its recurrence give the condition number
    cg = cg_solve(A_sig, None, x0=random_guess(A_sig.shape[0], 0),
                  delta=1e-6, max_iter=50000)
    lam_min, lam_max = cg.ritz_extremes()
    cond = lam_max / lam_min

    ordering, A, blocks, op = build_problem(mesh, layout)
    pre = build_block_preconditioner(A, blocks)
    pl = pl_solve(op, pre, z0=random_guess(op.size, 0), delta=1e-6)

    print(f"{eps_min:8.0e} {cond:14.4g} {cg.iterations:9d} {pl.iterations:9d}")

print("\nplain CG follows the widening spectrum of A_sigma; the "
      "preconditioned saddle solver gains a handful of iterations across "
      "three decades of additional contrast because its spectral bounds "
      "depend on eps only through a vanishing perturbation.")
