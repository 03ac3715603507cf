"""Operator application counts across contrast and interior preconditioner.

Iteration counts alone hide the cost of the interior solve: Uzawa needs one
H_A application per iteration plus setup/recovery, the two Krylov methods
one A and one H per iteration (PCG on the squared operator: two of each).
This script reproduces the accounting with both an exact H_A and the
library's twelve-step ILU-preconditioned inner CG, across three contrasts.
"""

from saddleprec import (
    build_mesh, place_periodic, assign_epsilon, build_problem,
    build_block_preconditioner,
    pu_solve, pl_solve, pcg_k_solve, random_guess,
)

M, k, delta = 64, 2, 1e-6
mesh = build_mesh(M)
base = place_periodic(mesh, k)

print(f"M={M}, k={k}, delta={delta:g}; totals are A-applies + H_A-applies\n")
header = (f"{'eps':>6s} | {'PU(cg H_A)':>16s} | {'PU(exact)':>12s} | "
          f"{'PL(exact)':>12s} | {'PCGK(exact)':>12s}")
print(header)
print("-" * len(header))

for eps in (1e-2, 1e-4, 1e-6):
    layout = assign_epsilon(base, "uniform", epsilon=eps)
    ordering, A, blocks, op = build_problem(mesh, layout)
    pre_exact = build_block_preconditioner(A, blocks)
    pre_cg = build_block_preconditioner(A, blocks, "cg")
    cells = [f"{eps:6.0e}"]
    for pre, fn, size in ((pre_cg, pu_solve, op.n),
                          (pre_exact, pu_solve, op.n),
                          (pre_exact, pl_solve, op.size),
                          (pre_exact, pcg_k_solve, op.size)):
        kw = ({"p0": random_guess(size, 0)} if fn is pu_solve
              else {"z0": random_guess(size, 0)})
        rep = fn(op, pre, delta=delta, **kw)
        cells.append(f"{rep.total_applies:4d} ({rep.iterations:2d} it)")
    print(" | ".join(f"{c:>16s}" if i == 1 else f"{c:>12s}" if i > 1 else c
                     for i, c in enumerate(cells)))

print("""
Reading the table: iteration counts are flat in the contrast for every
method.  With the exact factorization PU is almost free per iteration, so
its total is the smallest; once the interior solve costs twelve inner CG
steps (the library's setting, which `saddleprec cost` ships for PU), PU's
total exceeds the Lanczos method's, which needs no inner accuracy at all,
but stays below the squared-operator CG's.  PL keeps the lowest total of
the Krylov methods at every contrast.""")
