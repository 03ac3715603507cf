"""Mesh, inclusion layout, and the assembled saddle operator.

Builds the unit-square triangulation, places a periodic grid of square
inclusions, orders the interior unknowns inclusion-first, and prints the
shapes and sparsity of every block that the solvers touch.
"""

import numpy as np

from saddleprec import (
    build_mesh, place_periodic, place_random, assign_epsilon, build_problem,
)

M, k = 16, 2
mesh = build_mesh(M)
print(f"mesh: {M}x{M} cells, h = {mesh.h:g}, "
      f"{mesh.n_interior} interior nodes, {2 * M * M} triangles")

layout = assign_epsilon(place_periodic(mesh, k), "uniform", epsilon=1e-4)
print(f"layout: {layout.m} inclusions of {k}x{k} cells "
      f"({layout.nodes_per_inclusion} nodes each), side d = {layout.d:g}")
print(f"contrast: sigma = 1 + 1/eps = {1 + 1 / layout.eps[0]:.0f} inside")

ordering, A, blocks, op = build_problem(mesh, layout)
print(f"\nstiffness A: {A.shape[0]}x{A.shape[1]}, {A.nnz} stored entries")
print(f"inclusion blocks: B_D {blocks.B_D.shape} ({blocks.B_D.nnz} entries), "
      f"rank-one Q via weights of length {blocks.ns}")
print(f"saddle operator: {op.size}x{op.size} "
      f"({op.N} primal + {op.n} inclusion unknowns)")

# the Neumann block annihilates per-inclusion constants, the rank-one block
# restores exactly that direction: their sum is invertible
e = np.zeros(blocks.n)
e[:blocks.ns] = 1.0
print(f"\n||B_D e_1|| = {np.linalg.norm(blocks.B_D @ e):.2e}  (kernel vector)")
print(f"Q e_1 equals the weight vector: "
      f"{np.allclose(blocks.apply_q(e)[:blocks.ns], blocks.weights)}")
print(f"weights sum to d^2 = {blocks.d ** 2:g}: "
      f"{np.isclose(blocks.weights.sum(), blocks.d ** 2)}")

# a random layout with some inclusions removed keeps all invariants
rand = assign_epsilon(place_random(mesh, k, removal_count=6, seed=3),
                      "random", eps_min=1e-6, seed=3)
print(f"\nrandom layout: {rand.m} inclusions, "
      f"eps in [{rand.eps.min():.2e}, {rand.eps.max():.2e}]")
