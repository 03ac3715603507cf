import numpy as np
import pytest
import scipy.sparse as sp

from saddleprec import (
    build_mesh, layout_from_cells, place_periodic, assign_epsilon,
    build_ordering, build_problem,
    assemble_stiffness, assemble_sigma_matrix, assemble_inclusion_blocks,
    assemble_load, recover_p_from_u, write_matrix_market,
    ParameterError,
)

from saddle_problems import make_problem


def test_single_interior_node_stiffness_is_four():
    A = assemble_stiffness(build_mesh(2))
    np.testing.assert_allclose(A.toarray(), [[4.0]])


def test_stiffness_annihilates_constants_away_from_boundary():
    mesh = build_mesh(8)
    A = assemble_stiffness(mesh)
    resid = A @ np.ones(mesh.n_interior)
    coords = mesh.node_coords(mesh.interior_ids)
    next_to_edge = (np.isclose(coords, mesh.h) |
                    np.isclose(coords, 1 - mesh.h)).any(axis=1)
    assert np.all(resid[~next_to_edge] == 0.0)
    assert np.all(resid[next_to_edge] > 0.0)


def test_stiffness_spectrum_matches_five_point_laplacian():
    mesh = build_mesh(4)
    A = assemble_stiffness(mesh)
    h = mesh.h
    ij = np.arange(1, mesh.M)
    expected = np.sort((4 * (np.sin(ij[:, None] * np.pi * h / 2) ** 2
                             + np.sin(ij[None, :] * np.pi * h / 2) ** 2)
                        ).ravel())
    np.testing.assert_allclose(np.linalg.eigvalsh(A.toarray()), expected,
                               atol=1e-12)


def test_stiffness_is_symmetric_positive_definite():
    prob = make_problem(16, 2)
    A = prob.A.toarray()
    np.testing.assert_allclose(A, A.T)
    assert np.linalg.eigvalsh(A)[0] > 0


def test_block_kernel_and_mass_identities(prob8):
    blocks = prob8.blocks
    e = np.zeros(blocks.n)
    e[:blocks.ns] = 1.0                     # constant on the first inclusion
    np.testing.assert_allclose(blocks.B_D @ e, 0.0, atol=1e-14)
    d2 = blocks.d ** 2
    ones = np.ones(blocks.ns)
    np.testing.assert_allclose(ones @ blocks.M_loc @ ones, d2)
    np.testing.assert_allclose(blocks.weights.sum(), d2)
    # rank-one block maps the constant to the weight vector
    np.testing.assert_allclose(blocks.apply_q(e)[:blocks.ns], blocks.weights)
    np.testing.assert_allclose(blocks.apply_q(e)[blocks.ns:], 0.0,
                               atol=1e-16)


def test_local_blocks_hand_values_for_single_cell_inclusion(tiny_problem):
    # k = 1, h = 1/4: nodes (ll, lr, ul, ur) split into (ll, lr, ur) and
    # (ll, ur, ul); the diagonal ll-ur couples through both triangles in
    # the mass only, never in the stiffness
    blocks = tiny_problem.blocks
    np.testing.assert_array_equal(blocks.B_loc, [[1.0, -0.5, -0.5, 0.0],
                                                 [-0.5, 1.0, 0.0, -0.5],
                                                 [-0.5, 0.0, 1.0, -0.5],
                                                 [0.0, -0.5, -0.5, 1.0]])
    area = 0.5 / 16
    np.testing.assert_allclose(blocks.M_loc, area / 12 * np.array(
        [[4.0, 1.0, 1.0, 2.0],
         [1.0, 2.0, 0.0, 1.0],
         [1.0, 0.0, 2.0, 1.0],
         [2.0, 1.0, 1.0, 4.0]]), rtol=1e-15, atol=0.0)


def test_saddle_apply_of_zero_and_kernel_vector(tiny_problem):
    op, blocks = tiny_problem.op, tiny_problem.blocks
    np.testing.assert_array_equal(op.apply(np.zeros(op.size)),
                                  np.zeros(op.size))
    z = np.zeros(op.size)
    z[op.N:op.N + blocks.ns] = 1.0          # w = e_s, v = 0
    out = op.apply(z)
    np.testing.assert_allclose(out[op.N:], -blocks.weights, atol=1e-15)


def test_saddle_apply_matches_explicit_block_matrix(tiny_problem):
    op, blocks, A = tiny_problem.op, tiny_problem.blocks, tiny_problem.A
    N, n = op.N, op.n
    B = sp.hstack([blocks.B_D, sp.csr_matrix((n, N - n))]).tocsr()
    Q = blocks.q_sparse().toarray()
    C = np.diag(np.repeat(blocks.eps, blocks.ns)) @ blocks.B_D.toarray() + Q
    dense = np.zeros((op.size, op.size))
    dense[:N, :N] = A.toarray()
    dense[:N, N:] = B.T.toarray()
    dense[N:, :N] = B.toarray()
    dense[N:, N:] = -C
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = rng.standard_normal(op.size)
        got = op.apply(z)
        want = dense @ z
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    np.testing.assert_allclose(op.to_sparse().toarray(), dense, atol=1e-14)


def test_saddle_apply_rejects_wrong_length(prob8):
    with pytest.raises(ParameterError):
        prob8.op.apply(np.zeros(prob8.op.size + 1))


def test_sigma_matrix_reduces_to_plain_stiffness_without_inclusions():
    mesh = build_mesh(8)
    empty = layout_from_cells(mesh, 2, [])
    A_sig = assemble_sigma_matrix(mesh, empty)
    np.testing.assert_allclose(A_sig.toarray(),
                               assemble_stiffness(mesh).toarray())


def test_sigma_matrix_at_unit_eps_is_double_weight_inside():
    mesh = build_mesh(8)
    layout = assign_epsilon(layout_from_cells(mesh, 2, [(3, 3)]),
                            "uniform", epsilon=1.0)
    A_sig = assemble_sigma_matrix(mesh, layout)
    weights = np.ones(mesh.M * mesh.M)      # one weight per cell
    weights[layout.inclusion_cells()] = 2.0
    direct = assemble_stiffness(mesh, cell_weights=weights)
    np.testing.assert_allclose(A_sig.toarray(), direct.toarray())


def test_sigma_conditioning_degrades_with_contrast(tiny_problem):
    mesh = tiny_problem.mesh
    layout = tiny_problem.layout          # eps = 1e-2
    A = assemble_stiffness(mesh).toarray()
    A_sig = assemble_sigma_matrix(mesh, layout).toarray()
    conds = [np.linalg.cond(mat) for mat in (A, A_sig)]
    assert conds[1] >= 10 * conds[0]


def test_load_vector_zero_and_total_mass():
    mesh = build_mesh(8)
    np.testing.assert_array_equal(assemble_load(mesh, 0.0),
                                  np.zeros(mesh.n_interior))
    f = assemble_load(mesh, 1.0)
    tri_area = 0.5 * mesh.h ** 2
    n_interior_vertices = (mesh.interior_index[mesh.triangles] >= 0).sum()
    np.testing.assert_allclose(f.sum(), tri_area / 3.0 * n_interior_vertices)


def test_load_vector_hand_value_on_smallest_mesh():
    mesh = build_mesh(2)
    # the single interior node supports six triangles of area 1/8 each
    np.testing.assert_allclose(assemble_load(mesh, 1.0), [0.25])


def test_load_accepts_callables():
    mesh = build_mesh(4)
    const = assemble_load(mesh, 2.5)
    via_callable = assemble_load(mesh, lambda x, y: 2.5 + 0.0 * x)
    np.testing.assert_allclose(const, via_callable)
    with pytest.raises(ParameterError):
        assemble_load(mesh, "heavy")


def test_recover_p_annihilates_constants(prob8):
    blocks = prob8.blocks
    u = np.zeros(prob8.op.N)
    u[:blocks.ns] = 3.7                     # constant on the first inclusion
    p = recover_p_from_u(u, blocks)
    np.testing.assert_allclose(p, 0.0, atol=1e-11)


def test_recover_p_mean_removal_at_unit_eps():
    prob = make_problem(8, 2, eps=1.0)
    blocks = prob.blocks
    rng = np.random.default_rng(4)
    u = rng.standard_normal(prob.op.N)
    p = recover_p_from_u(u, blocks)
    U = u[:blocks.n].reshape(blocks.m, blocks.ns)
    means = U @ blocks.weights / blocks.d ** 2
    np.testing.assert_allclose(p.reshape(blocks.m, blocks.ns),
                               U - means[:, None])
    # recovered blocks are mean-free in the weighted sense
    np.testing.assert_allclose(
        p.reshape(blocks.m, blocks.ns) @ blocks.weights, 0.0, atol=1e-12)


def test_ordering_consistency_between_blocks_and_stiffness(prob8):
    # row i of B_D and row i of A refer to the same node: shifting u on one
    # inclusion changes A u only around that inclusion's closure
    mesh, layout, ordering = prob8.mesh, prob8.layout, prob8.ordering
    blocks, A = prob8.blocks, prob8.A
    inc = layout.inclusions[0]
    idx_sys = ordering.perm[mesh.interior_index[inc.node_gids]]
    np.testing.assert_array_equal(np.sort(idx_sys), np.arange(blocks.ns))
    u = np.zeros(prob8.op.N)
    u[idx_sys] = 1.0
    touched = np.flatnonzero(A @ u)
    gids_touched = set(mesh.interior_ids[ordering.inv[touched]].tolist())
    closure = set(inc.node_gids.tolist())
    # the energy footprint stays within one mesh layer of the closure
    coords_t = mesh.node_coords(np.fromiter(gids_touched, dtype=np.int64))
    coords_c = mesh.node_coords(np.fromiter(closure, dtype=np.int64))
    dmax = max(np.abs(coords_t[:, None, :] - coords_c[None, :, :]
                      ).max(axis=2).min(axis=1))
    assert dmax <= mesh.h + 1e-12


def test_matrix_market_round_trip(tmp_path, prob8):
    import scipy.io
    path = tmp_path / "saddle.mtx"
    write_matrix_market(path, prob8.op.to_sparse(), comment="round trip")
    back = scipy.io.mmread(path)
    np.testing.assert_allclose(back.toarray(),
                               prob8.op.to_sparse().toarray(), atol=0)
