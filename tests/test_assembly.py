import dataclasses
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from saddleprec import (
    build_mesh, layout_from_cells, place_periodic, place_random,
    assign_epsilon,
    build_ordering, build_problem,
    assemble_stiffness, assemble_sigma_matrix,
    assemble_load, recover_p_from_u, write_matrix_market,
    ParameterError, build_block_preconditioner, pu_solve, pl_solve,
    pcg_k_solve, random_guess, build_saddle_operator, AssemblyError,
    assemble_inclusion_blocks,
)

from saddleprec.assembly import _block_diagonal, _element_batches, _scatter
from saddleprec.mesh import OrderingMap, triangulate
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


def _permutation_ordering(mesh):
    inv = np.random.default_rng(mesh.M).permutation(mesh.n_interior)
    perm = np.empty_like(inv)
    perm[inv] = np.arange(inv.size)
    return OrderingMap(perm=perm, inv=inv)


# system orderings the stencil must reproduce, by the smallest M they fit
_ORDERINGS = {
    "natural": (2, lambda mesh: None),
    "empty-layout": (2, lambda mesh: build_ordering(
        layout_from_cells(mesh, 1, []))),
    "permutation": (2, _permutation_ordering),
    "periodic": (4, lambda mesh: build_ordering(place_periodic(mesh, 2))),
    "random": (8, lambda mesh: build_ordering(place_random(mesh, 2, 1, 5))),
    "two-inclusions": (5, lambda mesh: build_ordering(
        layout_from_cells(mesh, 1, [(mesh.M - 2, 1), (1, mesh.M - 2)]))),
}


def _element_scatter(mesh, ordering, cell_weights=None):
    """The P1 stiffness summed triangle by triangle: every element matrix
    scaled by its cell's weight (none for the unit coefficient) and
    scattered over the interior nodes in the given ordering."""
    tri, cells = triangulate(mesh.M)
    K = _element_batches(tri.shape[0])
    if cell_weights is not None:
        K = K * np.asarray(cell_weights, dtype=float)[cells][:, None, None]
    idx = mesh.interior_index[tri]
    if ordering is not None:
        idx = np.where(idx >= 0, ordering.perm[np.clip(idx, 0, None)], -1)
    return _scatter(idx, K, mesh.n_interior)


@pytest.mark.parametrize("M,name", [
    (M, name) for M in (2, 3, 4, 5, 8, 16, 64)
    for name, (smallest, _) in _ORDERINGS.items()
    if M >= smallest and (name not in ("periodic", "random") or M % 4 == 0)])
def test_stencil_stiffness_equals_the_element_scatter(M, name):
    mesh = build_mesh(M)
    ordering = _ORDERINGS[name][1](mesh)
    oracle = _element_scatter(mesh, ordering)
    A = assemble_stiffness(mesh, ordering)
    _assert_same_csr(A, oracle)                     # explicit zeros included
    assert A.has_sorted_indices and oracle.has_sorted_indices


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_block_diagonal_equals_the_kronecker_product(k):
    layout = layout_from_cells(build_mesh(2 * k + 4), k, [
        (1, 1), (k + 2, 1), (1, k + 2), (k + 2, k + 2)])
    blocks = assemble_inclusion_blocks(layout)
    q = np.outer(blocks.weights, blocks.weights) / (blocks.d * blocks.d)
    for local, built in ((blocks.B_loc, blocks.B_D),
                         (blocks.M_loc, blocks.M_D), (q, blocks.q_sparse())):
        for m, got in ((blocks.m, built), (1, _block_diagonal(1, local))):
            _assert_same_csr(got, sp.kron(sp.identity(m, format="csr"),
                                          sp.csr_matrix(local), format="csr"))


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


def test_saddle_operator_takes_one_eps_per_inclusion(tiny_problem):
    A, blocks = tiny_problem.A, tiny_problem.blocks
    eps = tiny_problem.layout.eps
    op = build_saddle_operator(A, blocks, eps)
    np.testing.assert_array_equal(op.eps_node, np.repeat(eps, blocks.ns))
    assert op.eps is not eps and op.blocks is blocks
    for bad in (eps[0], eps[:-1], np.tile(eps, 2)):
        with pytest.raises(AssemblyError, match="eps has shape"):
            build_saddle_operator(A, blocks, bad)


def test_saddle_apply_matches_explicit_block_matrix(tiny_problem):
    op, blocks, A = tiny_problem.op, tiny_problem.blocks, tiny_problem.A
    N, n = op.N, op.n
    B = sp.hstack([blocks.B_D, sp.csr_matrix((n, N - n))]).tocsr()
    Q = blocks.q_sparse().toarray()
    C = np.diag(np.repeat(op.eps, blocks.ns)) @ blocks.B_D.toarray() + Q
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


def test_blocks_refuse_a_layout_without_inclusions():
    with pytest.raises(AssemblyError, match="^layout has no inclusions$"):
        assemble_inclusion_blocks(layout_from_cells(build_mesh(8), 2, []))


def test_sigma_matrix_reduces_to_plain_stiffness_without_inclusions():
    mesh = build_mesh(8)
    empty = layout_from_cells(mesh, 2, [])
    for ordering in (None, build_ordering(empty)):
        _assert_same_csr(assemble_sigma_matrix(empty, ordering),
                         assemble_stiffness(mesh, ordering))


def _sigma_weights(layout):
    """One weight per cell: 1 + 1/eps_s inside inclusion s, 1 elsewhere."""
    weights = np.ones(layout.mesh.M ** 2)
    for cells, eps in zip(layout.cell_ids, layout.eps):
        weights[cells] = 1.0 + 1.0 / eps
    return weights


@pytest.mark.parametrize("M,k,placement", [
    (8, 2, "periodic"), (16, 4, "periodic"), (32, 2, "random"),
    (64, 4, "random")])
@pytest.mark.parametrize("system_order", [False, True])
def test_sigma_matrix_equals_a_weighted_element_scatter(M, k, placement,
                                                        system_order):
    mesh = build_mesh(M)
    layout = (place_periodic(mesh, k) if placement == "periodic"
              else place_random(mesh, k, 2, M))
    layout = assign_epsilon(layout, "random", eps_min=1e-6, eps_max=1e-1,
                            seed=M + k)
    ordering = build_ordering(layout) if system_order else None
    oracle = _element_scatter(mesh, ordering, _sigma_weights(layout))
    _assert_same_csr(assemble_sigma_matrix(layout, ordering), oracle)


def test_sigma_matrix_at_unit_eps_is_double_weight_inside():
    mesh = build_mesh(8)
    layout = assign_epsilon(layout_from_cells(mesh, 2, [(3, 3)]),
                            "uniform", epsilon=1.0)
    A_sig = assemble_sigma_matrix(layout)
    weights = np.ones(mesh.M * mesh.M)      # one weight per cell
    weights[layout.inclusion_cells()] = 2.0
    direct = _element_scatter(mesh, None, weights)
    np.testing.assert_allclose(A_sig.toarray(), direct.toarray())


def test_sigma_conditioning_degrades_with_contrast(tiny_problem):
    mesh = tiny_problem.mesh
    layout = tiny_problem.layout          # eps = 1e-2
    A = assemble_stiffness(mesh).toarray()
    A_sig = assemble_sigma_matrix(layout).toarray()
    conds = [np.linalg.cond(mat) for mat in (A, A_sig)]
    assert conds[1] >= 10 * conds[0]


def test_load_vector_zero_and_total_mass():
    mesh = build_mesh(8)
    np.testing.assert_array_equal(assemble_load(mesh, 0.0),
                                  np.zeros(mesh.n_interior))
    f = assemble_load(mesh, 1.0)
    tri_area = 0.5 * mesh.h ** 2
    tri, _ = triangulate(mesh.M)
    n_interior_vertices = (mesh.interior_index[tri] >= 0).sum()
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


@pytest.mark.parametrize("f", [True, np.True_, False, np.False_])
def test_load_refuses_booleans(f):
    with pytest.raises(ParameterError, match="load must be a number or callable"):
        assemble_load(build_mesh(4), f)


def _scatter_load(mesh, f, ordering):
    """The load as a scatter of one-point triangle quadratures, summed
    per node by np.bincount in triangle order."""
    tri, _ = triangulate(mesh.M)
    if callable(f):
        coords = mesh.node_coords(tri.ravel()).reshape(tri.shape[0], 3, 2)
        bary = coords.mean(axis=1)
        vals = np.asarray(f(bary[:, 0], bary[:, 1]), dtype=float)
    else:
        vals = np.full(tri.shape[0], float(f))
    area = 0.5 * mesh.h * mesh.h
    contrib = np.repeat(vals * area / 3.0, 3)
    idx = mesh.interior_index[tri.ravel()]
    keep = idx >= 0
    out = np.bincount(idx[keep], weights=contrib[keep],
                      minlength=mesh.n_interior)
    return out if ordering is None else ordering.to_system(out)


_LOADS = {"one": 1.0, "negative-zero": -0.0,
          "smooth": lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y}


@pytest.mark.parametrize("M,name,load", [
    (M, name, load) for M in (2, 3, 5, 16, 64)
    for name in ("natural", "permutation", "periodic", "random")
    if M >= _ORDERINGS[name][0] and (name in ("natural", "permutation")
                                     or M % 4 == 0)
    for load in _LOADS])
def test_load_equals_the_triangle_scatter(M, name, load):
    mesh = build_mesh(M)
    ordering = _ORDERINGS[name][1](mesh)
    got = assemble_load(mesh, _LOADS[load], ordering)
    want = _scatter_load(mesh, _LOADS[load], ordering)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("M,ordered", [(2, False), (5, False), (16, True)])
def test_constant_load_equals_the_callable_path(M, ordered):
    mesh = build_mesh(M)
    ordering = build_ordering(place_periodic(mesh, 2)) if ordered else None
    np.testing.assert_array_equal(
        assemble_load(mesh, 1.0, ordering),
        assemble_load(mesh, lambda x, y: np.ones_like(x), ordering))


def test_recover_p_annihilates_constants(prob8):
    blocks = prob8.blocks
    u = np.zeros(prob8.op.N)
    u[:blocks.ns] = 3.7                     # constant on the first inclusion
    p = recover_p_from_u(u, prob8.op)
    np.testing.assert_allclose(p, 0.0, atol=1e-11)


def test_recover_p_mean_removal_at_unit_eps():
    prob = make_problem(8, 2, eps=1.0)
    blocks = prob.blocks
    rng = np.random.default_rng(4)
    u = rng.standard_normal(prob.op.N)
    p = recover_p_from_u(u, prob.op)
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
    closure_gids = layout.node_gids[0]
    idx_sys = ordering.perm[mesh.interior_index[closure_gids]]
    np.testing.assert_array_equal(np.sort(idx_sys), np.arange(blocks.ns))
    u = np.zeros(prob8.op.N)
    u[idx_sys] = 1.0
    touched = np.flatnonzero(A @ u)
    gids_touched = set(mesh.interior_ids[ordering.inv[touched]].tolist())
    closure = set(closure_gids.tolist())
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


# ---------------------------------------------------------------------------
# eps copies of one placement share its ordering, A and block matrices

def _placement(mesh, layout_mode):
    if layout_mode == "periodic":
        return place_periodic(mesh, 2)
    return place_random(mesh, 2, 5, seed=4)


def _eps_copy(layout, eps_mode, draw):
    if eps_mode == "uniform":
        return assign_epsilon(layout, "uniform", epsilon=(1e-2, 1e-5)[draw])
    return assign_epsilon(layout, "random", eps_min=1e-6, seed=draw)


def _fresh_copy(layout):
    """The same corners and eps on a new mesh, every array built anew."""
    fresh = layout_from_cells(build_mesh(layout.mesh.M), layout.k,
                              layout.corners, layout.removal_count)
    return dataclasses.replace(fresh, eps=layout.eps.copy())


def _assert_identical(a, b):
    """Equal values, dtypes and sparse structure, field by field."""
    if sp.issparse(a):
        assert a.format == b.format and a.shape == b.shape
        for name in ("indptr", "indices", "data"):
            _assert_identical(getattr(a, name), getattr(b, name))
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    elif dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            _assert_identical(getattr(a, field.name), getattr(b, field.name))
    else:
        assert a == b


def test_block_mass_is_built_on_first_read():
    mesh = build_mesh(16)
    blocks = build_problem(mesh, place_periodic(mesh, 2))[2]
    assert "M_D" not in vars(blocks)
    M_D = blocks.M_D
    assert vars(blocks)["M_D"] is M_D and blocks.M_D is M_D
    np.testing.assert_array_equal(
        M_D.toarray(), np.kron(np.eye(blocks.m), blocks.M_loc))


def _solves(op, A, blocks, seed=3):
    H = build_block_preconditioner(A, blocks)
    return [pu_solve(op, H, p0=random_guess(op.n, seed)),
            pl_solve(op, H, z0=random_guess(op.size, seed)),
            pcg_k_solve(op, H, z0=random_guess(op.size, seed))]


_SHARING = [(layout, eps) for layout in ("periodic", "random")
            for eps in ("uniform", "random")]


@pytest.mark.parametrize("layout_mode,eps_mode", _SHARING)
def test_eps_copies_share_the_placement_products(layout_mode, eps_mode):
    mesh = build_mesh(16)
    placement = _placement(mesh, layout_mode)
    first = build_problem(mesh, _eps_copy(placement, eps_mode, 0))
    layout = _eps_copy(placement, eps_mode, 1)
    ordering, A, blocks, op = build_problem(mesh, layout)
    assert ordering is first[0] and A is first[1]
    assert blocks.B_D is first[2].B_D and blocks.M_D is first[2].M_D
    np.testing.assert_array_equal(op.eps, layout.eps)
    fresh_layout = _fresh_copy(layout)
    fresh = build_problem(fresh_layout.mesh, fresh_layout)
    for shared_part, fresh_part in zip((ordering, A, blocks, op), fresh):
        assert shared_part is not fresh_part
        _assert_identical(shared_part, fresh_part)
    _, fresh_A, fresh_blocks, fresh_op = fresh
    for shared_run, fresh_run in zip(_solves(op, A, blocks),
                                     _solves(fresh_op, fresh_A, fresh_blocks)):
        assert shared_run.iterations == fresh_run.iterations
        np.testing.assert_array_equal(shared_run.norms, fresh_run.norms)


@pytest.mark.parametrize("layout_mode,eps_mode", _SHARING)
def test_another_mesh_object_of_the_same_size_shares(layout_mode, eps_mode):
    mesh = build_mesh(16)
    layout = _eps_copy(_placement(mesh, layout_mode), eps_mode, 0)
    # a first build through another mesh object fills the slot as well
    _, A, blocks, _ = build_problem(build_mesh(16), layout)
    held = layout.slot["products"]
    assert held[1] is A and held[2] is blocks
    _, A_own, blocks_own, _ = build_problem(mesh, layout)
    assert A_own is A and blocks_own is blocks
    _, A_copy, blocks_copy, _ = build_problem(build_mesh(16),
                                              _eps_copy(layout, eps_mode, 1))
    assert A_copy is A and blocks_copy is blocks


def test_a_mesh_of_another_size_is_refused():
    layout = place_periodic(build_mesh(8), 2)
    with pytest.raises(ParameterError,
                       match=r"mesh has M = 16, the layout is placed on M = 8"):
        build_problem(build_mesh(16), layout)
    assert "products" not in layout.slot


def test_operator_applies_leave_their_inputs_as_they_are(prob8):
    # each apply writes into arrays it made, never into its operands
    op, blocks = prob8.op, prob8.blocks
    z = random_guess(op.size, 3)
    kept = z.copy()
    w = z[op.N:]
    outputs = [op.apply(z), *op.source_tags(z), blocks.apply_q(w),
               blocks.apply_projector(w), blocks.from_tags(z[:op.n], w)]
    assert z.tobytes() == kept.tobytes()
    assert not any(np.shares_memory(out, z) for out in outputs)


# scipy crashes the interpreter (SIGSEGV) when it compresses a matrix whose
# indices a smaller mesh cannot hold, so the calls run in a child process
_MISMATCHED_SIZES = """
from saddleprec import (ParameterError, assemble_load, assemble_stiffness,
                        build_mesh, build_ordering, build_problem,
                        place_periodic)
layout = place_periodic(build_mesh(8), 2)
ordering, small = build_ordering(layout), build_mesh(4)
for call in (lambda: assemble_stiffness(small, ordering),
             lambda: assemble_load(small, 1.0, ordering=ordering),
             lambda: build_problem(small, layout)):
    try:
        call()
    except ParameterError as exc:
        print(exc)
"""


def test_mismatched_sizes_raise_in_place_of_a_crash():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = [os.path.join(root, "src")] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", _MISMATCHED_SIZES], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "ordering has 49 nodes, the mesh with M = 4 has 9 interior nodes",
        "ordering has 49 nodes, the mesh with M = 4 has 9 interior nodes",
        "mesh has M = 4, the layout is placed on M = 8",
    ]


@pytest.mark.parametrize("layout_mode,eps_mode", _SHARING)
def test_shared_matrices_survive_solves_and_exports(tmp_path, layout_mode,
                                                    eps_mode):
    mesh = build_mesh(16)
    placement = _placement(mesh, layout_mode)
    _, A, blocks, op = build_problem(mesh, _eps_copy(placement, eps_mode, 0))
    before = [(m.data.copy(), m.indices.copy(), m.indptr.copy())
              for m in (A, blocks.B_D)]
    _solves(op, A, blocks)
    write_matrix_market(tmp_path / "saddle.mtx", op.to_sparse())
    write_matrix_market(tmp_path / "stiffness.mtx", A)
    _, A_again, blocks_again, _ = build_problem(
        mesh, _eps_copy(placement, eps_mode, 1))
    assert A_again is A and blocks_again.B_D is blocks.B_D
    for m, arrays in zip((A, blocks.B_D), before):
        for now, then in zip((m.data, m.indices, m.indptr), arrays):
            np.testing.assert_array_equal(now, then)


def test_slot_keeps_the_first_products():
    layout = place_periodic(build_mesh(8), 2)
    first = build_problem(layout.mesh, layout)
    stored = layout.slot["products"]
    layout.slot.setdefault("products", ("another", "build"))
    assert layout.slot["products"] is stored
    assert build_problem(layout.mesh, layout)[1] is first[1]


def _build_concurrently(mesh, copies):
    start = threading.Barrier(len(copies))
    results = [None] * len(copies)

    def build(i):
        start.wait()
        results[i] = build_problem(mesh, copies[i])

    threads = [threading.Thread(target=build, args=(i,))
               for i in range(len(copies))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_concurrent_first_builds_never_mix_products():
    fresh_mesh = build_mesh(32)
    reference = build_problem(fresh_mesh,
                              place_random(fresh_mesh, 2, 9, seed=2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            mesh = build_mesh(32)
            placement = place_random(mesh, 2, 9, seed=2)
            copies = [_eps_copy(placement, "random", draw)
                      for draw in range(12)]
            results = _build_concurrently(mesh, copies)
            # one build per ordering, A and B_D: none is paired with
            # another build's products
            triples = {(id(o), id(A), id(b.B_D)) for o, A, b, _ in results}
            for position in range(3):
                assert len({t[position] for t in triples}) == len(triples)
            ordering, A, blocks = placement.slot["products"]
            assert (id(ordering), id(A), id(blocks.B_D)) in triples
            for layout, (got_ordering, got_A, got_blocks, op) in zip(
                    copies, results):
                assert op.A is got_A and op.blocks is got_blocks
                _assert_identical(got_A, reference[1])
                _assert_identical(got_ordering, reference[0])
                np.testing.assert_array_equal(op.eps, layout.eps)
    finally:
        sys.setswitchinterval(interval)


def _csr_bytes(matrix):
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


def _traced_peak(build):
    """What build() returns and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = build()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_construction_peaks_stay_near_their_outputs():
    mesh = build_mesh(256)
    layout = place_periodic(mesh, 2)
    ordering = build_ordering(layout)
    A, peak = _traced_peak(lambda: assemble_stiffness(mesh, ordering))
    assert peak <= 2.5 * _csr_bytes(A)
    F, peak = _traced_peak(lambda: assemble_load(mesh, 1.0, ordering))
    assert peak <= 8.0 * F.nbytes
    blocks, peak = _traced_peak(lambda: assemble_inclusion_blocks(layout))
    assert peak <= 2.0 * _csr_bytes(blocks.B_D)
