import dataclasses
import re

import numpy as np
import pytest

from saddleprec import (
    MeshError, LayoutError, ParameterError,
    build_mesh, place_periodic, place_random, layout_from_cells,
    assign_epsilon, build_ordering, Inclusion,
)
from saddleprec.mesh import triangulate


def test_mesh_rejects_degenerate_resolution():
    for bad in (0, 1, -3, 2.5, "8"):
        with pytest.raises(MeshError):
            build_mesh(bad)


def test_smallest_mesh_has_one_interior_node_at_center():
    mesh = build_mesh(2)
    assert mesh.n_interior == 1
    np.testing.assert_allclose(mesh.node_coords(mesh.interior_ids),
                               [[0.5, 0.5]])


@pytest.mark.parametrize("M", range(2, 10))
def test_interior_ids_are_the_row_major_inner_nodes(M):
    mesh = build_mesh(M)
    side = M + 1
    gid = np.arange(side * side)
    ix, iy = gid % side, gid // side
    want = np.flatnonzero((ix > 0) & (ix < M) & (iy > 0) & (iy < M))
    assert mesh.interior_ids.dtype == want.dtype
    assert mesh.interior_ids.tobytes() == want.tobytes()
    index = np.full(side * side, -1, dtype=np.int64)
    index[want] = np.arange(want.size)
    assert mesh.interior_index.tobytes() == index.tobytes()


def test_interior_count_matches_square_law():
    assert build_mesh(256).n_interior == 65025
    assert build_mesh(64).n_interior == 63 ** 2


def test_every_triangle_has_area_half_h_squared():
    mesh = build_mesh(8)
    tri, _ = triangulate(mesh.M)
    coords = mesh.node_coords(tri.ravel()).reshape(-1, 3, 2)
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    np.testing.assert_allclose(areas, 0.5 * mesh.h ** 2)


def test_boundary_nodes_are_exactly_those_on_unit_square_edge():
    mesh = build_mesh(8)
    coords = mesh.node_coords(np.arange((mesh.M + 1) ** 2))
    on_edge = ((coords[:, 0] == 0) | (coords[:, 0] == 1) |
               (coords[:, 1] == 0) | (coords[:, 1] == 1))
    assert np.array_equal(mesh.interior_index < 0, on_edge)


def test_interior_node_touches_six_triangles():
    # one diagonal per cell gives each interior node six triangles and
    # seven stiffness entries: the 5-point stencil plus explicit zeros to
    # its SW and NE neighbours along the diagonals
    mesh = build_mesh(64)
    counts = np.bincount(triangulate(mesh.M)[0].ravel(),
                         minlength=(mesh.M + 1) ** 2)
    assert np.all(counts[mesh.interior_ids] == 6)


def test_periodic_counts_match_lattice_density():
    assert place_periodic(build_mesh(64), 8).m == 16
    assert place_periodic(build_mesh(64), 2).m == 256


def test_periodic_margin_is_half_inclusion_side():
    layout = place_periodic(build_mesh(16), 2)
    corners = sorted((inc.cell_x, inc.cell_y) for inc in layout.inclusions)
    assert corners[0] == (1, 1)                  # k/2 cells = d/2
    xs = sorted({c[0] for c in corners})
    assert all(b - a == 2 * layout.k for a, b in zip(xs, xs[1:]))


def test_periodic_rejects_incompatible_sizes():
    with pytest.raises(LayoutError):
        place_periodic(build_mesh(10), 2)        # 10 % 4 != 0
    with pytest.raises(LayoutError):
        place_periodic(build_mesh(4), 1)         # odd k has no grid margin
    with pytest.raises(LayoutError):
        place_periodic(build_mesh(12), 3)


def test_inclusion_closures_are_disjoint_and_interior():
    layout = place_periodic(build_mesh(16), 2)
    seen = set()
    for gids in layout.node_gids:
        nodes = set(gids.tolist())
        assert not (seen & nodes)
        seen |= nodes
    coords = layout.mesh.node_coords(np.fromiter(seen, dtype=np.int64))
    assert coords.min() > 0.0 and coords.max() < 1.0


def test_custom_layout_rejects_boundary_and_overlap():
    mesh = build_mesh(8)
    with pytest.raises(LayoutError):
        layout_from_cells(mesh, 2, [(0, 3)])     # touches x = 0
    with pytest.raises(LayoutError):
        layout_from_cells(mesh, 2, [(6, 3)])     # closure reaches x = 1
    with pytest.raises(LayoutError):
        layout_from_cells(mesh, 2, [(1, 1), (3, 1)])   # shared closure nodes


@pytest.mark.parametrize("k", [0, -1, True])
def test_custom_layout_refuses_a_non_positive_k(k):
    with pytest.raises(LayoutError, match=re.escape(
            f"inclusion size k must be a positive integer, got {k}")):
        layout_from_cells(build_mesh(8), k, [(1, 1)])


@pytest.mark.parametrize("corners,named", [
    ([(1, 1), (0, 4), (7, 1)], "(0,4) touches the outer boundary"),
    ([(1, 1), (3, 1), (-1, 0)], "(3,1) shares nodes"),
    ([(1, 1), (5, 5), (9, 1), (1, 1)], "(9,1) leaves the domain"),
], ids=["touches-before-leaves", "shares-before-leaves", "leaves-first"])
def test_layout_error_names_the_first_failing_corner(corners, named):
    with pytest.raises(LayoutError, match=re.escape(f"inclusion at cell {named}")):
        layout_from_cells(build_mesh(8), 2, corners)


@pytest.mark.parametrize("corner,message", [
    ((-1, 1), "leaves the domain"),              # also touches and shares
    ((0, 1), "touches the outer boundary"),      # also shares
    ((2, 2), "shares nodes with another inclusion"),
])
def test_layout_checks_one_corner_in_fixed_precedence(corner, message):
    with pytest.raises(LayoutError) as info:
        layout_from_cells(build_mesh(8), 2, [(1, 1), corner])
    assert str(info.value).startswith(
        f"inclusion at cell ({corner[0]},{corner[1]}) {message}")


def test_empty_corner_list_gives_an_empty_layout():
    mesh = build_mesh(8)
    layout = layout_from_cells(mesh, 2, [])
    assert layout.m == 0 and layout.n == 0 and layout.inclusions == ()
    assert layout.node_gids.shape == (0, 9)
    assert layout.inclusion_cells().dtype == np.int64
    assert layout.inclusion_cells().size == 0
    ordering = build_ordering(layout)
    np.testing.assert_array_equal(ordering.inv, np.arange(mesh.n_interior))


def test_numpy_corners_give_python_ints_and_stacked_views():
    mesh = build_mesh(16)
    corners = np.array([[1, 1], [5, 9]], dtype=np.int32)
    layout = layout_from_cells(mesh, np.int64(2), corners)
    assert Inclusion._fields == ("cell_x", "cell_y")
    assert layout.inclusions == (Inclusion(1, 1), Inclusion(5, 9))
    assert [(type(i.cell_x), type(i.cell_y)) for i in layout.inclusions] \
        == [(int, int)] * 2 and type(layout.k) is int
    assert layout.corners.tolist() == [[1, 1], [5, 9]]
    # row s of the stacked arrays is inclusion s, row-major inside it
    for s, (x, y) in enumerate(layout.corners.tolist()):
        for rows, width, stride in ((layout.node_gids, 3, mesh.M + 1),
                                    (layout.cell_ids, 2, mesh.M)):
            xs, ys = np.meshgrid(x + np.arange(width), y + np.arange(width))
            np.testing.assert_array_equal(rows[s], (ys * stride + xs).ravel())
    # one tuple per placement, shared by its eps copies
    assert assign_epsilon(layout, "uniform",
                          epsilon=1e-3).inclusions is layout.inclusions
    cells = layout.inclusion_cells()
    assert cells.dtype == np.int64
    np.testing.assert_array_equal(cells[:4], [17, 18, 33, 34])
    corners[0] = (3, 3)                 # the layout keeps its own copy
    assert (layout.inclusions[0].cell_x, layout.inclusions[0].cell_y) == (1, 1)
    np.testing.assert_array_equal(layout.corners[0], [1, 1])


def test_random_removal_count_and_determinism():
    mesh = build_mesh(64)
    layout = place_random(mesh, 2, 26, seed=3)
    assert layout.m == 230
    again = place_random(mesh, 2, 26, seed=3)
    assert [(i.cell_x, i.cell_y) for i in layout.inclusions] == \
           [(i.cell_x, i.cell_y) for i in again.inclusions]
    other = place_random(mesh, 2, 26, seed=4)
    assert [(i.cell_x, i.cell_y) for i in layout.inclusions] != \
           [(i.cell_x, i.cell_y) for i in other.inclusions]


def test_random_removal_zero_equals_periodic():
    mesh = build_mesh(16)
    periodic = place_periodic(mesh, 2)
    random0 = place_random(mesh, 2, 0, seed=11)
    assert [(i.cell_x, i.cell_y) for i in periodic.inclusions] == \
           [(i.cell_x, i.cell_y) for i in random0.inclusions]


def test_random_removal_cannot_empty_the_layout():
    mesh = build_mesh(16)
    with pytest.raises(LayoutError):
        place_random(mesh, 2, 16, seed=0)        # only 16 inclusions exist
    with pytest.raises(LayoutError):
        place_random(mesh, 2, -1, seed=0)


def test_assign_epsilon_uniform_and_range_checks():
    layout = place_periodic(build_mesh(16), 2)
    uni = assign_epsilon(layout, "uniform", epsilon=1e-6)
    np.testing.assert_array_equal(uni.eps, np.full(layout.m, 1e-6))
    for bad in (0.0, -1e-3, 1.5, None, True, np.True_, "0.1"):
        with pytest.raises(ParameterError, match="^uniform mode needs"):
            assign_epsilon(layout, "uniform", epsilon=bad)
    with pytest.raises(ParameterError):
        assign_epsilon(layout, "blue", epsilon=1e-3)


def test_assign_epsilon_random_stays_in_segment():
    layout = place_periodic(build_mesh(16), 2)
    for seed in (0, 7, 123):
        rnd = assign_epsilon(layout, "random", eps_min=1e-4, seed=seed)
        assert np.all(rnd.eps >= 1e-4) and np.all(rnd.eps <= 1e-2)
    collapsed = assign_epsilon(layout, "random", eps_min=1e-2, seed=5)
    np.testing.assert_array_equal(collapsed.eps, np.full(layout.m, 1e-2))
    with pytest.raises(ParameterError):
        assign_epsilon(layout, "random", eps_min=1e-1)   # above eps_max


@pytest.mark.parametrize("kwargs,message", [
    (dict(eps_min=True), "0 < eps_min"), (dict(eps_min=np.True_), "0 < eps_min"),
    (dict(eps_min="1e-3"), "0 < eps_min"),
    (dict(eps_min=1e-3, eps_max=True), "0 < eps_min"),
    (dict(eps_min=1e-3, seed=True), "a whole-number seed"),
    (dict(eps_min=1e-3, seed=-1), "a whole-number seed"),
    (dict(eps_min=1e-3, seed=1.0), "a whole-number seed")])
def test_assign_epsilon_random_refuses_a_non_number(kwargs, message):
    layout = place_periodic(build_mesh(8), 2)
    with pytest.raises(ParameterError, match=f"^random mode needs {message}"):
        assign_epsilon(layout, "random", **kwargs)


@pytest.mark.parametrize("kwargs,message", [
    (dict(removal_count=True, seed=0), "removal_count must be"),
    (dict(removal_count=1, seed=True), "seed must be"),
    (dict(removal_count=1, seed=-1), "seed must be"),
    (dict(removal_count=1, seed=0.0), "seed must be")])
def test_random_layout_refuses_a_boolean_count_or_seed(kwargs, message):
    with pytest.raises(LayoutError, match=f"^{message}"):
        place_random(build_mesh(16), 2, **kwargs)


def test_ordering_groups_inclusion_nodes_first():
    layout = place_periodic(build_mesh(16), 2)
    ordering = build_ordering(layout)
    mesh = layout.mesh
    ns = layout.nodes_per_inclusion
    for s, gids in enumerate(layout.node_gids):
        idx = mesh.interior_index[gids]
        np.testing.assert_array_equal(ordering.perm[idx],
                                      np.arange(s * ns, (s + 1) * ns))
    assert ordering.perm.size == mesh.n_interior


def test_ordering_round_trip():
    layout = place_periodic(build_mesh(8), 2)
    ordering = build_ordering(layout)
    v = np.random.default_rng(0).standard_normal(layout.mesh.n_interior)
    np.testing.assert_array_equal(ordering.to_system(v)[ordering.perm], v)
    np.testing.assert_array_equal(ordering.to_system(v[ordering.perm]), v)


def test_ordering_refuses_an_inclusion_node_on_the_boundary():
    layout = place_periodic(build_mesh(8), 2)
    gids = layout.node_gids.copy()
    gids[0, 0] = 0                        # the corner node (0, 0)
    with pytest.raises(LayoutError, match="inclusion node on the boundary"):
        build_ordering(dataclasses.replace(layout, node_gids=gids))
