"""Structured triangulations of the unit square with square inclusion layouts.

The unit square is divided into M x M cells of size h = 1/M and every cell is
split into two triangles along its lower-left to upper-right diagonal.  The
resulting P1 stiffness matrix has the 5-point Laplacian's values, stored as
a 7-entry pattern per row: the diagonal couples each node with its SW and
NE neighbours through two explicit zeros.  Inclusions are k x k blocks of
cells whose closed node sets must stay away from the outer boundary and from
each other, so that the per-inclusion variables decouple from the Dirichlet
data and from one another.
"""

from __future__ import annotations

import dataclasses
import sys
import typing

import numpy as np


class MeshError(ValueError):
    """Invalid mesh resolution."""


class LayoutError(ValueError):
    """Inclusion layout violates a geometric constraint."""


class ParameterError(ValueError):
    """Scalar parameter outside its admissible range."""


EPS_MODES = ("uniform", "random")      # the modes of assign_epsilon


def real_number(value) -> bool:
    """Whether value is a Python or numpy int or float; booleans are not."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def finite_number(value) -> bool:
    """Whether value is a real number within the float range; NaN and +-inf
    are not, and a Python int is compared exactly, never converted."""
    return real_number(value) and abs(value) <= sys.float_info.max


def whole_number(value) -> bool:
    """Whether value is a Python or numpy int; booleans are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def first_non_number(values, whole: bool = False):
    """(index, value) of the first entry of values that is not a number (a
    whole number if whole), or None.  An ndarray is judged by its dtype, so
    a boolean, string or object one fails whole, at its first entry; a list
    or tuple entry by entry, before numpy turns True into 1 or 2.7 into 2."""
    if isinstance(values, np.ndarray):
        if values.size == 0 or values.dtype.kind in ("iu" if whole else "iuf"):
            return None
        return np.unravel_index(0, values.shape), values.item(0)
    number = whole_number if whole else real_number
    for index, value in np.ndenumerate(np.array(values, dtype=object)):
        if not number(value):
            return index, value
    return None


@dataclasses.dataclass(frozen=True, eq=False)
class StructuredMesh:
    """Uniform triangulation of (0,1)^2.

    The triangles are not stored: triangulate(M) returns them, and their
    owning cells, to the assembly routines that read them.

    Attributes
    ----------
    M : int
        Cells per side; the mesh step is h = 1/M.
    h : float
        Mesh step.
    interior_index : ndarray, shape ((M+1)**2,)
        Global node id -> interior index in row-major order, -1 on the
        boundary.
    interior_ids : ndarray, shape ((M-1)**2,)
        Global node ids of the interior nodes.
    """

    M: int
    h: float
    interior_index: np.ndarray
    interior_ids: np.ndarray

    @property
    def n_interior(self) -> int:
        return self.interior_ids.size

    def node_coords(self, gids) -> np.ndarray:
        """Coordinates of the given global node ids, shape (len, 2)."""
        gids = np.asarray(gids)
        return np.column_stack(((gids % (self.M + 1)) * self.h,
                                (gids // (self.M + 1)) * self.h))


def triangulate(M: int):
    """Triangles of the diagonal split of M x M cells over (M+1)**2 row-major
    nodes, counterclockwise, lower (ll, lr, ur) before upper (ll, ur, ul)
    in each cell, and the owning cell id (cy*M + cx) of each triangle."""
    side = M + 1
    cx, cy = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    ll = (cy * side + cx).ravel()
    lr = ll + 1
    ul = ll + side
    ur = ul + 1
    tris = np.empty((2 * M * M, 3), dtype=np.int64)
    tris[0::2] = np.column_stack((ll, lr, ur))
    tris[1::2] = np.column_stack((ll, ur, ul))
    return tris, np.repeat((cy * M + cx).ravel(), 2)


def build_mesh(M: int) -> StructuredMesh:
    """Build the uniform diagonal triangulation with M cells per side.

    Parameters
    ----------
    M : int
        Number of cells per side, at least 2 so that interior nodes exist.
    """
    if not whole_number(M) or M < 2:
        raise MeshError(f"mesh resolution must be an integer >= 2, got {M!r}")
    M = int(M)
    side = M + 1

    inner = np.arange(1, M)
    interior_ids = (inner[:, None] * side + inner).ravel()
    interior_index = np.full(side * side, -1, dtype=np.int64)
    interior_index[interior_ids] = np.arange(interior_ids.size)

    return StructuredMesh(M=M, h=1.0 / M, interior_index=interior_index,
                          interior_ids=interior_ids)


class Inclusion(typing.NamedTuple):
    """Anchor cell (lower-left) of one inclusion; its nodes and cells are
    the matching rows of the layout's node_gids and cell_ids."""

    cell_x: int
    cell_y: int


@dataclasses.dataclass(frozen=True, eq=False)
class InclusionLayout:
    """A family of disjoint square inclusions on a structured mesh.

    Inclusion s is anchored at cell corners[s] = (cell_x, cell_y) and owns
    the row-major closure nodes node_gids[s] and cells cell_ids[s].  eps
    holds the stiffness parameter of each inclusion (sigma = 1 + 1/eps_s
    inside inclusion s); placement routines initialise it to 1.  The eps
    copies made by assign_epsilon share the placement's arrays and its
    slot, a dict in which assembly.build_problem keeps their eps-free
    products.
    """

    mesh: StructuredMesh
    k: int
    corners: np.ndarray     # (m, 2) anchor cells
    node_gids: np.ndarray   # (m, (k+1)**2)
    cell_ids: np.ndarray    # (m, k*k)
    inclusions: tuple       # Inclusion anchor of each row of corners
    eps: np.ndarray
    removal_count: int = 0
    slot: dict = dataclasses.field(default_factory=dict, repr=False)

    @property
    def m(self) -> int:
        return len(self.corners)

    @property
    def nodes_per_inclusion(self) -> int:
        return (self.k + 1) ** 2

    @property
    def n(self) -> int:
        """Total number of inclusion nodes."""
        return self.m * self.nodes_per_inclusion

    @property
    def d(self) -> float:
        """Inclusion side length; equals the square root of its area."""
        return self.k * self.mesh.h

    def inclusion_cells(self) -> np.ndarray:
        """Cell ids covered by any inclusion, grouped per inclusion."""
        return self.cell_ids.ravel()


def _block_ids(cx, cy, width, stride):
    """Row-major ids y*stride + x of the width x width block anchored at
    each (cx, cy), shape (len(cx), width**2)."""
    offsets = np.arange(width)
    return ((cy[:, None, None] + offsets[:, None]) * stride
            + cx[:, None, None] + offsets).reshape(len(cx), width * width)


def layout_from_cells(mesh: StructuredMesh, k: int, corners,
                      removal_count: int = 0) -> InclusionLayout:
    """Build a validated layout from anchor cells (lower-left cell of each
    inclusion), given as an (m, 2) array of whole numbers; [] is the empty
    layout.

    Raises LayoutError for the first corner, in input order, whose inclusion
    leaves the domain, touches the outer boundary or shares a closure node
    with an earlier inclusion (checked in that order).
    """
    if not whole_number(k) or k < 1:
        raise LayoutError(f"inclusion size k must be a positive integer, got {k!r}")
    if not whole_number(removal_count) or removal_count < 0:
        raise LayoutError(f"removal_count must be a non-negative integer, got {removal_count!r}")
    # the shape first, so that a ragged list is not blamed on a valid row
    try:
        shape = np.shape(corners)
    except ValueError:      # numpy refuses rows of unequal length
        raise LayoutError("corners have rows of unequal length, expected "
                          "(m, 2) cell indices") from None
    if shape != (0,) and (len(shape) != 2 or shape[1] != 2):
        raise LayoutError(f"corners have shape {shape}, expected "
                          "(m, 2) cell indices")
    bad = first_non_number(corners, whole=True)
    if bad is not None:
        index, value = bad
        raise LayoutError(f"corners[{', '.join(map(str, index))}] is {value!r}, "
                          "expected a whole-number cell index")
    k = int(k)
    M = mesh.M
    corners = np.array(corners, dtype=np.int64).reshape(-1, 2)
    cx, cy = corners.T
    gids = _block_ids(cx, cy, k + 1, M + 1)
    leaves = (cx < 0) | (cy < 0) | (cx + k > M) | (cy + k > M)
    touches = (cx < 1) | (cy < 1) | (cx + k > M - 1) | (cy + k > M - 1)
    # a node seen in an earlier inclusion; an inclusion that leaves the
    # domain may alias ids, but then it fails before any later one counts
    repeated = np.ones(gids.size, dtype=bool)
    repeated[np.unique(gids, return_index=True)[1]] = False
    shares = repeated.reshape(gids.shape).any(axis=1)
    failed = np.flatnonzero(leaves | touches | shares)
    if failed.size:
        s = failed[0]
        where = f"inclusion at cell ({cx[s]},{cy[s]})"
        if leaves[s]:
            raise LayoutError(f"{where} leaves the domain")
        if touches[s]:
            raise LayoutError(f"{where} touches the outer boundary; "
                              "inclusion nodes must be interior")
        raise LayoutError(f"{where} shares nodes with another inclusion; "
                          "closures must be disjoint")
    cells = _block_ids(cx, cy, k, M)
    incs = tuple(map(Inclusion._make, corners.tolist()))
    return InclusionLayout(mesh=mesh, k=k, corners=corners, node_gids=gids,
                           cell_ids=cells, inclusions=incs,
                           eps=np.ones(len(corners)),
                           removal_count=removal_count)


def _periodic_corners(mesh: StructuredMesh, k: int):
    if not whole_number(k) or k < 2 or k % 2 != 0:
        raise LayoutError(
            f"periodic layouts require an even inclusion size k >= 2, got {k!r}; "
            "odd k cannot realise the half-width boundary margin on the grid")
    if mesh.M % (2 * k) != 0:
        raise LayoutError(
            f"M = {mesh.M} is not divisible by 2*k = {2 * k}; the periodic "
            "pattern (period 2k cells, margin k/2 cells) does not fit")
    starts = k // 2 + 2 * k * np.arange(mesh.M // (2 * k))
    cy, cx = np.meshgrid(starts, starts, indexing="ij")   # rows of corners
    return np.column_stack((cx.ravel(), cy.ravel()))


def place_periodic(mesh: StructuredMesh, k: int) -> InclusionLayout:
    """Place (M/(2k))^2 inclusions of side d = k*h on a regular lattice.

    Neighbouring inclusions are separated by d and the gap to the outer
    boundary is d/2, so the layout matches the periodic test geometry.
    """
    corners = _periodic_corners(mesh, k)
    return layout_from_cells(mesh, k, corners)


def place_random(mesh: StructuredMesh, k: int, removal_count: int,
                 seed: int) -> InclusionLayout:
    """Periodic layout with removal_count inclusions removed at random.

    The removal set is drawn without replacement from a counter-based
    generator (Philox) keyed by seed, so layouts are reproducible.
    """
    corners = _periodic_corners(mesh, k)
    if not whole_number(removal_count) or removal_count < 0:
        raise LayoutError(f"removal_count must be a non-negative integer, got {removal_count!r}")
    if not whole_number(seed) or seed < 0:
        raise LayoutError(f"seed must be a non-negative integer, got {seed!r}")
    if removal_count >= len(corners):
        raise LayoutError(
            f"removal_count = {removal_count} would leave no inclusions "
            f"(periodic layout has {len(corners)})")
    rng = np.random.Generator(np.random.Philox(seed))
    removed = rng.choice(len(corners), size=int(removal_count), replace=False)
    kept = np.delete(corners, removed, axis=0)
    return layout_from_cells(mesh, k, kept, int(removal_count))


def assign_epsilon(layout: InclusionLayout, mode: str, *,
                   epsilon: float | None = None,
                   eps_min: float | None = None,
                   eps_max: float = 1e-2,
                   seed: int = 0) -> InclusionLayout:
    """Return a copy of the layout with inclusion parameters assigned.

    mode "uniform" sets every eps_s to epsilon; mode "random" draws eps_s
    independently and uniformly from [eps_min, eps_max] with a Philox
    generator keyed by seed.
    """
    if mode not in EPS_MODES:
        raise ParameterError(f"unknown epsilon mode {mode!r}")
    if mode == "uniform":
        if not real_number(epsilon) or not 0.0 < epsilon <= 1.0:
            raise ParameterError(f"uniform mode needs epsilon in (0, 1], got {epsilon!r}")
        eps = np.full(layout.m, float(epsilon))
    else:
        if (not (real_number(eps_min) and real_number(eps_max))
                or not 0.0 < eps_min <= eps_max <= 1.0):
            raise ParameterError(
                f"random mode needs 0 < eps_min <= eps_max <= 1, got "
                f"eps_min={eps_min!r}, eps_max={eps_max!r}")
        if not whole_number(seed) or seed < 0:
            raise ParameterError(
                f"random mode needs a whole-number seed >= 0, got {seed!r}")
        rng = np.random.Generator(np.random.Philox(seed))
        eps = rng.uniform(eps_min, eps_max, size=layout.m)
    return dataclasses.replace(layout, eps=eps)


@dataclasses.dataclass(frozen=True, eq=False)
class OrderingMap:
    """Permutation between interior-node ordering and system ordering.

    System ordering lists the inclusion nodes first, grouped consecutively
    per inclusion (row-major inside each inclusion), then the remaining
    exterior interior nodes in row-major order.
    """

    perm: np.ndarray      # interior index -> system index
    inv: np.ndarray       # system index -> interior index


def build_ordering(layout: InclusionLayout) -> OrderingMap:
    """Ordering map putting inclusion nodes in the leading block."""
    mesh = layout.mesh
    N = mesh.n_interior
    lead = mesh.interior_index[layout.node_gids.ravel()]
    if np.any(lead < 0):
        raise LayoutError("inclusion node on the boundary")
    taken = np.zeros(N, dtype=bool)
    taken[lead] = True
    inv = np.concatenate((lead, np.flatnonzero(~taken)))
    perm = np.empty(N, dtype=np.int64)
    perm[inv] = np.arange(N)
    return OrderingMap(perm=perm, inv=inv)

