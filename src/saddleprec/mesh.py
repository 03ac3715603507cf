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
import json

import numpy as np


class MeshError(ValueError):
    """Invalid mesh resolution."""


class LayoutError(ValueError):
    """Inclusion layout violates a geometric constraint."""


class ParameterError(ValueError):
    """Scalar parameter outside its admissible range."""


@dataclasses.dataclass(frozen=True, eq=False)
class StructuredMesh:
    """Uniform triangulation of (0,1)^2.

    Attributes
    ----------
    M : int
        Cells per side; the mesh step is h = 1/M.
    h : float
        Mesh step.
    triangles : ndarray, shape (2*M*M, 3)
        Global node ids of each triangle, counterclockwise.
    tri_cells : ndarray, shape (2*M*M,)
        Owning cell id (cy*M + cx) of each triangle.
    interior_index : ndarray, shape ((M+1)**2,)
        Global node id -> interior index in row-major order, -1 on the
        boundary.
    interior_ids : ndarray, shape ((M-1)**2,)
        Global node ids of the interior nodes.
    """

    M: int
    h: float
    triangles: np.ndarray
    tri_cells: np.ndarray
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
    if not isinstance(M, (int, np.integer)) or M < 2:
        raise MeshError(f"mesh resolution must be an integer >= 2, got {M!r}")
    M = int(M)
    side = M + 1
    tris, cells = triangulate(M)

    ix = np.arange(side * side) % side
    iy = np.arange(side * side) // side
    interior = (ix > 0) & (ix < M) & (iy > 0) & (iy < M)
    interior_index = np.full(side * side, -1, dtype=np.int64)
    interior_ids = np.flatnonzero(interior)
    interior_index[interior_ids] = np.arange(interior_ids.size)

    return StructuredMesh(M=M, h=1.0 / M, triangles=tris, tri_cells=cells,
                          interior_index=interior_index,
                          interior_ids=interior_ids)


@dataclasses.dataclass(frozen=True, eq=False)
class Inclusion:
    """One square inclusion: k x k cells anchored at cell (cell_x, cell_y);
    its arrays are rows of the layout's stacked arrays."""

    cell_x: int
    cell_y: int
    k: int
    node_gids: np.ndarray   # (k+1)**2 closure nodes, row-major
    cell_ids: np.ndarray    # k*k owning cells


class PlacementSlot:
    """Holder of the eps-independent products of one placement.

    assembly.build_problem stores its (ordering, A, blocks) here, once: the
    first build to finish keeps its products and later ones are dropped, so
    a reader sees either no products or one complete build of them, and
    never a second one after the first.
    """

    __slots__ = ("_held",)

    def __init__(self):
        self._held = {}

    @property
    def products(self):
        return self._held.get("products")

    def keep(self, products):
        """Store products unless some are stored already, and return the
        stored ones; dict.setdefault makes the check and the store one
        step, also between threads."""
        return self._held.setdefault("products", products)


@dataclasses.dataclass(frozen=True, eq=False)
class InclusionLayout:
    """A family of disjoint square inclusions on a structured mesh.

    Inclusion s is anchored at cell corners[s] = (cell_x, cell_y) and owns
    the row-major closure nodes node_gids[s] and cells cell_ids[s].  eps
    holds the stiffness parameter of each inclusion (sigma = 1 + 1/eps_s
    inside inclusion s); placement routines initialise it to 1.  The eps
    copies made by assign_epsilon and layout_from_manifest share the
    placement's arrays and its slot, and with it the eps-free ordering,
    stiffness and inclusion blocks that build_problem assembles on its mesh.
    """

    mesh: StructuredMesh
    k: int
    corners: np.ndarray     # (m, 2) anchor cells
    node_gids: np.ndarray   # (m, (k+1)**2)
    cell_ids: np.ndarray    # (m, k*k)
    inclusions: tuple       # Inclusion views of the rows above
    eps: np.ndarray
    mode: str = "custom"
    seed: int | None = None
    removal_count: int = 0
    slot: PlacementSlot = dataclasses.field(default_factory=PlacementSlot,
                                            repr=False)

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
    def n_exterior(self) -> int:
        return self.mesh.n_interior - self.n

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
                      mode: str = "custom", seed: int | None = None,
                      removal_count: int = 0) -> InclusionLayout:
    """Build a validated layout from anchor cells (lower-left cell of each
    inclusion).

    Raises LayoutError for the first corner, in input order, whose inclusion
    leaves the domain, touches the outer boundary or shares a closure node
    with an earlier inclusion (checked in that order).
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise LayoutError(f"inclusion size k must be a positive integer, got {k!r}")
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
    incs = tuple(Inclusion(cell_x=x, cell_y=y, k=k, node_gids=g, cell_ids=c)
                 for (x, y), g, c in zip(corners.tolist(), gids, cells))
    return InclusionLayout(mesh=mesh, k=k, corners=corners, node_gids=gids,
                           cell_ids=cells, inclusions=incs,
                           eps=np.ones(len(corners)), mode=mode, seed=seed,
                           removal_count=removal_count)


def _periodic_corners(mesh: StructuredMesh, k: int):
    if not isinstance(k, (int, np.integer)) or k < 2 or k % 2 != 0:
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
    return layout_from_cells(mesh, k, corners, mode="periodic")


def place_random(mesh: StructuredMesh, k: int, removal_count: int,
                 seed: int) -> InclusionLayout:
    """Periodic layout with removal_count inclusions removed at random.

    The removal set is drawn without replacement from a counter-based
    generator (Philox) keyed by seed, so layouts are reproducible.
    """
    corners = _periodic_corners(mesh, k)
    if not isinstance(removal_count, (int, np.integer)) or removal_count < 0:
        raise LayoutError(f"removal_count must be a non-negative integer, got {removal_count!r}")
    if removal_count >= len(corners):
        raise LayoutError(
            f"removal_count = {removal_count} would leave no inclusions "
            f"(periodic layout has {len(corners)})")
    rng = np.random.Generator(np.random.Philox(seed))
    removed = rng.choice(len(corners), size=int(removal_count), replace=False)
    kept = np.delete(corners, removed, axis=0)
    return layout_from_cells(mesh, k, kept, mode="random", seed=int(seed),
                             removal_count=int(removal_count))


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
    if mode == "uniform":
        if epsilon is None or not (0.0 < epsilon <= 1.0):
            raise ParameterError(f"uniform mode needs epsilon in (0, 1], got {epsilon!r}")
        eps = np.full(layout.m, float(epsilon))
    elif mode == "random":
        if eps_min is None or not (0.0 < eps_min <= eps_max <= 1.0):
            raise ParameterError(
                f"random mode needs 0 < eps_min <= eps_max <= 1, got "
                f"eps_min={eps_min!r}, eps_max={eps_max!r}")
        rng = np.random.Generator(np.random.Philox(seed))
        eps = rng.uniform(eps_min, eps_max, size=layout.m)
    else:
        raise ParameterError(f"unknown epsilon mode {mode!r}")
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
    n: int
    n_exterior: int

    def to_system(self, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        out[self.perm] = v
        return out

    def to_interior(self, v: np.ndarray) -> np.ndarray:
        return v[self.perm]


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
    return OrderingMap(perm=perm, inv=inv, n=lead.size,
                       n_exterior=N - lead.size)


def layout_manifest(layout: InclusionLayout) -> dict:
    """JSON-able description sufficient to rebuild the layout."""
    return {
        "M": layout.mesh.M,
        "k": layout.k,
        "m": layout.m,
        "mode": layout.mode,
        "seed": layout.seed,
        "removal_count": layout.removal_count,
        "corners": layout.corners.tolist(),
        "eps": [float(e) for e in layout.eps],
    }


def layout_from_manifest(data: dict | str) -> InclusionLayout:
    """Rebuild a layout from layout_manifest output (dict or JSON text)."""
    if isinstance(data, str):
        data = json.loads(data)
    mesh = build_mesh(int(data["M"]))
    layout = layout_from_cells(mesh, int(data["k"]),
                               [tuple(c) for c in data["corners"]],
                               mode=data.get("mode", "custom"),
                               seed=data.get("seed"),
                               removal_count=int(data.get("removal_count", 0)))
    eps = np.asarray(data["eps"], dtype=float)
    if eps.shape != (layout.m,):
        raise ParameterError("manifest eps length does not match inclusion count")
    if np.any(eps <= 0.0) or np.any(eps > 1.0):
        raise ParameterError("manifest eps values must lie in (0, 1]")
    return dataclasses.replace(layout, eps=eps)
