"""P1 finite element assembly for the inclusion problem.

Builds the Dirichlet stiffness matrix on interior nodes, the per-inclusion
Neumann stiffness and mass blocks, the rank-one averaging blocks, and the
indefinite block operator

    [ A     B^T          ]
    [ B    -(Sig B_D + Q)]

acting on (u, p), where B = [B_D 0] restricts to the inclusion nodes, Sig
scales each inclusion block by its parameter eps_s and Q is the block
rank-one averaging term.  All matrices are assembled in the system ordering
given by an OrderingMap (inclusion nodes first, grouped per inclusion).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.io
import scipy.sparse as sp

from .mesh import (InclusionLayout, OrderingMap, ParameterError,
                   StructuredMesh, build_ordering, triangulate)

# element stiffness for the two triangle shapes (ll, lr, ur) and (ll, ur, ul);
# constant P1 gradients make them independent of h
_K_LOWER = 0.5 * np.array([[1.0, -1.0, 0.0],
                           [-1.0, 2.0, -1.0],
                           [0.0, -1.0, 1.0]])
_K_UPPER = 0.5 * np.array([[1.0, 0.0, -1.0],
                           [0.0, 1.0, -1.0],
                           [-1.0, -1.0, 2.0]])
# consistent mass kernel, to be scaled by the triangle area
_MASS = np.array([[2.0, 1.0, 1.0],
                  [1.0, 2.0, 1.0],
                  [1.0, 1.0, 2.0]]) / 12.0


class AssemblyError(RuntimeError):
    """Assembled operator violates a structural requirement."""


def _element_batches(n_tri: int):
    """Per-triangle element matrices, alternating lower/upper shape."""
    K = np.empty((n_tri, 3, 3))
    K[0::2] = _K_LOWER
    K[1::2] = _K_UPPER
    return K


def _scatter(tri: np.ndarray, K: np.ndarray, size: int) -> sp.csr_matrix:
    """Sum the element matrices K[t] over the node ids tri[t] into a
    size x size matrix; entries touching a negative id are dropped."""
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    vals = K.reshape(-1)
    keep = (rows >= 0) & (cols >= 0)
    A = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                      shape=(size, size))
    return A.tocsr()


# the stored row of the unit-coefficient stiffness in column order: SW, S, W,
# C, E, N, NE.  The diagonal split couples SW and NE with a sum of two zero
# element entries, which the element scatter stores; so does the stencil.
_STENCIL = np.array([0.0, -1.0, -1.0, 4.0, -1.0, -1.0, 0.0])


def _stencil_stiffness(M: int, ordering: OrderingMap | None) -> sp.csr_matrix:
    """The unit-coefficient stiffness with the bytes of the element scatter:
    built in natural order, then relabelled and re-sorted by two
    compressed-format transposes."""
    n = M - 1
    x, y = np.meshgrid(np.arange(n), np.arange(n))
    x, y = x.ravel(), y.ravel()
    west, south, east, north = x > 0, y > 0, x < n - 1, y < n - 1
    present = np.column_stack((west & south, south, west, np.ones_like(west),
                               east, north, east & north))
    cols = np.arange(n * n)[:, None] + [-n - 1, -n, -1, 0, 1, n, n + 1]
    indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1))))
    data = np.broadcast_to(_STENCIL, present.shape)[present]
    if ordering is None:
        return sp.csr_matrix((data, cols[present], indptr), shape=(n * n,) * 2)
    perm = ordering.perm
    # natural rows, system columns; its CSC holds each column's rows sorted
    csc = sp.csr_matrix((data, perm[cols[present]], indptr),
                        shape=(n * n,) * 2).tocsc()
    return sp.csc_matrix((csc.data, perm[csc.indices], csc.indptr),
                         shape=csc.shape).tocsr()


def assemble_stiffness(mesh: StructuredMesh, ordering: OrderingMap | None = None,
                       cell_weights: np.ndarray | None = None) -> sp.csr_matrix:
    """Dirichlet P1 stiffness matrix on the interior nodes.

    Parameters
    ----------
    mesh : StructuredMesh
    ordering : OrderingMap, optional
        If given, rows/columns use the system ordering; otherwise the natural
        row-major interior ordering.
    cell_weights : ndarray, optional
        Piecewise-constant coefficient per cell (both triangles of a cell get
        the same weight).  Defaults to 1.

    Returns
    -------
    csr_matrix, shape (N, N) with N = (M-1)**2.
    """
    if cell_weights is None:
        return _stencil_stiffness(mesh.M, ordering)
    tri = mesh.triangles
    w = np.asarray(cell_weights, dtype=float)[mesh.tri_cells]
    K = _element_batches(tri.shape[0]) * w[:, None, None]

    idx = mesh.interior_index[tri]                      # (nt, 3), -1 on boundary
    if ordering is not None:
        sysmap = np.where(idx >= 0, ordering.perm[np.clip(idx, 0, None)], -1)
    else:
        sysmap = idx
    return _scatter(sysmap, K, mesh.n_interior)


def assemble_sigma_matrix(mesh: StructuredMesh, layout: InclusionLayout,
                          ordering: OrderingMap | None = None) -> sp.csr_matrix:
    """Stiffness matrix of the original problem with sigma = 1 + 1/eps_s
    inside inclusion s and sigma = 1 elsewhere."""
    weights = np.ones(mesh.M * mesh.M)
    weights[layout.inclusion_cells()] = np.repeat(1.0 + 1.0 / layout.eps,
                                                  layout.k * layout.k)
    return assemble_stiffness(mesh, ordering, cell_weights=weights)


def _assemble_local(k: int, h: float):
    """Neumann stiffness and consistent mass on one k x k cell inclusion,
    nodes in row-major order."""
    tri, _ = triangulate(k)
    ns = (k + 1) ** 2
    mass = np.broadcast_to(0.5 * h * h * _MASS, (tri.shape[0], 3, 3))
    return (_scatter(tri, _element_batches(tri.shape[0]), ns).toarray(),
            _scatter(tri, mass, ns).toarray())


@dataclasses.dataclass(frozen=True, eq=False)
class InclusionBlocks:
    """Shared per-inclusion matrices in system ordering.

    Every inclusion of a layout has the same local geometry, so one Neumann
    stiffness block B_loc, one mass block M_loc and one weight vector serve
    all of them.  Nothing here reads eps: the blocks depend only on the
    placement, and every eps copy of it shares one set.
    """

    ns: int
    m: int
    d: float
    B_loc: np.ndarray      # (ns, ns) Neumann stiffness, kernel = constants
    M_loc: np.ndarray      # (ns, ns) consistent mass
    weights: np.ndarray    # (ns,) = M_loc @ 1
    B_D: sp.csr_matrix     # (n, n) block diagonal of B_loc
    M_D: sp.csr_matrix     # (n, n) block diagonal of M_loc

    @property
    def n(self) -> int:
        return self.m * self.ns

    def block_means(self, w: np.ndarray) -> np.ndarray:
        """Mass-weighted mean of w over each inclusion, shape (m,)."""
        return w.reshape(self.m, self.ns) @ self.weights / (self.d * self.d)

    def apply_q(self, w: np.ndarray) -> np.ndarray:
        """Global averaging term Q w (block rank-one, applied via factors)."""
        dots = self.block_means(w)
        return (dots[:, None] * self.weights[None, :]).ravel()

    def apply_projector(self, w: np.ndarray) -> np.ndarray:
        """Blockwise projector onto constants along the mass weights."""
        return np.repeat(self.block_means(w), self.ns)

    def from_tags(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """B_D a + Q b, the vector that the tag pair (a, b) stands for."""
        return self.B_D @ a + self.apply_q(b)

    def q_sparse(self) -> sp.csr_matrix:
        q = np.outer(self.weights, self.weights) / (self.d * self.d)
        return sp.kron(sp.identity(self.m, format="csr"), sp.csr_matrix(q),
                       format="csr")


def assemble_inclusion_blocks(mesh: StructuredMesh,
                              layout: InclusionLayout) -> InclusionBlocks:
    """Neumann stiffness, mass and averaging data for every inclusion."""
    if layout.m == 0:
        raise AssemblyError("layout has no inclusions")
    B_loc, M_loc = _assemble_local(layout.k, mesh.h)
    weights = M_loc @ np.ones(M_loc.shape[0])
    d = layout.d
    if not np.isclose(weights.sum(), d * d, rtol=1e-12):
        raise AssemblyError("mass weights do not sum to the inclusion area")
    eye = sp.identity(layout.m, format="csr")
    B_D = sp.kron(eye, sp.csr_matrix(B_loc), format="csr")
    M_D = sp.kron(eye, sp.csr_matrix(M_loc), format="csr")
    return InclusionBlocks(ns=layout.nodes_per_inclusion, m=layout.m, d=d,
                           B_loc=B_loc, M_loc=M_loc, weights=weights,
                           B_D=B_D, M_D=M_D)


@dataclasses.dataclass(frozen=True, eq=False)
class SaddleOperator:
    """Matrix-free application of the indefinite block operator, the only
    part of a problem that reads eps: it enters through Sig B_D alone."""

    A: sp.csr_matrix
    blocks: InclusionBlocks
    N: int
    n: int
    eps: np.ndarray        # (m,) eps of each inclusion
    eps_node: np.ndarray   # (n,) eps of the inclusion owning each node

    @property
    def size(self) -> int:
        return self.N + self.n

    def apply(self, z: np.ndarray, counter=None) -> np.ndarray:
        """Apply the block operator to z = (v, w)."""
        if z.shape != (self.size,):
            raise ParameterError(
                f"operand has shape {z.shape}, operator expects ({self.size},)")
        v = z[:self.N]
        w = z[self.N:]
        bw = self.blocks.B_D @ w
        top = self.A @ v
        top[:self.n] += bw
        bottom = (self.blocks.B_D @ v[:self.n]
                  - self.eps_node * bw
                  - self.blocks.apply_q(w))
        if counter is not None:
            counter.a += 1
        return np.concatenate((top, bottom))

    def source_tags(self, source: np.ndarray):
        """Tags (a, b) with lower(A_eps source) = B_D a + Q b."""
        w = source[self.N:]
        return source[:self.n] - self.eps_node * w, -w

    def to_sparse(self) -> sp.csr_matrix:
        """Explicit sparse form, mainly for export and dense oracles."""
        n, N = self.n, self.N
        B = sp.hstack([self.blocks.B_D,
                       sp.csr_matrix((n, N - n))], format="csr")
        C = (self.blocks.B_D.multiply(self.eps_node[:, None])
             + self.blocks.q_sparse())
        return sp.bmat([[self.A, B.T], [B, -C]], format="csr")


def build_saddle_operator(A: sp.csr_matrix, blocks: InclusionBlocks,
                          eps) -> SaddleOperator:
    N = A.shape[0]
    n = blocks.n
    if n > N:
        raise AssemblyError("more inclusion nodes than interior nodes")
    eps = np.array(eps, dtype=float)
    if eps.shape != (blocks.m,):
        raise AssemblyError(f"eps has shape {eps.shape}, expected ({blocks.m},)")
    return SaddleOperator(A=A, blocks=blocks, N=N, n=n, eps=eps,
                          eps_node=np.repeat(eps, blocks.ns))


def build_problem(mesh: StructuredMesh, layout: InclusionLayout):
    """Convenience: ordering, stiffness, blocks and operator in one call.

    The ordering, A and the blocks depend only on the placement.  With the
    layout's own mesh they come from its slot, which every eps copy of it
    shares; a miss builds them and keeps them there, and a call goes on
    with whatever the slot holds then, so concurrent first builds all get
    the first one to finish.  Only the operator is built per eps copy.
    """
    own = mesh is layout.mesh
    held = layout.slot.products if own else None
    if held is None:
        ordering = build_ordering(layout)
        held = (ordering, assemble_stiffness(mesh, ordering),
                assemble_inclusion_blocks(mesh, layout))
        if own:
            held = layout.slot.keep(held)
    ordering, A, blocks = held
    return ordering, A, blocks, build_saddle_operator(A, blocks, layout.eps)


def assemble_load(mesh: StructuredMesh, f,
                  ordering: OrderingMap | None = None) -> np.ndarray:
    """Load vector with one-point barycentric quadrature per triangle.

    f may be a number or a callable f(x, y) accepting arrays.
    """
    tri = mesh.triangles
    if callable(f):
        coords = mesh.node_coords(tri.ravel()).reshape(tri.shape[0], 3, 2)
        bary = coords.mean(axis=1)
        vals = np.asarray(f(bary[:, 0], bary[:, 1]), dtype=float)
        if vals.shape != (tri.shape[0],):
            vals = np.broadcast_to(vals, (tri.shape[0],)).astype(float)
    elif isinstance(f, (int, float, np.floating, np.integer)):
        vals = np.full(tri.shape[0], float(f))
    else:
        raise ParameterError(f"load must be a number or callable, got {type(f)!r}")

    area = 0.5 * mesh.h * mesh.h
    contrib = np.repeat(vals * area / 3.0, 3)
    idx = mesh.interior_index[tri.ravel()]
    keep = idx >= 0
    out = np.bincount(idx[keep], weights=contrib[keep],
                      minlength=mesh.n_interior)
    if ordering is not None:
        out = ordering.to_system(out)
    return out


def recover_p_from_u(u: np.ndarray, op: SaddleOperator) -> np.ndarray:
    """Per-inclusion pressure recovered from a converged primal solution.

    p_s = (u|_s - c_s)/eps_s with c_s the mass-weighted mean of u over the
    inclusion, so each block of p has zero weighted mean.
    """
    blocks = op.blocks
    U = u[:blocks.n].reshape(blocks.m, blocks.ns)
    P = (U - blocks.block_means(U)[:, None]) / op.eps[:, None]
    return P.ravel()


def write_matrix_market(path, matrix, comment: str = "") -> None:
    """Export a symmetric sparse matrix in Matrix Market coordinate form."""
    scipy.io.mmwrite(path, sp.coo_matrix(matrix), comment=comment,
                     field="real", symmetry="symmetric")
