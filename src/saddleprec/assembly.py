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
import functools

import numpy as np
import scipy.io
import scipy.sparse as sp

from .mesh import (InclusionLayout, OrderingMap, ParameterError,
                   StructuredMesh, build_ordering, real_number, triangulate)

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


def _stencil_rows(nodes: np.ndarray, n: int):
    """CSR arrays (data, indices, indptr) of the stencil rows of the given
    natural nodes, one row each, with natural column ids in stencil
    order; the index arrays are int32."""
    y, x = np.divmod(nodes, n)
    west, south, east, north = x > 0, y > 0, x < n - 1, y < n - 1
    present = np.empty((nodes.size, 7), dtype=bool)
    counts = np.zeros(nodes.size, dtype=np.int32)
    for c, mask in enumerate((west & south, south, west, True, east, north,
                              east & north)):
        present[:, c] = mask
        counts += mask
    indptr = np.zeros(nodes.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    offsets = np.array([-n - 1, -n, -1, 0, 1, n, n + 1], dtype=np.int32)
    keep = present.ravel()
    return (np.tile(_STENCIL, nodes.size)[keep],
            (nodes[:, None] + offsets).ravel()[keep], indptr)


def _check_ordering(mesh: StructuredMesh, ordering: OrderingMap | None):
    """Refuse an ordering made for a mesh with another node count."""
    if ordering is not None and ordering.perm.size != mesh.n_interior:
        raise ParameterError(
            f"ordering has {ordering.perm.size} nodes, the mesh with M = "
            f"{mesh.M} has {mesh.n_interior} interior nodes")


def assemble_stiffness(mesh: StructuredMesh,
                       ordering: OrderingMap | None = None) -> sp.csr_matrix:
    """Dirichlet P1 stiffness matrix on the interior nodes, unit
    coefficient, with the bytes of the element scatter.

    Rows and columns use the system ordering if one is given, otherwise
    the natural row-major interior ordering; the result is a CSR matrix of
    shape (N, N) with N = (M-1)**2.  Row s is the stencil of natural node
    inv[s], its columns relabelled by perm.  In natural order the stencil
    order is the column order.  Otherwise one CSC conversion sorts each
    column's rows, and since A is symmetric, the CSC arrays read as CSR are
    A with sorted rows.
    """
    _check_ordering(mesh, ordering)
    n = mesh.M - 1
    shape = (n * n,) * 2
    if ordering is None:
        return sp.csr_matrix(
            _stencil_rows(np.arange(n * n, dtype=np.int32), n), shape=shape)
    data, cols, indptr = _stencil_rows(ordering.inv.astype(np.int32), n)
    cols = ordering.perm.astype(np.int32)[cols]
    csc = sp.csr_matrix((data, cols, indptr), shape=shape).tocsc()
    return sp.csr_matrix((csc.data, csc.indices, csc.indptr), shape=shape)


def assemble_sigma_matrix(layout: InclusionLayout,
                          ordering: OrderingMap | None = None) -> sp.csr_matrix:
    """Stiffness matrix of the original problem on the layout's mesh, with
    sigma = 1 + 1/eps_s inside inclusion s and sigma = 1 elsewhere,
    assembled element by element in the ordering assemble_stiffness uses."""
    mesh = layout.mesh
    _check_ordering(mesh, ordering)
    weights = np.ones(mesh.M * mesh.M)
    weights[layout.inclusion_cells()] = np.repeat(1.0 + 1.0 / layout.eps,
                                                  layout.k * layout.k)
    tri, cells = triangulate(mesh.M)
    K = _element_batches(tri.shape[0]) * weights[cells][:, None, None]
    idx = mesh.interior_index[tri]                      # (nt, 3), -1 on boundary
    if ordering is not None:
        idx = np.where(idx >= 0, ordering.perm[np.clip(idx, 0, None)], -1)
    return _scatter(idx, K, mesh.n_interior)


def _assemble_local(k: int, h: float):
    """Neumann stiffness and consistent mass on one k x k cell inclusion,
    nodes in row-major order."""
    tri, _ = triangulate(k)
    ns = (k + 1) ** 2
    mass = np.broadcast_to(0.5 * h * h * _MASS, (tri.shape[0], 3, 3))
    return (_scatter(tri, _element_batches(tri.shape[0]), ns).toarray(),
            _scatter(tri, mass, ns).toarray())


def _block_diagonal(m: int, local: np.ndarray) -> sp.csr_matrix:
    """Block diagonal of m copies of the dense block local: the CSR arrays
    of local tiled with block offsets, the bytes of
    sp.kron(sp.identity(m), sp.csr_matrix(local)) in CSR."""
    block = sp.csr_matrix(local)
    ns = block.shape[0]
    blocks = np.arange(m, dtype=np.int32)[:, None]
    indices = (block.indices + ns * blocks).ravel()
    indptr = np.zeros(m * ns + 1, dtype=np.int32)
    np.add(block.indptr[1:], block.nnz * blocks,
           out=indptr[1:].reshape(m, ns))
    return sp.csr_matrix((np.tile(block.data, m), indices, indptr),
                         shape=(m * ns,) * 2)


@dataclasses.dataclass(frozen=True, eq=False)
class InclusionBlocks:
    """Shared per-inclusion matrices in system ordering.

    Every inclusion of a layout has the same local geometry, so one Neumann
    stiffness block B_loc, one mass block M_loc and one weight vector serve
    all of them.  Nothing here reads eps: the blocks depend only on the
    placement, and every eps copy of it shares one set.  No solve reads
    the block diagonal mass M_D, so it is built on first access.
    """

    ns: int
    m: int
    d: float
    B_loc: np.ndarray      # (ns, ns) Neumann stiffness, kernel = constants
    M_loc: np.ndarray      # (ns, ns) consistent mass
    weights: np.ndarray    # (ns,) = M_loc @ 1
    B_D: sp.csr_matrix     # (n, n) block diagonal of B_loc

    @property
    def n(self) -> int:
        return self.m * self.ns

    @functools.cached_property
    def M_D(self) -> sp.csr_matrix:
        """(n, n) block diagonal of M_loc."""
        return _block_diagonal(self.m, self.M_loc)

    def block_means(self, w: np.ndarray) -> np.ndarray:
        """Mass-weighted mean of w over each inclusion, shape (m,)."""
        return w.reshape(self.m, self.ns) @ self.weights / (self.d * self.d)

    def apply_q(self, w: np.ndarray) -> np.ndarray:
        """Global averaging term Q w (block rank-one, applied via factors)."""
        out = self.apply_projector(w)
        per_block = out.reshape(self.m, self.ns)
        per_block *= self.weights
        return out

    def apply_projector(self, w: np.ndarray) -> np.ndarray:
        """Blockwise projector onto constants along the mass weights."""
        return np.repeat(self.block_means(w), self.ns)

    def from_tags(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """B_D a + Q b, the vector that the tag pair (a, b) stands for."""
        out = self.B_D @ a
        out += self.apply_q(b)
        return out

    def q_sparse(self) -> sp.csr_matrix:
        q = np.outer(self.weights, self.weights) / (self.d * self.d)
        return _block_diagonal(self.m, q)


def assemble_inclusion_blocks(layout: InclusionLayout) -> InclusionBlocks:
    """Neumann stiffness, mass and averaging data for every inclusion."""
    if layout.m == 0:
        raise AssemblyError("layout has no inclusions")
    B_loc, M_loc = _assemble_local(layout.k, layout.mesh.h)
    weights = M_loc @ np.ones(M_loc.shape[0])
    d = layout.d
    if not np.isclose(weights.sum(), d * d, rtol=1e-12):
        raise AssemblyError("mass weights do not sum to the inclusion area")
    return InclusionBlocks(ns=layout.nodes_per_inclusion, m=layout.m, d=d,
                           B_loc=B_loc, M_loc=M_loc, weights=weights,
                           B_D=_block_diagonal(layout.m, B_loc))


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
        # bottom = B_D v|_n - eps bw - Q w, written into its own terms
        bw *= self.eps_node
        bottom = self.blocks.B_D @ v[:self.n]
        bottom -= bw
        bottom -= self.blocks.apply_q(w)
        if counter is not None:
            counter.a += 1
        return np.concatenate((top, bottom))

    def source_tags(self, source: np.ndarray):
        """Tags (a, b) with lower(A_eps source) = B_D a + Q b."""
        w = source[self.N:]
        a = self.eps_node * w
        return np.subtract(source[:self.n], a, out=a), -w

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

    The ordering, A and the blocks depend only on the placement: they are
    built on layout.mesh and kept under "products" in its slot, which every
    eps copy shares.  dict.setdefault makes the check and the store one
    step, also between threads, so concurrent first builds all go on with
    the first one stored and a reader never sees a second one.  Only the
    operator is built per eps copy.  mesh must have layout.mesh.M.
    """
    if mesh.M != layout.mesh.M:
        raise ParameterError(
            f"mesh has M = {mesh.M}, the layout is placed on M = "
            f"{layout.mesh.M}")
    held = layout.slot.get("products")
    if held is None:
        ordering = build_ordering(layout)
        held = layout.slot.setdefault(
            "products", (ordering, assemble_stiffness(layout.mesh, ordering),
                         assemble_inclusion_blocks(layout)))
    ordering, A, blocks = held
    return ordering, A, blocks, build_saddle_operator(A, blocks, layout.eps)


def assemble_load(mesh: StructuredMesh, f,
                  ordering: OrderingMap | None = None) -> np.ndarray:
    """Load vector with one-point barycentric quadrature per triangle.

    f may be a number or a callable f(x, y) accepting arrays; the callable
    gets the barycentres in triangulate's triangle order.  Each interior
    node sums its six triangle shares in that order, as a scatter over the
    triangles would: the cells at (X-1, Y-1) lower and upper, (X-1, Y)
    lower, (X, Y-1) upper, then (X, Y) lower and upper.
    """
    _check_ordering(mesh, ordering)
    M = mesh.M
    n_tri = 2 * M * M
    if callable(f):
        # barycentres ((a + b) + c) / 3 over the nodes (ll, lr, ur) of the
        # lower and (ll, ur, ul) of the upper triangle, as [cx, cy, triangle]
        t = np.arange(M + 1) * mesh.h
        lo, hi = t[:-1], t[1:]
        bx = np.empty((M, M, 2))
        bx[:, :, 0] = (((lo + hi) + hi) / 3.0)[:, None]
        bx[:, :, 1] = (((lo + hi) + lo) / 3.0)[:, None]
        by = np.empty((M, M, 2))
        by[:, :, 0] = ((lo + lo) + hi) / 3.0
        by[:, :, 1] = ((lo + hi) + hi) / 3.0
        vals = np.asarray(f(bx.ravel(), by.ravel()), dtype=float)
        del bx, by
        if vals.shape != (n_tri,):
            vals = np.broadcast_to(vals, (n_tri,)).astype(float)
    elif real_number(f):
        vals = np.full(n_tri, float(f))
    else:
        raise ParameterError(f"load must be a number or callable, got {type(f)!r}")

    area = 0.5 * mesh.h * mesh.h
    share = (vals * area / 3.0).reshape(M, M, 2)        # [cx, cy, triangle]
    del vals
    lower, upper = share[:, :, 0], share[:, :, 1]
    # [X - 1, Y - 1]; the sums start from +0.0, as np.bincount's do, so a
    # node whose six shares are all -0.0 also reads +0.0
    out = np.zeros((M - 1, M - 1))
    for term in (lower[:-1, :-1], upper[:-1, :-1], lower[:-1, 1:],
                 upper[1:, :-1], lower[1:, 1:], upper[1:, 1:]):
        out += term
    out = out.T.ravel()                                 # row-major nodes
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
