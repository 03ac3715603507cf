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
                   StructuredMesh, build_ordering, first_non_number,
                   finite_number, triangulate)

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


def _stencil_columns(n: int, ordering: OrderingMap | None) -> np.ndarray:
    """(N, 7) int32 column ids of all seven stencil entries of every row,
    N = n * n.  Row s is natural node inv[s] (s itself without an
    ordering), its neighbours relabelled by perm; a neighbour on the
    boundary gets the sentinel column N."""
    N = n * n
    label = np.arange(N + 1, dtype=np.int32)
    nodes = label[:N]
    if ordering is not None:
        nodes = ordering.inv.astype(np.int32)
        label[:N] = ordering.perm
    y, x = np.divmod(nodes, n)
    west, south, east, north = x == 0, y == 0, x == n - 1, y == n - 1
    cols = np.empty((N, 7), dtype=np.int32)
    for c, (offset, outside) in enumerate((
            (-n - 1, west | south), (-n, south), (-1, west), (0, False),
            (1, east), (n, north), (n + 1, east | north))):
        cols[:, c] = label[np.where(outside, N, nodes + offset)]
    return cols


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
    shape (N, N) with N = (M-1)**2.  Every row stores its seven stencil
    entries, a boundary neighbour in the sentinel column N.  One CSC
    conversion sorts each column's rows and puts column N last, where a
    slice of its arrays drops it; since A is symmetric, those arrays read
    as CSR are A with sorted rows.
    """
    _check_ordering(mesh, ordering)
    N = mesh.n_interior
    csc = sp.csr_matrix(
        (np.tile(_STENCIL, N), _stencil_columns(mesh.M - 1, ordering).ravel(),
         np.arange(0, 7 * N + 1, 7, dtype=np.int32)), shape=(N, N + 1)).tocsc()
    end = csc.indptr[N]
    return sp.csr_matrix((csc.data[:end], csc.indices[:end],
                          csc.indptr[:N + 1]), shape=(N, N))


@np.errstate(over="ignore", invalid="ignore")   # inf and NaN refused below
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
    sigma = _scatter(idx, K, mesh.n_interior)
    if not np.isfinite(sigma.data).all():
        raise ParameterError(f"sigma = 1 + 1/eps leaves the float range: the "
                             f"smallest eps is {float(layout.eps.min())!r}")
    return sigma


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

    Every inclusion of a layout has the same local geometry, so one weight
    vector and one Neumann stiffness block, tiled into B_D, serve all of
    them.  Nothing here reads eps: the blocks depend only on the placement,
    and every eps copy of it shares one set.
    """

    ns: int
    m: int
    d: float
    weights: np.ndarray    # (ns,) row sums of the local consistent mass
    B_D: sp.csr_matrix     # (n, n) block diagonal Neumann stiffness

    @property
    def n(self) -> int:
        return self.m * self.ns

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
    if not np.isclose(weights.sum(), layout.d * layout.d, rtol=1e-12):
        raise AssemblyError("mass weights do not sum to the inclusion area")
    return InclusionBlocks(layout.nodes_per_inclusion, layout.m, layout.d,
                           weights, _block_diagonal(layout.m, B_loc))


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
    values, eps = eps, np.asarray(eps)
    if eps.shape != (blocks.m,):
        raise AssemblyError(f"eps has shape {eps.shape}, expected ({blocks.m},)")
    bad = first_non_number(values)
    if bad is None:
        ok = (eps > 0) & (eps <= 1)
        if not ok.all():
            s = int(np.argmin(ok))
            bad = (s,), eps.item(s)
    if bad is not None:
        (s,), value = bad
        raise ParameterError(f"eps of inclusion {s} is {value!r}, "
                             f"expected a number in (0, 1]")
    eps = eps.astype(float)
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
    """Load vector of the constant source f, a finite real number, with
    one-point quadrature per triangle.

    Each interior node touches six triangles of area h^2 / 2 and adds
    their equal shares f * area / 3 to +0.0 one by one, rounding as a
    scatter over the triangles would (6 * share may not), so a load of -0.0
    reads +0.0.  The vector is constant and reads the same in every
    ordering; ordering is only checked against the mesh.
    """
    _check_ordering(mesh, ordering)
    if not finite_number(f):
        raise ParameterError(f"load must be a finite number, got {f!r}")
    share = float(f) * (0.5 * mesh.h * mesh.h) / 3.0
    total = 0.0
    for _ in range(6):
        total += share
    return np.full(mesh.n_interior, total)


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
    """Export a symmetric sparse matrix in Matrix Market coordinate form.
    The file is opened here, so a path that cannot be written raises
    OSError: scipy's mmwrite given a path returns without one."""
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, sp.coo_matrix(matrix), comment=comment,
                         field="real", symmetry="symmetric")
