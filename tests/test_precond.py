import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from saddleprec import (
    SchurPreconditioner, ReferenceSchurSolver, ExactAInverse,
    DiagonalAInverse, InnerCgAInverse, make_a_preconditioner,
    build_block_preconditioner, OpCounter,
    build_mesh, place_periodic, assemble_inclusion_blocks,
    ContractViolationError, ParameterError,
    SolverBreakdownError, pl_solve, random_guess,
)
from saddleprec.assembly import _assemble_local, _block_diagonal
from saddleprec.precond import A_KINDS

from saddle_problems import make_problem, make_exact_precond


# ---------------------------------------------------------------------------
# weighted mean projector acting inside the Schur preconditioner


def _projector_matrix(blocks):
    return np.column_stack([blocks.apply_projector(col)
                            for col in np.eye(blocks.n)])


def test_projector_reproduces_block_constants(prob8):
    blocks = prob8.blocks
    e = np.zeros(blocks.n)
    e[:blocks.ns] = 1.0
    np.testing.assert_allclose(blocks.apply_projector(e), e, atol=1e-14)


def test_projector_annihilates_weighted_mean_free_vectors(prob8):
    blocks = prob8.blocks
    rng = np.random.default_rng(0)
    v = rng.standard_normal(blocks.n)
    V = v.reshape(blocks.m, blocks.ns)
    V -= np.outer(V @ blocks.weights / blocks.d ** 2,
                  np.ones(blocks.ns))       # remove weighted means blockwise
    np.testing.assert_allclose(blocks.apply_projector(V.ravel()), 0.0,
                               atol=1e-13)


def test_projector_idempotent_and_self_adjoint_in_mass_inner_product(prob8):
    blocks = prob8.blocks
    P = _projector_matrix(blocks)
    np.testing.assert_allclose(P @ P, P, atol=1e-14)
    M_loc = _assemble_local(prob8.layout.k, prob8.mesh.h)[1]
    MD = _block_diagonal(blocks.m, M_loc).toarray()
    np.testing.assert_allclose(MD @ P, (MD @ P).T, atol=1e-13)


# ---------------------------------------------------------------------------
# tagged O(n) application against the factorized reference


def test_tagged_apply_matches_reference_on_random_images(prob8):
    blocks = prob8.blocks
    schur = SchurPreconditioner(blocks)
    ref = ReferenceSchurSolver(blocks)
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = rng.standard_normal(blocks.n)
        b = rng.standard_normal(blocks.n)
        image = blocks.B_D @ a + blocks.apply_q(b)
        fast = schur.apply_tagged(a, b)
        direct = ref.solve(image)
        scale = max(1.0, np.abs(direct).max())
        assert np.abs(fast - direct).max() <= 1e-12 * scale


@pytest.mark.parametrize("k", [2, 4, 16])
def test_reference_factor_is_the_factor_of_the_local_block(k):
    # the oracle takes its local block back from B_D
    layout = place_periodic(build_mesh(4 * k), k)
    blocks = assemble_inclusion_blocks(layout)
    local = _assemble_local(k, layout.mesh.h)[0] + np.outer(
        blocks.weights, blocks.weights) / (blocks.d * blocks.d)
    want = scipy.linalg.cho_factor(local, lower=True)[0]
    assert ReferenceSchurSolver(blocks)._chol[0].tobytes() == want.tobytes()


def test_tagged_apply_is_inverse_of_schur_sum(prob8):
    blocks = prob8.blocks
    schur = SchurPreconditioner(blocks)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(blocks.n)
    # x = B_D a with a = x, plus Q b with b = x: image of (x, x) is S x
    image = schur.apply_tagged(x, x)
    np.testing.assert_allclose(image, x, atol=1e-13)


def test_block_constant_images(prob8):
    blocks = prob8.blocks
    schur = SchurPreconditioner(blocks)
    e = np.zeros(blocks.n)
    e[:blocks.ns] = 1.0
    zero = np.zeros(blocks.n)
    # H_S B_D e = (I - P) e = 0 and H_S Q e = P e = e
    np.testing.assert_allclose(schur.apply_tagged(e, zero), 0.0, atol=1e-14)
    np.testing.assert_allclose(schur.apply_tagged(zero, e), e, atol=1e-14)


def test_untagged_apply_is_rejected(prob8):
    # H_S has no untagged apply: an operand without tags has no O(n) path
    assert not hasattr(SchurPreconditioner(prob8.blocks), "apply")


@pytest.mark.parametrize("kind", sorted(A_KINDS))
def test_applies_leave_their_inputs_as_they_are(prob8, kind):
    # each apply writes into arrays it made, never into its operands
    pre = build_block_preconditioner(prob8.A, prob8.blocks, kind)
    n, N = prob8.op.n, prob8.op.N
    image, a, b = (random_guess(size, seed)
                   for size, seed in ((N + n, 3), (n, 4), (n, 5)))
    kept = [v.copy() for v in (image, a, b)]
    outputs = [pre.a_inv.apply(image[:N]), pre.apply_to_image(image, a, b),
               pre.schur.apply_tagged(a, b), pre.schur.apply_tagged(a, a)]
    for v, before in zip((image, a, b), kept):
        assert v.tobytes() == before.tobytes()
        assert not any(np.shares_memory(out, v) for out in outputs)
    # one array as both tags: H_S (B_D a + Q a) = a
    np.testing.assert_array_equal(outputs[-1], a)


def test_reference_solver_basics(prob8):
    blocks = prob8.blocks
    ref = ReferenceSchurSolver(blocks)
    e = np.zeros(blocks.n)
    e[:blocks.ns] = 1.0
    m_img = np.zeros(blocks.n)
    m_img[:blocks.ns] = blocks.weights
    np.testing.assert_allclose(ref.solve(m_img), e, atol=1e-12)
    np.testing.assert_array_equal(ref.solve(np.zeros(blocks.n)),
                                  np.zeros(blocks.n))
    rng = np.random.default_rng(8)
    x = rng.standard_normal(blocks.n)
    image = blocks.B_D @ x + blocks.apply_q(x)
    np.testing.assert_allclose(ref.solve(image), x, atol=1e-12)


# ---------------------------------------------------------------------------
# interior-block preconditioners


def test_exact_a_inverse_round_trip(prob16):
    A = prob16.A
    ha = ExactAInverse(A)
    assert ha.kind == "exact"
    rng = np.random.default_rng(5)
    r = rng.standard_normal(A.shape[0])
    np.testing.assert_allclose(A @ ha.apply(r), r, atol=1e-12)
    np.testing.assert_array_equal(ha.apply(np.zeros(A.shape[0])),
                                  np.zeros(A.shape[0]))


def test_diagonal_a_inverse(prob8):
    A = prob8.A
    ha = DiagonalAInverse(A)
    assert ha.kind == "diagonal"
    r = np.ones(A.shape[0])
    np.testing.assert_allclose(ha.apply(r), 1.0 / A.diagonal())


def test_inner_cg_defaults_hit_target_reduction():
    # twelve fixed ILU-preconditioned steps on the largest working mesh
    from saddleprec import assemble_stiffness
    mesh = build_mesh(256)
    A = assemble_stiffness(mesh)
    ha = InnerCgAInverse(A)
    assert ha.kind == "cg" and ha.steps == 12
    rng = np.random.default_rng(17)
    r = rng.standard_normal(A.shape[0])
    x = ha.apply(r)
    import scipy.sparse.linalg as spla
    exact = spla.splu(A.tocsc()).solve(r)
    e = exact - x
    num = float(e @ (A @ e)) ** 0.5
    den = float(exact @ r) ** 0.5        # ||exact||_A
    assert num / den <= 1e-7


def test_inner_cg_counter_and_zero_input(prob16):
    ha = InnerCgAInverse(prob16.A)
    counter = OpCounter()
    out = ha.apply(np.zeros(prob16.A.shape[0]), counter=counter)
    np.testing.assert_array_equal(out, np.zeros(prob16.A.shape[0]))
    r = np.ones(prob16.A.shape[0])
    counter = OpCounter()
    ha.apply(r, counter=counter)
    assert 1 <= counter.a <= ha.steps
    assert counter.ha == 1


def test_inner_cg_breakdown_on_negative_definite_matrix(prob8):
    ha = InnerCgAInverse(-prob8.A)
    with pytest.raises(SolverBreakdownError,
                       match="^inner CG direction lost positivity; base "
                             "preconditioner is not positive definite on "
                             "this input$"):
        ha.apply(np.ones(prob8.A.shape[0]))


def test_diagonal_kind_refuses_a_non_positive_diagonal(prob8):
    with pytest.raises(ContractViolationError,
                       match="^stiffness diagonal must be finite and "
                             "positive$"):
        make_a_preconditioner(-prob8.A, "diagonal")


# the error each kind raises for a NaN or an infinity on the diagonal of A:
# a NaN fails every comparison, so each contract test is written to fail on
# it, and the symmetry probe's inf - inf is a NaN
_NAN_REFUSALS = {"exact": "^H_A kind 'exact' needs a symmetric A",
                 "cg": "^H_A kind 'cg' needs a symmetric A",
                 "diagonal": "^stiffness diagonal must be finite and "
                             "positive$"}


@pytest.mark.parametrize("kind", sorted(A_KINDS))
def test_every_kind_refuses_a_nan_in_a(prob8, kind):
    for value in (np.nan, np.inf, -np.inf):
        A = prob8.A.copy()
        A[3, 3] = value
        with pytest.raises(ContractViolationError,
                           match=_NAN_REFUSALS[kind]):
            make_a_preconditioner(A, kind)


_ILU_OPTIONS = dict(drop_tol=5e-4, fill_factor=12.0, diag_pivot_thresh=0.0,
                    permc_spec="MMD_AT_PLUS_A",
                    options=dict(SymmetricMode=True))


def _fletcher_reeves(A, r, steps, ilu_options):
    """Textbook Fletcher-Reeves CG on A x = r from x = 0, preconditioned by
    the symmetrized ILU 0.5 (M^{-1} + M^{-T}); stops after `steps` steps or
    at the residual floor 1e-15 |r|.  Returns x and the A products made."""
    ilu = spla.spilu(A.tocsc(), **ilu_options)

    def base(v):
        return 0.5 * (ilu.solve(v) + ilu.solve(v, trans="T"))

    x, res = np.zeros_like(r), r.copy()
    floor = 1e-15 * np.linalg.norm(r)
    z = base(res)
    p, rz = z, res @ z
    for products in range(1, steps + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x = x + alpha * p
        res = res - alpha * Ap
        if np.linalg.norm(res) <= floor:
            break
        z = base(res)
        rz, rz_old = res @ z, rz
        p = z + (rz / rz_old) * p
    return x, products


@pytest.mark.parametrize("opts", [
    {}, {"steps": 12, "drop_tol": 1e-2, "fill_factor": 8.0}, {"steps": 1},
], ids=["default", "tuned", "one-step"])
def test_inner_cg_is_the_textbook_fletcher_reeves_recurrence(opts):
    # the inner CG's bits are pinned by CLI outputs; this pins them at
    # library level against the recurrence written out in full
    A = make_problem(32, 2).A
    r = np.random.default_rng(8).standard_normal(A.shape[0])
    ha = InnerCgAInverse(A, **opts)
    counter = OpCounter()
    x = ha.apply(r, counter)
    ilu_options = {**_ILU_OPTIONS, **opts}
    x_ref, products = _fletcher_reeves(A, r, ilu_options.pop("steps", 12),
                                       ilu_options)
    np.testing.assert_array_equal(x, x_ref)
    assert (counter.a, counter.ha) == (products, 1)


@pytest.mark.parametrize("kind", sorted(A_KINDS))
def test_shipped_ha_is_a_fixed_linear_symmetric_operator(kind):
    # the theory assumes a fixed, linear, symmetric H_A; the shipped kinds
    # read 1.3e-16 or less for asymmetry and 3.0e-14 or less for
    # nonlinearity here, while the tuned inner CG (drop 1e-2, fill 8) reads
    # a nonlinearity of 9.3e-3 at this size
    A = make_problem(128, 2).A
    ha = make_a_preconditioner(A, kind)
    x, y = np.random.default_rng(11).standard_normal((2, A.shape[0]))
    hx, hy, hxy = ha.apply(x), ha.apply(y), ha.apply(x + y)
    asymmetry = (abs(x @ hy - y @ hx)
                 / (np.linalg.norm(x) * np.linalg.norm(hy)))
    nonlinearity = np.linalg.norm(hxy - hx - hy) / np.linalg.norm(hxy)
    assert asymmetry <= 1e-12
    assert nonlinearity <= 1e-10


# ---------------------------------------------------------------------------
# the factorizing kinds read A's own arrays: symmetry, bits and memory

@pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
@pytest.mark.parametrize("kind", ["exact", "cg"])
def test_factorizing_kinds_refuse_an_asymmetric_a(prob8, kind, fmt):
    A = (prob8.A + 0.1 * sp.triu(prob8.A, k=1)).asformat(fmt)
    with pytest.raises(ContractViolationError,
                       match=f"^H_A kind '{kind}' needs a symmetric A"):
        make_a_preconditioner(A, kind)


@pytest.mark.parametrize("fmt", ["csc", "coo"])
@pytest.mark.parametrize("kind", ["exact", "cg"])
def test_factorizing_kinds_give_the_same_bits_for_every_format(prob8, kind,
                                                               fmt):
    r = np.random.default_rng(4).standard_normal(prob8.A.shape[0])
    np.testing.assert_array_equal(
        make_a_preconditioner(prob8.A.asformat(fmt), kind).apply(r),
        make_a_preconditioner(prob8.A, kind).apply(r))


@pytest.mark.parametrize("layout_mode", ["periodic", "random"])
def test_factorizing_kinds_keep_the_bits_of_a_csc_copy(layout_mode):
    A = make_problem(32, 2, layout_mode=layout_mode, removal=7).A
    R = np.random.default_rng(6).standard_normal((A.shape[0], 3))
    np.testing.assert_array_equal(ExactAInverse(A).apply(R),
                                  spla.splu(A.tocsc()).solve(R))
    ha, copied = InnerCgAInverse(A), InnerCgAInverse(A)
    copied._ilu = spla.spilu(A.tocsc(), **_ILU_OPTIONS)
    np.testing.assert_array_equal(ha.apply(R[:, 0]), copied.apply(R[:, 0]))


@pytest.mark.parametrize("cls", [ExactAInverse, InnerCgAInverse])
def test_factorizing_kinds_allocate_no_copy_of_a(cls):
    # tracemalloc sees numpy arrays, not SuperLU's own factor storage; a
    # CSC copy of A alone would exceed A's bytes, the symmetry probe's
    # three vectors of length N stay near 0.3 of them
    from saddleprec import assemble_stiffness
    A = assemble_stiffness(build_mesh(64))
    a_bytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    tracemalloc.start()
    try:
        cls(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a_bytes / 2


def test_make_a_preconditioner_dispatch(prob8):
    assert make_a_preconditioner(prob8.A, "exact").kind == "exact"
    assert make_a_preconditioner(prob8.A, "diagonal").kind == "diagonal"
    hcg = make_a_preconditioner(prob8.A, "cg", steps=5, drop_tol=1e-2,
                                fill_factor=8.0)
    assert hcg.kind == "cg" and hcg.steps == 5
    with pytest.raises(ParameterError):
        make_a_preconditioner(prob8.A, "amg")
    # the inner CG is ILU-preconditioned only
    for base in ("none", "jacobi", "sgs"):
        with pytest.raises(ParameterError, match="only 'ilu'"):
            make_a_preconditioner(prob8.A, "cg", base=base)


@pytest.mark.parametrize("opts,match", [
    ({"fill_factor": np.nan}, "fill factor must be positive and finite"),
    ({"fill_factor": np.inf}, "fill factor must be positive and finite"),
    ({"fill_factor": -1.0}, "fill factor must be positive and finite"),
    ({"fill_factor": 0.0}, "fill factor must be positive and finite"),
    ({"drop_tol": -1.0}, "drop tolerance must be nonnegative and finite"),
    ({"drop_tol": np.nan}, "drop tolerance must be nonnegative and finite"),
    ({"drop_tol": np.inf}, "drop tolerance must be nonnegative and finite"),
    ({"steps": 2.5}, "steps: a whole number, at least 1 step, got 2.5"),
    ({"steps": 0}, "steps: a whole number, at least 1 step, got 0"),
    ({"steps": True}, "option 'steps' takes a number, got True"),
    ({"fill_factor": True}, "option 'fill_factor' takes a number, got True"),
    ({"drop_tol": np.False_},
     "option 'drop_tol' takes a number, got np.False_"),
    ({"drop_tol": "1e-2"}, "option 'drop_tol' takes a number, got '1e-2'"),
    ({"fill_factor": None}, "option 'fill_factor' takes a number, got None"),
    ({"steps": "3"}, "option 'steps' takes a number, got '3'"),
], ids=["nan-fill", "inf-fill", "negative-fill", "zero-fill", "negative-drop",
        "nan-drop", "inf-drop", "fractional-steps", "zero-steps", "bool-steps",
        "bool-fill", "bool-drop", "string-drop", "none-fill", "string-steps"])
def test_make_a_preconditioner_refuses_bad_ilu_options(prob8, opts, match):
    with pytest.raises(ParameterError, match=match):
        make_a_preconditioner(prob8.A, "cg", **opts)
    with pytest.raises(ParameterError, match=match):
        InnerCgAInverse(prob8.A, **opts)


def test_make_a_preconditioner_refuses_unknown_cg_options(prob8):
    with pytest.raises(ParameterError,
                       match="^unknown inner CG option 'foo'; options are "
                             "steps, base, drop_tol, fill_factor$"):
        make_a_preconditioner(prob8.A, "cg", foo=1, steps=3)


@pytest.mark.parametrize("kind", ["exact", "diagonal"])
def test_make_a_preconditioner_refuses_options_it_would_drop(prob8, kind):
    with pytest.raises(ParameterError,
                       match=f"H_A kind '{kind}' takes no options, got "
                             "drop_tol, steps"):
        make_a_preconditioner(prob8.A, kind, steps=3, drop_tol=1e-2)


def test_op_counter_totals(prob8):
    # a report's counts are the totals of the counter it ran on, counts made
    # before the solve included: PL's start and each step take one A_eps and
    # one H apply
    c = OpCounter(a=3, ha=2)
    rep = pl_solve(prob8.op, make_exact_precond(prob8),
                   z0=random_guess(prob8.op.size, 1), counter=c)
    assert (c.a, c.ha) == (4 + rep.iterations, 3 + rep.iterations)
    assert (rep.a_applies, rep.ha_applies) == (c.a, c.ha)
    assert rep.total_applies == c.a + c.ha


# ---------------------------------------------------------------------------
# assembled block preconditioner


def test_block_preconditioner_wiring(prob8):
    pre = build_block_preconditioner(prob8.A, prob8.blocks)
    assert pre.N == prob8.op.N
    assert pre.a_inv.kind == "exact"
    pre_cg = build_block_preconditioner(prob8.A, prob8.blocks, ha_kind="cg",
                                        steps=4)
    assert pre_cg.a_inv.kind == "cg" and pre_cg.a_inv.steps == 4


def test_source_tags_reproduce_lower_block(prob8):
    op, blocks = prob8.op, prob8.blocks
    rng = np.random.default_rng(21)
    z = rng.standard_normal(op.size)
    a, b = op.source_tags(z)
    image = blocks.B_D @ a + blocks.apply_q(b)
    np.testing.assert_allclose(image, op.apply(z)[op.N:], atol=1e-12)


def test_apply_to_image_counts_operations(prob8):
    pre = make_exact_precond(prob8)
    op = prob8.op
    rng = np.random.default_rng(2)
    z = rng.standard_normal(op.size)
    image = op.apply(z)
    a, b = op.source_tags(z)
    counter = OpCounter()
    out = pre.apply_to_image(image, a, b, counter=counter)
    assert out.shape == (op.size,)
    assert counter.ha == 1 and counter.a == 0
