"""Tests of the Hilbert module layer over M_k."""

import numpy as np
import pytest

from opeq import (
    AlgebraElement,
    ContextMismatch,
    ModuleContext,
    ModuleElement,
    ModuleOperator,
    adjoint,
    check_module_linearity,
    inner_product,
    modulus,
    right_action,
)


def elem(ctx, data):
    return ModuleElement(ctx, np.asarray(data, dtype=complex))


def test_context_validation():
    with pytest.raises(ValueError):
        ModuleContext(k=0, n=2)
    with pytest.raises(ValueError):
        ModuleContext(k=1, n=0)


def test_element_shape_validation():
    ctx = ModuleContext(k=2, n=3)
    with pytest.raises(ContextMismatch):
        ModuleElement(ctx, np.zeros((5, 2)))
    with pytest.raises(ContextMismatch):
        AlgebraElement(ctx, np.zeros((2, 3)))


def test_inner_product_scalar_cases():
    ctx = ModuleContext(k=1, n=2)
    x = elem(ctx, [[1.0], [0.0]])
    np.testing.assert_allclose(inner_product(x, x).data, [[1.0]])
    y = elem(ctx, [[0.0], [1.0]])
    np.testing.assert_allclose(inner_product(x, y).data, [[0.0]])


def test_inner_product_block_case():
    ctx = ModuleContext(k=2, n=1)
    x = elem(ctx, [[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(inner_product(x, x).data, [[1.0, 0.0], [0.0, 0.0]])


def test_inner_product_context_mismatch():
    x = elem(ModuleContext(k=1, n=2), [[1.0], [0.0]])
    y = elem(ModuleContext(k=1, n=3), [[1.0], [0.0], [0.0]])
    with pytest.raises(ContextMismatch):
        inner_product(x, y)


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(0)
    ctx = ModuleContext(k=2, n=3)
    for _ in range(20):
        x = elem(ctx, rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
        y = elem(ctx, rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
        lhs = inner_product(x, y).data.conj().T
        rhs = inner_product(y, x).data
        assert np.linalg.norm(lhs - rhs) <= 1e-14 * max(np.linalg.norm(rhs), 1.0)


def test_modulus_examples():
    ctx = ModuleContext(k=1, n=2)
    np.testing.assert_allclose(modulus(elem(ctx, [[1.0], [0.0]])).data, [[1.0]], atol=1e-14)
    np.testing.assert_allclose(modulus(elem(ctx, [[0.0], [0.0]])).data, [[0.0]], atol=1e-14)
    np.testing.assert_allclose(modulus(elem(ctx, [[3.0], [4.0]])).data, [[5.0]], atol=1e-12)


@pytest.mark.parametrize("s", [1e-5, 1e-7, 1e-9])
def test_modulus_keeps_every_singular_value_the_rank_cutoff_keeps(s):
    # |x| = V diag(s) V* is read off x itself: a Gram-matrix root would square 1e-9 into 1e-18,
    # far below any dust cut, and lose it.
    x = elem(ModuleContext(k=2, n=1), np.diag([1.0, s]))
    mod = modulus(x).data
    assert np.linalg.matrix_rank(mod, 1e-12) == 2
    np.testing.assert_allclose(mod, np.diag([1.0, s]), rtol=1e-14, atol=0.0)


def test_adjoint_examples():
    ctx = ModuleContext(k=1, n=2)
    herm = ModuleOperator(ctx, ctx, np.array([[2.0, 1j], [-1j, 3.0]]))
    np.testing.assert_allclose(adjoint(herm).data, herm.data)
    shift = ModuleOperator(ctx, ctx, np.array([[0.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_allclose(adjoint(shift).data, [[0.0, 0.0], [1.0, 0.0]])


def test_adjoint_is_involution_exactly():
    ctx = ModuleContext(k=2, n=2)
    rng = np.random.default_rng(1)
    op = ModuleOperator(ctx, ctx, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert (adjoint(adjoint(op)).data == op.data).all()


def test_adjoint_pairing_random():
    rng = np.random.default_rng(2)
    dom = ModuleContext(k=2, n=3)
    cod = ModuleContext(k=2, n=2)
    op = ModuleOperator(dom, cod, rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
    star = adjoint(op)
    scale = np.linalg.norm(op.data)
    for _ in range(100):
        x = elem(dom, rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
        y = elem(cod, rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        lhs = inner_product(op.apply(x), y).data
        rhs = inner_product(x, star.apply(y)).data
        bound = 1e-12 * max(scale * np.linalg.norm(x.data) * np.linalg.norm(y.data), 1.0)
        assert np.linalg.norm(lhs - rhs) <= bound


def test_linearity_scalar_block_size():
    ctx = ModuleContext(k=1, n=3)
    rng = np.random.default_rng(3)
    op = ModuleOperator(ctx, ctx, rng.standard_normal((3, 3)))
    report = check_module_linearity(op, trials=10, seed=4)
    assert report.passed
    assert report.max_deviation <= 1e-13 * max(report.scale, 1.0)


def test_linearity_block_operator_passes():
    ctx = ModuleContext(k=2, n=2)
    rng = np.random.default_rng(5)
    op = ModuleOperator(ctx, ctx, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert check_module_linearity(op, trials=20, seed=6).passed


def test_linearity_rejects_transpose_action():
    ctx = ModuleContext(k=2, n=1)
    # The deviation is a fixed share of ||f|| ||x|| ||a||, so no common scale c hides it.
    for c in (1.0, 1e-20):
        op = ModuleOperator(ctx, ctx, c * np.eye(2, dtype=complex))

        def transpose_action(x):
            # transposing the block is complex-linear but not module-linear
            return ModuleElement(ctx, c * x.data.T)

        report = check_module_linearity(op, trials=20, seed=7, apply_fn=transpose_action)
        assert not report.passed


def test_cauchy_schwarz_in_norm():
    rng = np.random.default_rng(8)
    ctx = ModuleContext(k=3, n=2)
    for _ in range(20):
        x = elem(ctx, rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        y = elem(ctx, rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        lhs = np.linalg.norm(inner_product(x, y).data, 2)
        rhs = np.linalg.norm(x.data, 2) * np.linalg.norm(y.data, 2)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_module_norm_matches_spectral_norm():
    rng = np.random.default_rng(9)
    ctx = ModuleContext(k=2, n=4)
    for _ in range(10):
        x = elem(ctx, rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
        via_inner = np.sqrt(np.linalg.norm(inner_product(x, x).data, 2))
        direct = np.linalg.norm(x.data, 2)
        assert abs(via_inner - direct) <= 1e-12 * max(direct, 1.0)


def test_right_action_shape_check():
    ctx = ModuleContext(k=2, n=1)
    x = elem(ctx, np.eye(2))
    with pytest.raises(ContextMismatch):
        right_action(x, np.zeros((3, 3)))


def test_operator_context_checks():
    two, three = ModuleContext(k=2, n=2), ModuleContext(k=3, n=1)
    with pytest.raises(ContextMismatch, match="share the block size k"):
        ModuleOperator(two, three, np.zeros((3, 4)))
    with pytest.raises(ContextMismatch, match=r"operator data must be \(4, 4\), got \(4, 3\)"):
        ModuleOperator(two, two, np.zeros((4, 3)))
    op = ModuleOperator(two, two, np.eye(4))
    with pytest.raises(ContextMismatch, match="operator domain"):
        op.apply(elem(ModuleContext(k=2, n=1), np.eye(2)))


def test_linearity_check_needs_a_trial():
    op = ModuleOperator(ModuleContext(k=2, n=1), ModuleContext(k=2, n=1), np.eye(2))
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check_module_linearity(op, trials=0)
