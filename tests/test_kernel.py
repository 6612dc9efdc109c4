"""Tests of the matrix primitives: SVD, pinv, PSD square root."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import opeq
from opeq import (EmptyMatrix, InvalidMatrix, NotPSD, ToleranceConfig, as_matrix, factor, pinv,
                  psd_sqrt, svd)
from opeq.harness import random_unitary, ranked_matrix
from opeq.kernel import relative
from opeq.rng import Xoshiro256StarStar, complex_normal_matrix


def herm2x2_eig(m):
    """Closed-form eigenvalues of a Hermitian 2x2 matrix, descending."""
    a, d, b = m[0, 0].real, m[1, 1].real, m[0, 1]
    mid = (a + d) / 2.0
    rad = np.sqrt(((a - d) / 2.0) ** 2 + abs(b) ** 2)
    return mid + rad, mid - rad


def test_svd_identity():
    np.testing.assert_allclose(svd(np.eye(2)).singular_values, [1.0, 1.0])


def test_svd_diagonal():
    np.testing.assert_allclose(svd(np.diag([3.0, 0.0])).singular_values, [3.0, 0.0])


def test_svd_nilpotent_matches_hand_oracle():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    # oracle: singular values are the square roots of the eigenvalues of m* m
    hi, lo = herm2x2_eig(m.conj().T @ m)
    expected = np.sqrt([hi, lo])
    np.testing.assert_allclose(expected, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(svd(m).singular_values, expected, atol=1e-14)


def test_svd_factors_random():
    rng = Xoshiro256StarStar(11)
    for m_dim, n_dim, r in [(5, 3, 2), (4, 6, 3), (7, 7, 5)]:
        m = ranked_matrix(rng, m_dim, n_dim, r)
        f = svd(m)
        k = min(m_dim, n_dim)
        np.testing.assert_allclose(f.u.conj().T @ f.u, np.eye(k), atol=1e-12 * k)
        np.testing.assert_allclose(f.v.conj().T @ f.v, np.eye(k), atol=1e-12 * k)
        recon = f.u @ np.diag(f.singular_values) @ f.v.conj().T
        assert np.linalg.norm(recon - m) <= 1e-12 * np.linalg.norm(m)
        assert (np.diff(f.singular_values) <= 1e-15).all()


def test_svd_empty_raises():
    with pytest.raises(EmptyMatrix):
        svd(np.zeros((0, 3)))


def test_factorization_applies_the_closed_form_projections_and_pinv():
    rng = Xoshiro256StarStar(41)
    for m_dim, n_dim, r in [(5, 3, 2), (4, 6, 3), (6, 6, 6)]:
        # oracle: a = U diag(sigma) V* with known factors, so P_A = U U*,
        # P_{A*} = V V* and A+ = V diag(1/sigma) U*
        u = random_unitary(rng, m_dim)[:, :r]
        v = random_unitary(rng, n_dim)[:, :r]
        sigma = np.linspace(1.0, 0.1, r)
        a = (u * sigma) @ v.conj().T
        p_a, p_astar, a_plus = u @ u.conj().T, v @ v.conj().T, (v / sigma) @ u.conj().T
        left = complex_normal_matrix(rng, m_dim, 2)
        right = complex_normal_matrix(rng, 2, n_dim)
        f = factor(a)
        assert f.rank == r and f.a.shape == (m_dim, n_dim)
        assert f.norm == pytest.approx(1.0, rel=1e-12)
        tol = dict(atol=1e-12)
        np.testing.assert_allclose(f.p_a(left), p_a @ left, **tol)
        np.testing.assert_allclose(f.n_astar(left), left - p_a @ left, **tol)
        np.testing.assert_allclose(f.right_p_astar(right), right @ p_astar, **tol)
        np.testing.assert_allclose(f.right_n_a(right), right - right @ p_astar, **tol)
        np.testing.assert_allclose(f.pinv(left), a_plus @ left, **tol)
        np.testing.assert_allclose(f.right_pinv(right), right @ a_plus, **tol)
        g = f.adjoint()
        np.testing.assert_allclose(g.a, a.conj().T)
        np.testing.assert_allclose(g.p_a(right.conj().T), p_astar @ right.conj().T, **tol)
        np.testing.assert_allclose(g.pinv(right.conj().T), a_plus.conj().T @ right.conj().T, **tol)


def test_factor_zero_and_empty_have_rank_zero():
    for shape in [(3, 2), (0, 3)]:
        f = factor(np.zeros(shape))
        assert f.rank == 0 and f.norm == 0.0
        assert f.pinv(np.ones((shape[0], 1))).shape == (shape[1], 1)
        assert not f.p_a(np.ones((shape[0], 1))).any()


def test_factor_anchor_sets_the_cutoff_scale():
    dust = 1e-14 * complex_normal_matrix(Xoshiro256StarStar(3), 4, 4)
    assert factor(dust).rank == 4
    anchored = factor(dust, anchor=1.0)
    assert anchored.rank == 0
    assert anchored.norm == factor(dust).norm > 0.0


def penrose_defects(m, x):
    mx, xm = m @ x, x @ m
    return (
        np.linalg.norm(m @ xm - m),
        np.linalg.norm(x @ mx - x),
        np.linalg.norm(mx.conj().T - mx),
        np.linalg.norm(xm.conj().T - xm),
    )


def test_pinv_identity():
    np.testing.assert_allclose(pinv(np.eye(2)), np.eye(2), atol=1e-14)


def test_pinv_scalar():
    np.testing.assert_allclose(pinv(np.array([[2.0]])), [[0.5]], atol=1e-15)


def test_pinv_projector_all_penrose_identities():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    x = pinv(m)
    np.testing.assert_allclose(x, m, atol=1e-14)
    for defect in penrose_defects(m, x):
        assert defect <= 1e-12


def test_pinv_zero_matrix():
    x = pinv(np.zeros((3, 2)))
    assert x.shape == (2, 3)
    assert not x.any()


def test_pinv_penrose_random():
    rng = Xoshiro256StarStar(23)
    for _ in range(30):
        m_dim = 2 + rng.next_u64() % 7
        n_dim = 2 + rng.next_u64() % 7
        r = 1 + rng.next_u64() % min(m_dim, n_dim)
        m = ranked_matrix(rng, m_dim, n_dim, r)
        x = pinv(m)
        d1, d2, d3, d4 = penrose_defects(m, x)
        assert d1 <= 1e-10 * np.linalg.norm(m)
        assert d2 <= 1e-10 * np.linalg.norm(x)
        assert d3 <= 1e-10 and d4 <= 1e-10


def test_pinv_commutes_with_adjoint():
    rng = Xoshiro256StarStar(5)
    for _ in range(10):
        m = ranked_matrix(rng, 5, 4, 3)
        np.testing.assert_allclose(pinv(m.conj().T), pinv(m).conj().T, atol=1e-12)


def test_psd_sqrt_identity():
    np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)


def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-14)


def test_psd_sqrt_rank_one_projector_matches_eigen_oracle():
    m = 0.5 * np.ones((2, 2))
    # oracle: eigenvalues (1, 0) with unit eigenvector (1, 1)/sqrt(2), so the
    # square root is sqrt(1) times the same rank-one projector, i.e. m itself
    hi, lo = herm2x2_eig(m)
    np.testing.assert_allclose([hi, lo], [1.0, 0.0], atol=1e-15)
    v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    oracle = np.sqrt(hi) * (v @ v.conj().T)
    np.testing.assert_allclose(psd_sqrt(m), oracle, atol=1e-14)
    np.testing.assert_allclose(psd_sqrt(m), m, atol=1e-14)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_psd_sqrt_rejects_non_hermitian():
    with pytest.raises(NotPSD):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("k", [-400, -200, -66, 0, 66, 200, 400])
def test_psd_sqrt_verdict_is_scale_invariant(k):
    # The Hermitian check is relative to ||m||, so a common scaling 2^k changes no verdict.
    with pytest.raises(NotPSD):
        psd_sqrt(2.0 ** k * np.array([[0.0, 1.0], [0.0, 0.0]]))
    m = np.array([[2.0, 1.0j], [-1.0j, 1.0]])
    np.testing.assert_allclose(psd_sqrt(2.0 ** k * m), 2.0 ** (k // 2) * psd_sqrt(m), rtol=1e-13)
    # With no absolute floor, the zero matrix passes only because its defect is exactly 0.
    np.testing.assert_array_equal(psd_sqrt(np.zeros((2, 2))), np.zeros((2, 2)))


@pytest.mark.parametrize("k", [600, 1000])
def test_psd_sqrt_fails_closed_on_overflow(k):
    """Beyond about 2^500, ||m||_F overflows to inf; the relative Hermitian defect is then NaN,
    which fails, so a non-Hermitian m raises NotPSD instead of passing as inf <= inf.

    The downward half stays wrong: 2^-600 * [[0, 1], [0, 0]] still returns the zero matrix,
    because its defect and its norm both underflow to an exact 0, which no relative rule can
    tell from a true zero.  Normalising each operand by a power of two at entry (ROADMAP,
    scale-safe entry normalisation) is what will mend it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotPSD, match="not Hermitian"):
            psd_sqrt(2.0 ** k * np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(psd_sqrt(2.0 ** 600 * np.eye(2)), 2.0 ** 300 * np.eye(2), rtol=1e-13)


def test_relative_is_one_rule_for_zero_and_overflowed_scales():
    assert relative(3.0, 4.0) == 0.75
    assert relative(-3.0, 4.0) == -0.75
    assert relative(0.0, 0.0) == 0.0
    assert relative(0.0, math.inf) == 0.0
    for value, scale in ((1e-30, 0.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan), (1.0, -2.0)):
        assert math.isnan(relative(value, scale)), (value, scale)


def test_no_module_has_an_absolute_floor():
    """Every relative residual goes through kernel.relative; a tiny literal such as 1e-300 in a
    max(..., floor) is how a check slips past it and divides roundoff by a near-zero scale."""
    floor = re.compile(r"\b1(\.0*)?e-3\d\d\b")
    sources = sorted(Path(opeq.__file__).parent.glob("*.py"))
    assert sources and [p.name for p in sources if floor.search(p.read_text())] == []


def test_psd_sqrt_clamps_eigenvalue_dust():
    q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    m = q @ np.diag([1.0, -1e-13]) @ q.conj().T
    s = psd_sqrt(m)
    assert np.linalg.eigvalsh(s)[0] >= -1e-14
    assert np.linalg.norm(s @ s - m) <= 1e-10 * np.linalg.norm(m)


def test_psd_sqrt_squares_back_and_commutes():
    rng = Xoshiro256StarStar(9)
    for _ in range(10):
        g = ranked_matrix(rng, 5, 5, 4)
        m = g @ g.conj().T
        s = psd_sqrt(m)
        norm = np.linalg.norm(m)
        assert np.linalg.norm(s @ s - m) <= 1e-10 * norm
        assert np.linalg.norm(s @ m - m @ s) <= 1e-10 * norm ** 2


@pytest.mark.parametrize("bad", [{"rank_rel": 0.0}, {"rank_rel": 1.0},
                                 {"residual_rel": -1e-3}, {"residual_rel": 2.0}])
def test_tolerance_config_validation(bad):
    with pytest.raises(ValueError):
        ToleranceConfig(**bad)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.zeros(3), np.full((2, 2), np.nan), [[1.0, 2.0], [3.0]],
                                 [["x"]]])
def test_as_matrix_raises_invalid_matrix(bad):
    with pytest.raises(InvalidMatrix):
        as_matrix(bad)


def test_complements_of_a_full_rank_side_are_exact_zeros():
    # N_{A*} vanishes when A is onto and N_A when A is injective; computed as
    # c - P c, either would be roundoff dust instead.
    rng = Xoshiro256StarStar(42)
    wide, tall = factor(ranked_matrix(rng, 3, 5, 3)), factor(ranked_matrix(rng, 5, 3, 3))
    left, right = complex_normal_matrix(rng, 3, 2), complex_normal_matrix(rng, 2, 3)
    for zero, shape in ((wide.n_astar(left), (3, 2)), (tall.right_n_a(right), (2, 3))):
        assert not zero.any() and zero.shape == shape and zero.dtype == np.complex128
    # The other side keeps its kernel part.
    assert np.linalg.norm(wide.right_n_a(complex_normal_matrix(rng, 2, 5))) > 0.1
    assert np.linalg.norm(tall.n_astar(complex_normal_matrix(rng, 5, 2))) > 0.1
