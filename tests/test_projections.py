"""Tests of projection quads and range decisions."""

import numpy as np
import pytest

from opeq import (
    DimensionMismatch,
    InvalidMatrix,
    numerical_rank,
    projection_quad,
    range_equal,
    range_inclusion,
    range_intersection,
    solve_congruence_cz,
)
from opeq.harness import ranked_matrix
from opeq.rng import Xoshiro256StarStar, complex_normal_matrix


def test_quad_identity():
    quad = projection_quad(np.eye(2))
    np.testing.assert_allclose(quad.p_a, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(quad.p_astar, np.eye(2), atol=1e-14)
    assert np.linalg.norm(quad.n_a) <= 1e-14
    assert np.linalg.norm(quad.n_astar) <= 1e-14


def test_quad_diagonal_projector():
    quad = projection_quad(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(quad.p_a, np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(quad.p_astar, np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(quad.n_a, np.diag([0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(quad.n_astar, np.diag([0.0, 1.0]), atol=1e-14)


def test_quad_single_column_matches_gram_schmidt_oracle():
    a = np.array([[1.0], [1.0]])
    # oracle: normalize the single column and form the rank-one projector
    u = a / np.linalg.norm(a)
    np.testing.assert_allclose(projection_quad(a).p_a, u @ u.conj().T, atol=1e-14)
    np.testing.assert_allclose(projection_quad(a).p_a, 0.5 * np.ones((2, 2)), atol=1e-14)
    np.testing.assert_allclose(projection_quad(a).p_astar, [[1.0]], atol=1e-14)


def test_quad_invariants_random():
    rng = Xoshiro256StarStar(31)
    for _ in range(20):
        m_dim = 2 + rng.next_u64() % 6
        n_dim = 2 + rng.next_u64() % 6
        r = 1 + rng.next_u64() % min(m_dim, n_dim)
        a = ranked_matrix(rng, m_dim, n_dim, r)
        quad = projection_quad(a)
        norm_a = np.linalg.norm(a)
        for p in (quad.p_a, quad.p_astar):
            assert np.linalg.norm(p @ p - p) <= 1e-10
            assert np.linalg.norm(p - p.conj().T) <= 1e-12
        assert np.linalg.norm(quad.p_a @ a - a) <= 1e-10 * norm_a
        assert np.linalg.norm(quad.n_a @ a.conj().T) <= 1e-10 * norm_a
        assert np.linalg.norm(quad.n_a @ quad.p_astar) <= 1e-12


def test_numerical_rank_examples():
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.zeros((2, 2))) == 0
    # sigma of the all-ones 2x2 is (2, 0)
    assert numerical_rank(np.ones((2, 2))) == 1


def test_rank_symmetry_between_operator_and_adjoint():
    rng = Xoshiro256StarStar(13)
    for _ in range(20):
        a = ranked_matrix(rng, 3 + rng.next_u64() % 5, 3 + rng.next_u64() % 5,
                          1 + rng.next_u64() % 3)
        assert numerical_rank(a) == numerical_rank(a.conj().T)


def test_range_inclusion_self():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    dec = range_inclusion(a, a)
    assert dec.holds and dec.residual <= 1e-14


def test_range_inclusion_fails_orthogonal_column():
    dec = range_inclusion(np.array([[0.0, 0.0], [1.0, 0.0]]), np.diag([1.0, 0.0]))
    assert not dec.holds
    np.testing.assert_allclose(dec.residual, 1.0, atol=1e-14)


def test_range_inclusion_scaled_subrange():
    dec = range_inclusion(np.diag([0.3, 0.0]), np.diag([1.0, 0.0]))
    assert dec.holds


def test_range_inclusion_zero_matrix_always_included():
    dec = range_inclusion(np.zeros((2, 2)), np.diag([1.0, 0.0]))
    assert dec.holds and dec.residual == 0.0


def test_range_inclusion_rank_data_corroborates():
    dec = range_inclusion(np.diag([0.3, 0.0]), np.diag([1.0, 0.0]))
    assert dec.holds and dec.rank_data == {"rank_a": 1}
    dec = range_inclusion(np.array([[0.0, 0.0], [1.0, 0.0]]), np.diag([1.0, 0.0]))
    assert not dec.holds and dec.rank_data == {"rank_a": 1}


def test_range_inclusion_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match=r"^A\(m,p\) is 2x2, but m = 3 from C$"):
        range_inclusion(np.eye(3), np.eye(2))
    with pytest.raises(DimensionMismatch, match=r"^B\(m,q\)"):
        range_intersection(np.eye(3), np.eye(2))
    with pytest.raises(DimensionMismatch, match=r"^C\(m,n\)"):
        solve_congruence_cz(np.eye(2), np.eye(2), np.eye(3))


def test_range_inclusion_rejects_non_finite_and_ragged_c():
    for bad in ([[1.0, np.nan], [0.0, 1.0]], [[1.0, 0.0], [0.0]]):
        with pytest.raises(InvalidMatrix):
            range_inclusion(bad, np.eye(2))


def test_range_equal_examples():
    assert range_equal(np.eye(2), np.eye(2)).holds
    assert range_equal(np.diag([1.0, 0.0]), np.diag([2.0, 0.0])).holds
    assert not range_equal(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])).holds


def test_range_invariant_under_right_invertible_factor():
    rng = Xoshiro256StarStar(17)
    for _ in range(10):
        a = ranked_matrix(rng, 5, 4, 3)
        mix = complex_normal_matrix(rng, 4, 4) + 3.0 * np.eye(4)
        assert range_equal(a, a @ mix).holds
