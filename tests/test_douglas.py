"""Tests of the A X = C layer: reduced solutions and majorization factors."""

import numpy as np
import pytest

from opeq import (
    DimensionMismatch,
    HypothesisViolated,
    OpeqError,
    RangeNotContained,
    ToleranceAnomaly,
    ToleranceConfig,
    douglas_factor,
    polar_range_check,
    projection_quad,
    reduced_solution,
    solve_ax_by_orthogonal,
    solve_scaled_equality,
)
from opeq.harness import ranked_matrix, random_unitary, verify
from opeq.rng import Xoshiro256StarStar, complex_normal_matrix


def test_reduced_solution_identity_operator():
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    rep = reduced_solution(np.eye(2), c)
    np.testing.assert_allclose(rep.d, c, atol=1e-14)
    assert verify("douglas", {"A": np.eye(2), "C": c}, {"X": rep.d}).residuals["equation"] <= 1e-14


def test_reduced_solution_diagonal_case():
    ops = {"A": np.diag([1.0, 0.0]), "C": np.diag([0.7, 0.0])}
    rep = reduced_solution(ops["A"], ops["C"])
    np.testing.assert_allclose(rep.d, np.diag([0.7, 0.0]), atol=1e-14)
    np.testing.assert_allclose(rep.lambda_factor, 0.49, atol=1e-14)
    # relative to ||D|| = 0.7, so tighter than the same bound on the absolute defect
    assert verify("douglas", ops, {"X": rep.d}).residuals["reducedness"] <= 1e-14


def test_reduced_solution_range_not_contained():
    with pytest.raises(RangeNotContained) as err:
        reduced_solution(np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert err.value.decision.residual == pytest.approx(1.0)


def test_subnormal_coefficient_is_certified():
    # 1 / 2e-317, the kept singular value's reciprocal, is past the double range, so the reduced
    # solution divides by it part by part and never forms it: D = 0, certified.
    a, c = np.full((2, 2), 1e-317), np.zeros((2, 2))
    rep = reduced_solution(a, c)
    assert not rep.d.any() and rep.lambda_factor == 0.0
    assert verify("douglas", {"A": a, "C": c}, {"X": rep.d}).passed


@pytest.mark.parametrize("solve", [lambda c: reduced_solution([[1e-300]], c),
                                   lambda c: solve_ax_by_orthogonal([[1e-300]], [[1e-300]], c)],
                         ids=["douglas", "orthogonal"])
def test_a_reduced_solution_that_overflows_raises(solve):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ToleranceAnomaly, match="overflowed"):
        solve([[1e300]])


def test_a_finite_norm_whose_square_overflows_keeps_lambda_inf():
    # ||D||_2 = 1e200, so lambda = inf, which verify fails.
    ops = {"A": [[1e-100]], "C": [[1e100]]}
    rep = reduced_solution(ops["A"], ops["C"])
    assert rep.lambda_factor == np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        assert verify("douglas", ops, {"X": rep.d}).failures == ("lambda",)


def test_reduced_solution_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        reduced_solution(np.eye(3), np.eye(2))


def test_reduced_solution_uniqueness_under_reprojection():
    rng = Xoshiro256StarStar(41)
    for _ in range(10):
        a = ranked_matrix(rng, 5, 4, 2)
        c = a @ complex_normal_matrix(rng, 4, 3)
        rep = reduced_solution(a, c)
        quad = projection_quad(a)
        other = rep.d + quad.n_a @ complex_normal_matrix(rng, 4, 3)
        # other solves A X = C as well; re-projecting recovers the reduced one
        assert np.linalg.norm(a @ other - c) <= 1e-10 * max(np.linalg.norm(c), 1.0)
        recovered = quad.p_astar @ other
        assert np.linalg.norm(recovered - rep.d) <= 1e-8 * max(np.linalg.norm(rep.d), 1e-30)


def test_general_solution_parameterization():
    rng = Xoshiro256StarStar(43)
    a = ranked_matrix(rng, 6, 5, 3)
    c = a @ complex_normal_matrix(rng, 5, 4)
    rep = reduced_solution(a, c)
    n_a = projection_quad(a).n_a
    for _ in range(5):
        x = rep.d + n_a @ complex_normal_matrix(rng, 5, 4)
        assert np.linalg.norm(a @ x - c) <= 1e-10 * np.linalg.norm(c)


def test_douglas_factor_self():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert douglas_factor(a, a) == pytest.approx(1.0, abs=1e-12)


def test_douglas_factor_scaling():
    assert douglas_factor(np.eye(3), 2.0 * np.eye(3)) == pytest.approx(4.0, abs=1e-12)


def test_douglas_factor_is_tight_on_diagonal_case():
    a = np.diag([1.0, 0.0])
    c = np.diag([3.0, 0.0])
    lam = douglas_factor(a, c)
    assert lam == pytest.approx(9.0, abs=1e-12)
    # at lambda' = 8.9 the probe matrix is diag(8.9 - 9, 0) = diag(-0.1, 0)
    probe = 8.9 * a @ a.conj().T - c @ c.conj().T
    assert np.linalg.eigvalsh(probe)[0] == pytest.approx(-0.1, abs=1e-12)


def test_douglas_factor_none_when_unsolvable():
    assert douglas_factor(np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]])) is None


def test_douglas_factor_is_the_solvers_lambda_factor():
    rng = Xoshiro256StarStar(47)
    a = ranked_matrix(rng, 5, 4, 2)
    c = a @ complex_normal_matrix(rng, 4, 3)
    assert douglas_factor(a, c) == reduced_solution(a, c).lambda_factor
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ToleranceAnomaly, match="overflowed"):
        douglas_factor([[1e-300]], [[1e300]])


def test_solve_scaled_equality_identity():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    rep = solve_scaled_equality(a, a, 1.0)
    assert np.linalg.norm(a @ rep.d - a) <= 1e-12


def test_solve_scaled_equality_unitary_rotation():
    rng = Xoshiro256StarStar(47)
    a = ranked_matrix(rng, 4, 4, 3)
    u = random_unitary(rng, 4)
    c = 2.0 * a @ u
    rep = solve_scaled_equality(a, c, 4.0)
    assert verify("douglas", {"A": a, "C": c}, {"X": rep.d}).residuals["equation"] <= 1e-10
    assert np.linalg.norm(a @ rep.d - c) <= 1e-10 * np.linalg.norm(c)


def test_solve_scaled_equality_rejects_wrong_lambda():
    a = np.eye(2)
    with pytest.raises(HypothesisViolated):
        solve_scaled_equality(a, 2.0 * a, 1.0)
    with pytest.raises(HypothesisViolated):
        solve_scaled_equality(a, a, -1.0)


@pytest.mark.parametrize("lam", [float("inf"), float("nan")])
def test_solve_scaled_equality_rejects_non_finite_lambda(lam):
    # C C* = 4 A A*; inf * 0 would make the defect NaN, which no bound test rejects
    with pytest.raises(HypothesisViolated):
        solve_scaled_equality(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]), lam)


def test_solve_scaled_equality_anomaly_is_an_opeq_error():
    # C C* = A A* passes the loose Frobenius check (defect 1e-6 against a
    # bound of 1e-5) while R(C) = C^2 differs from R(A) = span(e1).
    tol = ToleranceConfig(residual_rel=1e-5)
    with pytest.raises(ToleranceAnomaly) as info:
        solve_scaled_equality(np.diag([1.0, 0.0]), np.diag([1.0, 1e-3]), 1.0, tol)
    assert isinstance(info.value, OpeqError)


def test_polar_range_check_identity():
    assert polar_range_check(np.eye(2)).holds


def test_polar_range_check_nilpotent():
    # |T*| of the upper shift is diag(1, 0); both ranges are the first axis
    assert polar_range_check(np.array([[0.0, 1.0], [0.0, 0.0]])).holds


def test_polar_range_check_random_rectangular():
    rng = Xoshiro256StarStar(53)
    for _ in range(10):
        t = ranked_matrix(rng, 6, 4, 1 + rng.next_u64() % 4)
        assert polar_range_check(t).holds


@pytest.mark.parametrize("s", [1e-6, 1e-7, 1e-8, 1e-9])
def test_polar_range_check_keeps_every_singular_value_the_cutoff_keeps(s):
    # The rank cutoff keeps every s above 4e-10, so |T*| must keep s too; a root of T T* would
    # clamp s^2 below 1e-12 ||T||^2 and fail the check or hold with rank |T*| = 2.
    rng = Xoshiro256StarStar(0)
    u, v = random_unitary(rng, 4), random_unitary(rng, 4)
    rep = polar_range_check(u @ np.diag([1.0, 0.5, s, 0.0]) @ v.conj().T)
    assert rep.holds
    assert rep.rank_data["rank_a"] == rep.rank_data["rank_b"] == 3


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 0)])
def test_polar_range_check_holds_on_an_empty_operator(shape):
    assert polar_range_check(np.zeros(shape)).holds
