"""Tests of A X + Y B = C and the orthogonal-range variant A X + B Y = C."""

import numpy as np
import pytest

from opeq import (
    DimensionMismatch,
    NotASolution,
    NotSolvable,
    completeness_witness,
    diagnose_ax_yb,
    diagnose_congruence,
    homogeneous_ax_yb,
    particular_ax_yb,
    projection_quad,
    random_params,
    solve_ax_by_orthogonal,
    solve_ax_yb,
)
from opeq.harness import InstanceSpec, generate, ranked_matrix, verify
from opeq.rng import Xoshiro256StarStar, complex_normal_matrix

A2 = np.diag([1.0, 0.0])
B2 = np.diag([0.0, 1.0])


def test_diagnose_worked_solvable():
    diag = diagnose_ax_yb(A2, B2, np.eye(2))
    assert diag.solvable and not diag.anomaly
    # N_{A*} C N_B = diag(0,1) diag(1,0) = 0
    assert diag.classical_residual <= 1e-14


def test_diagnose_worked_unsolvable():
    diag = diagnose_ax_yb(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert not diag.solvable and not diag.anomaly
    assert diag.classical_residual == pytest.approx(1.0, abs=1e-14)


def test_anomaly_away_from_a_rank_threshold():
    """A small C N_B fails the range decision, measured against ||C N_B||, yet passes
    the classical residual, measured against ||C||; neither operand is near a rank cutoff."""
    rng = Xoshiro256StarStar(6)
    a, b = ranked_matrix(rng, 4, 3, 2), ranked_matrix(rng, 3, 4, 2)
    x, y, e = (complex_normal_matrix(rng, *shape) for shape in ((3, 4), (4, 3), (4, 4)))
    c = a @ x + y @ b + 1e-9 * e
    diag = diagnose_ax_yb(a, b, c)
    assert not diag.solvable and diag.anomaly
    assert 1e-8 < diag.cond_range_cnb.residual < 1e-7
    assert 1e-9 < diag.classical_residual / np.linalg.norm(c) < 1e-8


def test_diagnose_zero_rhs_trivially_solvable():
    assert diagnose_ax_yb(A2, B2, np.zeros((2, 2))).solvable


def test_diagnose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        diagnose_ax_yb(np.eye(2), np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatch, match=r"^C\(m,m\)"):
        diagnose_congruence(np.eye(2), np.eye(2), np.ones((2, 3)))
    with pytest.raises(DimensionMismatch, match=r"^B\(m,q\)"):
        solve_ax_by_orthogonal(np.eye(2), np.eye(3), np.eye(2))


def test_particular_worked_instance():
    x_p, y_p = particular_ax_yb(A2, B2, np.eye(2))
    np.testing.assert_allclose(x_p, np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(y_p, np.diag([0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(A2 @ x_p + y_p @ B2, np.eye(2), atol=1e-14)


def test_particular_degenerate_operators():
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    x_p, y_p = particular_ax_yb(np.eye(2), np.zeros((2, 2)), c)
    np.testing.assert_allclose(x_p, c, atol=1e-14)
    assert np.linalg.norm(y_p) <= 1e-14
    x_p, y_p = particular_ax_yb(np.zeros((2, 2)), np.eye(2), c)
    assert np.linalg.norm(x_p) <= 1e-14
    np.testing.assert_allclose(y_p, c, atol=1e-14)


def test_particular_raises_on_unsolvable():
    with pytest.raises(NotSolvable):
        particular_ax_yb(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def test_homogeneous_zero_params():
    x_h, y_h = homogeneous_ax_yb(A2, B2, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    assert not x_h.any() and not y_h.any()


def test_homogeneous_full_rank_collapse():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    x_h, y_h = homogeneous_ax_yb(np.eye(2), np.eye(2), np.zeros((2, 2)), w, np.zeros((2, 2)))
    np.testing.assert_allclose(x_h, -w, atol=1e-14)
    np.testing.assert_allclose(y_h, w, atol=1e-14)


def test_homogeneous_always_cancels():
    rng = Xoshiro256StarStar(61)
    for _ in range(10):
        m, n, p, q = (2 + rng.next_u64() % 5 for _ in range(4))
        a = ranked_matrix(rng, m, p, max(1, min(m, p) - 1))
        b = ranked_matrix(rng, q, n, max(1, min(q, n) - 1))
        w1 = complex_normal_matrix(rng, p, n)
        wp = complex_normal_matrix(rng, p, q)
        w4 = complex_normal_matrix(rng, m, q)
        x_h, y_h = homogeneous_ax_yb(a, b, w1, wp, w4)
        scale = np.linalg.norm(a) * (np.linalg.norm(w1) + np.linalg.norm(wp) * np.linalg.norm(b))
        scale += np.linalg.norm(w4) * np.linalg.norm(b)
        assert np.linalg.norm(a @ x_h + y_h @ b) <= 1e-10 * max(scale, 1.0)


def test_homogeneous_shape_validation():
    with pytest.raises(DimensionMismatch):
        homogeneous_ax_yb(A2, B2, np.zeros((3, 2)), np.zeros((2, 2)), np.zeros((2, 2)))


def test_solve_worked_instance_zero_and_random_params():
    ops = {"A": A2, "B": B2, "C": np.eye(2)}
    sol = solve_ax_yb(A2, B2, np.eye(2))
    assert verify("sylvester", ops, {"X": sol.x, "Y": sol.y}).residuals["equation"] <= 1e-14
    np.testing.assert_allclose(sol.x, sol.x_p)
    sol = solve_ax_yb(A2, B2, np.eye(2), params=random_params(A2, B2, seed=5))
    assert verify("sylvester", ops, {"X": sol.x, "Y": sol.y}).residuals["equation"] <= 1e-12


def test_solve_reports_the_params_it_was_given():
    sol = solve_ax_yb(A2, B2, np.eye(2))
    assert sol.params_used is None
    assert sol.x is sol.x_p and sol.y is sol.y_p
    params = random_params(A2, B2, seed=5)
    assert solve_ax_yb(A2, B2, np.eye(2), params=params).params_used is params


def test_solve_homogeneous_rhs():
    params = random_params(A2, B2, seed=6)
    sol = solve_ax_yb(A2, B2, np.zeros((2, 2)), params=params)
    assert np.linalg.norm(A2 @ sol.x + sol.y @ B2) <= 1e-12


def test_completeness_witness_on_particular_pair():
    x_p, y_p = particular_ax_yb(A2, B2, np.eye(2))
    rep = completeness_witness(A2, B2, np.eye(2), x_p, y_p)
    assert rep.passed and rep.x_witness <= 1e-14 and rep.y_witness <= 1e-14


def test_completeness_witness_on_shifted_solution():
    out = generate(InstanceSpec(seed=71, family="sylvester-solvable"))
    a, b, c = out["A"], out["B"], out["C"]
    sol = solve_ax_yb(a, b, c, params=random_params(a, b, seed=72))
    rep = completeness_witness(a, b, c, sol.x, sol.y)
    assert rep.passed


def test_completeness_witness_rejects_non_solution():
    out = generate(InstanceSpec(seed=73, family="sylvester-solvable"))
    a, b, c = out["A"], out["B"], out["C"]
    x_p, y_p = particular_ax_yb(a, b, c)
    quad_a = projection_quad(a)
    n_b = projection_quad(b).n_a
    rng = Xoshiro256StarStar(74)
    bad = x_p + quad_a.p_astar @ complex_normal_matrix(rng, *x_p.shape) @ n_b
    with pytest.raises(NotASolution):
        completeness_witness(a, b, c, bad, y_p)


def test_orthogonal_worked_instance():
    x, y, lam = solve_ax_by_orthogonal(A2, B2, np.eye(2))
    np.testing.assert_allclose(x, np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(y, np.diag([0.0, 1.0]), atol=1e-14)
    assert lam == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_self_right_hand_side():
    out = generate(InstanceSpec(seed=76, family="orthogonal-pair"))
    a, b = out["A"], out["B"]
    x, y, lam = solve_ax_by_orthogonal(a, b, a)
    np.testing.assert_allclose(x, projection_quad(a).p_astar, atol=1e-10)
    assert np.linalg.norm(y) <= 1e-10 * np.linalg.norm(a)


def test_orthogonal_unreachable_direction():
    a = np.diag([1.0, 0.0, 0.0])
    b = np.diag([0.0, 1.0, 0.0])
    c = np.zeros((3, 3))
    c[2, 0] = 1.0
    with pytest.raises(NotSolvable):
        solve_ax_by_orthogonal(a, b, c)


def test_orthogonal_solves_overlapping_ranges():
    # A* B = I != 0: the paper's hypothesis fails, and [X; Y] = pinv([I I]) I = [I/2; I/2]
    eye = np.eye(2)
    x, y, lam = solve_ax_by_orthogonal(eye, eye, eye)
    np.testing.assert_allclose(x, eye / 2, atol=1e-14)
    np.testing.assert_allclose(y, eye / 2, atol=1e-14)
    assert lam == pytest.approx(0.5, abs=1e-14)
    assert verify("orthogonal", {"A": eye, "B": eye, "C": eye}, {"X": x, "Y": y}).passed
