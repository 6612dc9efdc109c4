"""Tests of the congruence equations and the range intersection machinery."""

import numpy as np
import pytest

from opeq import (
    DimensionMismatch,
    EmptyIntersection,
    HypothesisViolated,
    IntersectionNotInRangeC,
    NotASolution,
    NotSolvable,
    diagnose_congruence,
    homogeneous_congruence,
    range_equal,
    range_intersection,
    solvability_necessity_check,
    solve_congruence,
    solve_congruence_cz,
)
from opeq.harness import InstanceSpec, generate, ranked_matrix, verify
from opeq.rng import Xoshiro256StarStar, complex_normal_matrix

# worked 2x2 solvable instance: hypotheses and criteria all pass
A_OK = np.diag([1.0, 0.0])
B_OK = np.eye(2)
C_OK = np.array([[0.0, 0.0], [1.0, 0.0]])


def test_diagnose_worked_instance():
    diag = diagnose_congruence(A_OK, B_OK, C_OK)
    assert diag.hypotheses_hold and diag.solvable
    assert diag.hyp_cstar_pa_in_nbstar <= 1e-14


def test_solve_worked_instance():
    x, y, diag = solve_congruence(A_OK, B_OK, C_OK)
    assert np.linalg.norm(x) <= 1e-14
    np.testing.assert_allclose(y, C_OK, atol=1e-14)
    ops = {"A": A_OK, "B": B_OK, "C": C_OK}
    assert verify("congruence", ops, {"X": x, "Y": y}).residuals["equation"] <= 1e-14


def test_solve_zero_rhs():
    x, y, diag = solve_congruence(A_OK, B_OK, np.zeros((2, 2)))
    assert not x.any() and not y.any()
    ops = {"A": A_OK, "B": B_OK, "C": np.zeros((2, 2))}
    assert verify("congruence", ops, {"X": x, "Y": y}).residuals["equation"] == 0.0


def test_solve_worked_violating_instance():
    # hypotheses pass but C N_{B*} has a column outside R(A)
    with pytest.raises(NotSolvable) as err:
        solve_congruence(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), C_OK)
    diag = err.value.diagnosis
    assert diag.hypotheses_hold
    assert not diag.cond_cnbstar_in_a.holds


def test_solve_rejects_failed_hypothesis():
    # R(C) is not inside R(B)
    with pytest.raises(HypothesisViolated):
        solve_congruence(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), C_OK)


def test_generated_solvable_family():
    for seed in range(5):
        out = generate(InstanceSpec(seed=seed, family="congruence-solvable"))
        a, b, c = out["A"], out["B"], out["C"]
        x, y, diag = solve_congruence(a, b, c)
        assert verify("congruence", out, {"X": x, "Y": y}).residuals["equation"] <= 1e-8
        assert solvability_necessity_check(a, b, c, x, y).passed


def test_generated_violating_family():
    for seed in range(5):
        out = generate(InstanceSpec(seed=seed, family="congruence-criterion-violating"))
        with pytest.raises(NotSolvable):
            solve_congruence(out["A"], out["B"], out["C"])


def test_necessity_check_rejects_non_solution():
    with pytest.raises(NotASolution):
        solvability_necessity_check(A_OK, B_OK, C_OK, np.eye(2), np.eye(2))


def test_necessity_check_vacuous_zero_solution():
    zero = np.zeros((2, 2))
    rep = solvability_necessity_check(A_OK, B_OK, zero, zero, zero)
    assert rep.passed


def test_diagnose_inconclusive_when_hypothesis_fails():
    # criteria hold trivially (C N_B* = 0 = C N_A*) while B* C* P_A != 0
    a = np.diag([1.0, 0.0])
    diag = diagnose_congruence(a, a, a)
    assert diag.cond_cnbstar_in_a.holds and diag.cond_cnastar_in_b.holds
    assert not diag.hypotheses_hold and not diag.solvable
    with pytest.raises(HypothesisViolated):
        solve_congruence(a, a, a)


def test_homogeneous_identity_operators():
    v1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    x, y = homogeneous_congruence(np.eye(2), np.eye(2), v1, np.zeros((2, 2)), np.zeros((2, 2)))
    np.testing.assert_allclose(x, v1, atol=1e-14)
    np.testing.assert_allclose(y, -v1, atol=1e-14)
    assert np.linalg.norm(x @ np.eye(2) + y) <= 1e-14


def test_homogeneous_zero_params():
    x, y = homogeneous_congruence(A_OK, B_OK, *(np.zeros((2, 2)) for _ in range(3)))
    assert not x.any() and not y.any()


def test_homogeneous_equal_range_corollary():
    # with R(A) = R(B), V2 = A and V3 = B* always satisfy the hypotheses
    rng = Xoshiro256StarStar(81)
    for seed in (82, 83, 84):
        out = generate(InstanceSpec(seed=seed, family="equal-range-pair", shape=(5, 5, 4, 3, 1)))
        a, b = out["A"], out["B"]
        assert range_equal(a, b).holds
        v1 = complex_normal_matrix(rng, b.shape[1], a.shape[1])
        x, y = homogeneous_congruence(a, b, v1, a, b.conj().T)
        residual = np.linalg.norm(a @ x @ a.conj().T + b @ y @ b.conj().T)
        scale = (np.linalg.norm(a) + np.linalg.norm(b)) ** 2 * np.linalg.norm(v1)
        assert residual <= 1e-10 * max(scale, 1.0)
        assert np.linalg.norm(x) > 1e-10


def test_homogeneous_rejects_bad_parameters():
    # B V1 P_{A*} lands outside R(A) when R(A) and R(B) are orthogonal
    with pytest.raises(HypothesisViolated, match=r"^R\(B V1 P_A\* \+ V2 N_A\) not within R\(A\)"):
        homogeneous_congruence(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                               np.ones((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    # N_B V3 = V3 here is e2 e2*, whose adjoint lies outside R(B) = span e1
    with pytest.raises(HypothesisViolated, match=r"^R\(V3\* N_B - A V1\* P_B\*\) not within R\(B\)"):
        homogeneous_congruence(np.eye(2), np.diag([1.0, 0.0]),
                               np.zeros((2, 2)), np.zeros((2, 2)), [[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch, match=r"^V3\(q,m\)"):
        homogeneous_congruence(np.eye(2), np.ones((2, 3)),
                               np.zeros((3, 2)), np.zeros((2, 2)), np.zeros((2, 2)))


def kernel_projection(rep):
    """N_T = [[X, Z*], [Z, Y]] assembled from the report's blocks."""
    return np.block([[rep.x_block, rep.z_block.conj().T], [rep.z_block, rep.y_block]])


def test_intersection_worked_single_column():
    a = np.array([[1.0], [0.0]])
    rep = range_intersection(a, a)
    np.testing.assert_allclose(kernel_projection(rep), 0.5 * np.ones((2, 2)), atol=1e-14)
    np.testing.assert_allclose(rep.x_block, [[0.5]], atol=1e-14)
    np.testing.assert_allclose(rep.z_block, [[0.5]], atol=1e-14)
    np.testing.assert_allclose(rep.y_block, [[0.5]], atol=1e-14)
    assert rep.dim == rep.dim_rank_formula == 1
    basis = rep.basis
    np.testing.assert_allclose(np.abs(basis), [[1.0], [0.0]], atol=1e-12)


def test_intersection_trivial():
    rep = range_intersection(np.array([[1.0], [0.0]]), np.array([[1.0], [1.0]]))
    assert rep.dim == rep.dim_rank_formula == 0
    assert np.linalg.norm(kernel_projection(rep)) <= 1e-12


def test_intersection_full_ranges():
    rep = range_intersection(np.eye(3), np.eye(3))
    np.testing.assert_allclose(rep.x_block, 0.5 * np.eye(3), atol=1e-12)
    np.testing.assert_allclose(rep.z_block, 0.5 * np.eye(3), atol=1e-12)
    assert rep.dim == 3


def test_intersection_random_invariants():
    rng = Xoshiro256StarStar(91)
    for _ in range(20):
        m = 3 + rng.next_u64() % 5
        p = 2 + rng.next_u64() % 4
        q = 2 + rng.next_u64() % 4
        a = ranked_matrix(rng, m, p, 1 + rng.next_u64() % min(m, p))
        b = ranked_matrix(rng, m, q, 1 + rng.next_u64() % min(m, q))
        rep = range_intersection(a, b)
        proj = kernel_projection(rep)
        assert np.linalg.norm(proj @ proj - proj) <= 1e-10
        assert np.linalg.norm(proj - proj.conj().T) <= 1e-10
        t = np.hstack([a, -b])
        assert np.linalg.norm(t @ proj) <= 1e-10 * max(np.linalg.norm(t), 1.0)
        # the checks above also pass for a projection missing one of N_T's pieces
        dense = np.eye(t.shape[1]) - np.linalg.pinv(t) @ t
        assert np.linalg.norm(proj - dense) <= 1e-10
        # block identity from P^2 = P
        x, z = rep.x_block, rep.z_block
        assert np.linalg.norm(x @ x + z.conj().T @ z - x) <= 1e-10
        assert rep.dim == rep.dim_rank_formula
        assert rep.ax_eq_bz_residual <= 1e-10
        assert rep.azstar_eq_by_residual <= 1e-10
        assert rep.sqrt_range_in_basis.holds
        # pn_s_residual, taken from W alone, is ||P_{S*} N_T N_S||_F with P_{S*} from numpy's SVD of S
        s = np.hstack([a, b])
        sv, vh = np.linalg.svd(s, full_matrices=False)[1:]
        v = vh[sv > sv[0] * 1e-10 * max(s.shape)].conj().T
        p_sstar = v @ v.conj().T
        dense = p_sstar @ proj @ (np.eye(s.shape[1]) - p_sstar)
        assert abs(rep.pn_s_residual - np.linalg.norm(dense)) <= 1e-12


def test_cz_worked_instance():
    a = np.diag([1.0, 0.0])
    x, y, z, rep = solve_congruence_cz(a, a, np.eye(2))
    # kernel projection of [A -A] splits into the shared direction plus the
    # free kernel directions of A, hence the diag(0.5, 1) blocks
    np.testing.assert_allclose(x, np.diag([0.5, 1.0]), atol=1e-12)
    np.testing.assert_allclose(y, np.diag([0.5, 1.0]), atol=1e-12)
    np.testing.assert_allclose(z, np.diag([1.0, 0.0]), atol=1e-12)
    target = a @ x @ a.conj().T + a @ y @ a.conj().T
    np.testing.assert_allclose(target, np.diag([1.0, 0.0]), atol=1e-12)
    res = verify("congruence-cz", {"A": a, "B": a, "C": np.eye(2)}, {"X": x, "Y": y, "Z": z}).residuals
    # relative to max(||A X A* + B Y B*||, ||C Z||): 1e-13 implies the former
    # 1e-12 relative to ||A X A* + B Y B*||
    assert res["equation"] <= 1e-13
    assert min(res["x_norm"], res["y_norm"], res["z_norm"]) > 1e-10


def test_cz_identity_everything():
    x, y, z, rep = solve_congruence_cz(np.eye(2), np.eye(2), np.eye(2))
    np.testing.assert_allclose(x, 0.5 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(y, 0.5 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(z, np.eye(2), atol=1e-12)
    eye = np.eye(2)
    res = verify("congruence-cz", {"A": eye, "B": eye, "C": eye}, {"X": x, "Y": y, "Z": z}).residuals
    assert min(res["x_norm"], res["y_norm"], res["z_norm"]) > 1e-10


def test_cz_empty_intersection():
    with pytest.raises(EmptyIntersection):
        solve_congruence_cz(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2))


def test_cz_intersection_outside_range_c():
    with pytest.raises(IntersectionNotInRangeC):
        solve_congruence_cz(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


@pytest.mark.parametrize("sine", [1e-9, 3e-8])
def test_intersection_dim_is_the_inclusion_decision(sine):
    # a = e1 and a unit b at angle arcsin(sine) from it.  1e-9 lies between the
    # rank cutoff (T = [a -b] keeps rank 2) and residual_rel, so the ranges
    # count as equal and meet; 3e-8 lies above residual_rel.
    a = np.array([[1.0], [0.0], [0.0]])
    b = np.array([[np.sqrt(1.0 - sine ** 2)], [sine], [0.0]])
    meet = range_equal(a, b).holds
    assert meet == (sine < 1e-8)
    rep = range_intersection(a, b)
    assert rep.dim == int(meet)
    assert rep.dim_rank_formula == 0  # rank-based, blind to both angles
    ops = {"A": a, "B": b, "C": np.eye(3)}
    if not meet:
        with pytest.raises(EmptyIntersection):
            solve_congruence_cz(a, b, ops["C"])
        return
    x, y, z, cz = solve_congruence_cz(a, b, ops["C"])
    assert cz.intersection_dim == 1
    assert verify("congruence-cz", ops, {"X": x, "Y": y, "Z": z}).passed


@pytest.mark.parametrize("sine", [1e-9, 1e-12])
def test_intersection_span_residual_is_the_angle_sine(sine):
    # R((A X A*)^{1/2}) = R(A W1) = span(a), at angle arcsin(sine) from the basis vector b
    a = np.array([[1.0], [0.0], [0.0]])
    b = np.array([[np.sqrt(1.0 - sine ** 2)], [sine], [0.0]])
    rep = range_intersection(a, b)
    assert rep.dim == 1
    assert rep.sqrt_range_in_basis.residual == pytest.approx(sine, rel=1e-3)


def test_hyp3_and_the_cz_right_side_match_their_dense_products():
    # hyp3 applies P_A as U_A (no m x m product) and the C Z solver forms A X A* + B Y B*
    # as (A W1)(A W1)* + (B W2)(B W2)*; both agree with the dense formulas to roundoff.
    rng = Xoshiro256StarStar(5)
    a, b, c = ranked_matrix(rng, 6, 5, 3), ranked_matrix(rng, 6, 4, 3), complex_normal_matrix(rng, 6, 6)
    p_a = a @ np.linalg.pinv(a, rcond=1e-10)
    dense = np.linalg.norm(b.conj().T @ c.conj().T @ p_a)
    assert diagnose_congruence(a, b, c).hyp_cstar_pa_in_nbstar == pytest.approx(dense, rel=1e-12)
    ops = generate(InstanceSpec(seed=2, family="equal-range-pair", shape=(6, 5, 4, 3, 2)))
    a, b = ops["A"], ops["B"]
    x, y, z, _ = solve_congruence_cz(a, b, a)
    rhs = a @ x @ a.conj().T + b @ y @ b.conj().T
    np.testing.assert_allclose(z, np.linalg.pinv(a, rcond=1e-10) @ rhs, atol=1e-12 * np.linalg.norm(z))
