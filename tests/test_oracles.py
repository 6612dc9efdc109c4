"""Dual-route checks: every solver verdict against a vectorized lstsq oracle.

The oracle flattens each equation to one linear system via Kronecker
products and asks numpy.linalg.lstsq (a different LAPACK path than the
package's SVD code) whether a solution exists.  With row-major
flattening, vec(A X B) = kron(A, B.T) @ vec(X).
"""

import numpy as np

from opeq import (
    InstanceSpec,
    diagnose_ax_yb,
    generate,
    reduced_solution,
    solve_ax_by_orthogonal,
    solve_ax_yb,
    solve_congruence,
    NotSolvable,
    RangeNotContained,
)
from opeq.harness import ranked_matrix, verify
from opeq.rng import Xoshiro256StarStar, complex_normal_matrix


def lstsq_residual(design, rhs):
    sol, _, _, _ = np.linalg.lstsq(design, rhs, rcond=None)
    scale = max(np.linalg.norm(rhs), 1e-300)
    return np.linalg.norm(design @ sol - rhs) / scale


def sylvester_system(a, b, c):
    m, p = a.shape
    q, n = b.shape
    design = np.hstack([
        np.kron(a, np.eye(n)),            # A X I
        np.kron(np.eye(m), b.T),          # I Y B
    ])
    return design, c.reshape(-1)


def congruence_system(a, b, c):
    design = np.hstack([
        np.kron(a, a.conj()),             # A X A*
        np.kron(b, b.conj()),             # B Y B*
    ])
    return design, c.reshape(-1)


def test_reduced_solution_matches_lstsq_minimum_norm():
    rng = Xoshiro256StarStar(301)
    for _ in range(20):
        a = ranked_matrix(rng, 5, 4, 1 + rng.next_u64() % 4)
        c = a @ complex_normal_matrix(rng, 4, 3)
        rep = reduced_solution(a, c)
        oracle, _, _, _ = np.linalg.lstsq(a, c, rcond=None)
        assert np.linalg.norm(rep.d - oracle) <= 1e-9 * max(np.linalg.norm(oracle), 1.0)


def test_reduced_solution_refusals_match_lstsq():
    rng = Xoshiro256StarStar(303)
    branches = set()
    for i in range(30):
        a = ranked_matrix(rng, 5, 4, 1 + rng.next_u64() % 3)
        # Every other C is drawn inside R(A), so both verdicts are exercised.
        c = a @ complex_normal_matrix(rng, 4, 2) if i % 2 else complex_normal_matrix(rng, 5, 2)
        oracle = lstsq_residual(a, c)
        try:
            rep = reduced_solution(a, c)
            assert oracle <= 1e-8, f"solver accepted, oracle residual {oracle:.2e}"
            assert verify("douglas", {"A": a, "C": c}, {"X": rep.d}).residuals["equation"] <= 1e-8
            branches.add("accepted")
        except RangeNotContained:
            assert oracle > 1e-6, f"solver refused, oracle residual {oracle:.2e}"
            branches.add("refused")
    assert branches == {"accepted", "refused"}


def test_sylvester_verdicts_match_lstsq():
    for seed in range(15):
        out = generate(InstanceSpec(seed=400 + seed, family="sylvester-solvable",
                                    shape=(4, 4, 3, 3, 1)))
        design, rhs = sylvester_system(out["A"], out["B"], out["C"])
        assert lstsq_residual(design, rhs) <= 1e-8
        assert diagnose_ax_yb(out["A"], out["B"], out["C"]).solvable
        out = generate(InstanceSpec(seed=430 + seed, family="sylvester-unsolvable",
                                    shape=(4, 4, 3, 3, 1)))
        design, rhs = sylvester_system(out["A"], out["B"], out["C"])
        assert lstsq_residual(design, rhs) > 1e-3
        assert not diagnose_ax_yb(out["A"], out["B"], out["C"]).solvable


def test_sylvester_generic_instances_match_lstsq():
    # unstructured draws, solvable or not: the two routes must agree
    rng = Xoshiro256StarStar(305)
    for _ in range(25):
        m, n = 3 + rng.next_u64() % 3, 3 + rng.next_u64() % 3
        p, q = 2 + rng.next_u64() % 3, 2 + rng.next_u64() % 3
        a = ranked_matrix(rng, m, p, 1 + rng.next_u64() % min(m, p))
        b = ranked_matrix(rng, q, n, 1 + rng.next_u64() % min(q, n))
        c = complex_normal_matrix(rng, m, n)
        design, rhs = sylvester_system(a, b, c)
        oracle_solvable = lstsq_residual(design, rhs) <= 1e-8
        assert diagnose_ax_yb(a, b, c).solvable == oracle_solvable
        if oracle_solvable:
            sol = solve_ax_yb(a, b, c)
            cert = verify("sylvester", {"A": a, "B": b, "C": c}, {"X": sol.x, "Y": sol.y})
            assert cert.residuals["equation"] <= 1e-8


def test_congruence_verdicts_match_lstsq():
    for seed in range(10):
        out = generate(InstanceSpec(seed=500 + seed, family="congruence-solvable"))
        design, rhs = congruence_system(out["A"], out["B"], out["C"])
        assert lstsq_residual(design, rhs) <= 1e-8
        x, y, diag = solve_congruence(out["A"], out["B"], out["C"])
        assert verify("congruence", out, {"X": x, "Y": y}).residuals["equation"] <= 1e-8
        out = generate(InstanceSpec(seed=530 + seed, family="congruence-criterion-violating"))
        design, rhs = congruence_system(out["A"], out["B"], out["C"])
        assert lstsq_residual(design, rhs) > 1e-3
        try:
            solve_congruence(out["A"], out["B"], out["C"])
            raise AssertionError("violating instance accepted")
        except NotSolvable:
            pass


def test_orthogonal_verdicts_match_lstsq():
    rng = Xoshiro256StarStar(307)
    for seed in range(10):
        out = generate(InstanceSpec(seed=600 + seed, family="orthogonal-pair"))
        a, b, c = out["A"], out["B"], out["C"]
        x, y, lam = solve_ax_by_orthogonal(a, b, c)
        design = np.hstack([a, b])
        stacked = np.vstack([x, y])
        oracle, _, _, _ = np.linalg.lstsq(design, c, rcond=None)
        assert np.linalg.norm(stacked - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1.0)
        # a right-hand side with a component outside R(A) + R(B)
        if a.shape[0] > np.linalg.matrix_rank(design):
            c_bad = c + complex_normal_matrix(rng, a.shape[0], c.shape[1])
            if lstsq_residual(design, c_bad) > 1e-6:
                try:
                    solve_ax_by_orthogonal(a, b, c_bad)
                    raise AssertionError("unreachable right-hand side accepted")
                except NotSolvable:
                    pass
