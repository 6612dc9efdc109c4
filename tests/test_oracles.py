"""Dual-route checks: every solver verdict against a vectorized lstsq oracle.

The oracle flattens each equation to one linear system, derived from its
table formula, and asks numpy.linalg.lstsq (a different LAPACK path than
the package's SVD code) whether a solution exists.  With column-major
flattening, vec(L U R) = kron(R.T, L) @ vec(U).
"""

from functools import reduce

import numpy as np
import pytest

from opeq import (
    DEFAULT_TOL,
    InstanceSpec,
    diagnose_ax_yb,
    diagnose_congruence,
    factor,
    generate,
    reduced_solution,
    solve_ax_by_orthogonal,
    solve_ax_yb,
    solve_congruence,
    NotSolvable,
    RangeNotContained,
)
from opeq.harness import EQUATIONS, ranked_matrix, verify
from opeq.kernel import parse_signature
from opeq.rng import Xoshiro256StarStar, complex_normal_matrix


def lstsq_residual(design, rhs):
    sol, _, _, _ = np.linalg.lstsq(design, rhs, rcond=None)
    scale = max(np.linalg.norm(rhs), 1e-300)
    return np.linalg.norm(design @ sol - rhs) / scale


def linear_system(tag, operators):
    """Design matrix and right side of the formula of ``EQUATIONS[tag]``, whose right side is C.

    Each left-side term is L U R for one unknown U, so it adds kron(R.T, L) to U's column block;
    an empty L or R is the identity of U's size.
    """
    eq = EQUATIONS[tag]
    mats = {name: np.asarray(operators[name], dtype=np.complex128) for name in eq.operands}
    operands, unknowns = parse_signature(eq.signature)
    sizes = {dim: size for name, *dims in operands for dim, size in zip(dims, mats[name].shape)}
    shapes = {name: (sizes[rows], sizes[cols]) for name, rows, cols in unknowns}
    blocks, rhs = {}, None
    for sign, factors in eq.terms:
        if sign < 0:
            (name, _), = factors
            rhs = mats[name].reshape(-1, order="F")
            continue
        names = [name for name, _ in factors]
        (at, unknown), = ((i, name) for i, name in enumerate(names) if name in shapes)
        left, right = ([mats[n].conj().T if adjoint else mats[n] for n, adjoint in side]
                       for side in (factors[:at], factors[at + 1:]))
        rows, cols = shapes[unknown]
        lm = reduce(np.matmul, left) if left else np.eye(rows)
        rm = reduce(np.matmul, right) if right else np.eye(cols)
        blocks[unknown] = blocks.get(unknown, 0) + np.kron(rm.T, lm)
    return np.hstack([blocks[name] for name in eq.unknowns]), rhs


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
        oracle = lstsq_residual(*linear_system("douglas", {"A": a, "C": c}))
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
        design, rhs = linear_system("sylvester", out)
        assert lstsq_residual(design, rhs) <= 1e-8
        assert diagnose_ax_yb(out["A"], out["B"], out["C"]).solvable
        out = generate(InstanceSpec(seed=430 + seed, family="sylvester-unsolvable",
                                    shape=(4, 4, 3, 3, 1)))
        design, rhs = linear_system("sylvester", out)
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
        design, rhs = linear_system("sylvester", {"A": a, "B": b, "C": c})
        oracle_solvable = lstsq_residual(design, rhs) <= 1e-8
        assert diagnose_ax_yb(a, b, c).solvable == oracle_solvable
        if oracle_solvable:
            sol = solve_ax_yb(a, b, c)
            cert = verify("sylvester", {"A": a, "B": b, "C": c}, {"X": sol.x, "Y": sol.y})
            assert cert.residuals["equation"] <= 1e-8


def test_sylvester_margin_band_verdict_is_the_certificate():
    """C = A X + Y B + eps E with eps = 10^(-12 + 6u) straddles residual_rel: the diagnosis is solvable
    exactly when verify certifies the particular pair, the decision's residual is that certificate's
    equation residual, and every instance the oracle solves to 1e-10 is solvable."""
    verdicts = set()
    for i in range(400):
        rng = Xoshiro256StarStar(10000 + i)
        eps = 10.0 ** (-12 + 6 * rng.uniform())
        a, b = ranked_matrix(rng, 4, 3, 2), ranked_matrix(rng, 3, 4, 2)
        x, y, e = (complex_normal_matrix(rng, *shape) for shape in ((3, 4), (4, 3), (4, 4)))
        ops = {"A": a, "B": b, "C": a @ x + y @ b + eps * e}
        diag = diagnose_ax_yb(a, b, ops["C"])
        fa, fb = factor(a), factor(b)
        cert = verify("sylvester", ops, {"X": fa.pinv(fb.right_n_a(ops["C"])), "Y": fb.right_pinv(ops["C"])})
        assert diag.solvable == cert.passed, i
        assert diag.cond_range_cnb.residual == cert.residuals["equation"], i
        if lstsq_residual(*linear_system("sylvester", ops)) <= 1e-10:
            assert diag.solvable, i
        verdicts.add(diag.solvable)
    assert verdicts == {True, False}


def douglas_band_instance(tag, i):
    """C = T N + eps E with eps = 10^(-12 + 6u), for T = A of rank 2 (4x3) or T = [A B] with A and B
    each of rank 1 (4x2); returns the operators and T."""
    rng = Xoshiro256StarStar(10000 + i)
    eps = 10.0 ** (-12 + 6 * rng.uniform())
    if tag == "douglas":
        ops = {"A": ranked_matrix(rng, 4, 3, 2)}
    else:
        ops = {"A": ranked_matrix(rng, 4, 2, 1), "B": ranked_matrix(rng, 4, 2, 1)}
    t = np.hstack([ops[name] for name in ("A", "B") if name in ops])
    ops["C"] = t @ complex_normal_matrix(rng, t.shape[1], 3) + eps * complex_normal_matrix(rng, 4, 3)
    return ops, t


@pytest.mark.parametrize("tag", ["douglas", "orthogonal"])
def test_douglas_margin_band_verdict_is_the_certificate(tag):
    """In the same band, T X = C (A X = C or A X + B Y = C) is solved exactly when verify certifies the
    reduced solution T+ C, from the package's own factorization: no accepted answer fails its certificate,
    no refused instance's reduced solution passes it, and a refusal's residual is the certificate's range."""
    verdicts = set()
    for i in range(400):
        ops, t = douglas_band_instance(tag, i)
        try:
            sol, accepted = EQUATIONS[tag].solve(ops, DEFAULT_TOL, None)[0], True
        except RangeNotContained as exc:
            d, accepted = factor(t).pinv(ops["C"]), False
            sol = {"X": d} if tag == "douglas" else {"X": d[:2], "Y": d[2:]}
            refusal = exc.decision.residual
        cert = verify(tag, ops, sol)
        assert cert.passed == accepted, (i, cert.failures)
        if not accepted:
            assert cert.residuals["range"] == refusal, i
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_congruence_verdicts_match_lstsq():
    for seed in range(10):
        out = generate(InstanceSpec(seed=500 + seed, family="congruence-solvable"))
        design, rhs = linear_system("congruence", out)
        assert lstsq_residual(design, rhs) <= 1e-8
        x, y, diag = solve_congruence(out["A"], out["B"], out["C"])
        assert verify("congruence", out, {"X": x, "Y": y}).residuals["equation"] <= 1e-8
        out = generate(InstanceSpec(seed=530 + seed, family="congruence-criterion-violating"))
        design, rhs = linear_system("congruence", out)
        assert lstsq_residual(design, rhs) > 1e-3
        try:
            solve_congruence(out["A"], out["B"], out["C"])
            raise AssertionError("violating instance accepted")
        except NotSolvable:
            pass


def test_congruence_generic_instances_match_lstsq():
    # Ranks below m leave N_{A*} and N_{B*} nonzero.  C is A G A* + B H B* (solvable),
    # G - N_{A*} G N_{B*} (R(C N_{B*}) in R(A) holds, N_{B*} C N_{A*} != 0 does not),
    # or a plain Gaussian; the last two are unsolvable.
    rng = Xoshiro256StarStar(309)
    m = 5
    for i in range(45):
        p, q = 2 + rng.next_u64() % 4, 2 + rng.next_u64() % 4
        a = ranked_matrix(rng, m, p, 1 + rng.next_u64() % min(p, m - 1))
        b = ranked_matrix(rng, m, q, 1 + rng.next_u64() % min(q, m - 1))
        kind = i % 3
        if kind == 0:
            x, y = complex_normal_matrix(rng, p, p), complex_normal_matrix(rng, q, q)
            c = a @ x @ a.conj().T + b @ y @ b.conj().T
        else:
            c = complex_normal_matrix(rng, m, m)
        if kind == 1:
            n_astar = np.eye(m) - a @ np.linalg.pinv(a)
            n_bstar = np.eye(m) - b @ np.linalg.pinv(b)
            c = c - n_astar @ c @ n_bstar
        design, rhs = linear_system("congruence", {"A": a, "B": b, "C": c})
        oracle_solvable = lstsq_residual(design, rhs) <= 1e-8
        status = diagnose_congruence(a, b, c).status
        assert oracle_solvable == (kind == 0), i
        assert (status == "unsolvable") == (kind != 0), (i, status)


def paper_hypotheses_hold(a, b, c, tol=DEFAULT_TOL):
    """The paper's hypotheses R(C) in R(B), R(C*) in R(A) and R(C* P_A) in N(B*), from dense pinv projections,
    each up to ``residual_rel`` of ||C||_F (times ||B||_2 for the third, whose product carries B)."""
    p_a, p_b = (m @ np.linalg.pinv(m, rcond=1e-10) for m in (a, b))
    c_star, norm_c = c.conj().T, np.linalg.norm(c)
    residuals = (np.linalg.norm(c - p_b @ c) / norm_c, np.linalg.norm(c_star - p_a @ c_star) / norm_c,
                 np.linalg.norm(b.conj().T @ c_star @ p_a) / (np.linalg.norm(b, 2) * norm_c))
    return max(residuals) <= tol.residual_rel


def paper_pair(a, b, c):
    """X = A+ C N_{B*} (A+)*, Y = B+ C (B+)*, applied through the package's factorizations."""
    fa, fb = factor(a), factor(b)
    return {"X": fa.adjoint().right_pinv(fa.pinv(fb.adjoint().right_n_a(c))),
            "Y": fb.adjoint().right_pinv(fb.pinv(c.conj().T)).conj().T}


def check_the_paper_theorem(a, b, c):
    """Criteria and hypotheses make the verdict solvable; with both criteria holding, the verdict is verify's
    certificate of the paper's pair, residual to the bit, and a solvable instance is solved by that pair."""
    diag = diagnose_congruence(a, b, c)
    criteria = diag.cond_cnbstar_in_a.holds and diag.cond_cnastar_in_b.holds
    if criteria and paper_hypotheses_hold(a, b, c):
        assert diag.status == "solvable"
    assert (diag.construction is None) == (not criteria) == (diag.status == "unsolvable")
    if criteria:
        pair = paper_pair(a, b, c)
        cert = verify("congruence", {"A": a, "B": b, "C": c}, pair)
        assert cert.passed == diag.solvable and cert.residuals["equation"] == diag.construction.residual
    if diag.solvable:
        x, y, _ = solve_congruence(a, b, c)
        assert np.array_equal(x, pair["X"]) and np.array_equal(y, pair["Y"])
    return diag.status


@pytest.mark.parametrize("k", [1, 2])
def test_congruence_families_satisfy_the_paper_theorem(k):
    """Both families are built to satisfy the paper's hypotheses, so their verdicts follow from the criteria."""
    for family, status in (("congruence-solvable", "solvable"), ("congruence-criterion-violating", "unsolvable")):
        for seed in range(10):
            ops = generate(InstanceSpec(seed=seed, family=family, shape=(6, 5, 4, 3, k)))
            assert paper_hypotheses_hold(ops["A"], ops["B"], ops["C"]), (family, seed)
            assert check_the_paper_theorem(ops["A"], ops["B"], ops["C"]) == status, (family, seed)


def test_congruence_margin_band_verdict_is_the_certificate():
    """C + eps ||C||_F E / ||E||_F on congruence-solvable instances, eps = 10^(-12 + 6u), straddles residual_rel:
    the paper's theorem holds, and the verdict is the pair's certificate whenever the criteria hold."""
    statuses = set()
    for i in range(400):
        rng = Xoshiro256StarStar(10000 + i)
        eps = 10.0 ** (-12 + 6 * rng.uniform())
        m = 4 + i % 3
        ops = generate(InstanceSpec(seed=20000 + i, family="congruence-solvable", shape=(m, m, m, m, 1)))
        e = complex_normal_matrix(rng, m, m)
        c = ops["C"] + eps * np.linalg.norm(ops["C"]) * e / np.linalg.norm(e)
        statuses.add(check_the_paper_theorem(ops["A"], ops["B"], c))
    assert {"solvable", "unsolvable"} <= statuses


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
    # generic pairs, A* B != 0: every other C is drawn inside R(A) + R(B)
    branches = set()
    for i in range(40):
        p, q = 2 + rng.next_u64() % 4, 2 + rng.next_u64() % 3
        a = ranked_matrix(rng, 6, p, 1 + rng.next_u64() % p)
        b = ranked_matrix(rng, 6, q, 1 + rng.next_u64() % q)
        design = np.hstack([a, b])
        c = design @ complex_normal_matrix(rng, p + q, 3) if i % 2 else complex_normal_matrix(rng, 6, 3)
        oracle_solvable = lstsq_residual(*linear_system("orthogonal", {"A": a, "B": b, "C": c})) <= 1e-8
        try:
            x, y, _ = solve_ax_by_orthogonal(a, b, c)
        except RangeNotContained:
            assert not oracle_solvable, i
            branches.add("refused")
            continue
        assert oracle_solvable, i
        oracle, _, _, _ = np.linalg.lstsq(design, c, rcond=None)
        assert np.linalg.norm(np.vstack([x, y]) - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1.0)
        assert verify("orthogonal", {"A": a, "B": b, "C": c}, {"X": x, "Y": y}).passed
        branches.add("solved")
    assert branches == {"solved", "refused"}
