"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every numeric threshold is pinned here; the suites draw their instances
from the seeded harness so reruns are identical.
"""

import json

import numpy as np

from opeq import (
    InstanceSpec,
    ModuleContext,
    ModuleElement,
    ModuleOperator,
    RangeNotContained,
    adjoint,
    check_module_linearity,
    completeness_witness,
    diagnose_ax_yb,
    douglas_factor,
    generate,
    inner_product,
    numerical_rank,
    pinv,
    projection_quad,
    range_intersection,
    reduced_solution,
    solvability_necessity_check,
    solve_ax_by_orthogonal,
    solve_ax_yb,
    solve_congruence,
    solve_congruence_cz,
)
from opeq.cli import run_command, truncated_shift_demo
from opeq.harness import random_unitary, ranked_matrix, verify
from opeq.rng import Xoshiro256StarStar, complex_normal_matrix
from opeq.sylvester import random_params


def finish(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}")
    assert not failures, f"{len(failures)} failure(s), first: {failures[0]}"


def test_criterion_01_penrose_suite():
    failures = []
    rng = Xoshiro256StarStar(101)
    for i in range(500):
        m_dim = 1 + rng.next_u64() % 12
        n_dim = 1 + rng.next_u64() % 12
        r = rng.next_u64() % (min(m_dim, n_dim) + 1)
        m = ranked_matrix(rng, m_dim, n_dim, r)
        x = pinv(m)
        mx, xm = m @ x, x @ m
        norm_m = max(np.linalg.norm(m), 1e-300)
        norm_x = max(np.linalg.norm(x), 1e-300)
        checks = [
            ("MXM=M", np.linalg.norm(m @ xm - m) / norm_m),
            ("XMX=X", np.linalg.norm(x @ mx - x) / norm_x),
            ("(MX)*=MX", np.linalg.norm(mx.conj().T - mx) / max(np.linalg.norm(mx), 1.0)),
            ("(XM)*=XM", np.linalg.norm(xm.conj().T - xm) / max(np.linalg.norm(xm), 1.0)),
        ]
        for name, defect in checks:
            if defect > 1e-10:
                failures.append(f"instance {i} ({m_dim}x{n_dim} rank {r}): {name} = {defect:.2e}")
    finish(1, "Penrose suite (500 instances)", failures)


def test_criterion_02_douglas_suite():
    failures = []
    rng = Xoshiro256StarStar(202)
    tight = 0
    for i in range(200):
        m_dim = 2 + rng.next_u64() % 7
        p_dim = 2 + rng.next_u64() % 7
        n_dim = 1 + rng.next_u64() % 5
        r = 1 + rng.next_u64() % min(m_dim, p_dim)
        a = ranked_matrix(rng, m_dim, p_dim, r)
        c = a @ complex_normal_matrix(rng, p_dim, n_dim)
        rep = reduced_solution(a, c)
        res = verify("douglas", {"A": a, "C": c}, {"X": rep.d}).residuals
        if res["equation"] > 1e-8:
            failures.append(f"instance {i}: residual {res['equation']:.2e}")
        if res["reducedness"] > 1e-10:
            failures.append(f"instance {i}: reducedness {res['reducedness']:.2e}")
        lam = rep.lambda_factor
        aa = a @ a.conj().T
        cc = c @ c.conj().T
        scale = max(lam * np.linalg.norm(aa, 2), 1e-300)
        gap = np.linalg.eigvalsh(lam * (1.0 + 1e-8) * aa - cc)[0]
        if gap < -1e-8 * scale:
            failures.append(f"instance {i}: majorization gap {gap:.2e} at scale {scale:.2e}")
        probe = np.linalg.eigvalsh(lam * (1.0 - 1e-3) * aa - cc)[0]
        if probe < -1e-10 * scale:
            tight += 1
    if tight < 0.95 * 200:
        failures.append(f"near-tightness probe failed on {200 - tight}/200 instances")
    finish(2, "Douglas suite (200 instances)", failures)


def test_criterion_03_non_equivalence_witness():
    failures = []
    # golden instance: R(C) sticks out of R(A), so the solve must refuse;
    # only the implication "solvable implies majorization" is ever asserted,
    # the converse direction is not claimed anywhere
    a = np.diag([1.0, 0.0])
    c = np.array([[0.0, 0.0], [1.0, 0.0]])
    try:
        reduced_solution(a, c)
        failures.append("reduced_solution accepted the golden witness")
    except RangeNotContained as err:
        if err.decision.residual < 0.5:
            failures.append(f"witness residual too small: {err.decision.residual}")
    if douglas_factor(a, c) is not None:
        failures.append("douglas_factor produced a certificate for the unsolvable witness")
    finish(3, "non-equivalence witness (golden instance)", failures)


def _sylvester_shape(rng):
    m = 3 + rng.next_u64() % 5
    n = 3 + rng.next_u64() % 5
    p = 2 + rng.next_u64() % 4
    q = 2 + rng.next_u64() % 4
    return (m, n, p, q, 1)


def _classical_residual(a, b, c):
    """||N_A* C N_B||_F from dense projections: what the particular pair leaves of C."""
    return np.linalg.norm(projection_quad(a).n_astar @ c @ projection_quad(b).n_a)


def test_criterion_04_sylvester_suite():
    failures = []
    rng = Xoshiro256StarStar(404)
    for i in range(200):
        spec = InstanceSpec(seed=4000 + i, family="sylvester-solvable",
                            shape=_sylvester_shape(rng))
        out = generate(spec)
        a, b, c = out["A"], out["B"], out["C"]
        diag = diagnose_ax_yb(a, b, c)
        scale = max(np.linalg.norm(c), 1e-300)
        if not diag.solvable:
            failures.append(f"solvable instance {i} diagnosed unsolvable")
            continue
        classical = _classical_residual(a, b, c)
        if classical > 1e-10 * scale:
            failures.append(f"instance {i}: classical residual {classical:.2e}")
        sol = solve_ax_yb(a, b, c)
        residual = verify("sylvester", out, {"X": sol.x, "Y": sol.y}).residuals["equation"]
        if residual > 1e-8:
            failures.append(f"instance {i}: zero-parameter residual {residual:.2e}")
        for k in range(5):
            sol = solve_ax_yb(a, b, c, params=random_params(a, b, seed=5000 + 5 * i + k))
            residual = verify("sylvester", out, {"X": sol.x, "Y": sol.y}).residuals["equation"]
            if residual > 1e-8:
                failures.append(f"instance {i}.{k}: random-parameter residual {residual:.2e}")
    for i in range(200):
        spec = InstanceSpec(seed=6000 + i, family="sylvester-unsolvable",
                            shape=_sylvester_shape(rng))
        out = generate(spec)
        diag = diagnose_ax_yb(out["A"], out["B"], out["C"])
        scale = np.linalg.norm(out["C"])
        if diag.solvable:
            failures.append(f"unsolvable instance {i} diagnosed solvable")
        elif _classical_residual(out["A"], out["B"], out["C"]) < 0.1 * scale:
            failures.append(f"unsolvable instance {i}: classical residual too small")
    finish(4, "Sylvester suite (200 + 200 instances)", failures)


def test_criterion_05_completeness_suite():
    failures = []
    rng = Xoshiro256StarStar(505)
    for i in range(100):
        out = generate(InstanceSpec(seed=7000 + i, family="sylvester-solvable",
                                    shape=_sylvester_shape(rng)))
        rep = completeness_witness(out["A"], out["B"], out["C"], out["X0"], out["Y0"])
        if rep.x_witness > 1e-8 * rep.scale or rep.y_witness > 1e-8 * rep.scale:
            failures.append(
                f"instance {i}: witnesses ({rep.x_witness:.2e}, {rep.y_witness:.2e}) "
                f"vs scale {rep.scale:.2e}"
            )
    finish(5, "completeness suite (100 instances)", failures)


def test_criterion_06_orthogonal_pair_suite():
    failures = []
    rng = Xoshiro256StarStar(606)
    for i in range(100):
        m = 4 + rng.next_u64() % 5
        shape = (m, 2 + rng.next_u64() % 4, 2 + rng.next_u64() % 4, 2 + rng.next_u64() % 4, 1)
        out = generate(InstanceSpec(seed=8000 + i, family="orthogonal-pair", shape=shape))
        a, b, c = out["A"], out["B"], out["C"]
        x, y, lam = solve_ax_by_orthogonal(a, b, c)
        residual = np.linalg.norm(a @ x + b @ y - c) / max(np.linalg.norm(c), 1e-300)
        if residual > 1e-8:
            failures.append(f"instance {i}: residual {residual:.2e}")
        gram = a @ a.conj().T + b @ b.conj().T
        gap = np.linalg.eigvalsh(lam * (1.0 + 1e-8) * gram - c @ c.conj().T)[0]
        if gap < -1e-8 * max(lam * np.linalg.norm(gram, 2), 1e-300):
            failures.append(f"instance {i}: majorization gap {gap:.2e}")
    finish(6, "orthogonal-pair suite (100 instances)", failures)


def test_criterion_07_congruence_suite():
    failures = []
    a = np.diag([1.0, 0.0])
    c = np.array([[0.0, 0.0], [1.0, 0.0]])
    x, y, diag = solve_congruence(a, np.eye(2), c)
    residual = verify("congruence", {"A": a, "B": np.eye(2), "C": c},
                      {"X": x, "Y": y}).residuals["equation"]
    if residual > 1e-12:
        failures.append(f"worked instance residual {residual:.2e}")
    try:
        solve_congruence(a, np.diag([0.0, 1.0]), c)
        failures.append("worked violating instance was not rejected")
    except Exception as err:
        if type(err).__name__ != "NotSolvable":
            failures.append(f"violating instance raised {type(err).__name__}")
    rng = Xoshiro256StarStar(707)
    for i in range(100):
        m = 4 + rng.next_u64() % 5
        out = generate(InstanceSpec(seed=9000 + i, family="congruence-solvable",
                                    shape=(m, m, m, m, 1)))
        ai, bi, ci = out["A"], out["B"], out["C"]
        xi, yi, di = solve_congruence(ai, bi, ci)
        residual = verify("congruence", out, {"X": xi, "Y": yi}).residuals["equation"]
        if residual > 1e-8:
            failures.append(f"instance {i}: residual {residual:.2e}")
            continue
        if not solvability_necessity_check(ai, bi, ci, xi, yi).passed:
            failures.append(f"instance {i}: necessity check failed")
    finish(7, "congruence suite (worked + 100 instances)", failures)


def test_criterion_08_intersection_suite():
    failures = []
    rng = Xoshiro256StarStar(808)
    for i in range(200):
        m = 2 + rng.next_u64() % 9
        p = 1 + rng.next_u64() % m
        q = 1 + rng.next_u64() % m
        a = ranked_matrix(rng, m, p, 1 + rng.next_u64() % p)
        b = ranked_matrix(rng, m, q, 1 + rng.next_u64() % q)
        rep = range_intersection(a, b)
        if rep.dim != rep.dim_rank_formula:
            failures.append(f"instance {i}: dim {rep.dim} != rank formula {rep.dim_rank_formula}")
            continue
        x, z = rep.x_block, rep.z_block
        if np.linalg.norm(x @ x + z.conj().T @ z - x) > 1e-10:
            failures.append(f"instance {i}: block identity violated")
        if rep.ax_eq_bz_residual > 1e-10 or rep.azstar_eq_by_residual > 1e-10:
            failures.append(f"instance {i}: AX=BZ / AZ*=BY residuals too large")
        if rep.sqrt_range_in_basis.residual > 1e-8:
            failures.append(f"instance {i}: sqrt range inclusion {rep.sqrt_range_in_basis.residual:.2e}")
    finish(8, "intersection suite (200 instances)", failures)


def test_criterion_09_cz_suite():
    failures = []
    rng = Xoshiro256StarStar(909)
    for i in range(50):
        m = 4 + rng.next_u64() % 4
        shared = 1 + rng.next_u64() % 2
        extra_a = rng.next_u64() % (m - shared - 1)
        extra_b = rng.next_u64() % max(m - shared - extra_a, 1)
        frame = random_unitary(rng, m)
        cols_a = np.hstack([frame[:, :shared], frame[:, shared:shared + extra_a]])
        cols_b = np.hstack([frame[:, :shared],
                            frame[:, shared + extra_a:shared + extra_a + extra_b]])
        a = cols_a @ ranked_matrix(rng, shared + extra_a, m, shared + extra_a)
        b = cols_b @ ranked_matrix(rng, shared + extra_b, m, shared + extra_b)
        rank_c = min(m, shared + 1 + rng.next_u64() % m)
        c = (frame[:, :rank_c]) @ ranked_matrix(rng, rank_c, m, rank_c)
        x, y, z, rep = solve_congruence_cz(a, b, c)
        if rep.intersection_dim != shared:
            failures.append(f"instance {i}: intersection dim {rep.intersection_dim} != {shared}")
        for name, block in (("x", x), ("y", y)):
            mineig = np.linalg.eigvalsh((block + block.conj().T) / 2.0)[0]
            if mineig < -1e-10 * max(np.linalg.norm(block, 2), 1.0):
                failures.append(f"instance {i}: {name} not PSD (min eig {mineig:.2e})")
        res = verify("congruence-cz", {"A": a, "B": b, "C": c}, {"X": x, "Y": y, "Z": z}).residuals
        if min(res["x_norm"], res["y_norm"], res["z_norm"]) <= 1e-10:
            failures.append(f"instance {i}: zero block among x, y, z")
        # relative to max(||A X A* + B Y B*||, ||C Z||), so 1e-9 here implies the
        # former bound of 1e-8 relative to ||A X A* + B Y B*||
        if res["equation"] > 1e-9:
            failures.append(f"instance {i}: residual {res['equation']:.2e}")
    finish(9, "congruence-CZ suite (50 instances)", failures)


def test_criterion_10_module_layer_suite():
    failures = []
    np_rng = np.random.default_rng(1010)
    for i in range(100):
        k = int(np_rng.integers(1, 4))
        n = int(np_rng.integers(1, 4))
        m = int(np_rng.integers(1, 4))
        dom = ModuleContext(k=k, n=n)
        cod = ModuleContext(k=k, n=m)
        data = np_rng.standard_normal((m * k, n * k)) + 1j * np_rng.standard_normal((m * k, n * k))
        op = ModuleOperator(dom, cod, data)
        star = adjoint(op)
        scale = np.linalg.norm(data)
        for _ in range(20):
            x = ModuleElement(dom, np_rng.standard_normal((n * k, k))
                              + 1j * np_rng.standard_normal((n * k, k)))
            y = ModuleElement(cod, np_rng.standard_normal((m * k, k))
                              + 1j * np_rng.standard_normal((m * k, k)))
            lhs = inner_product(op.apply(x), y).data
            rhs = inner_product(x, star.apply(y)).data
            bound = 1e-12 * max(scale * np.linalg.norm(x.data) * np.linalg.norm(y.data), 1.0)
            if np.linalg.norm(lhs - rhs) > bound:
                failures.append(f"instance {i}: adjoint pairing defect")
                break
        report = check_module_linearity(op, trials=5, seed=2000 + i)
        if not report.passed:
            failures.append(f"instance {i}: module linearity deviation {report.max_deviation:.2e}")
        if numerical_rank(data) != numerical_rank(data.conj().T):
            failures.append(f"instance {i}: rank asymmetry")
    finish(10, "module layer suite (100 operators)", failures)


def test_criterion_11_truncated_shift_demo():
    failures = []
    report = truncated_shift_demo(50)
    for row in report["rows"]:
        n = row["n"]
        if abs(row["min_nonzero_singular_value"] - 1.0 / n) > 1e-10:
            failures.append(f"n={n}: min sigma {row['min_nonzero_singular_value']}")
        if abs(row["pinv_norm"] - n) > 1e-8 * n:
            failures.append(f"n={n}: pinv norm {row['pinv_norm']}")
        if row["numerical_rank"] != n:
            failures.append(f"n={n}: rank {row['numerical_rank']}")
    finish(11, "truncated-shift demo (n = 1..50)", failures)


def test_criterion_12_determinism(tmp_path, capsys):
    failures = []
    for sub in ("first", "second"):
        code = run_command(["gen", "--family", "sylvester-solvable", "--seed", "42",
                            "--out", str(tmp_path / sub), "--json"])
        capsys.readouterr()
        if code != 0:
            failures.append(f"gen run into {sub} exited {code}")
    for name in ("A", "B", "C", "X0", "Y0"):
        first = (tmp_path / "first" / f"{name}.json").read_bytes()
        second = (tmp_path / "second" / f"{name}.json").read_bytes()
        if first != second:
            failures.append(f"{name}.json differs between runs")
    argv = ["solve", "sylvester",
            "--A", str(tmp_path / "first" / "A.json"),
            "--B", str(tmp_path / "first" / "B.json"),
            "--C", str(tmp_path / "first" / "C.json"), "--json"]
    run_command(argv)
    report_one = capsys.readouterr().out
    run_command(argv)
    report_two = capsys.readouterr().out
    if report_one != report_two:
        failures.append("solve report differs between identical runs")
    if json.loads(report_one)["certificate"]["residuals"]["equation"] > 1e-8:
        failures.append("golden solve residual above tolerance")
    finish(12, "determinism and golden reports", failures)
