"""Tests of the instance generator, the pinned PRNG, and verify()."""

import numpy as np
import pytest

from opeq import (
    DEFAULT_TOL,
    DimensionMismatch,
    InfeasibleSpec,
    InstanceSpec,
    InvalidMatrix,
    MissingMatrix,
    NotASolution,
    OpeqError,
    RangeNotContained,
    ToleranceConfig,
    UnknownEquationTag,
    completeness_witness,
    diagnose_ax_yb,
    diagnose_congruence,
    generate,
    projection_quad,
    range_equal,
    solvability_necessity_check,
    solve_ax_by_orthogonal,
    verify,
)
from opeq.harness import EQUATIONS, Equation, ranked_matrix, random_unitary
from opeq.kernel import parse_signature
from opeq.rng import Xoshiro256StarStar, _splitmix64_fill, complex_normal_matrix


def test_splitmix64_reference_vectors():
    # published outputs of SplitMix64 for seed 0
    got = _splitmix64_fill(0, 3)
    assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_xoshiro_stream_regression():
    rng = Xoshiro256StarStar(0)
    assert [rng.next_u64() for _ in range(4)] == [
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
        7684712102626143532,
    ]
    rng = Xoshiro256StarStar(42)
    assert rng.next_u64() == 1546998764402558742


def test_uniform_and_normal_regression():
    rng = Xoshiro256StarStar(42)
    np.testing.assert_allclose(
        [rng.uniform() for _ in range(3)],
        [0.08386297105988216, 0.3789802506626686, 0.6800434110281394],
        rtol=0, atol=0,
    )
    rng = Xoshiro256StarStar(42)
    np.testing.assert_allclose(rng.normal_pair(),
                               (-0.303263064678738, 0.28846173882942383), rtol=0, atol=0)


def test_uniform_range_and_normal_moments():
    rng = Xoshiro256StarStar(1)
    us = [rng.uniform() for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in us)
    rng = Xoshiro256StarStar(1)
    zs = np.array([rng.normal_pair() for _ in range(4000)]).ravel()
    assert abs(zs.mean()) < 0.05
    assert abs(zs.var() - 1.0) < 0.05


def test_complex_matrix_row_major_fill():
    a = complex_normal_matrix(Xoshiro256StarStar(3), 2, 2)
    rng = Xoshiro256StarStar(3)
    flat = [rng.complex_normal() for _ in range(4)]
    np.testing.assert_array_equal(a.reshape(-1), np.array(flat))


def test_random_unitary_and_ranked_matrix():
    rng = Xoshiro256StarStar(19)
    u = random_unitary(rng, 5)
    assert np.linalg.norm(u.conj().T @ u - np.eye(5)) <= 1e-12
    m = ranked_matrix(rng, 6, 4, 2)
    s = np.linalg.svd(m, compute_uv=False)
    assert (s[:2] >= 1e-2 - 1e-12).all() and (s[:2] <= 1.0 + 1e-12).all()
    assert s[2:].max() <= 1e-12


def test_generation_is_deterministic_in_the_seed():
    for family in ("sylvester-solvable", "congruence-solvable", "orthogonal-pair"):
        first = generate(InstanceSpec(seed=42, family=family))
        second = generate(InstanceSpec(seed=42, family=family))
        for key, value in first.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(value, second[key])
            else:
                assert value == second[key]
        third = generate(InstanceSpec(seed=43, family=family))
        assert any(
            isinstance(v, np.ndarray) and not np.array_equal(v, third[k])
            for k, v in first.items()
        )


def test_sylvester_solvable_contract():
    for seed in range(5):
        out = generate(InstanceSpec(seed=seed, family="sylvester-solvable"))
        a, b, c = out["A"], out["B"], out["C"]
        np.testing.assert_allclose(a @ out["X0"] + out["Y0"] @ b, c, atol=1e-12)
        assert diagnose_ax_yb(a, b, c).solvable


def test_sylvester_unsolvable_contract():
    for seed in range(5):
        out = generate(InstanceSpec(seed=seed, family="sylvester-unsolvable"))
        a, b, c = out["A"], out["B"], out["C"]
        assert not diagnose_ax_yb(a, b, c).solvable
        # The injected component is what the particular pair leaves: ||N_A* C N_B||_F.
        left = projection_quad(a).n_astar @ c @ projection_quad(b).n_a
        assert np.linalg.norm(left) >= 0.5 * np.linalg.norm(c)


def test_orthogonal_pair_contract():
    for seed in range(5):
        out = generate(InstanceSpec(seed=seed, family="orthogonal-pair"))
        a, b = out["A"], out["B"]
        assert np.linalg.norm(a.conj().T @ b) <= 1e-12
        x, y, lam = solve_ax_by_orthogonal(a, b, out["C"])
        resid = np.linalg.norm(a @ x + b @ y - out["C"]) / np.linalg.norm(out["C"])
        assert resid <= 1e-8


def test_equal_range_pair_contract():
    for seed in range(5):
        out = generate(InstanceSpec(seed=seed, family="equal-range-pair"))
        assert range_equal(out["A"], out["B"]).holds


def test_scaled_equality_pair_contract():
    out = generate(InstanceSpec(seed=11, family="scaled-equality-pair", params={"lam": 4.0}))
    a, c = out["A"], out["C"]
    assert out["lam"] == 4.0
    defect = np.linalg.norm(c @ c.conj().T - 4.0 * a @ a.conj().T)
    assert defect <= 1e-12 * np.linalg.norm(a @ a.conj().T) * 4.0


def test_congruence_families_contract():
    for seed in range(3):
        out = generate(InstanceSpec(seed=seed, family="congruence-solvable"))
        diag = diagnose_congruence(out["A"], out["B"], out["C"])
        assert diag.hypotheses_hold and diag.solvable
        out = generate(InstanceSpec(seed=seed, family="congruence-criterion-violating"))
        diag = diagnose_congruence(out["A"], out["B"], out["C"])
        assert diag.hypotheses_hold and not diag.solvable


def test_infeasible_specs_raise():
    with pytest.raises(InfeasibleSpec):
        generate(InstanceSpec(seed=0, family="no-such-family"))
    with pytest.raises(InfeasibleSpec):
        generate(InstanceSpec(seed=0, family="sylvester-solvable", ranks={"A": 99}))
    with pytest.raises(InfeasibleSpec):
        # rank A = m leaves no room for the unsolvable component
        generate(InstanceSpec(seed=0, family="sylvester-unsolvable",
                              shape=(4, 5, 4, 3, 1), ranks={"A": 4}))
    with pytest.raises(InfeasibleSpec):
        generate(InstanceSpec(seed=0, family="orthogonal-pair",
                              shape=(4, 5, 4, 4, 1), ranks={"A": 3, "B": 3}))
    with pytest.raises(InfeasibleSpec):
        generate(InstanceSpec(seed=0, family="scaled-equality-pair", params={"lam": -1.0}))
    with pytest.raises(InfeasibleSpec):
        generate(InstanceSpec(seed=0, family="scaled-equality-pair", params={"lam": float("inf")}))
    with pytest.raises(InfeasibleSpec, match="has no parameter lam; known: none"):
        # only the scaled-equality family reads lam
        generate(InstanceSpec(seed=0, family="sylvester-solvable", params={"lam": 2.0}))
    with pytest.raises(InfeasibleSpec, match="has no parameter mu; known: lam"):
        generate(InstanceSpec(seed=0, family="scaled-equality-pair", params={"mu": 2.0}))
    with pytest.raises(InfeasibleSpec):
        generate(InstanceSpec(seed=0, family="congruence-solvable", shape=(2, 2, 2, 2, 1)))
    for shape, message in (((6, 5, 4, 3), r"must be \(m, n, p, q, k\)"),
                           ((6, 5, 4, 3, 1, 1), r"must be \(m, n, p, q, k\)"),
                           ((6, 5, 0, 3, 1), "must be >= 1"), ((6, 5, 4, 3, -1), "must be >= 1")):
        with pytest.raises(InfeasibleSpec, match=message):
            generate(InstanceSpec(seed=0, family="sylvester-solvable", shape=shape))
    for rank in (-1, 4):
        with pytest.raises(InfeasibleSpec, match=f"rank {rank} impossible for a 3-by-5 matrix"):
            ranked_matrix(Xoshiro256StarStar(0), 3, 5, rank)


def test_block_scaled_shapes():
    out = generate(InstanceSpec(seed=4, family="sylvester-solvable", shape=(3, 3, 2, 2, 2)))
    assert out["A"].shape == (6, 4)
    assert out["B"].shape == (4, 6)
    assert out["C"].shape == (6, 6)


def test_verify_accepts_exact_solution():
    out = generate(InstanceSpec(seed=21, family="sylvester-solvable"))
    cert = verify("sylvester", out, {"X": out["X0"], "Y": out["Y0"]})
    assert cert.passed and not cert.failures
    assert cert.residuals["equation"] <= 1e-12


# A X A* + B Y B* = C Z solved by hand: R(A) ^ R(B) = span(e1) lies in R(C).
CZ_OPS = {"A": np.diag([1.0, 0.0]), "B": np.diag([1.0, 0.0]), "C": np.eye(2)}
CZ_SOL = {"X": np.diag([0.5, 1.0]), "Y": np.diag([0.5, 1.0]), "Z": np.diag([1.0, 0.0])}


def test_verify_rejects_perturbed_solution():
    out = generate(InstanceSpec(seed=22, family="sylvester-solvable"))
    rng = Xoshiro256StarStar(23)
    noise = 1e-3 * complex_normal_matrix(rng, *out["X0"].shape)
    cert = verify("sylvester", out, {"X": out["X0"] + noise, "Y": out["Y0"]})
    assert not cert.passed and "equation" in cert.failures
    assert 1e-5 <= cert.residuals["equation"] <= 1e-1
    assert verify("congruence-cz", CZ_OPS, CZ_SOL).passed
    cert = verify("congruence-cz", CZ_OPS, {**CZ_SOL, "Z": CZ_SOL["Z"] + 1e-3 * np.eye(2)})
    assert cert.failures == ("equation",)
    cert = verify("congruence-cz", CZ_OPS, {**CZ_SOL, "X": -CZ_SOL["X"], "Y": -CZ_SOL["Y"]})
    assert {"x_psd", "y_psd"} <= set(cert.failures)


def test_verify_rejects_zero_solution():
    out = generate(InstanceSpec(seed=24, family="sylvester-solvable"))
    zero = {"X": np.zeros_like(out["X0"]), "Y": np.zeros_like(out["Y0"])}
    cert = verify("sylvester", out, zero)
    assert not cert.passed
    assert cert.residuals["equation"] == pytest.approx(1.0, abs=1e-12)
    cert = verify("congruence-cz", CZ_OPS, {**CZ_SOL, "Z": np.zeros((2, 2))})
    assert "z_nonzero" in cert.failures


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_verify_fails_closed_on_nan_residual():
    # ||A X + Y B - C|| and ||C|| both overflow to inf, so the relative residual is NaN
    eye = np.eye(2)
    cert = verify("sylvester", {"A": 1e300 * eye, "B": eye, "C": 1e300 * eye}, {"X": 2.0 * eye, "Y": 0.0 * eye})
    assert np.isnan(cert.residuals["equation"])
    assert not cert.passed and cert.failures == ("equation",)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_verify_fails_closed_on_overflowed_majorization():
    # [X; Y] solves the equation exactly, but the square of its norm 1.4e200, the majorization factor,
    # overflows (as does ||X||_F^2 inside the backward error's scale, over an exactly zero residual)
    ops = {"A": [[1e-100]], "B": [[1e-100]], "C": [[2e100]]}
    cert = verify("orthogonal", ops, {"X": [[1e200]], "Y": [[1e200]]})
    assert cert.residuals["lambda"] == np.inf and cert.residuals["equation"] == 0.0
    assert cert.failures == ("lambda",)
    # ||C||_F overflows under a part of C outside R(A): the range residual is NaN, on which the
    # solver raises, and the certificate fails rather than raising
    ops = {"A": np.diag([1.0, 0.0]), "C": 1e200 * np.eye(2)}
    cert = verify("douglas", ops, {"X": np.diag([1e200, 0.0])})
    assert np.isnan(cert.residuals["range"])
    assert cert.failures == ("equation", "lambda", "range")


def test_range_residual_catches_what_the_backward_error_misses():
    # T = [A B] has rank 1 and C a part 1e-6 outside R(T).  ||T|| ||[X; Y]|| = 1e4 hides that part
    # in the backward error (1e-10), as a lambda as large hides it in C C* <= lambda T T*; the range
    # residual, the solver's own decision, reads 1e-6 and fails, as the solver refuses.
    ops = {"A": np.diag([1.0, 0.0]), "B": np.diag([1.0, 0.0]), "C": np.diag([1.0, 1e-6])}
    cert = verify("orthogonal", ops, {"X": np.diag([1.0, 1e4]), "Y": np.zeros((2, 2))})
    assert cert.residuals["equation"] < 1e-9
    assert cert.residuals["range"] == pytest.approx(1e-6, rel=1e-9)
    assert cert.failures == ("range",)
    with pytest.raises(RangeNotContained):
        solve_ax_by_orthogonal(ops["A"], ops["B"], ops["C"])


def test_verify_congruence_cz_with_empty_unknowns_fails():
    # p = q = 0: X and Y are 0x0, so their spectra are empty
    empty = np.zeros((2, 0))
    cert = verify("congruence-cz", {"A": empty, "B": empty, "C": np.eye(2)},
                  {"X": np.zeros((0, 0)), "Y": np.zeros((0, 0)), "Z": np.eye(2)})
    assert not cert.passed
    assert {"x_nonzero", "y_nonzero"} <= set(cert.failures)


def test_verify_douglas_checks_reducedness():
    rng = Xoshiro256StarStar(25)
    a = ranked_matrix(rng, 5, 4, 2)
    x0 = complex_normal_matrix(rng, 4, 3)
    c = a @ x0
    from opeq import pinv, projection_quad

    reduced = pinv(a) @ c
    assert verify("douglas", {"A": a, "C": c}, {"X": reduced}).passed
    skew = reduced + projection_quad(a).n_a @ complex_normal_matrix(rng, 4, 3)
    cert = verify("douglas", {"A": a, "C": c}, {"X": skew})
    assert not cert.passed and "reducedness" in cert.failures


def test_verify_unknown_tag():
    with pytest.raises(UnknownEquationTag):
        verify("riccati", {}, {})


def test_verify_names_missing_matrices():
    ops = {"A": CZ_OPS["A"], "C": CZ_OPS["C"]}
    assert issubclass(MissingMatrix, OpeqError) and issubclass(MissingMatrix, KeyError)
    with pytest.raises(MissingMatrix, match="^congruence-cz: missing operand B$"):
        verify("congruence-cz", ops, CZ_SOL)
    sol = {"Y": CZ_SOL["Y"]}
    with pytest.raises(MissingMatrix, match="^congruence-cz: missing unknown X, unknown Z$"):
        verify("congruence-cz", CZ_OPS, sol)
    with pytest.raises(KeyError, match="operand B, unknown X, unknown Z"):
        verify("congruence-cz", ops, sol)


def test_verify_rejects_non_finite_operand():
    ops = {**CZ_OPS, "C": np.array([[np.nan, 0.0], [0.0, 1.0]])}
    with pytest.raises(OpeqError) as info:
        verify("congruence-cz", ops, CZ_SOL)
    assert isinstance(info.value, InvalidMatrix) and isinstance(info.value, ValueError)


# equation tag -> generated family with a solvable instance of it.
SOLVABLE_FAMILY = {
    "douglas": "scaled-equality-pair",
    "sylvester": "sylvester-solvable",
    "orthogonal": "orthogonal-pair",
    "congruence": "congruence-solvable",
    "congruence-cz": "equal-range-pair",
}

# Checks of a known solution besides verify; each takes (A, B, C, X, Y).
KNOWN_SOLUTION_CHECKS = {"sylvester": completeness_witness,
                         "congruence": solvability_necessity_check}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tag", list(EQUATIONS))
def test_verify_after_its_solver_matches_a_cold_verify(forget, tag, seed):
    # Right after the solver, kernel hands verify the factorization and norms the solver
    # computed; with both emptied it recomputes them, to the last bit.
    ops = generate(InstanceSpec(seed=seed, family=SOLVABLE_FAMILY[tag], shape=(6, 5, 4, 3, 2)))
    ops.setdefault("C", ops["A"])  # equal-range-pair: R(A) ^ R(B) = R(A) = R(C)
    sol = EQUATIONS[tag].solve(ops, DEFAULT_TOL, None)[0]
    warm = verify(tag, ops, sol)
    forget()
    cold = verify(tag, ops, sol)
    assert (warm.passed, warm.failures) == (cold.passed, cold.failures)
    assert warm.residuals.keys() == cold.residuals.keys()
    for name, value in warm.residuals.items():
        assert value == cold.residuals[name], name


def one_more_row(mats, name):
    m = mats[name]
    return {**mats, name: np.vstack([m, np.zeros((1, m.shape[1]))])}


@pytest.mark.parametrize("tag", list(EQUATIONS))
def test_verify_rejects_mismatched_shapes(tag):
    ops = generate(InstanceSpec(seed=3, family=SOLVABLE_FAMILY[tag]))
    ops.setdefault("C", ops["A"])  # equal-range-pair: R(A) ^ R(B) = R(A) = R(C)
    sol, _ = EQUATIONS[tag].solve(ops, DEFAULT_TOL, None)
    checks = [lambda ops, sol: verify(tag, ops, sol)]
    if tag in KNOWN_SOLUTION_CHECKS:
        known = KNOWN_SOLUTION_CHECKS[tag]
        checks.append(lambda ops, sol: known(ops["A"], ops["B"], ops["C"], sol["X"], sol["Y"]))
    for check in checks:
        # C shares its rows with A, and X its rows with A's columns, in every signature.
        with pytest.raises(DimensionMismatch, match=r"^C\("):
            check(one_more_row(ops, "C"), sol)
        with pytest.raises(DimensionMismatch, match=r"^X\("):
            check(ops, one_more_row(sol, "X"))


def solved_instance(tag):
    ops = generate(InstanceSpec(seed=3, family=SOLVABLE_FAMILY[tag]))
    ops.setdefault("C", ops["A"])  # equal-range-pair: R(A) ^ R(B) = R(A) = R(C)
    return ops, EQUATIONS[tag].solve(ops, DEFAULT_TOL, None)[0]


def with_nan(mats, name):
    m = mats[name].copy()
    m[0, 0] = np.nan
    return {**mats, name: m}


@pytest.mark.parametrize("tag,name", [(tag, name) for tag, eq in EQUATIONS.items()
                                      for name in eq.operands])
def test_non_finite_operand_is_rejected_where_it_enters(tag, name):
    ops, sol = solved_instance(tag)
    bad = with_nan(ops, name)
    eq = EQUATIONS[tag]
    entries = [lambda: eq.solve(bad, DEFAULT_TOL, None), lambda: verify(tag, bad, sol)]
    if eq.diagnose is not None:
        entries.append(lambda: eq.diagnose(bad, DEFAULT_TOL))
    for entry in entries:
        with pytest.raises(InvalidMatrix):
            entry()


@pytest.mark.parametrize("tag,name", [(tag, name) for tag, eq in EQUATIONS.items()
                                      for name in eq.unknowns])
def test_non_finite_unknown_is_rejected_by_verify(tag, name):
    ops, sol = solved_instance(tag)
    with pytest.raises(InvalidMatrix):
        verify(tag, ops, with_nan(sol, name))


# Every residual key of each equation's certificate: the defining equation and
# the answer's own properties, none of the instance's criteria or hypotheses.
RESIDUAL_KEYS = {
    "douglas": {"equation", "reducedness", "lambda", "range"},
    "sylvester": {"equation"},
    "orthogonal": {"equation", "lambda", "range"},
    "congruence": {"equation"},
    "congruence-cz": {"equation", "x_psd_gap", "x_hermitian_defect", "y_psd_gap",
                      "y_hermitian_defect", "x_norm", "y_norm", "z_norm"},
}


@pytest.mark.parametrize("tag", list(EQUATIONS))
def test_certificate_holds_only_the_answers_residuals(tag):
    ops, sol = solved_instance(tag)
    cert = verify(tag, ops, sol)
    assert cert.passed and set(cert.residuals) == RESIDUAL_KEYS[tag]
    assert set(vars(cert)) == {"equation", "residuals", "passed", "failures"}


def test_verify_passes_a_solution_where_a_hypothesis_fails():
    # A = B = C = I breaks the hypothesis R(C* P_A) in N(B*) of solve_congruence,
    # which is sufficient only; X = I, Y = 0 solves the equation all the same.
    eye = np.eye(2)
    cert = verify("congruence", {"A": eye, "B": eye, "C": eye}, {"X": eye, "Y": np.zeros((2, 2))})
    assert cert.passed and cert.residuals["equation"] == 0.0


def test_verify_measures_the_orthogonal_lambda():
    ops = {"A": np.diag([1.0, 0.0]), "B": np.diag([0.0, 1.0]), "C": np.eye(2)}
    sol = {"X": np.diag([1.0, 0.0]), "Y": np.diag([0.0, 1.0]), "lam": 1e6}
    assert verify("orthogonal", ops, sol).residuals["lambda"] == pytest.approx(1.0, rel=1e-14)


def test_known_solution_checks_take_verify_verdict():
    # The residual is 1e-3 I: backward errors of 3.5e-4 and 2.5e-4, and infinite relative to ||C|| = 0.
    eye, zero = np.eye(2), np.zeros((2, 2))
    y_near = (-1.0 + 1e-3) * eye
    assert not verify("sylvester", {"A": eye, "B": eye, "C": zero}, {"X": eye, "Y": y_near}).passed
    with pytest.raises(NotASolution, match="equation failed"):
        completeness_witness(eye, eye, zero, eye, y_near)
    assert not verify("congruence", {"A": eye, "B": eye, "C": zero}, {"X": eye, "Y": y_near}).passed
    with pytest.raises(NotASolution, match="equation failed"):
        solvability_necessity_check(eye, eye, zero, eye, y_near)


def test_majorization_slack_is_residual_rel():
    # C has a part 1e-6 outside R(A): the range residual is 1e-6 and the backward error of the
    # reduced solution 5e-7, both within a residual_rel of 1e-4, both beyond the default 1e-8.
    ops = {"A": np.diag([1.0, 0.0]), "C": np.diag([1.0, 1e-6])}
    sol = {"X": np.diag([1.0, 0.0])}
    loose = ToleranceConfig(residual_rel=1e-4)
    cert = verify("douglas", ops, sol, loose)
    assert cert.passed and cert.residuals["range"] == pytest.approx(1e-6, rel=1e-9)
    assert cert.residuals["equation"] == pytest.approx(5e-7, rel=1e-9)
    assert verify("douglas", ops, sol).failures == ("equation", "range")


def test_completeness_witness_reads_residual_rel():
    # A = B = diag(1, 0), C = 0: y0 is homogeneous (Y B = 0) and x0 is too (A X = 0) but for
    # 1e-6 e1 e2*, the component P_{A*} x0 N_B no parameter produces.  The witness reads
    # 1e-6 / ||x0|| = 7.1e-7, the backward error 1e-6 / (||x0|| + ||y0||) = 4.1e-7.
    a, zero = np.diag([1.0, 0.0]), np.zeros((2, 2))
    x0, y0 = np.array([[0.0, 1e-6], [1.0, 1.0]]), np.diag([0.0, 1.0])
    rep = completeness_witness(a, a, zero, x0, y0, ToleranceConfig(residual_rel=1e-6))
    assert rep.passed and (rep.x_witness, rep.y_witness) == (1e-6, 0.0)
    tight = ToleranceConfig(residual_rel=5e-7)
    assert verify("sylvester", {"A": a, "B": a, "C": zero}, {"X": x0, "Y": y0}, tight).passed
    assert not completeness_witness(a, a, zero, x0, y0, tight).passed
    with pytest.raises(NotASolution, match="equation failed"):
        completeness_witness(a, a, zero, x0, y0)


def test_formulas_agree_with_their_signatures():
    for tag, eq in EQUATIONS.items():
        operands, unknowns = parse_signature(eq.signature)
        shapes = {name: (rows, cols) for name, rows, cols in operands + unknowns}
        assert {name for _, factors in eq.terms for name, _ in factors} == set(shapes), tag
        assert {sign for sign, _ in eq.terms} == {1, -1}, tag
        outer = set()
        for _, factors in eq.terms:
            dims = [shapes[name][::-1] if adjoint else shapes[name] for name, adjoint in factors]
            assert all(left[1] == right[0] for left, right in zip(dims, dims[1:])), (tag, factors)
            outer.add((dims[0][0], dims[-1][1]))
        assert len(outer) == 1, tag


@pytest.mark.parametrize("formula", ["A X", "A X = C = C", "A X + = C", "A X =", "A X = D", "A** X = C",
                                     "A X = C*X"])
def test_malformed_formula_raises_at_construction(formula):
    eq = EQUATIONS["douglas"]
    with pytest.raises(ValueError, match="malformed formula"):
        Equation(eq.signature, formula, eq.solve, eq.verify)


def test_backward_error_guards():
    zero = np.zeros((2, 2))
    # 0 / 0: every matrix is zero, so the formula holds exactly.
    cert = verify("sylvester", {"A": zero, "B": zero, "C": zero}, {"X": zero, "Y": zero})
    assert cert.passed and cert.residuals["equation"] == 0.0
    # ||A||^2 ||X|| overflows while A X A* = 0: a nonzero residual over an infinite scale fails
    # closed ...
    ops = {"A": np.diag([1e150, 0.0]), "B": zero, "C": np.diag([1.0, 0.0])}
    sol = {"X": np.diag([0.0, 1e150]), "Y": zero}
    cert = verify("congruence", ops, sol)
    assert np.isnan(cert.residuals["equation"]) and cert.failures == ("equation",)
    # ... and an exactly zero one passes.
    cert = verify("congruence", {**ops, "C": zero}, sol)
    assert cert.passed and cert.residuals["equation"] == 0.0


def test_seeded_general_solution_at_c_zero_is_certified():
    # Scaled by max(||C||, 1e-300), this answer's roundoff read 4.4e285.
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    ops = {"A": a, "B": a, "C": np.zeros((2, 2))}
    solution, _ = EQUATIONS["sylvester"].solve(ops, DEFAULT_TOL, 0)
    cert = verify("sylvester", ops, solution)
    assert cert.passed and cert.residuals["equation"] <= 1e-14


@pytest.mark.parametrize("seed", range(6))
def test_injective_a_leaves_no_homogeneous_x(seed):
    # N_A = 0, so X = N_A W1 is exactly zero rather than dust with ||A X|| / (||A|| ||X||) = O(1).
    zero = np.zeros((2, 2))
    ops = {"A": np.array([[1.0, 2.0], [3.0, 4.0]]), "B": zero, "C": zero}
    solution, _ = EQUATIONS["sylvester"].solve(ops, DEFAULT_TOL, seed)
    assert not solution["X"].any() and solution["Y"].any()
    cert = verify("sylvester", ops, solution)
    assert cert.passed and cert.residuals["equation"] == 0.0
