"""Metamorphic tests: verdicts do not change under maps the mathematics ignores.

Each transformation maps an instance to one that is solvable exactly when
the original is: a unitary change of basis, the adjoint symmetry of the
Sylvester and congruence equations, zero padding, the module lift
M -> M (x) I_3, a unitary mixing of the columns of [A B] in
A X + B Y = C, scalings of C in A X = C and A X + B Y = C, and scalings
of the C Z operands.  The loops run seeds 0-5 of the generated families of
both verdicts.
"""

import numpy as np
import pytest

from opeq import (DEFAULT_TOL, OpeqError, RangeNotContained, diagnose_ax_yb, diagnose_congruence,
                  solve_ax_by_orthogonal)
from opeq.harness import EQUATIONS, InstanceSpec, generate, random_unitary, ranked_matrix, verify
from opeq.rng import Xoshiro256StarStar, complex_normal_matrix

SEEDS = range(6)
PAD = ((0, 2), (0, 1))


def dagger(m):
    return m.conj().T


def lift(m):
    return np.kron(m, np.eye(3))


def sylvester_unitary(a, b, c, rng):
    # A X + Y B = C  <=>  (U A V)(V* X Z) + (U Y W*)(W B Z) = U C Z
    u, v = random_unitary(rng, a.shape[0]), random_unitary(rng, a.shape[1])
    w, z = random_unitary(rng, b.shape[0]), random_unitary(rng, b.shape[1])
    return u @ a @ v, w @ b @ z, u @ c @ z


SYLVESTER_MAPS = {
    "unitary": sylvester_unitary,
    # A X + Y B = C  <=>  B* Y* + X* A* = C*
    "adjoint": lambda a, b, c, rng: (dagger(b), dagger(a), dagger(c)),
    "zero-padding": lambda a, b, c, rng: (np.pad(a, PAD), np.pad(b, PAD), np.pad(c, PAD)),
    "lift": lambda a, b, c, rng: (lift(a), lift(b), lift(c)),
}


def congruence_unitary(a, b, c, rng):
    # A X A* + B Y B* = C  <=>  (U A V)(V* X V)(U A V)* + (U B W)(W* Y W)(U B W)* = U C U*
    u = random_unitary(rng, a.shape[0])
    v, w = random_unitary(rng, a.shape[1]), random_unitary(rng, b.shape[1])
    return u @ a @ v, u @ b @ w, u @ c @ dagger(u)


CONGRUENCE_MAPS = {
    "unitary": congruence_unitary,
    "zero-padding": lambda a, b, c, rng: (np.pad(a, PAD), np.pad(b, PAD),
                                          np.pad(c, ((0, 2), (0, 2)))),
    "lift": lambda a, b, c, rng: (lift(a), lift(b), lift(c)),
}


def instance(family, seed):
    ops = generate(InstanceSpec(seed=seed, family=family))
    return ops["A"], ops["B"], ops["C"]


@pytest.mark.parametrize("name", list(SYLVESTER_MAPS))
@pytest.mark.parametrize("family", ["sylvester-solvable", "sylvester-unsolvable"])
def test_sylvester_verdict_is_invariant(family, name):
    rng = Xoshiro256StarStar(1000)
    for seed in SEEDS:
        a, b, c = instance(family, seed)
        verdict = diagnose_ax_yb(a, b, c).solvable
        assert verdict == (family == "sylvester-solvable")
        assert diagnose_ax_yb(*SYLVESTER_MAPS[name](a, b, c, rng)).solvable == verdict, seed


@pytest.mark.parametrize("family", ["sylvester-solvable", "sylvester-unsolvable"])
def test_sylvester_verdict_survives_overflow_or_fails_closed(family):
    """Scaling every operand, or C alone, by 2^600 or 2^1000 overflows ||C||_F.  The diagnosis
    then keeps the family's verdict or raises an OpeqError (a decision whose scale overflowed);
    it never reads the other verdict.  Scalings towards underflow can still flip until operands
    are normalised at entry."""
    for seed in range(4):
        a, b, c = instance(family, seed)
        for k in (600, 1000):
            s = 2.0 ** k
            for scaled in ((s * a, s * b, s * c), (a, b, s * c)):
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        verdict = diagnose_ax_yb(*scaled).solvable
                except OpeqError:
                    continue
                assert verdict == (family == "sylvester-solvable"), (seed, k)


@pytest.mark.parametrize("family", ["congruence-solvable", "congruence-criterion-violating"])
def test_congruence_verdict_survives_overflow_or_fails_closed(family):
    """Scaling every operand, or C alone, by 2^300, 2^600 or 2^1000 keeps the family's status or raises an
    OpeqError; at 2^300 with every operand scaled no norm overflows, so the paper's pair is certified."""
    want = "solvable" if family == "congruence-solvable" else "unsolvable"
    for seed in range(4):
        a, b, c = instance(family, seed)
        for k in (300, 600, 1000):
            s = 2.0 ** k
            for scaled in ((s * a, s * b, s * c), (a, b, s * c)):
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        status = diagnose_congruence(*scaled).status
                except OpeqError:
                    continue
                assert status == want, (seed, k)


@pytest.mark.parametrize("name", list(CONGRUENCE_MAPS))
@pytest.mark.parametrize("family", ["congruence-solvable", "congruence-criterion-violating"])
def test_congruence_status_is_invariant(family, name):
    rng = Xoshiro256StarStar(2000)
    for seed in SEEDS:
        a, b, c = instance(family, seed)
        status = diagnose_congruence(a, b, c).status
        assert status == ("solvable" if family == "congruence-solvable" else "unsolvable")
        assert diagnose_congruence(*CONGRUENCE_MAPS[name](a, b, c, rng)).status == status, seed


@pytest.mark.parametrize("family", ["congruence-solvable", "congruence-criterion-violating"])
def test_congruence_unsolvable_verdict_is_adjoint_invariant(family):
    # A X A* + B Y B* = C  <=>  A X* A* + B Y* B* = C*.  Only the necessary criteria are compared:
    # the paper's pair for C* is not the adjoint of the pair for C, so "solvable" may turn "inconclusive".
    for seed in SEEDS:
        a, b, c = instance(family, seed)
        unsolvable = diagnose_congruence(a, b, c).status == "unsolvable"
        assert unsolvable == (family == "congruence-criterion-violating")
        assert (diagnose_congruence(a, b, dagger(c)).status == "unsolvable") == unsolvable, seed


def test_orthogonal_verdict_survives_mixing_the_coefficients():
    # A X + B Y = C is [A B] [X; Y] = C, so [A' B'] = [A B] V keeps R(A) + R(B) for a
    # unitary V, while A'* B' is no longer 0.  Ranks 2 + 2 < m = 6 leave room outside.
    rng = Xoshiro256StarStar(3000)
    for seed in SEEDS:
        ops = generate(InstanceSpec(seed=seed, family="orthogonal-pair", ranks={"A": 2, "B": 2}))
        a, b, c = ops["A"], ops["B"], ops["C"]
        t = np.hstack([a, b])
        outside = c + (np.eye(t.shape[0]) - t @ np.linalg.pinv(t)) @ np.ones(c.shape)
        p = a.shape[1]
        mixed = t @ random_unitary(rng, t.shape[1])
        assert np.linalg.norm(dagger(mixed[:, :p]) @ mixed[:, p:]) > 1e-3, seed
        for a, b in ((a, b), (mixed[:, :p], mixed[:, p:])):
            x, y, _ = solve_ax_by_orthogonal(a, b, c)
            assert verify("orthogonal", {"A": a, "B": b, "C": c}, {"X": x, "Y": y}).passed, seed
            with pytest.raises(RangeNotContained):
                solve_ax_by_orthogonal(a, b, outside)


def douglas_instances():
    """(tag, operators) of T X = C for T = A and for T = [A B], the last with A = B of rank 1, so that
    T has neither full row nor full column rank."""
    for seed in SEEDS:
        ops = generate(InstanceSpec(seed=seed, family="scaled-equality-pair"))
        yield "douglas", {"A": ops["A"], "C": ops["C"]}
        ops = generate(InstanceSpec(seed=seed, family="orthogonal-pair"))
        yield "orthogonal", {name: ops[name] for name in ("A", "B", "C")}
        rng = Xoshiro256StarStar(4000 + seed)
        a = ranked_matrix(rng, 5, 2, 1)
        yield "orthogonal", {"A": a, "B": a, "C": np.hstack([a, a]) @ complex_normal_matrix(rng, 4, 3)}


@pytest.mark.parametrize("k", [-40, -20, 20, 40])
def test_douglas_answers_are_certified_with_c_scaled(k):
    """T X = C has the answer 2^k X at 2^k C, an exact scaling, and lambda scales by 4^k while T T* stays:
    the reduced solution of the scaled instance is certified."""
    for tag, ops in douglas_instances():
        ops = {**ops, "C": 2.0 ** k * ops["C"]}
        sol = EQUATIONS[tag].solve(ops, DEFAULT_TOL, None)[0]
        cert = verify(tag, ops, sol)
        assert cert.passed, (tag, ops["A"].shape, cert.failures)


# (scale of A and B, scale of C): (X, Y, Z) solves A X A* + B Y B* = C Z exactly when
# (X, Y, s_ab^2 Z / s_c) solves the scaled equation, so nonzero answers map to nonzero answers.
CZ_SCALINGS = [(1e-6, 1.0), (2.0 ** -20, 1.0), (1e-100, 1.0), (1.0, 1e12)]


@pytest.mark.parametrize("s_ab,s_c", CZ_SCALINGS)
def test_cz_answer_is_certified_under_scaling(s_ab, s_c):
    """The solver's answer to the scaled instance is certified, its ||Z|| as small as 1e-200 and
    still nonzero.  Scaling up by 1e100 overflows ||.||_F's squares until operands are
    normalised at entry."""
    for seed in range(4):
        ops = generate(InstanceSpec(seed=seed, family="equal-range-pair"))
        ops = {"A": s_ab * ops["A"], "B": s_ab * ops["B"], "C": s_c * ops["A"]}  # R(A) = R(B) = R(C)
        sol = EQUATIONS["congruence-cz"].solve(ops, DEFAULT_TOL, None)[0]
        cert = verify("congruence-cz", ops, sol)
        assert cert.passed, (seed, cert.failures)
        assert 0.0 < cert.residuals["z_norm"] <= 1e3 * s_ab * s_ab / s_c, seed
