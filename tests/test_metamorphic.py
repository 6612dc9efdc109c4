"""Metamorphic tests: verdicts do not change under maps the mathematics ignores.

Each transformation maps an instance to one that is solvable exactly when
the original is: a unitary change of basis, the adjoint symmetry of the
Sylvester equation, zero padding, and the module lift M -> M (x) I_3.  The
loops run seeds 0-5 of the generated families of both verdicts.
"""

import numpy as np
import pytest

from opeq import diagnose_ax_yb, diagnose_congruence
from opeq.harness import InstanceSpec, generate, random_unitary
from opeq.rng import Xoshiro256StarStar

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


@pytest.mark.parametrize("name", list(CONGRUENCE_MAPS))
@pytest.mark.parametrize("family", ["congruence-solvable", "congruence-criterion-violating"])
def test_congruence_status_is_invariant(family, name):
    rng = Xoshiro256StarStar(2000)
    for seed in SEEDS:
        a, b, c = instance(family, seed)
        status = diagnose_congruence(a, b, c).status
        assert status == ("solvable" if family == "congruence-solvable" else "unsolvable")
        assert diagnose_congruence(*CONGRUENCE_MAPS[name](a, b, c, rng)).status == status, seed
