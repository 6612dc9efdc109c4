"""LAPACK SVD counts of the public entry points on seeded k=2 instances.

Each entry point factors each of its operands once and applies the
projections and pseudoinverses through that factorization, so the number
of SVDs it runs is fixed by its structure.  Both ``numpy.linalg.svd`` and
the module-level name that ``np.linalg.norm(x, 2)`` calls are counted.
"""

import numpy as np
import pytest

from opeq import DEFAULT_TOL
from opeq.harness import EQUATIONS, InstanceSpec, generate, verify

try:
    from numpy.linalg import _linalg as linalg_impl  # numpy >= 2
except ImportError:  # pragma: no cover
    from numpy.linalg import linalg as linalg_impl

SHAPE = (6, 5, 4, 3, 2)


@pytest.fixture
def svd_count(monkeypatch):
    """Run a thunk and return how many SVDs it made."""
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(linalg_impl, "svd", counting)

    def count(thunk):
        calls.clear()
        thunk()
        return len(calls)
    return count


# equation tag -> (generated family, SVD bound of the solver, SVD bound of verify).
# Each bound is the count when every operand is factored once and
# every range decision is applied through a factorization the caller
# already holds, so a helper that factors an operand again breaks it.
BOUNDS = {
    "sylvester": ("sylvester-solvable", 2, 2),
    "orthogonal": ("orthogonal-pair", 4, 3),
    "congruence": ("congruence-solvable", 2, 2),
    "douglas": ("scaled-equality-pair", 2, 2),
    "congruence-cz": ("equal-range-pair", 8, 3),
}


def instance(family):
    ops = generate(InstanceSpec(seed=1, family=family, shape=SHAPE))
    if family == "equal-range-pair":
        # R(A) = R(B) lies inside R(C) for C = A.
        ops["C"] = ops["A"]
    return ops


def solve(eq, ops):
    """Solve through the equation table; returns what verify takes."""
    return EQUATIONS[eq].solve(ops, DEFAULT_TOL, None)[0]


def test_counting_sees_the_spectral_norm(svd_count):
    assert svd_count(lambda: np.linalg.norm(np.eye(3), 2)) == 1


@pytest.mark.parametrize("eq", list(BOUNDS))
def test_solver_factors_each_operand_once(svd_count, eq):
    family, bound, _ = BOUNDS[eq]
    ops = instance(family)
    assert svd_count(lambda: solve(eq, ops)) <= bound


@pytest.mark.parametrize("eq", list(BOUNDS))
def test_verify_factors_its_own_operands(svd_count, eq):
    family, _, bound = BOUNDS[eq]
    ops = instance(family)
    sol = solve(eq, ops)
    assert 1 <= svd_count(lambda: verify(eq, ops, sol)) <= bound
