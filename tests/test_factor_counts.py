"""LAPACK SVD counts of the public entry points on seeded k=2 instances.

Each entry point factors each of its operands once and applies the
projections and pseudoinverses through that factorization, so the number
of SVDs it runs is fixed by its structure.  Both ``numpy.linalg.svd`` and
the module-level name that ``np.linalg.norm(x, 2)`` calls are counted.
"""

import numpy as np
import pytest

from opeq import congruence, douglas, sylvester
from opeq.harness import InstanceSpec, generate, verify

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
# The sylvester, congruence and douglas solver bounds and the sylvester
# verify bound are what factoring each operand once allows (a helper that
# factors an operand again breaks them); the others only keep the counts
# from growing.
BOUNDS = {
    "sylvester": ("sylvester-solvable", 4, 4),
    "orthogonal": ("orthogonal-pair", 7, 7),
    "congruence": ("congruence-solvable", 6, 16),
    "douglas": ("scaled-equality-pair", 3, 6),
    "congruence-cz": ("equal-range-pair", 18, 5),
}


def instance(family):
    ops = generate(InstanceSpec(seed=1, family=family, shape=SHAPE))
    if family == "equal-range-pair":
        # R(A) = R(B) lies inside R(C) for C = A.
        ops["C"] = ops["A"]
    return ops


def solve(eq, ops):
    """Solve with the entry point for ``eq``; returns what verify takes."""
    a, b, c = ops["A"], ops.get("B"), ops["C"]
    if eq == "douglas":
        return {"X": douglas.reduced_solution(a, c).d}
    if eq == "sylvester":
        sol = sylvester.solve_ax_yb(a, b, c)
        return {"X": sol.x, "Y": sol.y}
    if eq == "orthogonal":
        x, y, lam = sylvester.solve_ax_by_orthogonal(a, b, c)
        return {"X": x, "Y": y, "lam": lam}
    if eq == "congruence":
        x, y, _ = congruence.solve_congruence(a, b, c)
        return {"X": x, "Y": y}
    x, y, z, _ = congruence.solve_congruence_cz(a, b, c)
    return {"X": x, "Y": y, "Z": z}


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
