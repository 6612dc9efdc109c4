"""LAPACK SVD, eigendecomposition, QR and finiteness-scan counts of the public entry points on
seeded k=2 instances.

Each entry point factors each of its operands once and applies the
projections and pseudoinverses through that factorization, so the number
of SVDs it runs is fixed by its structure.  Both ``numpy.linalg.svd`` and
the module-level name that ``np.linalg.norm(x, 2)`` calls are counted, and
Hermitian eigendecompositions (``eigh``, ``eigvalsh``) and QR the same way.
Likewise each matrix is scanned for NaN/Inf only where it enters the
package, so the number of ``np.isfinite`` calls is fixed too.
"""

import numpy as np
import pytest

from opeq import DEFAULT_TOL, as_matrix
from opeq.harness import EQUATIONS, InstanceSpec, generate, verify

try:
    from numpy.linalg import _linalg as linalg_impl  # numpy >= 2
except ImportError:  # pragma: no cover
    from numpy.linalg import linalg as linalg_impl

SHAPE = (6, 5, 4, 3, 2)


def counter(monkeypatch, owners, *names):
    """Count calls to each of ``names`` on every module in ``owners``; returns count(thunk)."""
    calls = []

    def counted(real):
        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return counting

    for name in names:
        counting = counted(getattr(owners[0], name))
        for owner in owners:
            monkeypatch.setattr(owner, name, counting)

    def count(thunk):
        calls.clear()
        thunk()
        return len(calls)
    return count


@pytest.fixture
def svd_count(monkeypatch):
    """Run a thunk and return how many SVDs it made."""
    return counter(monkeypatch, (np.linalg, linalg_impl), "svd")


@pytest.fixture
def eig_count(monkeypatch):
    """Run a thunk and return how many Hermitian eigendecompositions it made."""
    return counter(monkeypatch, (np.linalg, linalg_impl), "eigh", "eigvalsh")


@pytest.fixture
def qr_count(monkeypatch):
    """Run a thunk and return how many QR factorizations it made."""
    return counter(monkeypatch, (np.linalg, linalg_impl), "qr")


@pytest.fixture
def scan_count(monkeypatch):
    """Run a thunk and return how many finiteness scans (``np.isfinite`` calls) it made."""
    return counter(monkeypatch, (np,), "isfinite")


# equation tag -> (generated family, SVD bound of the solver, SVD count of verify,
# eigendecomposition count of verify).
# A solver bound is the count when every operand is factored once and
# every range decision is applied through a factorization the caller
# already holds, so a helper that factors an operand again breaks it.
# verify factors only what the answer's own properties need: A for the
# reducedness of a Douglas X, one spectral norm per lambda and ||[A B]||,
# and ||Z|| for the C Z nonzero check.  Its eigendecompositions are one per
# majorization gap and one per PSD check of X and Y, whose spectrum also
# gives the norm of X or Y; no solver makes any.
BOUNDS = {
    "sylvester": ("sylvester-solvable", 2, 0, 0),
    "orthogonal": ("orthogonal-pair", 2, 2, 1),
    "congruence": ("congruence-solvable", 2, 0, 0),
    "douglas": ("scaled-equality-pair", 2, 2, 1),
    "congruence-cz": ("equal-range-pair", 4, 1, 2),
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
    family, bound, _, _ = BOUNDS[eq]
    ops = instance(family)
    assert svd_count(lambda: solve(eq, ops)) <= bound


@pytest.mark.parametrize("eq", list(BOUNDS))
def test_verify_factors_its_own_operands(svd_count, eq):
    family, _, bound, _ = BOUNDS[eq]
    ops = instance(family)
    sol = solve(eq, ops)
    assert svd_count(lambda: verify(eq, ops, sol)) == bound


def test_eig_counting_sees_both_names(eig_count):
    assert eig_count(lambda: (np.linalg.eigh(np.eye(3)), np.linalg.eigvalsh(np.eye(3)))) == 2


@pytest.mark.parametrize("eq", list(BOUNDS))
def test_solver_makes_no_eigendecomposition(eig_count, eq):
    ops = instance(BOUNDS[eq][0])
    assert eig_count(lambda: solve(eq, ops)) == 0


@pytest.mark.parametrize("eq", list(BOUNDS))
def test_verify_eigendecompositions(eig_count, eq):
    family, _, _, count = BOUNDS[eq]
    ops = instance(family)
    sol = solve(eq, ops)
    assert eig_count(lambda: verify(eq, ops, sol)) == count


# equation tag -> QR count of the solver: the C Z solver orthonormalizes the
# (A+ w; B+ w) pairs of its intersection basis once; verify makes none.
QR_COUNTS = {"sylvester": 0, "orthogonal": 0, "congruence": 0, "douglas": 0, "congruence-cz": 1}


def test_qr_counting_sees_qr(qr_count):
    assert qr_count(lambda: np.linalg.qr(np.eye(3))) == 1


@pytest.mark.parametrize("eq", list(BOUNDS))
def test_solver_qr_count(qr_count, eq):
    ops = instance(BOUNDS[eq][0])
    assert qr_count(lambda: solve(eq, ops)) == QR_COUNTS[eq]


@pytest.mark.parametrize("eq", list(BOUNDS))
def test_verify_makes_no_qr(qr_count, eq):
    ops = instance(BOUNDS[eq][0])
    sol = solve(eq, ops)
    assert qr_count(lambda: verify(eq, ops, sol)) == 0


# equation tag -> (scan bound of the solver, scan bound of verify).  Each
# bound is one scan per matrix the entry point is handed (its shape check)
# plus one per matrix it passes to a public primitive that checks its own
# input (factor); helpers such as fro, dagger and inclusion scan
# nothing, so a helper that checks an intermediate again breaks the bound.
SCAN_BOUNDS = {
    "sylvester": (5, 5),
    "orthogonal": (4, 5),
    "congruence": (5, 5),
    "douglas": (3, 4),
    "congruence-cz": (6, 6),
}


def test_scan_counting_sees_as_matrix(scan_count):
    assert scan_count(lambda: as_matrix(np.eye(3))) == 1


@pytest.mark.parametrize("eq", list(SCAN_BOUNDS))
def test_solver_scans_only_at_the_boundary(scan_count, eq):
    ops = instance(BOUNDS[eq][0])
    assert scan_count(lambda: solve(eq, ops)) <= SCAN_BOUNDS[eq][0]


@pytest.mark.parametrize("eq", list(SCAN_BOUNDS))
def test_verify_scans_only_at_the_boundary(scan_count, eq):
    ops = instance(BOUNDS[eq][0])
    sol = solve(eq, ops)
    assert scan_count(lambda: verify(eq, ops, sol)) <= SCAN_BOUNDS[eq][1]
