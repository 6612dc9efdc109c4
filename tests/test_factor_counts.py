"""LAPACK SVD, eigendecomposition, QR and finiteness-scan counts of the public entry points on
seeded k=2 instances.

Each entry point factors each of its operands once and applies the
projections and pseudoinverses through that factorization, so the number
of SVDs it runs is fixed by its structure.  ``factor`` and ``spectral_norm``
remember their last result, so every test starts with both emptied, and
verify is counted both emptied and right after its solver; a remembered result is the one a
fresh call computes, whatever ran before it.  Both ``numpy.linalg.svd`` and
the module-level name that ``np.linalg.norm(x, 2)`` calls are counted, and
Hermitian eigendecompositions (``eigh``, ``eigvalsh``) and QR the same way.
Likewise each matrix is scanned for NaN/Inf only where it enters the
package, so the number of ``np.isfinite`` calls is fixed too.
"""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import opeq
from opeq import DEFAULT_TOL, NotSolvable, OpeqError, as_matrix
from opeq.harness import EQUATIONS, InstanceSpec, generate, ranked_matrix, verify
from opeq.kernel import spectral_norm
from opeq.rng import Xoshiro256StarStar, complex_normal_matrix

try:
    from numpy.linalg import _linalg as linalg_impl  # numpy >= 2
except ImportError:  # pragma: no cover
    from numpy.linalg import linalg as linalg_impl

SHAPE = (6, 5, 4, 3, 2)

pytestmark = pytest.mark.usefixtures("forget")


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
# With nothing remembered, verify factors only what the answer's own properties need: A for the
# reducedness of a Douglas X, [A B] for its norm, one spectral norm per lambda,
# and ||Z|| for the C Z nonzero check.  Its eigendecompositions are one per
# PSD check of X and Y, whose spectrum also gives the norm of X or Y; the
# majorization certificate reads the range decision through the factorization
# it already holds, and no solver makes any.
BOUNDS = {
    "sylvester": ("sylvester-solvable", 2, 0, 0),
    "orthogonal": ("orthogonal-pair", 2, 2, 0),
    "congruence": ("congruence-solvable", 2, 0, 0),
    "douglas": ("scaled-equality-pair", 2, 2, 0),
    "congruence-cz": ("equal-range-pair", 3, 1, 2),
}


def instance(family):
    ops = generate(InstanceSpec(seed=1, family=family, shape=SHAPE))
    if family == "equal-range-pair":
        # R(A) = R(B) lies inside R(C) for C = A, and the C Z solver reuses A's factorization for C.
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
def test_verify_factors_its_own_operands(forget, svd_count, eq):
    family, _, bound, _ = BOUNDS[eq]
    ops = instance(family)
    sol = solve(eq, ops)
    forget()
    assert svd_count(lambda: verify(eq, ops, sol)) == bound


# equation tag -> SVD count of verify right after its solver: the solver's last
# factorization (A, or [A B]) and its ||X|| (or ||[X; Y]||) are remembered, so
# only the C Z solver's unmeasured ||Z|| is left.
AFTER_SOLVE = {"sylvester": 0, "orthogonal": 0, "congruence": 0, "douglas": 0, "congruence-cz": 1}


@pytest.mark.parametrize("eq", list(BOUNDS))
def test_verify_after_its_solver_reruns_no_svd(svd_count, eq):
    ops = instance(BOUNDS[eq][0])
    sol = solve(eq, ops)
    assert svd_count(lambda: verify(eq, ops, sol)) == AFTER_SOLVE[eq]


def test_only_the_kernel_calls_lapack():
    # Every SVD, eigendecomposition and QR goes through opeq.kernel.lapack, which raises LAPACK's
    # failure as ToleranceAnomaly and looks the numpy name up at call time, so these counters see it.
    src = Path(opeq.__file__).parent
    calls = {path.name: re.findall(r"linalg\.(?:svd|eigh|eigvalsh|qr)\b", path.read_text())
             for path in src.glob("*.py") if path.name != "kernel.py"}
    assert len(calls) > 1 and not any(calls.values()), calls


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
    "douglas": (3, 3),
    "congruence-cz": (5, 6),
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


# public entry point -> (equation whose instance, with its solver's answer added, it is called on;
# the call; its SVD, Hermitian eigendecomposition and QR counts with nothing remembered).  Each
# count is one SVD per matrix the entry factors or measures, so a helper that factors an operand
# twice breaks it: the Douglas and orthogonal solves measure ||D|| for lambda (douglas_factor returns
# the solver's), solve_scaled_equality also factors C for R(A) in R(C),
# polar_range_check factors T and |T*|, range_intersection factors [A B] for its rank, and the C Z
# solver takes the principal angles' SVD and reuses A's or B's factorization for a C equal to either.
# psd_sqrt and modulus take the root from their operand's one SVD, with no eigendecomposition.
ENTRY_POINTS = {
    "psd_sqrt": ("douglas", lambda o: opeq.psd_sqrt(o["A"] @ o["A"].conj().T), (1, 0, 0)),
    "modulus": ("douglas", lambda o: opeq.modulus(opeq.ModuleElement(opeq.ModuleContext(k=2, n=6),
                                                                      o["A"][:, :2])), (1, 0, 0)),
    "reduced_solution": ("douglas", lambda o: opeq.reduced_solution(o["A"], o["C"]), (2, 0, 0)),
    "douglas_factor": ("douglas", lambda o: opeq.douglas_factor(o["A"], o["C"]), (2, 0, 0)),
    "solve_scaled_equality": ("douglas", lambda o: opeq.solve_scaled_equality(o["A"], o["C"], o["lam"]),
                              (3, 0, 0)),
    "polar_range_check": ("douglas", lambda o: opeq.polar_range_check(o["A"]), (2, 0, 0)),
    "diagnose_ax_yb": ("sylvester", lambda o: opeq.diagnose_ax_yb(o["A"], o["B"], o["C"]), (2, 0, 0)),
    "particular_ax_yb": ("sylvester", lambda o: opeq.particular_ax_yb(o["A"], o["B"], o["C"]), (2, 0, 0)),
    "homogeneous_ax_yb": ("sylvester", lambda o: opeq.homogeneous_ax_yb(
        o["A"], o["B"], *opeq.random_params(o["A"], o["B"])), (2, 0, 0)),
    "solve_ax_yb": ("sylvester", lambda o: opeq.solve_ax_yb(o["A"], o["B"], o["C"]), (2, 0, 0)),
    "solve_ax_yb with params": ("sylvester", lambda o: opeq.solve_ax_yb(
        o["A"], o["B"], o["C"], params=opeq.random_params(o["A"], o["B"])), (2, 0, 0)),
    "completeness_witness": ("sylvester", lambda o: opeq.completeness_witness(
        o["A"], o["B"], o["C"], o["X"], o["Y"]), (2, 0, 0)),
    "solve_ax_by_orthogonal": ("orthogonal", lambda o: opeq.solve_ax_by_orthogonal(o["A"], o["B"], o["C"]),
                               (2, 0, 0)),
    "diagnose_congruence": ("congruence", lambda o: opeq.diagnose_congruence(o["A"], o["B"], o["C"]),
                            (2, 0, 0)),
    "solve_congruence": ("congruence", lambda o: opeq.solve_congruence(o["A"], o["B"], o["C"]), (2, 0, 0)),
    "solvability_necessity_check": ("congruence", lambda o: opeq.solvability_necessity_check(
        o["A"], o["B"], o["C"], o["X"], o["Y"]), (2, 0, 0)),
    # With R(A) = R(B), V2 = A and V3 = B* satisfy both inclusions for any V1.
    "homogeneous_congruence": ("congruence-cz", lambda o: opeq.homogeneous_congruence(
        o["A"], o["B"], o["M"], o["A"], o["B"].conj().T), (2, 0, 0)),
    "range_intersection": ("congruence-cz", lambda o: opeq.range_intersection(o["A"], o["B"]), (4, 0, 1)),
    "solve_congruence_cz at C = A": ("congruence-cz", lambda o: opeq.solve_congruence_cz(
        o["A"], o["B"], o["A"]), (3, 0, 1)),
    "solve_congruence_cz at C = B": ("congruence-cz", lambda o: opeq.solve_congruence_cz(
        o["A"], o["B"], o["B"]), (3, 0, 1)),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_entry_point_lapack_counts(forget, svd_count, eig_count, qr_count, name):
    eq, call, counts = ENTRY_POINTS[name]
    ops = instance(BOUNDS[eq][0])
    ops.update(solve(eq, ops))
    measured = []
    for count in (svd_count, eig_count, qr_count):
        forget()
        measured.append(count(lambda: call(ops)))
    assert tuple(measured) == counts


# Sylvester entry point -> its call on a sylvester-unsolvable instance, which it refuses.  The verdict is
# the particular pair's backward error, and the pair is built from the two factorizations the call
# already holds: (SVD, eigendecomposition, QR, finiteness scan) counts are the solvable pins', with
# no factorization or scan added for the pair.
REFUSALS = {
    "diagnose_ax_yb": lambda o: opeq.diagnose_ax_yb(o["A"], o["B"], o["C"]),
    "solve_ax_yb": lambda o: opeq.solve_ax_yb(o["A"], o["B"], o["C"]),
}


# Congruence entry point -> its call on a congruence-criterion-violating instance.  A failing criterion
# refuses before the paper's pair is built, so the counts are those of the solvable pins too.
CONGRUENCE_REFUSALS = {
    "diagnose_congruence": lambda o: opeq.diagnose_congruence(o["A"], o["B"], o["C"]),
    "solve_congruence": lambda o: opeq.solve_congruence(o["A"], o["B"], o["C"]),
}


def refuse(call):
    try:
        diag = call()
    except NotSolvable as exc:
        diag = exc.diagnosis
    assert not diag.solvable


def refusal_counts(forget, counts, family, call):
    """(SVD, eigendecomposition, QR, finiteness scan) counts of ``call`` refusing the ``family`` instance."""
    ops = instance(family)
    measured = []
    for count in counts:
        forget()
        measured.append(count(lambda: refuse(lambda: call(ops))))
    return tuple(measured)


@pytest.mark.parametrize("name", list(REFUSALS))
def test_sylvester_refusal_counts(forget, svd_count, eig_count, qr_count, scan_count, name):
    counts = (svd_count, eig_count, qr_count, scan_count)
    assert refusal_counts(forget, counts, "sylvester-unsolvable", REFUSALS[name]) == (2, 0, 0, 5)


@pytest.mark.parametrize("name", list(CONGRUENCE_REFUSALS))
def test_congruence_refusal_counts(forget, svd_count, eig_count, qr_count, scan_count, name):
    counts = (svd_count, eig_count, qr_count, scan_count)
    call = CONGRUENCE_REFUSALS[name]
    assert refusal_counts(forget, counts, "congruence-criterion-violating", call) == (2, 0, 0, 5)


def fingerprint(value) -> bytes:
    """Bytes of ``value``: arrays and floats bit for bit, dataclasses and containers item by item."""
    if isinstance(value, np.ndarray):
        return repr((value.shape, value.dtype.str)).encode() + value.tobytes()
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (list, tuple)):
        return b"(" + b",".join(map(fingerprint, value)) + b")"
    return repr(value).encode()


def outcome(call) -> bytes:
    try:
        return fingerprint(call())
    except OpeqError as exc:
        return f"{type(exc).__name__}: {exc}".encode()


# Calls sharing the operand M, each on operands built from it alone.  On this M the norm of the SVD
# with vectors and the values-only one differ in the last bit, so a spectral_norm that read factor's
# result would break the pair factor(M) -> spectral_norm(M).
M = ranked_matrix(Xoshiro256StarStar(7), 5, 4, 3)
MW = M @ complex_normal_matrix(Xoshiro256StarStar(8), 4, 2)
HALF = np.eye(4) / 2.0
CALLS_ON_M = {
    "factor": lambda: opeq.factor(M),
    "svd": lambda: opeq.svd(M),
    "pinv": lambda: opeq.pinv(M),
    "psd_sqrt": lambda: opeq.psd_sqrt(M @ M.conj().T),
    "spectral_norm": lambda: spectral_norm(M),
    "reduced_solution": lambda: opeq.reduced_solution(M, MW),
    "douglas_factor": lambda: opeq.douglas_factor(M, MW),
    "solve_scaled_equality": lambda: opeq.solve_scaled_equality(M, M, 1.0),
    "polar_range_check": lambda: opeq.polar_range_check(M),
    "solve_ax_yb": lambda: opeq.solve_ax_yb(M, M.conj().T, M @ M.conj().T),
    "solve_ax_by_orthogonal": lambda: opeq.solve_ax_by_orthogonal(M, M, MW),
    "solve_congruence": lambda: opeq.solve_congruence(M, M, M @ M.conj().T),
    "range_intersection": lambda: opeq.range_intersection(M, M),
    "solve_congruence_cz": lambda: opeq.solve_congruence_cz(M, M, M),
    "verify douglas": lambda: verify("douglas", {"A": M, "C": M}, {"X": np.eye(4)}),
    "verify orthogonal": lambda: verify("orthogonal", {"A": M, "B": M, "C": M}, {"X": HALF, "Y": HALF}),
    "verify congruence-cz": lambda: verify("congruence-cz", {"A": M, "B": M, "C": M},
                                           {"X": HALF, "Y": HALF, "Z": M.conj().T}),
}


@pytest.mark.parametrize("second", list(CALLS_ON_M))
def test_no_result_or_count_depends_on_the_call_before(forget, svd_count, second):
    # Each call after each other one returns the bytes it returns with nothing remembered,
    # with at most as many SVDs.
    out = []
    cold_count = svd_count(lambda: out.append(outcome(CALLS_ON_M[second])))
    for first, call in CALLS_ON_M.items():
        forget()
        outcome(call)
        warm_count = svd_count(lambda: out.append(outcome(CALLS_ON_M[second])))
        assert out[-1] == out[0], first
        assert warm_count <= cold_count, first
