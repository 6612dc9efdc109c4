"""Sylvester-type equations A X + Y B = C and A X + B Y = C with A* B = 0.

Shapes are fully general: A is m-by-p, B is q-by-n, C is m-by-n, so X is
p-by-n and Y is m-by-q.  The particular pair is built from two reduced
solutions; the homogeneous pair is parameterized by three free operators
(W1, W', W4) and cancels exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, HypothesisViolated, NotASolution, NotSolvable
from .kernel import DEFAULT_TOL, Factorization, ToleranceConfig, as_matrix, dagger, factor, fro, spectral_norm
from .projections import RangeDecision, inclusion
from .rng import Xoshiro256StarStar, complex_normal_matrix

__all__ = [
    "SylvesterDiagnosis",
    "SylvesterSolution",
    "CompletenessReport",
    "diagnose_ax_yb",
    "particular_ax_yb",
    "homogeneous_ax_yb",
    "random_params",
    "solve_ax_yb",
    "completeness_witness",
    "solve_ax_by_orthogonal",
]

# Decomposition components the homogeneous parameterization cannot produce
# must vanish for any true solution; see completeness_witness.
WITNESS_REL = 1e-8


def _shapes(a, b, c):
    a, b, c = as_matrix(a), as_matrix(b), as_matrix(c)
    m, p = a.shape
    q, n = b.shape
    if c.shape != (m, n):
        raise DimensionMismatch(
            f"C must be {(m, n)} for A {a.shape} and B {b.shape}, got {c.shape}"
        )
    return a, b, c


@dataclass(frozen=True)
class SylvesterDiagnosis:
    """Solvability certificate for A X + Y B = C.

    ``cond_range_cnb``    R(C N_B) subset-of R(A)
    ``cond_range_pbc``    R(P_{B*} C*) subset-of R(B*)
    ``classical_residual`` ||N_{A*} C N_B||_F, the (I - A A+) C (I - B+ B) test
    ``solvable``          both range conditions hold
    ``anomaly``           range conditions and classical residual disagree,
                          which can only happen near a rank threshold
    """

    cond_range_cnb: RangeDecision
    cond_range_pbc: RangeDecision
    classical_residual: float
    solvable: bool
    anomaly: bool


def diagnose_ax_yb(a, b, c, tol: ToleranceConfig = DEFAULT_TOL) -> SylvesterDiagnosis:
    a, b, c = _shapes(a, b, c)
    return _diagnose(factor(a, tol), factor(b, tol), c, tol)


def _diagnose(fa: Factorization, fb: Factorization, c, tol) -> SylvesterDiagnosis:
    c_nb = fb.right_n_a(c)
    norm_c = fro(c)
    fb_star = fb.adjoint()
    cond_cnb = inclusion(c_nb, fa, tol, scale=norm_c)
    cond_pbc = inclusion(fb_star.p_a(dagger(c)), fb_star, tol, scale=norm_c)
    classical = fro(fa.n_astar(c_nb))
    classical_rel = classical / norm_c if norm_c else 0.0
    solvable = cond_cnb.holds and cond_pbc.holds
    return SylvesterDiagnosis(
        cond_range_cnb=cond_cnb,
        cond_range_pbc=cond_pbc,
        classical_residual=classical,
        solvable=solvable,
        anomaly=solvable != (classical_rel <= tol.residual_rel),
    )


def particular_ax_yb(a, b, c, tol: ToleranceConfig = DEFAULT_TOL):
    """Particular pair (x_p, y_p) with A x_p + y_p B = C.

    x_p is the reduced solution of A X = P_A C N_B and y_p the adjoint of
    the reduced solution of B* Y* = P_{B*} C*; they recombine through the
    identity P_A C N_B + C P_{B*} = C, which holds exactly when the
    diagnosis accepts the instance.
    """
    a, b, c = _shapes(a, b, c)
    return _particular(factor(a, tol), factor(b, tol), c, tol)


def _particular(fa: Factorization, fb: Factorization, c, tol):
    diag = _diagnose(fa, fb, c, tol)
    if not diag.solvable:
        raise NotSolvable(
            "A X + Y B = C has no solution: "
            f"range conditions hold = ({diag.cond_range_cnb.holds}, {diag.cond_range_pbc.holds}), "
            f"classical residual {diag.classical_residual:.3e}",
            diagnosis=diag,
        )
    return fa.pinv(fb.right_n_a(c)), fb.right_pinv(c)


def homogeneous_ax_yb(a, b, w1, wprime, w4, tol: ToleranceConfig = DEFAULT_TOL):
    """Homogeneous pair from free parameters, cancelling exactly.

    x_h = N_A W1 - P_{A*} W' B P_{B*} and y_h = A W' P_B + W4 N_{B*}
    satisfy A x_h + y_h B = 0 because the two cross terms are -A W' B and
    +A W' B.
    """
    return _homogeneous(factor(a, tol), factor(b, tol), w1, wprime, w4)


def _homogeneous(fa: Factorization, fb: Factorization, w1, wprime, w4):
    m, p = fa.a.shape
    q, n = fb.a.shape
    w1, wprime, w4 = as_matrix(w1), as_matrix(wprime), as_matrix(w4)
    if w1.shape != (p, n) or wprime.shape != (p, q) or w4.shape != (m, q):
        raise DimensionMismatch(
            f"expected W1 {(p, n)}, W' {(p, q)}, W4 {(m, q)}; "
            f"got {w1.shape}, {wprime.shape}, {w4.shape}"
        )
    fa_star = fa.adjoint()
    fb_star = fb.adjoint()
    x_h = fa_star.n_astar(w1) - fa_star.p_a(fb.right_p_astar(wprime @ fb.a))
    y_h = fb_star.right_p_astar(fa.a @ wprime) + fb_star.right_n_a(w4)
    return x_h, y_h


def random_params(a, b, seed: int = 0):
    """Seed-driven Gaussian draw of the homogeneous parameters (W1, W', W4)."""
    a, b = as_matrix(a), as_matrix(b)
    m, p = a.shape
    q, n = b.shape
    rng = Xoshiro256StarStar(seed)
    return (
        complex_normal_matrix(rng, p, n),
        complex_normal_matrix(rng, p, q),
        complex_normal_matrix(rng, m, q),
    )


@dataclass(frozen=True)
class SylvesterSolution:
    x_p: np.ndarray
    y_p: np.ndarray
    x: np.ndarray
    y: np.ndarray
    residual: float
    params_used: tuple


def solve_ax_yb(a, b, c, params=None, tol: ToleranceConfig = DEFAULT_TOL) -> SylvesterSolution:
    """General solution x = x_p + x_h, y = y_p + y_h of A X + Y B = C.

    ``params`` is the homogeneous triple (W1, W', W4); None selects zeros,
    returning the particular pair itself.
    """
    a, b, c = _shapes(a, b, c)
    m, p = a.shape
    q, n = b.shape
    if params is None:
        params = (
            np.zeros((p, n), dtype=np.complex128),
            np.zeros((p, q), dtype=np.complex128),
            np.zeros((m, q), dtype=np.complex128),
        )
    w1, wprime, w4 = params
    fa, fb = factor(a, tol), factor(b, tol)
    x_p, y_p = _particular(fa, fb, c, tol)
    x_h, y_h = _homogeneous(fa, fb, w1, wprime, w4)
    x = x_p + x_h
    y = y_p + y_h
    norm_c = fro(c)
    scale = norm_c if norm_c else max(fro(a) * fro(x) + fro(y) * fro(b), 1e-300)
    residual = fro(a @ x + y @ b - c) / scale
    return SylvesterSolution(x_p=x_p, y_p=y_p, x=x, y=y, residual=residual,
                             params_used=(w1, wprime, w4))


@dataclass(frozen=True)
class CompletenessReport:
    x_witness: float
    y_witness: float
    scale: float
    passed: bool


def completeness_witness(a, b, c, x0, y0, tol: ToleranceConfig = DEFAULT_TOL) -> CompletenessReport:
    """Check that a known solution (x0, y0) fits the parameterized family.

    Any solution differs from the particular pair by a homogeneous pair, so
    the components P_{A*} (x0 - x_p) N_B and N_{A*} (y0 - y_p) P_B, which no
    parameter choice can produce, must vanish.
    """
    a, b, c = _shapes(a, b, c)
    x0, y0 = as_matrix(x0), as_matrix(y0)
    defect = fro(a @ x0 + y0 @ b - c)
    scale0 = max(fro(c), fro(a) * fro(x0) + fro(y0) * fro(b), 1e-300)
    if defect > tol.residual_rel * scale0:
        raise NotASolution(
            f"(x0, y0) does not solve A X + Y B = C: residual {defect:.3e} vs scale {scale0:.3e}"
        )
    fa, fb = factor(a, tol), factor(b, tol)
    x_p, y_p = _particular(fa, fb, c, tol)
    dx = x0 - x_p
    dy = y0 - y_p
    x_wit = fro(fa.adjoint().p_a(fb.right_n_a(dx)))
    y_wit = fro(fa.n_astar(fb.adjoint().right_p_astar(dy)))
    scale = max(fro(dx), fro(dy), 1e-300)
    return CompletenessReport(
        x_witness=x_wit,
        y_witness=y_wit,
        scale=scale,
        passed=x_wit <= WITNESS_REL * scale and y_wit <= WITNESS_REL * scale,
    )


def solve_ax_by_orthogonal(a, b, c, tol: ToleranceConfig = DEFAULT_TOL):
    """Solve A X + B Y = C under the verified hypothesis A* B = 0.

    Stacks T = [A B] (the equation's live block row), so solvability is
    R(C) subset-of R([A B]); the reduced solution splits as [x; y] because
    P_{T*} is block diagonal when A* B = 0.  Returns (x, y, lam) with
    lam = ||[x; y]||_2^2 certifying C C* <= lam (A A* + B B*).
    """
    a, b, c = as_matrix(a), as_matrix(b), as_matrix(c)
    m, p = a.shape
    if b.shape[0] != m or c.shape[0] != m:
        raise DimensionMismatch(
            f"A, B, C must share the row count: {a.shape}, {b.shape}, {c.shape}"
        )
    defect = fro(dagger(a) @ b)
    bound = 1e-10 * spectral_norm(a) * spectral_norm(b)
    if defect > bound:
        raise HypothesisViolated(
            f"A* B != 0: defect {defect:.3e} exceeds bound {bound:.3e}"
        )
    ft = factor(np.hstack([a, b]), tol)
    decision = inclusion(c, ft, tol)
    if not decision.holds:
        raise NotSolvable(
            f"R(C) is not contained in R(A) + R(B): residual {decision.residual:.3e}",
            diagnosis=decision,
        )
    d = ft.pinv(c)
    x = d[:p]
    y = d[p:]
    lam = spectral_norm(d) ** 2
    return x, y, lam
