"""Sylvester-type equations A X + Y B = C and A X + B Y = C.

Shapes are fully general: A is m-by-p, B is q-by-n, C is m-by-n, so X is
p-by-n and Y is m-by-q.  The particular pair is built from two reduced
solutions; the homogeneous pair is parameterized by three free operators
(W1, W', W4) and cancels exactly.  A X + B Y = C is the Douglas equation
on [A B], solved without the paper's hypothesis A* B = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .douglas import _reduced_solution
from .exceptions import NotSolvable
from .kernel import DEFAULT_TOL, Factorization, ToleranceConfig, factor, fro, shaped
from .projections import RangeDecision, inclusion
from .rng import Xoshiro256StarStar, complex_normal_matrix

__all__ = [
    "SylvesterDiagnosis",
    "SylvesterSolution",
    "diagnose_ax_yb",
    "particular_ax_yb",
    "homogeneous_ax_yb",
    "random_params",
    "solve_ax_yb",
    "solve_ax_by_orthogonal",
]

SIGNATURE = "A(m,p), B(q,n), C(m,n) -> X(p,n), Y(m,q)"
# The free parameters of the homogeneous pair, after the operands they go with.
PARAMETER_SIGNATURE = "A(m,p), B(q,n), W1(p,n), W'(p,q), W4(m,q)"
ORTHOGONAL_SIGNATURE = "A(m,p), B(m,q), C(m,n) -> X(p,n), Y(q,n)"


@dataclass(frozen=True)
class SylvesterDiagnosis:
    """Solvability certificate for A X + Y B = C.

    ``cond_range_cnb``    R(C N_B) subset-of R(A); the paper's R(P_{B*} C*) subset-of R(B*)
                          holds by construction, P_{B*} projecting onto the closed R(B*)
    ``classical_residual`` ||N_{A*} C N_B||_F, the (I - A A+) C (I - B+ B) test
    ``solvable``          the range condition holds
    ``anomaly``           the range condition and classical residual disagree; the
                          decision counts C N_B as zero only when ||C N_B|| <= rank_rel ||C||
                          and otherwise measures ||N_{A*} C N_B|| against ||C N_B||, while
                          the classical residual is measured against ||C||, so the two part
                          whenever ||C N_B|| is small next to ||C|| but not zero
    """

    cond_range_cnb: RangeDecision
    classical_residual: float
    solvable: bool
    anomaly: bool


def diagnose_ax_yb(a, b, c, tol: ToleranceConfig = DEFAULT_TOL) -> SylvesterDiagnosis:
    a, b, c = shaped(SIGNATURE, a, b, c)
    return _diagnose(factor(a, tol), factor(b, tol), c, tol)


def _diagnose(fa: Factorization, fb: Factorization, c, tol) -> SylvesterDiagnosis:
    c_nb = fb.right_n_a(c)
    norm_c = fro(c)
    cond_cnb = inclusion(c_nb, fa, tol, scale=norm_c)
    classical = fro(fa.n_astar(c_nb))
    classical_rel = classical / norm_c if norm_c else 0.0
    solvable = cond_cnb.holds
    return SylvesterDiagnosis(
        cond_range_cnb=cond_cnb,
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
    a, b, c = shaped(SIGNATURE, a, b, c)
    return _particular(factor(a, tol), factor(b, tol), c, tol)


def _particular(fa: Factorization, fb: Factorization, c, tol):
    diag = _diagnose(fa, fb, c, tol)
    if not diag.solvable:
        raise NotSolvable(
            "A X + Y B = C has no solution: "
            f"R(C N_B) is not in R(A) (residual {diag.cond_range_cnb.residual:.3e}), "
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
    _, _, w1, wprime, w4 = shaped(PARAMETER_SIGNATURE, fa.a, fb.a, w1, wprime, w4)
    fa_star = fa.adjoint()
    fb_star = fb.adjoint()
    x_h = fa_star.n_astar(w1) - fa_star.p_a(fb.right_p_astar(wprime @ fb.a))
    y_h = fb_star.right_p_astar(fa.a @ wprime) + fb_star.right_n_a(w4)
    return x_h, y_h


def random_params(a, b, seed: int = 0):
    """Seed-driven Gaussian draw of the homogeneous parameters (W1, W', W4)."""
    a, b = shaped(SIGNATURE, a, b)
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
    """``params_used`` is the ``params`` passed to :func:`solve_ax_yb`, None for the particular pair."""

    x_p: np.ndarray
    y_p: np.ndarray
    x: np.ndarray
    y: np.ndarray
    params_used: tuple | None


def solve_ax_yb(a, b, c, params=None, tol: ToleranceConfig = DEFAULT_TOL) -> SylvesterSolution:
    """General solution x = x_p + x_h, y = y_p + y_h of A X + Y B = C.

    ``params`` is the homogeneous triple (W1, W', W4); None returns the
    particular pair itself.
    """
    a, b, c = shaped(SIGNATURE, a, b, c)
    fa, fb = factor(a, tol), factor(b, tol)
    x_p, y_p = _particular(fa, fb, c, tol)
    x, y = x_p, y_p
    if params is not None:
        x_h, y_h = _homogeneous(fa, fb, *params)
        x = x_p + x_h
        y = y_p + y_h
    return SylvesterSolution(x_p=x_p, y_p=y_p, x=x, y=y, params_used=params)


def solve_ax_by_orthogonal(a, b, c, tol: ToleranceConfig = DEFAULT_TOL):
    """Solve A X + B Y = C as the Douglas equation T [X; Y] = C for T = [A B].

    Solvable exactly when R(C) subset-of R(T) = R(A) + R(B), whatever A* B is
    (else :class:`RangeNotContained`); [x; y] is the reduced solution split at
    A's column count.  Returns (x, y, lam) with lam = ||[x; y]||_2^2
    certifying C C* <= lam (A A* + B B*).
    """
    a, b, c = shaped(ORTHOGONAL_SIGNATURE, a, b, c)
    p = a.shape[1]
    rep = _reduced_solution(factor(np.hstack([a, b]), tol), c, tol)
    return rep.d[:p], rep.d[p:], rep.lambda_factor
