"""The one-sided equation A X = C: reduced solution and majorization factor.

Solvability is equivalent to the range inclusion R(C) subset-of R(A), and a
solution always majorizes: C C* <= lambda A A* with lambda the squared
spectral norm of the reduced solution.  The converse implication is not
true for general Hilbert modules and is asserted nowhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import HypothesisViolated, RangeNotContained, ToleranceAnomaly
from .kernel import (DEFAULT_TOL, Factorization, ToleranceConfig, dagger, factor, fro, relative, shaped,
                     spectral_norm)
from .projections import RangeDecision, inclusion, range_equal

__all__ = [
    "ReducedSolutionReport",
    "reduced_solution",
    "douglas_factor",
    "majorization_certificate",
    "solve_scaled_equality",
    "polar_range_check",
]

SIGNATURE = "A(m,p), C(m,n) -> X(p,n)"


@dataclass(frozen=True)
class ReducedSolutionReport:
    """Reduced solution ``d`` of A X = C and ``lambda_factor`` = ||d||_2^2, the least
    lambda with C C* <= lambda A A*; :func:`opeq.harness.verify` certifies ``d``."""

    d: np.ndarray
    lambda_factor: float


def reduced_solution(a, c, tol: ToleranceConfig = DEFAULT_TOL) -> ReducedSolutionReport:
    """Solve A X = C by the reduced (minimum-norm) solution D = pinv(A) C.

    Raises :class:`RangeNotContained` when R(C) is not inside R(A), i.e.
    when the equation has no solution, and :class:`ToleranceAnomaly` when
    D overflows, so that ||D||_2 is not finite.
    """
    a, c = shaped(SIGNATURE, a, c)
    return _reduced_solution(factor(a, tol), c, tol)


def _reduced_solution(fa: Factorization, c, tol) -> ReducedSolutionReport:
    decision = inclusion(c, fa, tol)
    if not decision.holds:
        raise RangeNotContained(
            f"R(C) is not in the range of the coefficient: relative residual {decision.residual:.3e}",
            diagnosis=decision,
        )
    d = fa.pinv(c)
    norm_d = spectral_norm(d)  # squared as a product, which overflows to inf, not OverflowError
    if not math.isfinite(norm_d):
        raise ToleranceAnomaly(f"the reduced solution overflowed: ||D||_2 = {norm_d}")
    return ReducedSolutionReport(d=d, lambda_factor=norm_d * norm_d)


def douglas_factor(a, c, tol: ToleranceConfig = DEFAULT_TOL):
    """Least lambda with C C* <= lambda A A*, the reduced solution's ``lambda_factor``, or None when A X = C
    is unsolvable."""
    try:
        return reduced_solution(a, c, tol).lambda_factor
    except RangeNotContained:
        return None


def majorization_certificate(ft: Factorization, c, x, tol: ToleranceConfig = DEFAULT_TOL):
    """``lambda`` = ||X||_2^2, which fails unless finite, and the ``range`` residual of R(C) in R(T) through
    ``ft``, T's factorization, which fails where the solver's decision refuses, for an answer X of T X = C.

    T X = C gives C C* = T X X* T* <= ||X||_2^2 T T*, which holds in every Hilbert C*-module.  The
    equation's backward error shows that C is T X up to tolerance, and the range residual covers what it
    misses when ||T|| ||X|| >> ||C||, a part of C outside R(T); so no eigendecomposition is needed.
    """
    norm_x = spectral_norm(x)  # squares as products: past the double range they give inf, ** 2 raises
    lam = norm_x * norm_x
    try:
        decision = inclusion(c, ft, tol)
    except ToleranceAnomaly:  # a residual that is not finite, on which the solver refuses: fail closed
        decision = RangeDecision(holds=False, residual=math.nan)
    residuals = {"lambda": lam, "range": decision.residual}
    return residuals, {"lambda": not lam < math.inf, "range": not decision.holds}


def solve_scaled_equality(a, c, lambda_in: float,
                          tol: ToleranceConfig = DEFAULT_TOL) -> ReducedSolutionReport:
    """Solve A X = C under the verified hypothesis C C* = lambda_in A A*.

    The hypothesis forces R(A) = R(C), which is asserted before the reduced
    solution is computed; :class:`HypothesisViolated` is raised when the
    scaled equality fails the Frobenius check, :class:`ToleranceAnomaly`
    when it passes but the range equality does not.
    """
    a, c = shaped(SIGNATURE, a, c)
    if not 0.0 < lambda_in < np.inf:
        raise HypothesisViolated(f"lambda must be positive and finite, got {lambda_in!r}")
    aa = a @ dagger(a)
    cc = c @ dagger(c)
    defect = relative(fro(cc - lambda_in * aa), fro(aa) * lambda_in)
    if not defect <= tol.residual_rel:
        raise HypothesisViolated(
            f"C C* != lambda A A*: relative defect {defect:.3e} exceeds {tol.residual_rel:g}"
        )
    fa = factor(a, tol)
    fwd, bwd = inclusion(c, fa, tol), inclusion(a, factor(c, tol), tol)
    if not (fwd.holds and bwd.holds):
        raise ToleranceAnomaly(
            "tolerance anomaly: scaled equality holds but range equality failed "
            f"(residual {max(fwd.residual, bwd.residual):.3e})"
        )
    return _reduced_solution(fa, c, tol)


def polar_range_check(t, tol: ToleranceConfig = DEFAULT_TOL) -> RangeDecision:
    """Check R(T) = R(|T*|) with |T*| = (T T*)^{1/2} = U_T diag(s) U_T*, from T's own factorization.

    This equality is a theorem for every operator, so the decision doubles as a self-test oracle for
    the projection machinery.  A root of T T* would drop singular values the rank cutoff keeps.
    """
    f = factor(t, tol)
    return range_equal(f.a, (f.u * f.s) @ dagger(f.u), tol)
