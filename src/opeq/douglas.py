"""The one-sided equation A X = C: reduced solution and majorization factor.

Solvability is equivalent to the range inclusion R(C) subset-of R(A), and a
solution always majorizes: C C* <= lambda A A* with lambda the squared
spectral norm of the reduced solution.  The converse implication is not
true for general Hilbert modules and is asserted nowhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import HypothesisViolated, RangeNotContained, ToleranceAnomaly
from .kernel import (DEFAULT_TOL, Factorization, ToleranceConfig, as_matrix, dagger, factor, fro, psd_sqrt,
                     shaped, spectral_norm)
from .projections import RangeDecision, inclusion, range_equal

__all__ = [
    "ReducedSolutionReport",
    "reduced_solution",
    "douglas_factor",
    "majorization_gap",
    "solve_scaled_equality",
    "polar_range_check",
]

SIGNATURE = "A(m,p), C(m,n) -> X(p,n)"

# Relative slack of a majorization certificate C C* <= lambda G: lambda is
# inflated by it, and the relative min eigenvalue may fall to minus it.
MAJORIZATION_SLACK = 1e-8


@dataclass(frozen=True)
class ReducedSolutionReport:
    """Reduced solution ``d`` of A X = C and ``lambda_factor`` = ||d||_2^2, the least
    lambda with C C* <= lambda A A*; :func:`opeq.harness.verify` certifies ``d``."""

    d: np.ndarray
    lambda_factor: float


def reduced_solution(a, c, tol: ToleranceConfig = DEFAULT_TOL) -> ReducedSolutionReport:
    """Solve A X = C by the reduced (minimum-norm) solution D = pinv(A) C.

    Raises :class:`RangeNotContained` when R(C) is not inside R(A), i.e.
    when the equation has no solution.
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
    return ReducedSolutionReport(d=d, lambda_factor=spectral_norm(d) ** 2)


def douglas_factor(a, c, tol: ToleranceConfig = DEFAULT_TOL):
    """Least lambda with C C* <= lambda A A*, or None when A X = C is unsolvable.

    The factor is the reduced solution's ``lambda_factor``; the PSD certificate
    min-eig(lambda (1 + s) A A* - C C*) >= -s ||A A*||_2, s = MAJORIZATION_SLACK,
    is checked before returning (else :class:`ToleranceAnomaly`).
    """
    a, c = shaped(SIGNATURE, a, c)
    fa = factor(a, tol)
    try:
        lam = _reduced_solution(fa, c, tol).lambda_factor
    except RangeNotContained:
        return None
    gap = majorization_gap(lam, a @ dagger(a), c, fa.norm ** 2)
    if gap < -MAJORIZATION_SLACK:
        raise ToleranceAnomaly(
            f"majorization certificate failed: relative min eigenvalue {gap:.3e} at lambda={lam:.6e}"
        )
    return lam


def majorization_gap(lam: float, gram, c, gram_norm: float) -> float:
    """Negative part of min-eig(lam (1 + s) G - C C*) over ``gram_norm`` = ||G||_2, s = MAJORIZATION_SLACK.

    Zero certifies C C* <= lam (1 + s) G; the certificates accept down to -s.
    """
    gap = float(np.linalg.eigvalsh(lam * (1.0 + MAJORIZATION_SLACK) * gram - c @ dagger(c))[0])
    return min(gap, 0.0) / max(gram_norm, 1e-300)


def solve_scaled_equality(a, c, lambda_in: float,
                          tol: ToleranceConfig = DEFAULT_TOL) -> ReducedSolutionReport:
    """Solve A X = C under the verified hypothesis C C* = lambda_in A A*.

    The hypothesis forces R(A) = R(C), which is asserted before the reduced
    solution is computed; :class:`HypothesisViolated` is raised when the
    scaled equality fails the Frobenius check, :class:`ToleranceAnomaly`
    when it passes but the range equality does not.
    """
    a, c = shaped(SIGNATURE, a, c)
    if not lambda_in > 0.0:
        raise HypothesisViolated(f"lambda must be positive, got {lambda_in!r}")
    aa = a @ dagger(a)
    cc = c @ dagger(c)
    defect = fro(cc - lambda_in * aa)
    bound = tol.residual_rel * fro(aa) * lambda_in
    if defect > bound:
        raise HypothesisViolated(
            f"C C* != lambda A A*: defect {defect:.3e} exceeds bound {bound:.3e}"
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
    """Check R(T) = R(|T*|) with |T*| the PSD square root of T T*.

    This equality is a theorem for every operator, so the decision doubles
    as a self-test oracle for the projection machinery.
    """
    t = as_matrix(t)
    mod = psd_sqrt(t @ dagger(t))
    return range_equal(t, mod, tol)
