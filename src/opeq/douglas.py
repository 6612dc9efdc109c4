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
    "majorization_gap",
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
    """Least lambda with C C* <= lambda A A*, or None when A X = C is unsolvable.

    The factor is the reduced solution's ``lambda_factor``; its
    :func:`majorization_certificate` is checked before returning (else
    :class:`ToleranceAnomaly`).
    """
    a, c = shaped(SIGNATURE, a, c)
    fa = factor(a, tol)
    try:
        d = _reduced_solution(fa, c, tol).d
    except RangeNotContained:
        return None
    residuals, failed = majorization_certificate(a, c, d, fa.norm, tol)
    if failed["majorization_gap"]:
        raise ToleranceAnomaly(f"majorization certificate failed: relative min eigenvalue "
                               f"{residuals['majorization_gap']:.3e} at lambda={residuals['lambda']:.6e}")
    return residuals["lambda"]


def majorization_certificate(t, c, x, t_norm: float, tol: ToleranceConfig = DEFAULT_TOL):
    """``lambda`` = ||X||_2^2 and the gap certifying C C* <= lambda T T* of T X = C, ``t_norm`` = ||T||_2."""
    norm_x = spectral_norm(x)  # squares as products: past the double range they give inf, ** 2 raises
    lam = norm_x * norm_x
    gap = majorization_gap(lam, t @ dagger(t), c, t_norm * t_norm, tol)
    return {"lambda": lam, "majorization_gap": gap}, {"majorization_gap": not gap >= -tol.residual_rel}


def majorization_gap(lam: float, gram, c, gram_norm: float, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Negative part of min-eig(lam (1 + s) G - C C*) over ``gram_norm`` = ||G||_2, s = ``residual_rel``.

    Zero certifies C C* <= lam (1 + s) G; the certificates accept down to -s.  An overflowed
    combination gives NaN, which they fail (eigvalsh returns finite values for inf or NaN).
    """
    combo = lam * (1.0 + tol.residual_rel) * gram - c @ dagger(c)
    if not np.abs(combo).max(initial=0.0) < np.inf:
        return float("nan")
    return relative(float(np.linalg.eigvalsh(combo).min(initial=0.0)), gram_norm)


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
