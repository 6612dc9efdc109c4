"""The one-sided equation A X = C: reduced solution and majorization factor.

Solvability is equivalent to the range inclusion R(C) subset-of R(A), and a
solution always majorizes: C C* <= lambda A A* with lambda the squared
spectral norm of the reduced solution.  The converse implication is not
true for general Hilbert modules and is asserted nowhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, HypothesisViolated, RangeNotContained, ToleranceAnomaly
from .kernel import DEFAULT_TOL, Factorization, ToleranceConfig, as_matrix, dagger, factor, fro, psd_sqrt, spectral_norm
from .projections import RangeDecision, inclusion, range_equal

__all__ = [
    "ReducedSolutionReport",
    "reduced_solution",
    "douglas_factor",
    "majorization_gap",
    "solve_scaled_equality",
    "polar_range_check",
]


@dataclass(frozen=True)
class ReducedSolutionReport:
    """Reduced solution D of A X = C with its certificate.

    ``residual``           relative Frobenius norm of A D - C
    ``reduced_certificate`` ||D - P_{A*} D||_F, zero when R(D) lies in the
                            orthogonal complement of the kernel of A
    ``lambda_factor``      ||D||_2^2, the least lambda with C C* <= lambda A A*
    """

    d: np.ndarray
    residual: float
    reduced_certificate: float
    lambda_factor: float


def _operands(a, c):
    a, c = as_matrix(a), as_matrix(c)
    if a.shape[0] != c.shape[0]:
        raise DimensionMismatch(f"row counts differ: A is {a.shape}, C is {c.shape}")
    return a, c


def reduced_solution(a, c, tol: ToleranceConfig = DEFAULT_TOL) -> ReducedSolutionReport:
    """Solve A X = C by the reduced (minimum-norm) solution D = pinv(A) C.

    Raises :class:`RangeNotContained` when R(C) is not inside R(A), i.e.
    when the equation has no solution.
    """
    a, c = _operands(a, c)
    return _reduced_solution(factor(a, tol), c, tol)


def _reduced_solution(fa: Factorization, c, tol) -> ReducedSolutionReport:
    decision = inclusion(c, fa, tol)
    if not decision.holds:
        raise RangeNotContained(
            f"R(C) is not contained in R(A): relative residual {decision.residual:.3e}",
            decision=decision,
        )
    d = fa.pinv(c)
    norm_c = fro(c)
    residual = fro(fa.a @ d - c) / norm_c if norm_c else 0.0
    return ReducedSolutionReport(
        d=d,
        residual=residual,
        reduced_certificate=fro(fa.adjoint().n_astar(d)),
        lambda_factor=spectral_norm(d) ** 2,
    )


def douglas_factor(a, c, tol: ToleranceConfig = DEFAULT_TOL):
    """Least lambda with C C* <= lambda A A*, or None when A X = C is unsolvable.

    The factor is ||pinv(A) C||_2^2; the PSD certificate
    min-eig(lambda (1 + 1e-8) A A* - C C*) >= -1e-8 * ||A A*||_2 is checked
    before returning (else :class:`ToleranceAnomaly`).
    """
    a, c = _operands(a, c)
    fa = factor(a, tol)
    if not inclusion(c, fa, tol).holds:
        return None
    lam = spectral_norm(fa.pinv(c)) ** 2
    gap = majorization_gap(lam, a @ dagger(a), c, fa.norm ** 2)
    if gap < -1e-8:
        raise ToleranceAnomaly(
            f"majorization certificate failed: relative min eigenvalue {gap:.3e} at lambda={lam:.6e}"
        )
    return lam


def majorization_gap(lam: float, gram, c, gram_norm: float) -> float:
    """Negative part of min-eig(lam (1 + 1e-8) G - C C*), relative to ``gram_norm`` = ||G||_2.

    Zero certifies C C* <= lam (1 + 1e-8) G; the certificates accept down to -1e-8.
    """
    gap = float(np.linalg.eigvalsh(lam * (1.0 + 1e-8) * gram - c @ dagger(c))[0])
    return min(gap, 0.0) / max(gram_norm, 1e-300)


def solve_scaled_equality(a, c, lambda_in: float,
                          tol: ToleranceConfig = DEFAULT_TOL) -> ReducedSolutionReport:
    """Solve A X = C under the verified hypothesis C C* = lambda_in A A*.

    The hypothesis forces R(A) = R(C), which is asserted before the reduced
    solution is computed; :class:`HypothesisViolated` is raised when the
    scaled equality fails the Frobenius check, :class:`ToleranceAnomaly`
    when it passes but the range equality does not.
    """
    a, c = _operands(a, c)
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
