"""Range projections of an operator and tolerance-based range decisions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ToleranceAnomaly
from .kernel import DEFAULT_TOL, Factorization, ToleranceConfig, factor, fro, relative, shaped

__all__ = [
    "ProjectionQuad",
    "RangeDecision",
    "projection_quad",
    "numerical_rank",
    "inclusion",
    "range_inclusion",
    "range_equal",
]

INCLUSION_SIGNATURE = "C(m,n), A(m,p)"


@dataclass(frozen=True)
class ProjectionQuad:
    """The four canonical projections attached to one operator ``a``.

    ``p_a`` projects onto R(a) (codomain side), ``p_astar`` onto R(a*)
    (domain side); ``n_a = I - p_astar`` and ``n_astar = I - p_a`` project
    onto the kernel and cokernel.  Each is the matching
    :class:`Factorization` method applied to the identity; the solvers
    apply those methods directly and never form these matrices.
    """

    p_a: np.ndarray
    p_astar: np.ndarray
    n_a: np.ndarray
    n_astar: np.ndarray


def projection_quad(a, tol: ToleranceConfig = DEFAULT_TOL) -> ProjectionQuad:
    f = factor(a, tol)
    f_star = f.adjoint()
    eye_m, eye_n = (np.eye(k, dtype=np.complex128) for k in f.a.shape)
    return ProjectionQuad(p_a=f.p_a(eye_m), p_astar=f_star.p_a(eye_n),
                          n_a=f_star.n_astar(eye_n), n_astar=f.n_astar(eye_m))


def numerical_rank(a, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    return factor(a, tol).rank


@dataclass(frozen=True)
class RangeDecision:
    """Certificate for a claim of the form R(C) subset-of R(A).

    ``residual`` is the relative Frobenius norm of the part of C outside
    the claimed range; ``rank_data`` holds the tested operators' ranks.
    """

    holds: bool
    residual: float
    rank_data: dict = field(default_factory=dict)


def inclusion(c, f: Factorization, tol: ToleranceConfig = DEFAULT_TOL,
              scale: float | None = None) -> RangeDecision:
    """Decide R(c) subset-of R(a) for an operator ``a`` already factored as ``f``.

    The residual is ``relative(||N_{A*} c||_F, scale)``, measured against the
    magnitude c came from: ``scale`` when given (say ||C|| for a computed
    product C N_B, which can cancel to roundoff dust), else ||c||_F.  It
    applies N_{A*} through ``f``, so it runs no factorization of its own.
    A zero c is included in any range.  A nonzero N_{A*} c over a zero or
    overflowed scale gives a NaN residual, and an overflowed ||N_{A*} c|| an
    infinite one; either raises :class:`ToleranceAnomaly` rather than deciding.

    ``c`` is a 2-D complex128 ndarray with as many rows as ``f.a``, taken
    as given; :func:`range_inclusion` is the checked entry point.
    """
    if scale is None:
        scale = fro(c)
    return _decision(relative(fro(f.n_astar(c)), scale), f, tol)


def _decision(residual: float, f: Factorization, tol: ToleranceConfig) -> RangeDecision:
    """R(C) subset-of R(A), ``f`` the factorization of A, holds when ``residual`` is at most ``residual_rel``;
    a residual that is not finite raises :class:`ToleranceAnomaly` rather than deciding."""
    if not math.isfinite(residual):
        raise ToleranceAnomaly(f"range decision has no finite residual ({residual})")
    return RangeDecision(holds=residual <= tol.residual_rel, residual=residual, rank_data={"rank_a": f.rank})


def range_inclusion(c, a, tol: ToleranceConfig = DEFAULT_TOL) -> RangeDecision:
    """Check ``c`` and ``a``, then decide R(c) subset-of R(a) by :func:`inclusion` on a new factorization."""
    c, a = shaped(INCLUSION_SIGNATURE, c, a)
    return inclusion(c, factor(a, tol), tol)


def range_equal(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> RangeDecision:
    """Decide R(a) = R(b) by inclusion both ways."""
    fwd = range_inclusion(b, a, tol)
    bwd = range_inclusion(a, b, tol)
    rank_data = {"rank_a": fwd.rank_data["rank_a"], "rank_b": bwd.rank_data["rank_a"]}
    return RangeDecision(
        holds=fwd.holds and bwd.holds,
        residual=max(fwd.residual, bwd.residual),
        rank_data=rank_data,
    )
