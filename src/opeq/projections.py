"""Range projections of an operator and tolerance-based range decisions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatch
from .kernel import DEFAULT_TOL, Factorization, ToleranceConfig, as_matrix, factor, fro

__all__ = [
    "ProjectionQuad",
    "RangeDecision",
    "projection_quad",
    "numerical_rank",
    "inclusion",
    "range_inclusion",
    "range_equal",
]


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
    the claimed range; ``rank_data`` carries the corroborating ranks.
    """

    holds: bool
    residual: float
    rank_data: dict = field(default_factory=dict)


def inclusion(c, f: Factorization, tol: ToleranceConfig = DEFAULT_TOL,
              scale: float | None = None) -> RangeDecision:
    """Decide R(c) subset-of R(a) for an operator ``a`` already factored as ``f``.

    The decision is residual-based, ||N_{A*} c|| / ||c||; the rank
    comparison of [a c] against a is computed only as corroborating data.
    A zero c is included in any range; callers testing a computed product
    (say C N_B, which can cancel to roundoff dust whose self-relative
    residual is meaningless) pass the factor magnitude as ``scale`` so that
    ||c|| <= rank_rel * scale also counts as zero.
    """
    c = as_matrix(c)
    if c.shape[0] != f.a.shape[0]:
        raise DimensionMismatch(
            f"row counts differ: C is {c.shape}, A is {f.a.shape}"
        )
    rank_data = {
        "rank_a": f.rank,
        "rank_a_aug": numerical_rank(np.hstack([f.a, c]), tol) if c.size else f.rank,
    }
    norm_c = fro(c)
    if norm_c == 0.0 or (scale is not None and norm_c <= tol.rank_rel * scale):
        return RangeDecision(holds=True, residual=0.0, rank_data=rank_data)
    residual = fro(f.n_astar(c)) / norm_c
    return RangeDecision(holds=residual <= tol.residual_rel, residual=residual, rank_data=rank_data)


def range_inclusion(c, a, tol: ToleranceConfig = DEFAULT_TOL,
                    scale: float | None = None) -> RangeDecision:
    """Decide R(c) subset-of R(a); :func:`inclusion` on a fresh factorization of ``a``."""
    return inclusion(c, factor(a, tol), tol, scale)


def range_equal(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> RangeDecision:
    """Decide R(a) = R(b) by inclusion both ways."""
    fwd = range_inclusion(b, a, tol)
    bwd = range_inclusion(a, b, tol)
    rank_data = {
        "rank_a": fwd.rank_data["rank_a"],
        "rank_b": bwd.rank_data["rank_a"],
        "rank_a_aug_b": fwd.rank_data["rank_a_aug"],
    }
    return RangeDecision(
        holds=fwd.holds and bwd.holds,
        residual=max(fwd.residual, bwd.residual),
        rank_data=rank_data,
    )
