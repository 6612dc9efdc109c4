"""Congruence equations A X A* + B Y B* = 0, = C, and = C Z.

The inhomogeneous solver follows the substitution X^ = X A*, Y^ = B Y that
reduces the congruence equation to a Sylvester-type equation; the C Z
variant extracts PSD blocks from the projection onto the kernel of the
block row [A -B], whose ranges parameterize R(A) intersect R(B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DimensionMismatch,
    EmptyIntersection,
    HypothesisViolated,
    IntersectionNotInRangeC,
    NotASolution,
    NotSolvable,
)
from .kernel import DEFAULT_TOL, Factorization, ToleranceConfig, as_matrix, dagger, factor, fro, psd_sqrt, spectral_norm
from .projections import RangeDecision, inclusion, range_inclusion

__all__ = [
    "CongruenceDiagnosis",
    "NecessityReport",
    "IntersectionReport",
    "CzReport",
    "diagnose_congruence",
    "homogeneous_congruence",
    "solve_congruence",
    "solvability_necessity_check",
    "range_intersection",
    "solve_congruence_cz",
]


def _congruence_shapes(a, b, c):
    a, b, c = as_matrix(a), as_matrix(b), as_matrix(c)
    m = a.shape[0]
    if b.shape[0] != m or c.shape != (m, m):
        raise DimensionMismatch(
            f"need A, B with {m} rows and C {m}-by-{m}; got {a.shape}, {b.shape}, {c.shape}"
        )
    return a, b, c


@dataclass
class CongruenceDiagnosis:
    """Hypotheses and solvability criteria for A X A* + B Y B* = C.

    Hypotheses: R(C) in R(B), R(C*) in R(A), and R(C* P_A) in N(B*), the
    last one measured by ``hyp_cstar_pa_in_nbstar`` = ||B* C* P_A||_F.
    Criteria (necessary and, under the hypotheses, sufficient):
    R(C N_{B*}) in R(A) and R(C* N_{A*}) in R(B).  The intermediate reduced
    solutions and the final residual are attached for audit after a solve.
    """

    hyp_c_in_b: RangeDecision
    hyp_cstar_in_a: RangeDecision
    hyp_cstar_pa_in_nbstar: float
    cond_cnbstar_in_a: RangeDecision
    cond_cstar_nastar_in_b: RangeDecision
    hypotheses_hold: bool
    solvable: bool
    xhat: np.ndarray | None = field(default=None, repr=False)
    yhat_star: np.ndarray | None = field(default=None, repr=False)
    residual: float | None = None


def diagnose_congruence(a, b, c, tol: ToleranceConfig = DEFAULT_TOL) -> CongruenceDiagnosis:
    a, b, c = _congruence_shapes(a, b, c)
    return _diagnose(factor(a, tol), factor(b, tol), c, tol)


def _criteria(fa: Factorization, fb: Factorization, c, tol):
    """The range criteria R(C N_{B*}) in R(A) and R(C* N_{A*}) in R(B)."""
    norm_c = fro(c)
    return (
        inclusion(fb.adjoint().right_n_a(c), fa, tol, scale=norm_c),
        inclusion(fa.adjoint().right_n_a(dagger(c)), fb, tol, scale=norm_c),
    )


def _diagnose(fa: Factorization, fb: Factorization, c, tol) -> CongruenceDiagnosis:
    hyp_c_in_b = inclusion(c, fb, tol)
    hyp_cstar_in_a = inclusion(dagger(c), fa, tol)
    hyp3 = fro(fa.adjoint().right_p_astar(dagger(fb.a) @ dagger(c)))
    hyp3_ok = hyp3 <= tol.residual_rel * max(fb.norm * fro(c), 1e-300)
    cond1, cond2 = _criteria(fa, fb, c, tol)
    hypotheses_hold = hyp_c_in_b.holds and hyp_cstar_in_a.holds and hyp3_ok
    return CongruenceDiagnosis(
        hyp_c_in_b=hyp_c_in_b,
        hyp_cstar_in_a=hyp_cstar_in_a,
        hyp_cstar_pa_in_nbstar=hyp3,
        cond_cnbstar_in_a=cond1,
        cond_cstar_nastar_in_b=cond2,
        hypotheses_hold=hypotheses_hold,
        solvable=hypotheses_hold and cond1.holds and cond2.holds,
    )


def homogeneous_congruence(a, b, v1, v2, v3, tol: ToleranceConfig = DEFAULT_TOL):
    """Nonzero solutions of A X A* + B Y B* = 0 from parameters V1, V2, V3.

    Solves A X = B V1 P_{A*} + V2 N_A and Y B* = N_B V3 - P_{B*} V1 A*; the
    two right-hand sides cancel against each other by construction.  Both
    range inclusions demanded by the construction are verified first.
    """
    a, b = as_matrix(a), as_matrix(b)
    m, p = a.shape
    if b.shape[0] != m:
        raise DimensionMismatch(f"A and B must share rows: {a.shape} vs {b.shape}")
    q = b.shape[1]
    v1, v2, v3 = as_matrix(v1), as_matrix(v2), as_matrix(v3)
    if v1.shape != (q, p) or v2.shape != (m, p) or v3.shape != (q, m):
        raise DimensionMismatch(
            f"expected V1 {(q, p)}, V2 {(m, p)}, V3 {(q, m)}; "
            f"got {v1.shape}, {v2.shape}, {v3.shape}"
        )
    fa, fb = factor(a, tol), factor(b, tol)
    fb_star = fb.adjoint()
    rhs_x = fa.right_p_astar(b @ v1) + fa.right_n_a(v2)
    rhs_y = fb_star.n_astar(v3) - fb_star.p_a(v1 @ dagger(a))
    scale_x = fb.norm * fro(v1) + fro(v2)
    scale_y = fro(v3) + fro(v1) * fa.norm
    inc_x = inclusion(rhs_x, fa, tol, scale=scale_x)
    if not inc_x.holds:
        raise HypothesisViolated(
            f"R(B V1 P_A* + V2 N_A) not within R(A): residual {inc_x.residual:.3e}"
        )
    inc_y = inclusion(dagger(rhs_y), fb, tol, scale=scale_y)
    if not inc_y.holds:
        raise HypothesisViolated(
            f"R(V3* N_B - A V1* P_B*) not within R(B): residual {inc_y.residual:.3e}"
        )
    return fa.pinv(rhs_x), fb_star.right_pinv(rhs_y)


def solve_congruence(a, b, c, tol: ToleranceConfig = DEFAULT_TOL):
    """Solve A X A* + B Y B* = C; returns (x, y, diagnosis).

    Requires the three hypotheses of :class:`CongruenceDiagnosis` (else
    :class:`HypothesisViolated`); solvability is decided by the two range
    criteria (else :class:`NotSolvable`).  The construction runs through
    x^ = pinv(A) C N_{B*} and y^* = pinv(B) C*, each lifted by one more
    reduced solve; the intermediates stay on the diagnosis for audit.
    """
    a, b, c = _congruence_shapes(a, b, c)
    fa, fb = factor(a, tol), factor(b, tol)
    diag = _diagnose(fa, fb, c, tol)
    if not diag.hypotheses_hold:
        failing = []
        if not diag.hyp_c_in_b.holds:
            failing.append(f"R(C) in R(B) (residual {diag.hyp_c_in_b.residual:.3e})")
        if not diag.hyp_cstar_in_a.holds:
            failing.append(f"R(C*) in R(A) (residual {diag.hyp_cstar_in_a.residual:.3e})")
        if len(failing) == 0:
            failing.append(f"R(C* P_A) in N(B*) (||B* C* P_A|| = {diag.hyp_cstar_pa_in_nbstar:.3e})")
        raise HypothesisViolated("hypothesis failed: " + "; ".join(failing))
    if not diag.solvable:
        raise NotSolvable(
            "A X A* + B Y B* = C has no solution: "
            f"R(C N_B*) in R(A) holds = {diag.cond_cnbstar_in_a.holds} "
            f"(residual {diag.cond_cnbstar_in_a.residual:.3e}), "
            f"R(C* N_A*) in R(B) holds = {diag.cond_cstar_nastar_in_b.holds} "
            f"(residual {diag.cond_cstar_nastar_in_b.residual:.3e})",
            diagnosis=diag,
        )
    xhat = fa.pinv(fb.adjoint().right_n_a(c))
    yhat_star = fb.pinv(dagger(c))
    x = fa.adjoint().right_pinv(xhat)
    y = dagger(fb.adjoint().right_pinv(yhat_star))
    norm_c = fro(c)
    residual = fro(a @ x @ dagger(a) + b @ y @ dagger(b) - c) / norm_c if norm_c else 0.0
    diag.xhat = xhat
    diag.yhat_star = yhat_star
    diag.residual = residual
    return x, y, diag


@dataclass(frozen=True)
class NecessityReport:
    cnbstar_in_a: RangeDecision
    cstar_nastar_in_b: RangeDecision
    passed: bool


def solvability_necessity_check(a, b, c, x, y, tol: ToleranceConfig = DEFAULT_TOL) -> NecessityReport:
    """Confirm the two range criteria on a known solution of the congruence.

    Multiplying the solved equation by N_{B*} on the right (and its adjoint
    by N_{A*}) forces R(C N_{B*}) in R(A) and R(C* N_{A*}) in R(B), with no
    hypotheses; this checks that necessity on a concrete (x, y).
    """
    a, b, c = _congruence_shapes(a, b, c)
    x, y = as_matrix(x), as_matrix(y)
    defect = fro(a @ x @ dagger(a) + b @ y @ dagger(b) - c)
    scale = max(fro(c), fro(a) ** 2 * fro(x) + fro(b) ** 2 * fro(y), 1e-300)
    if defect > tol.residual_rel * scale:
        raise NotASolution(
            f"(x, y) does not solve A X A* + B Y B* = C: residual {defect:.3e}"
        )
    inc1, inc2 = _criteria(factor(a, tol), factor(b, tol), c, tol)
    return NecessityReport(cnbstar_in_a=inc1, cstar_nastar_in_b=inc2,
                           passed=inc1.holds and inc2.holds)


@dataclass(frozen=True)
class IntersectionReport:
    """R(A) intersect R(B) via the kernel projection of T = [A -B].

    ``x_block``, ``z_block``, ``y_block`` are the blocks of the orthogonal
    projection P onto N(T) under the domain split; ``basis`` holds
    orthonormal columns spanning the intersection, assembled from
    [A X, A Z*].  ``pn_s_residual`` measures the side condition
    P N(S) in N(S) for S = [A B]; it is reported, never enforced.
    """

    x_block: np.ndarray
    z_block: np.ndarray
    y_block: np.ndarray
    projection: np.ndarray
    basis: np.ndarray
    dim: int
    dim_rank_formula: int
    rank_a: int
    rank_b: int
    rank_stacked: int
    pn_s_residual: float
    ax_eq_bz_residual: float
    azstar_eq_by_residual: float
    sqrt_range_in_basis: RangeDecision


def range_intersection(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> IntersectionReport:
    """Compute R(A) intersect R(B) together with its PSD block certificate.

    P = N_T = I - pinv(T) T projects onto N(T) for the live block row T = [A -B];
    its diagonal blocks X, Y are PSD and satisfy A X = B Z, A Z* = B Y, and
    the intersection equals R(A X) + R(A Z*).  The dimension is
    cross-checked against rank A + rank B - rank [A B].
    """
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"A and B must share rows: {a.shape} vs {b.shape}")
    p, q = a.shape[1], b.shape[1]
    proj = factor(np.hstack([a, -b]), tol).right_n_a(np.eye(p + q, dtype=np.complex128))
    proj = (proj + proj.conj().T) / 2.0
    x_block = proj[:p, :p]
    zstar = proj[:p, p:]
    z_block = proj[p:, :p]
    y_block = proj[p:, p:]

    fa = factor(a, tol)
    # The span's cutoff is anchored to ||A|| rather than to the span itself:
    # when the intersection is trivial the span is pure roundoff and must
    # not be promoted to rank one by a self-relative threshold.
    basis = factor(np.hstack([a @ x_block, a @ zstar]), tol, anchor=fa.norm).u

    fs = factor(np.hstack([a, b]), tol)
    pn_s_residual = fro(fs.adjoint().p_a(fs.right_n_a(proj)))

    scale = max(fro(a) + fro(b), 1e-300)
    rank_b = factor(b, tol).rank
    sqrt_axa = psd_sqrt(a @ x_block @ dagger(a), scale=fa.norm ** 2)
    return IntersectionReport(
        x_block=x_block,
        z_block=z_block,
        y_block=y_block,
        projection=proj,
        basis=basis,
        dim=basis.shape[1],
        dim_rank_formula=fa.rank + rank_b - fs.rank,
        rank_a=fa.rank,
        rank_b=rank_b,
        rank_stacked=fs.rank,
        pn_s_residual=pn_s_residual,
        ax_eq_bz_residual=fro(a @ x_block - b @ z_block) / scale,
        azstar_eq_by_residual=fro(a @ zstar - b @ y_block) / scale,
        sqrt_range_in_basis=range_inclusion(sqrt_axa, basis, tol),
    )


@dataclass(frozen=True)
class CzReport:
    residual: float
    x_norm: float
    y_norm: float
    z_norm: float
    nonzero: bool
    intersection: IntersectionReport
    basis_in_range_c: RangeDecision


def solve_congruence_cz(a, b, c, tol: ToleranceConfig = DEFAULT_TOL):
    """Produce nonzero X, Y >= 0 and Z with A X A* + B Y B* = C Z.

    Needs a nontrivial intersection R(A) intersect R(B) contained in R(C);
    X and Y are the PSD blocks of the kernel projection, and Z is the
    reduced solution of C Z = A X A* + B Y B*.  The side condition
    P N(S) in N(S) is reported on the intersection certificate but not
    enforced; in finite dimensions the construction stands without it.
    """
    a, b, c = as_matrix(a), as_matrix(b), as_matrix(c)
    m = a.shape[0]
    if b.shape[0] != m or c.shape[0] != m:
        raise DimensionMismatch(
            f"A, B, C must share the row count: {a.shape}, {b.shape}, {c.shape}"
        )
    rep = range_intersection(a, b, tol)
    if rep.dim == 0:
        raise EmptyIntersection("R(A) and R(B) intersect only in 0")
    fc = factor(c, tol)
    basis_in_c = inclusion(rep.basis, fc, tol)
    if not basis_in_c.holds:
        raise IntersectionNotInRangeC(
            f"R(A) intersect R(B) is not contained in R(C): residual {basis_in_c.residual:.3e}"
        )
    x = rep.x_block
    y = rep.y_block
    target = a @ x @ dagger(a) + b @ y @ dagger(b)
    z = fc.pinv(target)
    norm_t = fro(target)
    residual = fro(c @ z - target) / norm_t if norm_t else 0.0
    norms = (spectral_norm(x), spectral_norm(y), spectral_norm(z))
    report = CzReport(
        residual=residual,
        x_norm=norms[0],
        y_norm=norms[1],
        z_norm=norms[2],
        nonzero=all(v > 1e-10 for v in norms),
        intersection=rep,
        basis_in_range_c=basis_in_c,
    )
    return x, y, z, report
