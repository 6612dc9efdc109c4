"""Congruence equations A X A* + B Y B* = 0, = C, and = C Z.

The inhomogeneous solver decides the two necessary range criteria, then
builds the paper's pair, from the substitution X^ = X A*, Y^ = B Y that
reduces the congruence equation to a Sylvester-type equation, and accepts
it when :func:`~opeq.harness.verify` would: the paper's three hypotheses,
under which the pair is exact, are not decided.  The C Z variant takes its
PSD blocks from the projection onto the kernel of the block row [A -B],
built from N(A), N(B) and R(A) intersect R(B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    EmptyIntersection,
    HypothesisViolated,
    IntersectionNotInRangeC,
    NotSolvable,
)
from .kernel import (DEFAULT_TOL, Factorization, ToleranceConfig, backward_error, dagger, factor, fro, lapack,
                     parse_formula, relative, shaped)
from .projections import RangeDecision, _decision, inclusion

__all__ = [
    "CongruenceDiagnosis",
    "IntersectionReport",
    "CzReport",
    "diagnose_congruence",
    "homogeneous_congruence",
    "solve_congruence",
    "range_intersection",
    "solve_congruence_cz",
]


SIGNATURE = "A(m,p), B(m,q), C(m,m) -> X(p,p), Y(q,q)"
FORMULA = "A X A* + B Y B* = C"
CZ_SIGNATURE = "A(m,p), B(m,q), C(m,n) -> X(p,p), Y(q,q), Z(n,m)"
# The free parameters of the homogeneous solutions, after the operands they go with.
PARAMETER_SIGNATURE = "A(m,p), B(m,q), V1(q,p), V2(m,p), V3(q,m)"
INTERSECTION_SIGNATURE = "A(m,p), B(m,q)"


@dataclass(frozen=True)
class CongruenceDiagnosis:
    """Solvability certificate for A X A* + B Y B* = C.

    ``cond_cnbstar_in_a``  R(C N_{B*}) in R(A), and ``cond_cnastar_in_b`` R(C N_{A*}) in R(B): the necessary
                           criteria N_{A*} C N_{B*} = 0 = N_{B*} C N_{A*}
    ``construction``       None when a criterion fails, and no pair is built; else the backward error
                           :func:`~opeq.harness.verify` reads on the paper's pair X = A+ C N_{B*} (A+)*,
                           Y = B+ C (B+)*, held up to ``residual_rel`` (the paper's three hypotheses, under
                           which that pair is exact, are not decided)
    ``solvable``           both criteria hold and verify certifies the pair
    """

    cond_cnbstar_in_a: RangeDecision
    cond_cnastar_in_b: RangeDecision
    construction: RangeDecision | None
    solvable: bool

    @property
    def status(self) -> str:
        """``unsolvable`` if a criterion fails (they are necessary), ``inconclusive`` if both hold but
        the paper's pair is not certified, else ``solvable``."""
        if self.construction is None:
            return "unsolvable"
        return "solvable" if self.solvable else "inconclusive"


def diagnose_congruence(a, b, c, tol: ToleranceConfig = DEFAULT_TOL) -> CongruenceDiagnosis:
    a, b, c = shaped(SIGNATURE, a, b, c)
    return _diagnose(factor(a, tol), factor(b, tol), c, tol)[0]


def _criteria(fa: Factorization, fb: Factorization, c, tol):
    """R(C N_{B*}) in R(A), R(C N_{A*}) in R(B) and C N_{B*}; R(C* N_{A*}) in R(B) is the first's adjoint."""
    norm_c, c_nbstar = fro(c), fb.adjoint().right_n_a(c)
    cond2 = inclusion(fa.adjoint().right_n_a(c), fb, tol, scale=norm_c)
    return inclusion(c_nbstar, fa, tol, scale=norm_c), cond2, c_nbstar


def _diagnose(fa: Factorization, fb: Factorization, c, tol):
    """The diagnosis and the paper's pair, None when a criterion fails; a NaN backward error raises.  The pair
    runs through x^ = pinv(A) C N_{B*} and y^* = pinv(B) C*, each lifted by one more reduced solve."""
    cond1, cond2, c_nbstar = _criteria(fa, fb, c, tol)
    if not (cond1.holds and cond2.holds):
        return CongruenceDiagnosis(cond1, cond2, construction=None, solvable=False), None
    x = fa.adjoint().right_pinv(fa.pinv(c_nbstar))
    y = dagger(fb.adjoint().right_pinv(fb.pinv(dagger(c))))
    mats = {"A": fa.a, "B": fb.a, "C": c, "X": x, "Y": y}
    decision = _decision(backward_error(parse_formula(FORMULA, SIGNATURE), mats), fa, tol)
    return CongruenceDiagnosis(cond1, cond2, construction=decision, solvable=decision.holds), (x, y)


def homogeneous_congruence(a, b, v1, v2, v3, tol: ToleranceConfig = DEFAULT_TOL):
    """Nonzero solutions of A X A* + B Y B* = 0 from parameters V1, V2, V3.

    Solves A X = B V1 P_{A*} + V2 N_A and Y B* = N_B V3 - P_{B*} V1 A*; the
    two right-hand sides cancel against each other by construction.  Both
    range inclusions demanded by the construction are verified first.
    """
    a, b, v1, v2, v3 = shaped(PARAMETER_SIGNATURE, a, b, v1, v2, v3)
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

    Acts on the diagnosis's :attr:`~CongruenceDiagnosis.status`: a failing
    range criterion raises :class:`NotSolvable`; criteria that hold while
    :func:`~opeq.harness.verify` does not certify the paper's pair raise
    :class:`HypothesisViolated`.  Otherwise the pair is returned.
    """
    a, b, c = shaped(SIGNATURE, a, b, c)
    diag, pair = _diagnose(factor(a, tol), factor(b, tol), c, tol)
    if diag.status == "unsolvable":
        raise NotSolvable(
            "A X A* + B Y B* = C has no solution: "
            f"R(C N_B*) in R(A) holds = {diag.cond_cnbstar_in_a.holds} "
            f"(residual {diag.cond_cnbstar_in_a.residual:.3e}), "
            f"R(C N_A*) in R(B) holds = {diag.cond_cnastar_in_b.holds} "
            f"(residual {diag.cond_cnastar_in_b.residual:.3e})",
            diagnosis=diag,
        )
    if diag.status == "inconclusive":
        raise HypothesisViolated("both criteria hold, but the paper's pair is not certified: "
                                 f"backward error {diag.construction.residual:.3e}")
    return *pair, diag


@dataclass(frozen=True)
class IntersectionReport:
    """R(A) intersect R(B) via the kernel projection of T = [A -B].

    ``x_block``, ``z_block``, ``y_block`` are the blocks X, Z, Y of the
    orthogonal projection P = [[X, Z*], [Z, Y]] onto N(T) under the domain
    split.  ``basis`` holds the ``dim`` orthonormal principal vectors of R(B)
    whose angle to R(A) has sine at most ``residual_rel``; ``dim_rank_formula``
    = rank A + rank B - rank [A B] stays a rank decision, so a sine between the
    rank cutoff and ``residual_rel`` counts in ``dim`` only.  ``pn_s_residual`` = ||P_{S*} P N_S||_F, the
    side condition P N(S) in N(S) for S = [A B] with N(S) from the same sines as ``dim``, is reported,
    never enforced.  ``sqrt_range_in_basis`` decides R((A X A*)^{1/2}) = R(A W1) in span(``basis``).
    """

    x_block: np.ndarray
    z_block: np.ndarray
    y_block: np.ndarray
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


def _kernel_projection(a, b, tol):
    """Factors of A, B and of R(A) intersect R(B), then W1, W2, and the diagonal blocks X, Y of N_T.

    N(T) = (N(A) + 0) + (0 + N(B)) + {(A+ w, B+ w) : w in the intersection}, orthogonally,
    so N_T = diag(N_A, N_B) + W W* for W = [W1; W2] orthonormal on the last piece; Z* = W1 W2*.  The
    intersection is spanned by the right singular vectors of N_{A*} Q_B whose singular values,
    the principal angles' sines (Bjorck & Golub, Math. Comp. 27, 1973; cosines lose angles
    below 1e-8), are at most ``residual_rel``, the bound of every inclusion on ||N_{A*} w||.
    That basis is orthonormal by construction, so it is its own factorization, with unit singular values.
    """
    p, q = a.shape[1], b.shape[1]
    fa, fb = factor(a, tol), factor(b, tol)
    sines, vh = lapack("svd", fa.n_astar(fb.u), full_matrices=False)[1:]
    basis = fb.u @ dagger(vh[sines <= tol.residual_rel])
    dim, ones = basis.shape[1], np.ones(basis.shape[1])
    span = Factorization(a=basis, u=basis, s=ones, v=np.eye(dim, dtype=np.complex128), singular_values=ones,
                         rank=dim, norm=1.0 if dim else 0.0)
    w = lapack("qr", np.vstack([fa.pinv(basis), fb.pinv(basis)]))[0]
    w1, w2 = w[:p], w[p:]
    x = fa.adjoint().n_astar(np.eye(p, dtype=np.complex128)) + w1 @ dagger(w1)
    y = fb.adjoint().n_astar(np.eye(q, dtype=np.complex128)) + w2 @ dagger(w2)
    return fa, fb, span, w1, w2, x, y


def range_intersection(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> IntersectionReport:
    """Compute R(A) intersect R(B) together with its PSD block certificate.

    P = N_T projects onto N(T) for T = [A -B]; its diagonal blocks X, Y are
    PSD and satisfy A X = B Z, A Z* = B Y, and the intersection equals
    R(A X) + R(A Z*).  This certificate, which the C Z solver does not run,
    factors S = [A B] only for its rank, to check the dimension against rank A + rank B - rank S.
    It checks the span against R((A A* : B B*)^{1/2}) (Fillmore & Williams, Adv. Math. 7, 1971); the
    parallel sum is A X A* = (A W1)(A W1)*, as A N_A = 0, so in finite dimensions that range is R(A W1).
    """
    a, b = shaped(INTERSECTION_SIGNATURE, a, b)
    fa, fb, span, w1, w2, x_block, y_block = _kernel_projection(a, b, tol)
    zstar = w1 @ dagger(w2)
    fs = factor(np.hstack([a, b]), tol)
    # J = diag(I, -I) maps N(T) onto N(S), so N_S = J N_T J; with diag(N_A, N_B) W = 0 that gives
    # P_{S*} N_T N_S = (W - J W G) G (J W)* for G = W* J W, and (J W)* has orthonormal rows.
    g = dagger(w1) @ w1 - dagger(w2) @ w2
    scale = fro(a) + fro(b)
    return IntersectionReport(
        x_block=x_block,
        z_block=dagger(zstar),
        y_block=y_block,
        basis=span.u,
        dim=span.rank,
        dim_rank_formula=fa.rank + fb.rank - fs.rank,
        rank_a=fa.rank,
        rank_b=fb.rank,
        rank_stacked=fs.rank,
        pn_s_residual=fro(np.vstack([w1 - w1 @ g, w2 + w2 @ g]) @ g),
        ax_eq_bz_residual=relative(fro(a @ x_block - b @ dagger(zstar)), scale),
        azstar_eq_by_residual=relative(fro(a @ zstar - b @ y_block), scale),
        sqrt_range_in_basis=inclusion(a @ w1, span, tol),
    )


@dataclass(frozen=True)
class CzReport:
    """The C Z solver's decisions: dim R(A) intersect R(B) and its inclusion in R(C)."""

    intersection_dim: int
    basis_in_range_c: RangeDecision


def solve_congruence_cz(a, b, c, tol: ToleranceConfig = DEFAULT_TOL):
    """Produce nonzero X, Y >= 0 and Z with A X A* + B Y B* = C Z.

    Its hypotheses, a nontrivial R(A) intersect R(B) contained in R(C), are
    sufficient, not necessary: a failing one raises :class:`EmptyIntersection`
    or :class:`IntersectionNotInRangeC`, both :class:`HypothesisViolated`.
    X and Y are the PSD blocks of the kernel projection, and Z is the
    reduced solution of C Z = A X A* + B Y B* = (A W1)(A W1)* + (B W2)(B W2)*
    (A N_A = 0, so that product goes unformed).  Only that construction runs:
    the side condition P N(S) in N(S), which it does not need in finite
    dimensions, is part of :func:`range_intersection`'s certificate.
    """
    a, b, c = shaped(CZ_SIGNATURE, a, b, c)
    fa, fb, span, w1, w2, x, y = _kernel_projection(a, b, tol)
    if span.rank == 0:
        raise EmptyIntersection("R(A) and R(B) intersect only in 0")
    fc = fa if np.array_equal(a, c) else fb if np.array_equal(b, c) else factor(c, tol)
    basis_in_c = inclusion(span.u, fc, tol)
    if not basis_in_c.holds:
        raise IntersectionNotInRangeC(
            f"R(A) intersect R(B) is not contained in R(C): residual {basis_in_c.residual:.3e}"
        )
    aw1, bw2 = a @ w1, b @ w2
    z = fc.pinv(aw1 @ dagger(aw1) + bw2 @ dagger(bw2))
    return x, y, z, CzReport(intersection_dim=span.rank, basis_in_range_c=basis_in_c)
