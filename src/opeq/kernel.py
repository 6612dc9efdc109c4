"""Dense complex matrix primitives: SVD, factorization, Moore-Penrose inverse, PSD square root.

Operators are plain 2-D ``numpy`` arrays with complex128 entries.  Every
rank and range decision made elsewhere in the package goes through
:func:`factor`, the one place the rank cutoff (see :class:`ToleranceConfig`)
is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import EmptyMatrix, NotPSD

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "Factorization",
    "as_matrix",
    "svd",
    "rank_cutoff",
    "factor",
    "pinv",
    "psd_sqrt",
    "fro",
    "spectral_norm",
    "dagger",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """The two tolerance knobs governing every numerical decision.

    ``rank_rel``: a singular value sigma counts as nonzero only when
    sigma > sigma_max * rank_rel * max(rows, cols).

    ``residual_rel``: relative Frobenius residual below which an equation
    or a range inclusion is accepted.
    """

    rank_rel: float = 1e-10
    residual_rel: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel", "residual_rel"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def fro(m) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(as_matrix(m)))


def spectral_norm(m) -> float:
    """Largest singular value; 0.0 for empty or all-zero input, without a LAPACK call."""
    m = as_matrix(m)
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.any() else 0.0


def rank_cutoff(norm: float, shape, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Cutoff below which singular values count as zero: norm * rank_rel * max(shape)."""
    return norm * tol.rank_rel * max(shape)


@dataclass(frozen=True)
class Factorization:
    """Truncated thin SVD ``a = u @ diag(s) @ v.conj().T`` of one operator.

    ``u`` (m-by-r) and ``v`` (n-by-r) keep the singular vectors whose value
    clears the cutoff, so they are orthonormal bases of R(a) and R(a*);
    ``singular_values`` is the whole descending spectrum and ``norm`` its
    largest entry (0.0 for a zero or empty operator).  Projections and
    the Moore-Penrose inverse are applied through the factors, never formed.
    Names follow :class:`~opeq.projections.ProjectionQuad` (``p_a`` is P_A,
    ``n_astar`` is N_{A*} = I - P_A, ``p_astar`` is P_{A*}, ``n_a`` is
    N_A = I - P_{A*}); ``right_`` methods multiply from the right.  The
    adjoint is free, so P_{A*} c is ``f.adjoint().p_a(c)``.
    """

    a: np.ndarray
    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    singular_values: np.ndarray
    rank: int
    norm: float

    def adjoint(self) -> Factorization:
        """Factorization of a*: the same spectrum with u and v swapped."""
        return replace(self, a=self.a.conj().T, u=self.v, v=self.u)

    def p_a(self, c) -> np.ndarray:
        """P_A c = u (u* c)."""
        return self.u @ (self.u.conj().T @ c)

    def n_astar(self, c) -> np.ndarray:
        """N_{A*} c = c - P_A c."""
        return c - self.p_a(c)

    def right_p_astar(self, c) -> np.ndarray:
        """c P_{A*} = (c v) v*."""
        return (c @ self.v) @ self.v.conj().T

    def right_n_a(self, c) -> np.ndarray:
        """c N_A = c - c P_{A*}."""
        return c - self.right_p_astar(c)

    def pinv(self, c) -> np.ndarray:
        """A+ c = v diag(1/s) (u* c)."""
        return self.v @ ((self.u.conj().T @ c) / self.s[:, None])

    def right_pinv(self, c) -> np.ndarray:
        """c A+ = ((c v) diag(1/s)) u*."""
        return ((c @ self.v) / self.s) @ self.u.conj().T


def factor(a, tol: ToleranceConfig = DEFAULT_TOL, anchor: float | None = None) -> Factorization:
    """Factor ``a`` once; the only place the rank cutoff is applied.

    Singular values above ``rank_cutoff(sigma_max, a.shape, tol)`` count as
    nonzero.  An empty or all-zero ``a`` gets rank 0 without a LAPACK call.
    ``anchor`` replaces sigma_max as the magnitude the cutoff is relative
    to, for a matrix whose own norm may be pure roundoff.
    """
    a = as_matrix(a)
    rows, cols = a.shape
    if not a.any():
        u, sv, vh = (np.zeros((rows, 0), dtype=np.complex128), np.zeros(min(rows, cols)),
                     np.zeros((0, cols), dtype=np.complex128))
    else:
        u, sv, vh = np.linalg.svd(a, full_matrices=False)
    norm = float(sv[0]) if sv.size else 0.0
    r = int(np.count_nonzero(sv > rank_cutoff(norm if anchor is None else anchor, a.shape, tol)))
    return Factorization(a=a, u=u[:, :r], s=sv[:r], v=vh[:r].conj().T, singular_values=sv,
                         rank=r, norm=norm)


def svd(m) -> Factorization:
    """Thin SVD keeping every nonzero singular value: :func:`factor` with a zero cutoff."""
    m = as_matrix(m)
    if m.size == 0:
        raise EmptyMatrix(f"cannot factor an empty matrix of shape {m.shape}")
    return factor(m, anchor=0.0)


def pinv(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse via truncated SVD; the zero matrix maps to the transpose-shaped zero."""
    f = factor(m, tol)
    return f.pinv(np.eye(f.a.shape[0], dtype=np.complex128))


def psd_sqrt(m, scale: float | None = None) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalue dust in (-1e-10 * ||m||_2, 1e-12 * ||m||_2) is clamped to
    zero; anything more negative raises :class:`NotPSD`.  Products such as
    A X A* cancel to zero with roundoff proportional to the factors rather
    than to the product, so callers forming one may pass the factor
    magnitude as ``scale`` to widen the dust thresholds accordingly.
    """
    m = as_matrix(m)
    if m.size == 0:
        raise EmptyMatrix("cannot take the square root of an empty matrix")
    if m.shape[0] != m.shape[1]:
        raise NotPSD(f"matrix of shape {m.shape} is not square")
    defect = float(np.linalg.norm(m - m.conj().T))
    if defect > 1e-10 * max(fro(m), 1.0):
        raise NotPSD(f"matrix is not Hermitian (defect {defect:.3e})")
    w, q = np.linalg.eigh(m)
    norm2 = max(abs(w[0]), abs(w[-1]))
    if scale is not None:
        norm2 = max(norm2, float(scale))
    if w[0] < -1e-10 * norm2:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} below -1e-10 * ||m||")
    # Positive dust is clamped as well: the square root turns eigenvalues
    # of size eps into sqrt(eps), which would fake a nonzero range where a
    # product cancelled to zero.  The default cut sits well below any
    # meaningful eigenvalue but above eigh roundoff.
    cut = 1e-10 * norm2 if scale is not None else 1e-12 * norm2
    w = np.where(w > cut, w, 0.0)
    root = (q * np.sqrt(w)) @ q.conj().T
    return (root + root.conj().T) / 2.0
