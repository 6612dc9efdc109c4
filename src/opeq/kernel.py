"""Dense complex matrix primitives: SVD, factorization, Moore-Penrose inverse, PSD square root.

Operators are plain 2-D ``numpy`` arrays with complex128 entries.  Every rank
decision goes through :func:`factor`, the one place the rank cutoff (see
:class:`ToleranceConfig`) is applied; every relative residual is :func:`relative`,
which range decisions compare with ``residual_rel``.  Input from outside the
package is coerced and scanned once, by :func:`shaped` or a public primitive such
as :func:`factor`; :func:`dagger`, :func:`fro` and :func:`spectral_norm` take arrays as given.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .exceptions import DimensionMismatch, EmptyMatrix, InvalidMatrix, NotPSD

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "ZERO_REL",
    "Factorization",
    "as_matrix",
    "parse_signature",
    "shaped",
    "svd",
    "rank_cutoff",
    "factor",
    "pinv",
    "psd_sqrt",
    "fro",
    "relative",
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

# The fixed threshold besides ToleranceConfig: a defect that is zero in exact arithmetic (in verify,
# reducedness and the Hermitian and PSD defects of X and Y) passes up to ZERO_REL of its operand.
ZERO_REL = 1e-10

# psd_sqrt's thresholds, relative to ||m||_2 or its ``scale``: the eigenvalue dust it clamps to zero
# runs from -PSD_DUST_REL up to PSD_CUT_REL (below any meaningful eigenvalue, above eigh roundoff),
# or up to PSD_DUST_REL given a ``scale``.  PSD_DUST_REL also bounds the Hermitian defect, relative
# to ||m||_F or the ``scale`` with no absolute floor, so a common scaling of m changes no verdict.
PSD_DUST_REL = 1e-10
PSD_CUT_REL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array; :class:`InvalidMatrix` if it is not one.

    Ragged, non-numeric, non-2-D and non-finite input are all rejected.
    """
    try:
        m = np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidMatrix(f"not a numeric matrix: {exc}") from exc
    if m.ndim != 2:
        raise InvalidMatrix(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise InvalidMatrix("matrix entries must be finite (no NaN/Inf)")
    return m


_ENTRY = re.compile(r"([^\s(),]+)\((\w+),\s*(\w+)\)")


@lru_cache(maxsize=None)
def parse_signature(signature: str) -> tuple:
    """Operand and unknown entries (name, rows, cols) of a shape signature.

    ``"A(m,p), C(m,n) -> X(p,n)"`` gives ``((("A", "m", "p"), ("C", "m", "n")),
    (("X", "p", "n"),))``; a signature without ``->`` has no unknowns.
    """
    operands, _, unknowns = signature.partition("->")
    parsed = tuple(_ENTRY.findall(operands)), tuple(_ENTRY.findall(unknowns))
    if sum(map(len, parsed)) != signature.count("("):
        raise ValueError(f"malformed shape signature {signature!r}")
    return parsed


def shaped(signature: str, *mats) -> list:
    """Coerce ``mats`` with :func:`as_matrix` and check them against ``signature``.

    ``mats`` follow the signature's order (see :func:`parse_signature`) and
    may stop early.  Each dimension letter must have one size throughout,
    else :class:`DimensionMismatch` names the matrix and the dimension.
    """
    operands, unknowns = parse_signature(signature)
    sizes, out = {}, []
    for (name, rows, cols), m in zip(operands + unknowns, mats):
        m = as_matrix(m)
        for dim, size in zip((rows, cols), m.shape):
            first = sizes.setdefault(dim, (size, name))
            if first[0] != size:
                raise DimensionMismatch(f"{name}({rows},{cols}) is {m.shape[0]}x{m.shape[1]}, "
                                        f"but {dim} = {first[0]} from {first[1]}")
        out.append(m)
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose; ``m`` is a 2-D complex128 ndarray, taken as given."""
    return m.conj().T


def fro(m: np.ndarray) -> float:
    """Frobenius norm; ``m`` is a 2-D complex128 ndarray, taken as given."""
    return float(np.linalg.norm(m))


def relative(value: float, scale: float) -> float:
    """``value / scale``; 0.0 for a zero ``value``, NaN (which fails) over a zero or non-finite ``scale``."""
    if not value:
        return 0.0
    return value / scale if 0.0 < scale < math.inf else math.nan


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; 0.0 for empty or all-zero input, without a LAPACK call.

    ``m`` is a 2-D complex128 ndarray, taken as given.
    """
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
        """N_{A*} c = c - P_A c, exactly zero when rank A = rows, where c - P_A c is roundoff."""
        return c - self.p_a(c) if self.rank < self.a.shape[0] else np.zeros_like(c, np.complex128)

    def right_p_astar(self, c) -> np.ndarray:
        """c P_{A*} = (c v) v*."""
        return (c @ self.v) @ self.v.conj().T

    def right_n_a(self, c) -> np.ndarray:
        """c N_A = c - c P_{A*}, exactly zero when rank A = cols."""
        return c - self.right_p_astar(c) if self.rank < self.a.shape[1] else np.zeros_like(c, np.complex128)

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
    f = factor(m, anchor=0.0)
    if f.a.size == 0:
        raise EmptyMatrix(f"cannot factor an empty matrix of shape {f.a.shape}")
    return f


def pinv(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse via truncated SVD; the zero matrix maps to the transpose-shaped zero."""
    f = factor(m, tol)
    return f.pinv(np.eye(f.a.shape[0], dtype=np.complex128))


def psd_sqrt(m, scale: float | None = None) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalue dust in (-PSD_DUST_REL, PSD_CUT_REL) * ||m||_2 is clamped to
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
    defect = fro(m - dagger(m))
    if not relative(defect, max(fro(m), scale or 0.0)) <= PSD_DUST_REL:
        raise NotPSD(f"matrix is not Hermitian (defect {defect:.3e})")
    w, q = np.linalg.eigh(m)
    norm2 = max(abs(w[0]), abs(w[-1]))
    if scale is not None:
        norm2 = max(norm2, float(scale))
    if w[0] < -PSD_DUST_REL * norm2:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} below -{PSD_DUST_REL:g} * ||m||")
    # Positive dust is clamped as well: the square root turns eigenvalues
    # of size eps into sqrt(eps), which would fake a nonzero range where a
    # product cancelled to zero.
    cut = (PSD_DUST_REL if scale is not None else PSD_CUT_REL) * norm2
    w = np.where(w > cut, w, 0.0)
    root = (q * np.sqrt(w)) @ q.conj().T
    return (root + root.conj().T) / 2.0
