"""Dense complex matrix primitives: SVD, factorization, Moore-Penrose inverse, PSD square root.

Operators are plain 2-D ``numpy`` arrays with complex128 entries.  Every rank decision goes through
:func:`factor`, the one place the rank cutoff (see :class:`ToleranceConfig`) is applied, and
:func:`psd_sqrt` takes its root and its PSD verdict from that factorization; every relative residual is
:func:`relative`, which range decisions compare with ``residual_rel``.  Input from outside the package
is coerced and scanned once, by :func:`shaped` or a public primitive such as :func:`factor`;
:func:`dagger`, :func:`fro` and :func:`spectral_norm` take arrays as given.  Every equation residual,
a certificate's or a verdict's, is :func:`backward_error`.  An SVD that does not converge raises
ToleranceAnomaly.
:func:`factor` and :func:`spectral_norm` each remember their last result, so a certificate computed
right after its solver reruns no SVD the solver already ran.  A remembered result is the one a fresh
call computes, so no result depends on the calls before it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np

from .exceptions import DimensionMismatch, EmptyMatrix, InvalidMatrix, NotPSD, ToleranceAnomaly

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "Factorization",
    "as_matrix",
    "parse_signature",
    "parse_formula",
    "shaped",
    "svd",
    "rank_cutoff",
    "factor",
    "pinv",
    "psd_sqrt",
    "fro",
    "relative",
    "backward_error",
    "spectral_norm",
    "dagger",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """The two tolerance knobs governing every numerical decision.

    ``rank_rel``: a singular value sigma counts as nonzero only when
    sigma > sigma_max * rank_rel * max(rows, cols); a certificate's defects
    that are zero in exact arithmetic pass up to it, relative.

    ``residual_rel``: relative Frobenius residual below which an equation,
    a range inclusion or a completeness witness is accepted, and a
    majorization certificate's slack.
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


@lru_cache(maxsize=None)
def parse_formula(formula: str, signature: str) -> tuple:
    """The terms (sign, ((name, adjoint), ...)) of ``formula``, sign -1 right of ``=`` and ``A*`` A's adjoint;
    a term that is empty or names a matrix ``signature`` lacks raises ``ValueError``."""
    operands, unknowns = parse_signature(signature)
    names = {name for name, _, _ in operands + unknowns}
    lhs, _, rhs = formula.partition("=")
    terms = tuple((sign, tuple((token.removesuffix("*"), token.endswith("*")) for token in term.split()))
                  for sign, side in ((1, lhs), (-1, rhs)) for term in side.split("+"))
    if not all(f and {n for n, _ in f} <= names for _, f in terms):
        raise ValueError(f"malformed formula {formula!r} for {signature!r}")
    return terms


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


def backward_error(terms: tuple, mats: dict) -> float:
    """||sum of the signed :func:`parse_formula` terms||_F, :func:`relative` to the sum of their factor-norm
    products (Rigal-Gaches, Higham): 0.0 for an exactly zero sum, NaN over a zero or overflowed scale."""
    norms = {name: fro(m) for name, m in mats.items()}
    total, scale = 0.0, 0.0
    for sign, factors in terms:
        product = reduce(np.matmul, (dagger(mats[n]) if adjoint else mats[n] for n, adjoint in factors))
        total = total + product if sign > 0 else total - product
        scale += math.prod(norms[n] for n, _ in factors)
    return relative(fro(total), scale)


def _lapack_svd(m: np.ndarray, **kwargs):
    """``np.linalg.svd(m, **kwargs)``, with LAPACK's failure to converge raised as :class:`ToleranceAnomaly`."""
    try:
        return np.linalg.svd(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ToleranceAnomaly(f"{exc} on a {m.shape[0]}x{m.shape[1]} matrix") from exc


# The last results of factor and spectral_norm, one slot each and per process: factor's is
# ((tol, anchor), Factorization), whose ``a`` is a private copy of the operand; spectral_norm's is
# (copy of the operand, norm).  Copies and factors are read-only, so no caller can change what a
# later call is handed.  A call hits only on an operand of the same shape and equal entries, and each
# function reads only its own slot: the norm of an SVD with vectors can differ in the last bits from
# a values-only one, so a hit always returns what a fresh call of the same function would.
_last_factor = None
_last_norm = None


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value from a values-only SVD; 0.0 for empty or all-zero input, without a LAPACK call.

    The norm of the operand this last measured is remembered, so measuring an
    equal operand again makes no LAPACK call.  ``m`` is a 2-D complex128
    ndarray, taken as given.
    """
    global _last_norm
    if not m.any():
        return 0.0
    measured = _last_norm
    if measured is not None and np.array_equal(measured[0], m):
        return measured[1]
    norm = float(_lapack_svd(m, compute_uv=False)[0])
    _last_norm = (_read_only(m.copy()), norm)
    return norm


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
    to, for a matrix whose own norm may be pure roundoff.  The last result is
    remembered: an operand equal to the last one, with the same ``tol`` and
    ``anchor``, gets it back without a LAPACK call or a second finiteness scan.
    Its arrays, ``a`` a copy of the operand, are read-only.
    """
    global _last_factor
    key = (tol, anchor)
    last = _last_factor
    # Looked up before as_matrix: entries equal to the remembered copy are finite, and array_equal is
    # False on ragged, non-numeric or NaN input, which as_matrix then rejects.
    if last is not None and last[0] == key and np.array_equal(last[1].a, a):
        return last[1]
    a = _read_only(as_matrix(a).copy())
    rows, cols = a.shape
    if not a.any():
        u, sv, vh = (np.zeros((rows, 0), dtype=np.complex128), np.zeros(min(rows, cols)),
                     np.zeros((0, cols), dtype=np.complex128))
    else:
        u, sv, vh = _lapack_svd(a, full_matrices=False)
    u, sv = _read_only(u), _read_only(sv)
    norm = float(sv[0]) if sv.size else 0.0
    r = int(np.count_nonzero(sv > rank_cutoff(norm if anchor is None else anchor, a.shape, tol)))
    f = Factorization(a=a, u=u[:, :r], s=sv[:r], v=_read_only(vh[:r].conj().T), singular_values=sv,
                      rank=r, norm=norm)
    _last_factor = (key, f)
    return f


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


def psd_sqrt(m) -> np.ndarray:
    """Principal square root U diag(sqrt(s)) U* of a Hermitian PSD ``m``, from :func:`factor`.

    m is Hermitian PSD exactly when its kept singular vectors agree, U = V, so :class:`NotPSD` is raised
    when ||(U - V) diag(w)||_F > rank_rel ||w|| for the scale-free w = s / s_1, which scales down the
    roundoff of a small kept s.  Eigenvalues at or below the rank cutoff are dust, whatever their sign.
    """
    m = as_matrix(m)
    if m.size == 0:
        raise EmptyMatrix("cannot take the square root of an empty matrix")
    if m.shape[0] != m.shape[1]:
        raise NotPSD(f"matrix of shape {m.shape} is not square")
    f = factor(m)
    w = f.s / f.norm
    defect = relative(fro((f.u - f.v) * w), fro(w))
    if not defect <= DEFAULT_TOL.rank_rel:
        raise NotPSD(f"matrix is not Hermitian PSD (singular vector defect {defect:.3e})")
    return (f.u * np.sqrt(f.s)) @ dagger(f.u)
