"""Finitely generated Hilbert module layer over the matrix algebra M_k.

The coefficient algebra is M_k (k-by-k complex matrices) and the module
with n generators is carried as an (n*k)-by-k array of n stacked blocks.
Operators between such modules are arbitrary (m*k)-by-(n*k) matrices acting
by left multiplication; for these modules that is exactly the set of
adjointable module-linear maps, so the layer is a typed veneer over the
flat matrix representation used by the solvers.  Its only rank decision and
threshold are :func:`~opeq.kernel.factor`'s and ``DEFAULT_TOL.rank_rel``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ContextMismatch
from .kernel import DEFAULT_TOL, as_matrix, dagger, factor, fro, relative, spectral_norm
from .rng import Xoshiro256StarStar, complex_normal_matrix

__all__ = [
    "ModuleContext",
    "ModuleElement",
    "AlgebraElement",
    "ModuleOperator",
    "inner_product",
    "modulus",
    "adjoint",
    "right_action",
    "LinearityReport",
    "check_module_linearity",
]


@dataclass(frozen=True)
class ModuleContext:
    """Block size ``k`` of the coefficient algebra and generator count ``n``."""

    k: int
    n: int

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValueError(f"need k >= 1 and n >= 1, got k={self.k}, n={self.n}")


@dataclass(frozen=True)
class ModuleElement:
    context: ModuleContext
    data: np.ndarray

    def __post_init__(self):
        data = as_matrix(self.data)
        expected = (self.context.n * self.context.k, self.context.k)
        if data.shape != expected:
            raise ContextMismatch(f"element data must be {expected}, got {data.shape}")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class AlgebraElement:
    context: ModuleContext
    data: np.ndarray

    def __post_init__(self):
        data = as_matrix(self.data)
        k = self.context.k
        if data.shape != (k, k):
            raise ContextMismatch(f"algebra data must be {(k, k)}, got {data.shape}")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class ModuleOperator:
    domain: ModuleContext
    codomain: ModuleContext
    data: np.ndarray

    def __post_init__(self):
        if self.domain.k != self.codomain.k:
            raise ContextMismatch("domain and codomain must share the block size k")
        data = as_matrix(self.data)
        expected = (self.codomain.n * self.codomain.k, self.domain.n * self.domain.k)
        if data.shape != expected:
            raise ContextMismatch(f"operator data must be {expected}, got {data.shape}")
        object.__setattr__(self, "data", data)

    def apply(self, x: ModuleElement) -> ModuleElement:
        if x.context != self.domain:
            raise ContextMismatch(f"operator domain {self.domain} != element context {x.context}")
        return ModuleElement(self.codomain, self.data @ x.data)


def inner_product(x: ModuleElement, y: ModuleElement) -> AlgebraElement:
    """Algebra-valued inner product, conjugate-linear in the first slot."""
    if x.context != y.context:
        raise ContextMismatch(f"contexts differ: {x.context} vs {y.context}")
    return AlgebraElement(x.context, x.data.conj().T @ y.data)


def modulus(x: ModuleElement) -> AlgebraElement:
    """Algebra-valued modulus |x| = <x, x>^{1/2} = V diag(s) V* from ``factor(x)``; <x, x> is never formed,
    so |x| keeps every singular value of x that clears the rank cutoff, not only those whose square does."""
    f = factor(x.data)
    return AlgebraElement(x.context, (f.v * f.s) @ dagger(f.v))


def adjoint(op: ModuleOperator) -> ModuleOperator:
    return ModuleOperator(op.codomain, op.domain, op.data.conj().T)


def right_action(x: ModuleElement, a) -> ModuleElement:
    """Right module action: each of the n blocks is multiplied by ``a``."""
    a = a.data if isinstance(a, AlgebraElement) else as_matrix(a)
    k = x.context.k
    if a.shape != (k, k):
        raise ContextMismatch(f"algebra element must be {(k, k)}, got {a.shape}")
    return ModuleElement(x.context, x.data @ a)


@dataclass(frozen=True)
class LinearityReport:
    max_deviation: float
    scale: float
    passed: bool


def check_module_linearity(op: ModuleOperator, trials: int = 20, seed: int = 0,
                           apply_fn=None) -> LinearityReport:
    """Probe whether a map commutes with the right module action.

    Draws random pairs (x, a) and passes || f(x . a) - f(x) . a || up to rank_rel ||f|| ||x|| ||a||.  For a
    genuine :class:`ModuleOperator` the deviation is pure roundoff; passing
    a custom ``apply_fn`` lets tests exercise maps that are complex-linear
    but not module-linear.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    fn = apply_fn if apply_fn is not None else op.apply
    rng = Xoshiro256StarStar(seed)
    k, n = op.domain.k, op.domain.n
    worst = 0.0
    scale = 0.0
    op_norm = spectral_norm(op.data)
    for _ in range(trials):
        x = ModuleElement(op.domain, complex_normal_matrix(rng, n * k, k))
        a = complex_normal_matrix(rng, k, k)
        left = fn(right_action(x, a)).data
        right = right_action(fn(x), a).data
        worst = max(worst, fro(left - right))
        scale = max(scale, op_norm * fro(x.data) * spectral_norm(a))
    return LinearityReport(worst, scale, relative(worst, scale) <= DEFAULT_TOL.rank_rel)
