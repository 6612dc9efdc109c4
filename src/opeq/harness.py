"""Seeded instance generation with prescribed range structure, plus verification of solutions.

Each family reverse-engineers the hypotheses of one solver so that the
produced operators satisfy (or decisively violate) them by construction.
Generation is deterministic in the seed through the package's own
xoshiro256** stream (see :mod:`opeq.rng`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import congruence, douglas, sylvester
from .douglas import majorization_certificate
from .exceptions import InfeasibleSpec, MissingMatrix, NotASolution, ToleranceAnomaly, UnknownEquationTag
from .kernel import (DEFAULT_TOL, ToleranceConfig, backward_error, dagger, factor, fro, lapack, parse_formula,
                     parse_signature, relative, shaped, spectral_norm)
from .projections import RangeDecision
from .rng import Xoshiro256StarStar, complex_normal_matrix

__all__ = [
    "FAMILIES",
    "InstanceSpec",
    "Certificate",
    "Equation",
    "EQUATIONS",
    "generate",
    "verify",
    "CompletenessReport",
    "completeness_witness",
    "NecessityReport",
    "solvability_necessity_check",
    "random_unitary",
    "ranked_matrix",
]

SIGMA_MIN = 1e-2
SIGMA_MAX = 1.0


@dataclass(frozen=True)
class InstanceSpec:
    """What to generate: family, seed, block dimensions and rank targets.

    ``shape`` is (m, n, p, q, k); the block size k scales every dimension,
    so matrices stay valid module operators for k > 1.  Families ignore the
    dimensions they do not use.  ``ranks`` overrides per-operator rank
    targets and ``params`` sets family knobs such as the scaled-equality
    ``lam``; :func:`generate` rejects a name the family does not read.
    """

    seed: int
    family: str
    shape: tuple = (6, 5, 4, 3, 1)
    ranks: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)


def random_unitary(rng: Xoshiro256StarStar, n: int) -> np.ndarray:
    """Haar-like unitary from the QR of a complex Gaussian, phases fixed."""
    q, r = lapack("qr", complex_normal_matrix(rng, n, n))
    d = np.diagonal(r).copy()
    d[np.abs(d) == 0.0] = 1.0
    return q * (d.conj() / np.abs(d))


def _log_uniform_sigmas(rng: Xoshiro256StarStar, r: int) -> np.ndarray:
    span = np.log(SIGMA_MAX) - np.log(SIGMA_MIN)
    sig = np.array([np.exp(np.log(SIGMA_MIN) + span * rng.uniform()) for _ in range(r)])
    return np.sort(sig)[::-1]


def ranked_matrix(rng: Xoshiro256StarStar, m: int, n: int, r: int) -> np.ndarray:
    """m-by-n matrix of exact rank r with singular values in [1e-2, 1]."""
    if r < 0 or r > min(m, n):
        raise InfeasibleSpec(f"rank {r} impossible for a {m}-by-{n} matrix")
    if r == 0:
        return np.zeros((m, n), dtype=np.complex128)
    u = random_unitary(rng, m)[:, :r]
    v = random_unitary(rng, n)[:, :r]
    return (u * _log_uniform_sigmas(rng, r)) @ v.conj().T


def _dims(spec: InstanceSpec):
    shape = tuple(spec.shape)
    if len(shape) != 5:
        raise InfeasibleSpec(f"shape must be (m, n, p, q, k), got {shape}")
    m, n, p, q, k = (int(v) for v in shape)
    if min(m, n, p, q, k) < 1:
        raise InfeasibleSpec(f"all dimensions must be >= 1, got {shape}")
    return m * k, n * k, p * k, q * k


def _rank(spec: InstanceSpec, name: str, default: int, cap: int) -> int:
    r = int(spec.ranks.get(name, default))
    if not 1 <= r <= cap:
        raise InfeasibleSpec(f"rank target {name}={r} outside [1, {cap}]")
    return r


def generate(spec: InstanceSpec) -> dict:
    """Generate the named operator set for ``spec``; deterministic in the seed."""
    if spec.family not in FAMILIES:
        raise InfeasibleSpec(f"unknown family {spec.family!r}; known: {', '.join(FAMILIES)}")
    build, *declared = _BUILDERS[spec.family]
    for what, given, known in zip(("rank target", "parameter"), (spec.ranks, spec.params), declared):
        unread = sorted(set(given) - set(known))
        if unread:
            raise InfeasibleSpec(f"family {spec.family} has no {what} {', '.join(unread)}; "
                                 f"known: {', '.join(known) or 'none'}")
    return build(spec, Xoshiro256StarStar(spec.seed))


def _gen_sylvester(spec: InstanceSpec, rng) -> dict:
    m, n, p, q = _dims(spec)
    ra = _rank(spec, "A", max(1, min(m, p) - 1), min(m, p))
    rb = _rank(spec, "B", max(1, min(q, n) - 1), min(q, n))
    rx = _rank(spec, "X0", min(p, n), min(p, n))
    ry = _rank(spec, "Y0", min(m, q), min(m, q))
    a = ranked_matrix(rng, m, p, ra)
    b = ranked_matrix(rng, q, n, rb)
    x0 = ranked_matrix(rng, p, n, rx)
    y0 = ranked_matrix(rng, m, q, ry)
    c = a @ x0 + y0 @ b
    out = {"A": a, "B": b, "C": c, "X0": x0, "Y0": y0}
    if spec.family == "sylvester-unsolvable":
        if ra >= m or rb >= n:
            raise InfeasibleSpec(
                "an unsolvable component needs rank A < m and rank B < n, "
                f"got rank A = {ra} (m = {m}), rank B = {rb} (n = {n})"
            )
        blocked = factor(a).n_astar(factor(b).right_n_a(complex_normal_matrix(rng, m, n)))
        norm_blocked = fro(blocked)
        if norm_blocked == 0.0:
            raise InfeasibleSpec("injected component degenerated to zero")
        # Frobenius-orthogonal to A X0 + Y0 B, so ||N_{A*} C N_B||_F, what the
        # particular pair leaves of the combined C, stays at or above 1/sqrt(2) ||C||_F.
        blocked *= max(fro(c), 1.0) / norm_blocked
        out = {"A": a, "B": b, "C": c + blocked}
    return out


def _gen_orthogonal(spec: InstanceSpec, rng) -> dict:
    m, n, p, q = _dims(spec)
    ra = _rank(spec, "A", min(m // 2, p), min(m, p))
    rb = _rank(spec, "B", min(m - m // 2, q), min(m, q))
    if ra + rb > m:
        raise InfeasibleSpec(f"orthogonal ranges need rank A + rank B <= m, got {ra}+{rb} > {m}")
    left = random_unitary(rng, m)
    a = (left[:, :ra] * _log_uniform_sigmas(rng, ra)) @ random_unitary(rng, p)[:, :ra].conj().T
    b = (left[:, ra:ra + rb] * _log_uniform_sigmas(rng, rb)) @ random_unitary(rng, q)[:, :rb].conj().T
    x0 = complex_normal_matrix(rng, p, n)
    y0 = complex_normal_matrix(rng, q, n)
    return {"A": a, "B": b, "C": a @ x0 + b @ y0, "X0": x0, "Y0": y0}


def _gen_equal_range(spec: InstanceSpec, rng) -> dict:
    m, n, _, _ = _dims(spec)
    ra = _rank(spec, "A", max(1, min(m, n) - 1), min(m, n))
    a = ranked_matrix(rng, m, n, ra)
    mix = random_unitary(rng, n)
    scale = np.array([0.5 + 1.5 * rng.uniform() for _ in range(n)])
    mat = (mix * scale) @ random_unitary(rng, n).conj().T
    return {"A": a, "B": a @ mat, "M": mat}


def _gen_scaled_equality(spec: InstanceSpec, rng) -> dict:
    m, n, _, _ = _dims(spec)
    lam = float(spec.params.get("lam", 1.0))
    if not 0.0 < lam < np.inf:
        raise InfeasibleSpec(f"lam must be positive and finite, got {lam!r}")
    ra = _rank(spec, "A", max(1, min(m, n) - 1), min(m, n))
    a = ranked_matrix(rng, m, n, ra)
    u = random_unitary(rng, n)
    return {"A": a, "C": np.sqrt(lam) * a @ u, "lam": lam}


def _gen_congruence(spec: InstanceSpec, rng) -> dict:
    """Square congruence instance built on an orthonormal frame.

    The frame is split into a shared part S (inside R(A) and R(B)), an
    A-only part, a B-only part, and at least one leftover direction so that
    B stays rank deficient.  C gets columns in R(B) orthogonal to R(A) with
    rows in S, plus a second component with columns in S and rows in the
    A-only part; both satisfy the hypotheses, and the second one makes the
    solved X nonzero.  The violating variant adds a rank-one term whose row
    lies in the A-only part, which breaks R(C N_{B*}) in R(A) only.
    """
    m = _dims(spec)[0]
    ra = _rank(spec, "A", max(2, m // 2), m)
    rb = _rank(spec, "B", max(2, m // 2), m)
    s = max(1, ra + rb - m + 1)
    a_extra = ra - s
    w = rb - s
    if w < 1 or a_extra < 0 or ra + rb - s > m - 1:
        raise InfeasibleSpec(
            f"congruence family needs a shared dimension with rank B > shared "
            f"and rank A + rank B - shared <= m - 1; got m={m}, rank A={ra}, rank B={rb}"
        )
    if spec.family == "congruence-criterion-violating" and a_extra < 1:
        raise InfeasibleSpec("the violating family needs rank A > shared dimension")
    frame = random_unitary(rng, m)
    q_s = frame[:, :s]
    q_a = frame[:, s:s + a_extra]
    q_w = frame[:, s + a_extra:s + a_extra + w]
    u_a = np.hstack([q_s, q_a])
    u_b = np.hstack([q_s, q_w])
    a = (u_a * _log_uniform_sigmas(rng, ra)) @ random_unitary(rng, m)[:, :ra].conj().T
    b = (u_b * _log_uniform_sigmas(rng, rb)) @ random_unitary(rng, m)[:, :rb].conj().T
    r1 = min(w, s)
    sig1 = np.zeros((w, s))
    sig1[:r1, :r1] = np.diag(_log_uniform_sigmas(rng, r1))
    c = q_w @ sig1 @ q_s.conj().T
    if a_extra >= 1:
        r2 = min(s, a_extra)
        sig2 = np.zeros((s, a_extra))
        sig2[:r2, :r2] = np.diag(_log_uniform_sigmas(rng, r2))
        c = c + q_s @ sig2 @ q_a.conj().T
    if spec.family == "congruence-criterion-violating":
        c = c + q_w[:, :1] @ q_a[:, :1].conj().T
    diag = congruence.diagnose_congruence(a, b, c)
    want_solvable = spec.family == "congruence-solvable"
    if not diag.hypotheses_hold or diag.solvable != want_solvable:
        raise ToleranceAnomaly(
            f"generated {spec.family} instance failed its contract "
            f"(hypotheses {diag.hypotheses_hold}, solvable {diag.solvable})"
        )
    return {"A": a, "B": b, "C": c}


# Each family's builder and the rank targets and parameters it reads.
_BUILDERS = {
    "sylvester-solvable": (_gen_sylvester, ("A", "B", "X0", "Y0"), ()),
    "sylvester-unsolvable": (_gen_sylvester, ("A", "B", "X0", "Y0"), ()),
    "orthogonal-pair": (_gen_orthogonal, ("A", "B"), ()),
    "congruence-solvable": (_gen_congruence, ("A", "B"), ()),
    "congruence-criterion-violating": (_gen_congruence, ("A", "B"), ()),
    "equal-range-pair": (_gen_equal_range, ("A",), ()),
    "scaled-equality-pair": (_gen_scaled_equality, ("A",), ("lam",)),
}
FAMILIES = tuple(_BUILDERS)


@dataclass(frozen=True)
class Certificate:
    """Recomputed residuals of one solution: its equation's and its own defining properties."""

    equation: str
    residuals: dict
    passed: bool
    failures: tuple = ()


def verify(equation: str, operators: dict, solution: dict,
           tol: ToleranceConfig = DEFAULT_TOL) -> Certificate:
    """Certify a solution: its backward error in the equation's formula, then the answer's own properties.

    ``equation`` is a key of :data:`EQUATIONS`.  Only the answer is certified: the instance's solvability
    and hypotheses are decided by the diagnoses and enforced by the solvers.  Operands and unknowns are
    checked against the shape signature first; :class:`MissingMatrix` names every one absent.
    """
    tag = equation.strip().lower()
    if tag not in EQUATIONS:
        raise UnknownEquationTag(f"unknown equation tag {equation!r}; known: {', '.join(EQUATIONS)}")
    eq = EQUATIONS[tag]
    missing = ([f"operand {name}" for name in eq.operands if name not in operators]
               + [f"unknown {name}" for name in eq.unknowns if name not in solution])
    if missing:
        raise MissingMatrix(f"{tag}: missing {', '.join(missing)}")
    mats = shaped(eq.signature, *(operators[name] for name in eq.operands),
                  *(solution[name] for name in eq.unknowns))
    error = backward_error(eq.terms, dict(zip(eq.operands + eq.unknowns, mats)))
    residuals, failed = eq.verify(*mats, tol) if eq.verify else ({}, {})
    failed = {"equation": not error <= tol.residual_rel, **failed}
    failures = tuple(name for name, bad in failed.items() if bad)
    return Certificate(tag, {"equation": error, **residuals}, not failures, failures)


def _verify_douglas(a, c, x, tol):
    fa = factor(a, tol)
    residuals, failed = majorization_certificate(fa, c, x, tol)
    residuals["reducedness"] = relative(fro(fa.adjoint().n_astar(x)), fro(x))
    failed["reducedness"] = not residuals["reducedness"] <= tol.rank_rel
    return residuals, failed


def _verify_orthogonal(a, b, c, x, y, tol):
    # A X + B Y = C is T [X; Y] = C for T = [A B], and T T* = A A* + B B*.
    return majorization_certificate(factor(np.hstack([a, b]), tol), c, np.vstack([x, y]), tol)


def _verify_congruence_cz(a, b, c, x, y, z, tol):
    residuals, failed = {}, {}
    spectra = {name: lapack("eigvalsh", (m + dagger(m)) / 2.0) for name, m in (("x", x), ("y", y))}
    # ||Herm(X)||_2 is ||X||_2 within the Hermitian defect, which x_psd bounds.
    norms = {name: float(np.abs(w).max(initial=0.0)) for name, w in spectra.items()}
    norms["z"] = spectral_norm(z)
    for name, block in (("x", x), ("y", y)):
        herm = relative(fro(block - dagger(block)), fro(block))
        residuals[f"{name}_psd_gap"] = relative(float(spectra[name].min(initial=0.0)), norms[name])
        residuals[f"{name}_hermitian_defect"] = herm
        failed[f"{name}_psd"] = not (herm <= tol.rank_rel and residuals[f"{name}_psd_gap"] >= -tol.rank_rel)
    # Nonzero is the paper's condition, norm > 0.0 (NaN fails): every scaling that maps an answer to an
    # answer keeps it.  The solver refuses an empty intersection, or one outside R(C), before forming Z.
    for name, norm in norms.items():
        residuals[f"{name}_norm"] = norm
        failed[f"{name}_nonzero"] = not norm > 0.0
    return residuals, failed


@dataclass(frozen=True)
class CompletenessReport:
    x_witness: float
    y_witness: float
    scale: float
    passed: bool


def completeness_witness(a, b, c, x0, y0, tol: ToleranceConfig = DEFAULT_TOL) -> CompletenessReport:
    """Check that a known solution (x0, y0) of A X + Y B = C fits the parameterized family.

    Any solution differs from the particular pair by a homogeneous pair, so
    the components P_{A*} (x0 - x_p) N_B and N_{A*} (y0 - y_p) P_B, which no
    parameter choice can produce, must vanish: each passes up to ``residual_rel``
    of the larger difference.  A pair that :func:`verify` does not certify
    raises :class:`NotASolution`.
    """
    a, b, c, x0, y0 = shaped(sylvester.SIGNATURE, a, b, c, x0, y0)
    cert = verify("sylvester", {"A": a, "B": b, "C": c}, {"X": x0, "Y": y0}, tol)
    if not cert.passed:
        raise NotASolution(f"(x0, y0) does not solve A X + Y B = C: {', '.join(cert.failures)} failed")
    fa, fb = factor(a, tol), factor(b, tol)
    x_p, y_p = sylvester._particular(fa, fb, c, tol)
    dx = x0 - x_p
    dy = y0 - y_p
    x_wit = fro(fa.adjoint().p_a(fb.right_n_a(dx)))
    y_wit = fro(fa.n_astar(fb.adjoint().right_p_astar(dy)))
    scale = max(fro(dx), fro(dy))
    return CompletenessReport(
        x_witness=x_wit,
        y_witness=y_wit,
        scale=scale,
        passed=relative(x_wit, scale) <= tol.residual_rel and relative(y_wit, scale) <= tol.residual_rel,
    )


@dataclass(frozen=True)
class NecessityReport:
    cnbstar_in_a: RangeDecision
    cnastar_in_b: RangeDecision
    passed: bool


def solvability_necessity_check(a, b, c, x, y, tol: ToleranceConfig = DEFAULT_TOL) -> NecessityReport:
    """Confirm the two range criteria of A X A* + B Y B* = C on a known solution.

    Multiplying the solved equation by N_{B*} on the right forces
    R(C N_{B*}) in R(A), and by N_{A*} on the right R(C N_{A*}) in R(B), with
    no hypotheses; this checks that necessity on a concrete (x, y).  A pair
    that :func:`verify` does not certify raises :class:`NotASolution`.
    """
    a, b, c, x, y = shaped(congruence.SIGNATURE, a, b, c, x, y)
    cert = verify("congruence", {"A": a, "B": b, "C": c}, {"X": x, "Y": y}, tol)
    if not cert.passed:
        raise NotASolution(f"(x, y) does not solve A X A* + B Y B* = C: {', '.join(cert.failures)} failed")
    inc1, inc2 = congruence._criteria(factor(a, tol), factor(b, tol), c, tol)
    return NecessityReport(cnbstar_in_a=inc1, cnastar_in_b=inc2,
                           passed=inc1.holds and inc2.holds)


# Solve adapters: (operators, tol, seed) -> (solution for verify, the report fields
# verify does not compute); diagnose adapters: (operators, tol) -> (diagnosis, report
# fields).  Each calls its solver through the module at call time, so a wrapper
# installed on the module attribute (as the benchmark's tracer does) sees it.

def _solve_douglas(ops, tol, seed):
    rep = douglas.reduced_solution(ops["A"], ops["C"], tol)
    return {"X": rep.d}, {}


def _solve_sylvester(ops, tol, seed):
    a, b, c = ops["A"], ops["B"], ops["C"]
    params = sylvester.random_params(a, b, seed) if seed is not None else None
    sol = sylvester.solve_ax_yb(a, b, c, params=params, tol=tol)
    return {"X": sol.x, "Y": sol.y}, {}


def _solve_orthogonal(ops, tol, seed):
    x, y, _ = sylvester.solve_ax_by_orthogonal(ops["A"], ops["B"], ops["C"], tol)
    return {"X": x, "Y": y}, {}


def _solve_congruence(ops, tol, seed):
    x, y, _ = congruence.solve_congruence(ops["A"], ops["B"], ops["C"], tol)
    return {"X": x, "Y": y}, {}


def _solve_congruence_cz(ops, tol, seed):
    x, y, z, rep = congruence.solve_congruence_cz(ops["A"], ops["B"], ops["C"], tol)
    return {"X": x, "Y": y, "Z": z}, {
        "intersection_dim": rep.intersection_dim,
        "decisions": {"basis_in_range_c": asdict(rep.basis_in_range_c)},
    }


def _diagnose_sylvester(ops, tol):
    return sylvester.diagnose_ax_yb(ops["A"], ops["B"], ops["C"], tol), {}


def _diagnose_congruence(ops, tol):
    diag = congruence.diagnose_congruence(ops["A"], ops["B"], ops["C"], tol)
    return diag, {"status": diag.status}


@dataclass(frozen=True)
class Equation:
    """One equation: its shape signature, formula, and solve, :func:`verify` and diagnose adapters.

    ``formula`` writes the equation in the signature's ``operands`` and ``unknowns`` (``A*`` is A's
    adjoint); ``terms`` holds its signed products, from :func:`~opeq.kernel.parse_formula`.
    ``solve(operators, tol, seed)`` returns the solution :func:`verify` reads and the other report fields,
    ``seed`` drawing the free parameters of shape signature ``parameters``.  ``verify(*operands,
    *unknowns, tol)``, None where the formula says all, gives the residuals and failures of the answer's
    other properties; ``diagnose(operators, tol)``, None if absent, the diagnosis and its report fields.
    """

    signature: str
    formula: str
    solve: Callable
    verify: Callable | None
    diagnose: Callable | None = None
    parameters: str | None = None
    operands: tuple = field(init=False)
    unknowns: tuple = field(init=False)
    terms: tuple = field(init=False)

    def __post_init__(self):
        # Derived once here: a per-call parse would cost every verify.
        for side, entries in zip(("operands", "unknowns"), parse_signature(self.signature)):
            object.__setattr__(self, side, tuple(name for name, _, _ in entries))
        object.__setattr__(self, "terms", parse_formula(self.formula, self.signature))


EQUATIONS = {
    "douglas": Equation(douglas.SIGNATURE, "A X = C", _solve_douglas, _verify_douglas),
    "sylvester": Equation(sylvester.SIGNATURE, sylvester.FORMULA, _solve_sylvester, None, _diagnose_sylvester,
                          sylvester.PARAMETER_SIGNATURE),
    "orthogonal": Equation(sylvester.ORTHOGONAL_SIGNATURE, "A X + B Y = C", _solve_orthogonal,
                           _verify_orthogonal),
    "congruence": Equation(congruence.SIGNATURE, "A X A* + B Y B* = C", _solve_congruence, None,
                           _diagnose_congruence),
    "congruence-cz": Equation(congruence.CZ_SIGNATURE, "A X A* + B Y B* = C Z", _solve_congruence_cz,
                              _verify_congruence_cz),
}
