"""Seeded instance generation with prescribed range structure, plus verification.

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
from .douglas import majorization_gap
from .exceptions import InfeasibleSpec, ToleranceAnomaly, UnknownEquationTag
from .kernel import DEFAULT_TOL, ToleranceConfig, as_matrix, dagger, factor, fro, spectral_norm
from .projections import inclusion
from .rng import Xoshiro256StarStar, complex_normal_matrix

__all__ = [
    "FAMILIES",
    "InstanceSpec",
    "Certificate",
    "Equation",
    "EQUATIONS",
    "generate",
    "verify",
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
    targets; ``params`` carries family knobs such as ``lam`` for the
    scaled-equality family.
    """

    seed: int
    family: str
    shape: tuple = (6, 5, 4, 3, 1)
    ranks: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)


def random_unitary(rng: Xoshiro256StarStar, n: int) -> np.ndarray:
    """Haar-like unitary from the QR of a complex Gaussian, phases fixed."""
    q, r = np.linalg.qr(complex_normal_matrix(rng, n, n))
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
    build, rank_names = _BUILDERS[spec.family]
    unread = sorted(set(spec.ranks) - set(rank_names))
    if unread:
        raise InfeasibleSpec(f"family {spec.family} has no rank target {', '.join(unread)}; "
                             f"known: {', '.join(rank_names)}")
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
        # Frobenius-orthogonal to A X0 + Y0 B, so the classical residual of
        # the combined C stays at or above 1/sqrt(2) of its norm.
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
    if not lam > 0.0:
        raise InfeasibleSpec(f"lam must be positive, got {lam!r}")
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
    lies in the A-only part, which breaks both range criteria at once.
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


# Each family's builder and the rank targets it reads.
_BUILDERS = {
    "sylvester-solvable": (_gen_sylvester, ("A", "B", "X0", "Y0")),
    "sylvester-unsolvable": (_gen_sylvester, ("A", "B", "X0", "Y0")),
    "orthogonal-pair": (_gen_orthogonal, ("A", "B")),
    "congruence-solvable": (_gen_congruence, ("A", "B")),
    "congruence-criterion-violating": (_gen_congruence, ("A", "B")),
    "equal-range-pair": (_gen_equal_range, ("A",)),
    "scaled-equality-pair": (_gen_scaled_equality, ("A",)),
}
FAMILIES = tuple(_BUILDERS)


@dataclass(frozen=True)
class Certificate:
    """Recomputed residuals and range decisions for one equation instance."""

    equation: str
    residuals: dict
    decisions: dict
    passed: bool
    failures: tuple = ()


def _rel(defect: float, scale: float) -> float:
    return defect / scale if scale > 0.0 else (0.0 if defect == 0.0 else np.inf)


def verify(equation: str, operators: dict, solution: dict,
           tol: ToleranceConfig = DEFAULT_TOL) -> Certificate:
    """Recompute the defining residual and side conditions for a solution.

    Known tags, the keys of :data:`EQUATIONS`: ``douglas`` (A X = C, X
    reduced), ``sylvester`` (A X + Y B = C), ``orthogonal`` (A X + B Y = C
    under A* B = 0), ``congruence`` (A X A* + B Y B* = C) and
    ``congruence-cz`` (A X A* + B Y B* = C Z with X, Y PSD, all nonzero).
    """
    tag = equation.strip().lower()
    if tag not in EQUATIONS:
        raise UnknownEquationTag(f"unknown equation tag {equation!r}; known: {', '.join(EQUATIONS)}")
    residuals, decisions, failures = EQUATIONS[tag].verify(operators, solution, tol)
    return Certificate(equation=tag, residuals=residuals, decisions=decisions,
                       passed=not failures, failures=tuple(failures))


def _get(mapping: dict, *names):
    out = []
    for name in names:
        if name not in mapping:
            raise KeyError(f"missing operand {name!r}")
        out.append(as_matrix(mapping[name]))
    return out


def _failures(failed: dict, decisions: dict) -> list:
    """Names of the failed residual checks, then of the decisions that do not hold."""
    return [name for name, bad in failed.items() if bad] + [
        name for name, dec in decisions.items() if not dec.holds]


def _verify_douglas(ops, sol, tol):
    a, c = _get(ops, "A", "C")
    (x,) = _get(sol, "X")
    fa = factor(a, tol)
    lam = spectral_norm(x) ** 2
    residuals = {
        "equation": _rel(fro(a @ x - c), max(fro(c), 1e-300)),
        "reducedness": _rel(fro(fa.adjoint().n_astar(x)), max(fro(x), 1e-300)),
        "lambda": lam,
        "majorization_gap": majorization_gap(lam, a @ dagger(a), c, fa.norm ** 2),
    }
    decisions = {"range_c_in_a": inclusion(c, fa, tol)}
    return residuals, decisions, _failures({
        "equation": residuals["equation"] > tol.residual_rel,
        "reducedness": residuals["reducedness"] > 1e-10,
        "majorization_gap": residuals["majorization_gap"] < -1e-8,
    }, decisions)


def _verify_sylvester(ops, sol, tol):
    a, b, c = _get(ops, "A", "B", "C")
    x, y = _get(sol, "X", "Y")
    diag = sylvester.diagnose_ax_yb(a, b, c, tol)
    residuals = {
        "equation": _rel(fro(a @ x + y @ b - c), max(fro(c), 1e-300)),
        "classical": _rel(diag.classical_residual, max(fro(c), 1e-300)),
    }
    decisions = {"cond_range_cnb": diag.cond_range_cnb, "cond_range_pbc": diag.cond_range_pbc}
    return residuals, decisions, _failures(
        {name: value > tol.residual_rel for name, value in residuals.items()}, decisions)


def _verify_orthogonal(ops, sol, tol):
    a, b, c = _get(ops, "A", "B", "C")
    x, y = _get(sol, "X", "Y")
    lam = float(sol.get("lam", max(spectral_norm(np.vstack([x, y])) ** 2, 0.0)))
    # ||A A* + B B*||_2 = ||[A B]||_2^2
    fab = factor(np.hstack([a, b]), tol)
    residuals = {
        "equation": _rel(fro(a @ x + b @ y - c), max(fro(c), 1e-300)),
        "orthogonality": _rel(fro(dagger(a) @ b), max(spectral_norm(a) * spectral_norm(b), 1e-300)),
        "lambda": lam,
        "majorization_gap": majorization_gap(lam, a @ dagger(a) + b @ dagger(b), c, fab.norm ** 2),
    }
    decisions = {"range_c_in_ab": inclusion(c, fab, tol)}
    return residuals, decisions, _failures({
        "equation": residuals["equation"] > tol.residual_rel,
        "orthogonality": residuals["orthogonality"] > 1e-10,
        "majorization_gap": residuals["majorization_gap"] < -1e-8,
    }, decisions)


def _verify_congruence(ops, sol, tol):
    a, b, c = _get(ops, "A", "B", "C")
    x, y = _get(sol, "X", "Y")
    fb = factor(b, tol)
    diag = congruence._diagnose(factor(a, tol), fb, c, tol)
    residuals = {
        "equation": _rel(fro(a @ x @ dagger(a) + b @ y @ dagger(b) - c), max(fro(c), 1e-300)),
        "hyp_cstar_pa_in_nbstar": _rel(diag.hyp_cstar_pa_in_nbstar,
                                       max(fb.norm * fro(c), 1e-300)),
    }
    decisions = {
        "hyp_c_in_b": diag.hyp_c_in_b,
        "hyp_cstar_in_a": diag.hyp_cstar_in_a,
        "cond_cnbstar_in_a": diag.cond_cnbstar_in_a,
        "cond_cstar_nastar_in_b": diag.cond_cstar_nastar_in_b,
    }
    return residuals, decisions, _failures(
        {name: value > tol.residual_rel for name, value in residuals.items()}, decisions)


def _verify_congruence_cz(ops, sol, tol):
    a, b, c = _get(ops, "A", "B", "C")
    x, y, z = _get(sol, "X", "Y", "Z")
    lhs = a @ x @ dagger(a) + b @ y @ dagger(b)
    scale = max(fro(lhs), fro(c @ z), 1e-300)
    residuals = {"equation": _rel(fro(lhs - c @ z), scale)}
    failures = []
    if residuals["equation"] > tol.residual_rel:
        failures.append("equation")
    norms = {name: spectral_norm(block) for name, block in (("x", x), ("y", y), ("z", z))}
    for name, block in (("x", x), ("y", y)):
        herm = _rel(fro(block - dagger(block)), max(fro(block), 1e-300))
        mineig = float(np.linalg.eigvalsh((block + dagger(block)) / 2.0)[0])
        residuals[f"{name}_psd_gap"] = _rel(min(mineig, 0.0), max(norms[name], 1e-300))
        residuals[f"{name}_hermitian_defect"] = herm
        if herm > 1e-10 or residuals[f"{name}_psd_gap"] < -1e-10:
            failures.append(f"{name}_psd")
    for name, norm in norms.items():
        residuals[f"{name}_norm"] = norm
        if norm <= 1e-10:
            failures.append(f"{name}_nonzero")
    return residuals, {}, failures


# Solve adapters: (operators, tol, seed) -> (solution for verify, report fields).
# Each calls its solver through the module at call time, so a wrapper
# installed on the module attribute (as the benchmark's tracer does) sees it.

def _solve_douglas(ops, tol, seed):
    rep = douglas.reduced_solution(ops["A"], ops["C"], tol)
    return {"X": rep.d}, {
        "residuals": {"residual": rep.residual, "reduced_certificate": rep.reduced_certificate},
        "lambda_factor": rep.lambda_factor,
    }


def _solve_sylvester(ops, tol, seed):
    a, b, c = ops["A"], ops["B"], ops["C"]
    params = sylvester.random_params(a, b, seed) if seed is not None else None
    sol = sylvester.solve_ax_yb(a, b, c, params=params, tol=tol)
    return {"X": sol.x, "Y": sol.y}, {"residuals": {"residual": sol.residual}}


def _solve_orthogonal(ops, tol, seed):
    x, y, lam = sylvester.solve_ax_by_orthogonal(ops["A"], ops["B"], ops["C"], tol)
    return {"X": x, "Y": y, "lam": lam}, {"lambda_factor": lam}


def _solve_congruence(ops, tol, seed):
    x, y, diag = congruence.solve_congruence(ops["A"], ops["B"], ops["C"], tol)
    return {"X": x, "Y": y}, {"residuals": {
        "residual": diag.residual, "hyp_cstar_pa_in_nbstar": diag.hyp_cstar_pa_in_nbstar}}


def _solve_congruence_cz(ops, tol, seed):
    x, y, z, rep = congruence.solve_congruence_cz(ops["A"], ops["B"], ops["C"], tol)
    return {"X": x, "Y": y, "Z": z}, {
        "residuals": {"residual": rep.residual, "pn_s_residual": rep.intersection.pn_s_residual},
        "norms": {"x": rep.x_norm, "y": rep.y_norm, "z": rep.z_norm},
        "intersection_dim": rep.intersection.dim,
        "decisions": {"basis_in_range_c": asdict(rep.basis_in_range_c)},
    }


@dataclass(frozen=True)
class Equation:
    """One equation: its operand names, solve adapter and :func:`verify` handler.

    ``solve(operators, tol, seed)`` returns the solution dict that
    :func:`verify` reads (its matrices are the solution files) and the
    solver's report fields; ``seed``, where used, draws the free parameters.
    """

    operands: tuple
    solve: Callable
    verify: Callable


EQUATIONS = {
    "douglas": Equation(("A", "C"), _solve_douglas, _verify_douglas),
    "sylvester": Equation(("A", "B", "C"), _solve_sylvester, _verify_sylvester),
    "orthogonal": Equation(("A", "B", "C"), _solve_orthogonal, _verify_orthogonal),
    "congruence": Equation(("A", "B", "C"), _solve_congruence, _verify_congruence),
    "congruence-cz": Equation(("A", "B", "C"), _solve_congruence_cz, _verify_congruence_cz),
}
