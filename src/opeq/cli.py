"""Command line front end: diagnose, solve, intersect, gen, and demo.

Every command prints a structured report (JSON with ``--json``, aligned
text otherwise) containing each residual and range decision relevant to
the answer.  Exit codes: 0 the equation is solved or the property holds,
2 the instance is diagnosed unsolvable, that is a necessary condition
fails (the certificate is still printed), 1 usage or input errors,
violated solver hypotheses and failed certificates (printed first).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import congruence, harness
from .exceptions import NotASolution, NotSolvable, OpeqError
from .kernel import DEFAULT_TOL, ToleranceConfig, factor, fro
from .matrixio import load_matrix, matrix_to_obj, save_matrix
from .projections import RangeDecision

__all__ = ["run_command", "main", "make_truncated_shift", "truncated_shift_demo"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSOLVABLE = 2

# Largest --n of the truncated-shift demo, whose work grows as n^4.
DEMO_MAX_N = 200


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the report contract reserves
    # 2 for "diagnosed unsolvable", so route usage errors through exit 1.
    def error(self, message):
        raise _UsageError(message)


def make_truncated_shift(n: int) -> np.ndarray:
    """2n-by-2n truncation of the weighted shift sending entry 2j to entry 2j / j."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    for j in range(1, n + 1):
        t[2 * j - 1, 2 * j - 1] = 1.0 / j
    return t


def truncated_shift_demo(n: int, tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Numerical closed-range failure study of the truncated weighted shift.

    The min nonzero singular value of the size-j truncation is 1/j and the
    pseudoinverse norm is j, so both degrade linearly: the limit operator
    has non-closed range even though every truncation is perfectly tame.
    """
    if not 1 <= n <= DEMO_MAX_N:
        raise ValueError(f"n must lie in [1, {DEMO_MAX_N}], got {n}")
    rows = []
    for j in range(1, n + 1):
        f = factor(make_truncated_shift(j), tol)
        rows.append({
            "n": j,
            "dim": 2 * j,
            "numerical_rank": f.rank,
            "min_nonzero_singular_value": float(f.s[-1]),
            # ||T+||_2 is the reciprocal of the least nonzero singular value.
            "pinv_norm": float(1.0 / f.s[-1]),
        })
    full = rows[-1]
    return {
        "demo": "truncated-shift",
        "n": n,
        "singular_values": [float(s) for s in f.singular_values],
        "numerical_rank": full["numerical_rank"],
        "min_nonzero_singular_value": full["min_nonzero_singular_value"],
        "pinv_norm": full["pinv_norm"],
        "rows": rows,
    }


def _tol(args) -> ToleranceConfig:
    return ToleranceConfig(rank_rel=args.tol_rank, residual_rel=args.tol_residual)


def _diagnosis_fields(diagnosis) -> dict:
    """Report fields of a diagnosis dataclass, or of one failing RangeDecision.

    Boolean verdicts go at the top level, floats under ``residuals`` and
    range decisions under ``decisions``; matrices and unset fields are
    left out.
    """
    items = {"failing": diagnosis} if isinstance(diagnosis, RangeDecision) else vars(diagnosis)
    report, residuals, decisions = {}, {}, {}
    for name, value in items.items():
        if isinstance(value, RangeDecision):
            decisions[name] = asdict(value)
        elif isinstance(value, bool):
            report[name] = value
        elif isinstance(value, float):
            residuals[name] = value
    if residuals:
        report["residuals"] = residuals
    if decisions:
        report["decisions"] = decisions
    return report


def _render_text(obj, indent=0, key=None):
    pad = "  " * indent
    label = f"{pad}{key}: " if key is not None else pad
    if isinstance(obj, dict):
        if "rows" in obj and "cols" in obj and ("data" in obj or "path" in obj):
            where = f" in {obj['path']}" if "path" in obj else ""
            print(f"{label}matrix {obj['rows']}x{obj['cols']}{where}")
            return
        if key is not None:
            print(f"{pad}{key}:")
        for k, v in obj.items():
            _render_text(v, indent + (key is not None), k)
    elif isinstance(obj, (list, tuple)):
        if obj and all(isinstance(v, dict) for v in obj):
            print(f"{pad}{key}:")
            for v in obj:
                cells = "  ".join(f"{kk}={_fmt(vv)}" for kk, vv in v.items())
                print(f"{pad}  {cells}")
        else:
            print(f"{label}{', '.join(_fmt(v) for v in obj) if obj else 'none'}")
    else:
        print(f"{label}{_fmt(obj)}")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _json_safe(obj):
    """``obj`` with each non-finite float as None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit(report: dict, as_json: bool) -> None:
    # Strict JSON has no NaN or Infinity; a check whose residual is not finite
    # already fails and is named in the certificate's failures.
    if as_json:
        print(json.dumps(_json_safe(report), indent=2, sort_keys=True, allow_nan=False))
    else:
        _render_text(report)


def _write_matrices(out_dir, mats: dict, block_k: int | None = None) -> dict:
    """Write each matrix to ``<out_dir>/<name>.json`` with ``block_k``; nothing without ``out_dir``.

    Returns the report entry of each written matrix, which stands in for
    its inline data: path, shape, Frobenius norm and SHA-256 of the bytes.
    """
    written = {}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for name, m in mats.items():
            path = os.path.join(out_dir, f"{name}.json")
            written[name] = {"path": path, "rows": m.shape[0], "cols": m.shape[1],
                             "fro": fro(m), "sha256": save_matrix(path, m, block_k)}
    return written


def _files(written: dict) -> dict:
    return {name: entry["path"] for name, entry in written.items()}


def _cmd_diagnose(args) -> int:
    eq = harness.EQUATIONS[args.equation]
    ops = {name: load_matrix(getattr(args, name)) for name in eq.operands}
    diag, fields = eq.diagnose(ops, _tol(args))
    report = {"command": f"diagnose {args.equation}", **fields, **_diagnosis_fields(diag)}
    _emit(report, args.json)
    return EXIT_OK if diag.solvable else EXIT_UNSOLVABLE


def _cmd_solve(args) -> int:
    eq = harness.EQUATIONS[args.equation]
    if args.B is None and "B" in eq.operands:
        raise _UsageError("--B is required for this equation")
    tol = _tol(args)
    ops = {name: load_matrix(getattr(args, name)) for name in eq.operands}
    solution, fields = eq.solve(ops, tol, args.seed)
    cert = harness.verify(args.equation, ops, solution, tol)
    mats = {name: solution[name] for name in eq.unknowns}
    written = _write_matrices(args.out, mats)
    report = {
        "command": f"solve {args.equation}",
        **fields,
        "certificate": asdict(cert),
        "solution": {name: written.get(name) or matrix_to_obj(m) for name, m in mats.items()},
        "files": _files(written),
    }
    _emit(report, args.json)
    if not cert.passed:
        raise NotASolution(f"{args.equation} certificate failed: {', '.join(cert.failures)}")
    return EXIT_OK


def _cmd_intersect(args) -> int:
    tol = _tol(args)
    rep = congruence.range_intersection(load_matrix(args.A), load_matrix(args.B), tol)
    written = _write_matrices(args.out, {
        "basis": rep.basis, "X": rep.x_block, "Z": rep.z_block, "Y": rep.y_block,
    })
    report = {
        "command": "intersect",
        "dim": rep.dim,
        "dim_rank_formula": rep.dim_rank_formula,
        "ranks": {"A": rep.rank_a, "B": rep.rank_b, "stacked": rep.rank_stacked},
        "residuals": {
            "pn_s_residual": rep.pn_s_residual,
            "ax_eq_bz": rep.ax_eq_bz_residual,
            "azstar_eq_by": rep.azstar_eq_by_residual,
        },
        "decisions": {"sqrt_range_in_basis": asdict(rep.sqrt_range_in_basis)},
        "basis": written.get("basis") or matrix_to_obj(rep.basis),
        "files": _files(written),
    }
    _emit(report, args.json)
    return EXIT_OK


def _parse_ranks(text):
    ranks = {}
    if not text:
        return ranks
    for item in text.split(","):
        name, _, value = item.partition("=")
        if not value:
            raise _UsageError(f"--ranks entries look like NAME=INT, got {item!r}")
        name = name.strip()
        if name in ranks:
            raise _UsageError(f"--ranks names {name!r} more than once")
        try:
            ranks[name] = int(value)
        except ValueError:
            raise _UsageError(f"--ranks value for {name!r} is not an integer: {value!r}")
    return ranks


def _cmd_gen(args) -> int:
    shape = tuple(int(v) for v in args.shape.split(","))
    params = {}
    if args.lam is not None:
        params["lam"] = args.lam
    spec = harness.InstanceSpec(seed=args.seed, family=args.family, shape=shape,
                                ranks=_parse_ranks(args.ranks), params=params)
    out = harness.generate(spec)
    block_k = shape[4] if len(shape) == 5 and shape[4] > 1 else None
    mats = {name: value for name, value in sorted(out.items()) if isinstance(value, np.ndarray)}
    written = _write_matrices(args.out or ".", mats, block_k)
    report = {
        "command": "gen",
        "family": args.family,
        "seed": args.seed,
        "shape": list(shape),
        "files": _files(written),
    }
    scalars = {name: value for name, value in sorted(out.items()) if name not in mats}
    if scalars:
        report["params"] = scalars
    _emit(report, args.json)
    return EXIT_OK


def _cmd_demo(args) -> int:
    report = truncated_shift_demo(args.n, _tol(args))
    _emit(report, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opeq",
                     description="Certified solvers for operator equations over "
                                 "finite-dimensional Hilbert C*-modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, tols=True, out=False):
        # Each subcommand takes only the flags it reads: every one prints a report,
        # all but gen decide ranks, and solve, intersect and gen write matrix files.
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="print the report as JSON")
        if tols:
            p.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank_rel,
                           help="relative singular value cutoff for rank decisions")
            p.add_argument("--tol-residual", type=float, default=DEFAULT_TOL.residual_rel,
                           help="relative residual below which an equation or inclusion is accepted")
        if out:
            p.add_argument("--out", default=None, help="directory for the matrix files written")
        return p

    p = command("diagnose", _cmd_diagnose, "solvability diagnosis with certificate")
    p.add_argument("equation", choices=[tag for tag, eq in harness.EQUATIONS.items() if eq.diagnose])
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--C", required=True)

    p = command("solve", _cmd_solve, "solve one equation and certify the answer", out=True)
    p.add_argument("equation", choices=list(harness.EQUATIONS))
    p.add_argument("--A", required=True)
    p.add_argument("--B", default=None)
    p.add_argument("--C", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="draw random homogeneous parameters (sylvester only)")

    p = command("intersect", _cmd_intersect, "range intersection with PSD blocks", out=True)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)

    p = command("gen", _cmd_gen, "generate a seeded instance family", tols=False, out=True)
    p.add_argument("--family", required=True, choices=list(harness.FAMILIES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--shape", default="6,5,4,3,1", help="m,n,p,q,k block dimensions")
    p.add_argument("--ranks", default=None, help="rank targets, e.g. A=3,B=2")
    p.add_argument("--lam", type=float, default=None,
                   help="scale factor for the scaled-equality family")

    p = command("demo", _cmd_demo, "built-in demonstrations")
    p.add_argument("name", choices=["truncated-shift"])
    p.add_argument("--n", type=int, default=10)

    return parser


def run_command(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        # An overflow's inf or NaN fails the certificate closed, so numpy's
        # warning would only repeat on stderr what the report says.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except NotSolvable as exc:
        report = {"command": args.command, "status": "unsolvable",
                  "error": type(exc).__name__, "message": str(exc)}
        if exc.diagnosis is not None:
            report.update(_diagnosis_fields(exc.diagnosis))
        _emit(report, args.json)
        return EXIT_UNSOLVABLE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (OpeqError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
