"""The benchmark's workloads: certified solves in-process and CLI round trips.

Every workload is a closed loop with one caller.  It cycles through a
fixed list of instance kinds and runs whole cycles only, so the mix of
kinds, and with it every per-operation count, is the same in every run.
Each operation is checked against the verdict its family was built to
have: solvable kinds must come back with a passing certificate, the others
with a certified rejection.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

import numpy as np

from opeq import cli, congruence, douglas, harness, matrixio, sylvester
from opeq.exceptions import NotSolvable, OpeqError
from opeq.rng import Xoshiro256StarStar

# Bound before any tracer swaps np.linalg.qr, so that input preparation
# never shows up in the program's counters.
_qr = np.linalg.qr

# (kind, equation, solvable by construction)
CERTIFY_KINDS = (
    ("sylvester-solvable", "sylvester", True),
    ("sylvester-unsolvable", "sylvester", False),
    ("orthogonal-pair", "orthogonal", True),
    ("congruence-solvable", "congruence", True),
    ("congruence-criterion-violating", "congruence", False),
    ("scaled-equality-pair", "douglas", True),
    ("nontrivial-intersection", "congruence-cz", True),
)
CLI_KINDS = CERTIFY_KINDS[:-1] + (("equal-range-pair", "congruence-cz", True),)


def cz_instance(seed: int, k: int) -> dict:
    """A X A* + B Y B* = C Z instance with dim(R(A) & R(B)) = k inside R(C).

    The construction of acceptance criterion 9 with every block scaled by
    k: a unitary frame split into a shared part (k columns), an A-only and
    a B-only part (2k each); C spans the shared part and k more columns.
    """
    rng = Xoshiro256StarStar(seed)
    m, shared, extra, rank_c = 6 * k, k, 2 * k, 3 * k
    frame = harness.random_unitary(rng, m)
    cols_a = frame[:, :shared + extra]
    cols_b = np.hstack([frame[:, :shared], frame[:, shared + extra:shared + 2 * extra]])
    a = cols_a @ harness.ranked_matrix(rng, shared + extra, m, shared + extra)
    b = cols_b @ harness.ranked_matrix(rng, shared + extra, m, shared + extra)
    c = frame[:, :rank_c] @ harness.ranked_matrix(rng, rank_c, m, rank_c)
    return {"A": a, "B": b, "C": c}


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return _qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def change_basis(eq: str, ops: dict, rng: np.random.Generator) -> dict:
    """Fresh unitary change of basis that keeps the instance's verdict.

    Left factors shared between operands keep every range relation
    (inclusions, orthogonality, intersections) intact; the solution maps
    to a unitary transform of the original one.
    """
    a, c = ops["A"], ops["C"]
    u = _unitary(rng, a.shape[0])
    va = _unitary(rng, a.shape[1])
    if eq == "douglas":
        return {"A": u @ a @ va, "C": u @ c @ _unitary(rng, c.shape[1])}
    b = ops["B"]
    if eq == "sylvester":
        w = _unitary(rng, c.shape[1])
        return {"A": u @ a @ va, "B": _unitary(rng, b.shape[0]) @ b @ w, "C": u @ c @ w}
    vb = _unitary(rng, b.shape[1])
    right = u.conj().T if eq == "congruence" else _unitary(rng, c.shape[1])
    return {"A": u @ a @ va, "B": u @ b @ vb, "C": u @ c @ right}


def solve_and_verify(eq: str, ops: dict) -> bool:
    """Solve through the module attribute (where a tracer hooks in) and verify.

    Returns whether the certificate passed; NotSolvable propagates.
    """
    a, c = ops["A"], ops["C"]
    if eq == "douglas":
        sol = {"X": douglas.reduced_solution(a, c).d}
    elif eq == "sylvester":
        s = sylvester.solve_ax_yb(a, ops["B"], c)
        sol = {"X": s.x, "Y": s.y}
    elif eq == "orthogonal":
        x, y, lam = sylvester.solve_ax_by_orthogonal(a, ops["B"], c)
        sol = {"X": x, "Y": y, "lam": lam}
    elif eq == "congruence":
        x, y, _ = congruence.solve_congruence(a, ops["B"], c)
        sol = {"X": x, "Y": y}
    else:
        x, y, z, _ = congruence.solve_congruence_cz(a, ops["B"], c)
        sol = {"X": x, "Y": y, "Z": z}
    return harness.verify(eq, ops, sol).passed


class Certify:
    """The public API called in-process at block size k."""

    kinds = CERTIFY_KINDS

    def __init__(self, seed: int, k: int, warmup: int):
        self.seed = seed
        self.k = k
        self.warmup = warmup
        self.rng = np.random.default_rng([seed, k])
        self.bank = {}

    def setup(self) -> None:
        """Generate one base instance per kind, then run ``warmup`` cycles."""
        shape = (6, 5, 4, 3, self.k)
        bank = {}
        for i, (kind, _, _) in enumerate(self.kinds):
            base_seed = self.seed * 1000 + i
            if kind == "nontrivial-intersection":
                bank[kind] = cz_instance(base_seed, self.k)
            else:
                bank[kind] = harness.generate(
                    harness.InstanceSpec(seed=base_seed, family=kind, shape=shape))
        self.bank = bank
        for _ in range(self.warmup):
            for kind, eq, solvable in self.kinds:
                self.op(kind, eq, solvable)

    def op(self, kind: str, eq: str, solvable: bool):
        """One solve+verify on a fresh basis change; returns (seconds, correct)."""
        ops = change_basis(eq, self.bank[kind], self.rng)
        start = perf_counter()
        try:
            passed = solve_and_verify(eq, ops)
            ok = solvable and passed
        except NotSolvable:
            ok = not solvable
        except Exception as exc:  # any other outcome is a wrong verdict
            print(f"wrong: {kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        return perf_counter() - start, ok

    def close(self) -> None:
        pass


def _json_report(text: str):
    try:
        report = json.loads(text)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


class CliRoundTrip:
    """``opeq gen`` then ``opeq solve ... --json --out`` at block size k.

    With ``in_process`` the two commands go through ``opeq.cli.run_command``
    in this process (the traced run); otherwise each is its own interpreter.
    Solved operations of the first timed cycle keep their files, and
    ``post_check`` re-verifies them once timing is over.
    """

    kinds = CLI_KINDS

    def __init__(self, seed: int, k: int, warmup: int, workdir: str, src: str,
                 in_process: bool = False):
        self.seed = seed
        self.k = k
        self.warmup = warmup
        self.workdir = workdir
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=src)
        self.count = 0
        self.kept = []
        self.keep = False
        self.report_bytes = 0

    def setup(self) -> None:
        """Fresh work directory and ``warmup`` round trips of the first kind."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        for _ in range(self.warmup):
            self.op(*self.kinds[0])
        self.kept.clear()
        self.report_bytes = 0

    def _run(self, argv):
        if self.in_process:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.run_command(argv)
            except Exception as exc:  # an escaping error is exit 1 in a subprocess
                print(f"{argv[0]}: {type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
            return code, buf.getvalue()
        proc = subprocess.run([sys.executable, "-m", "opeq.cli", *argv], env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode not in (0, 2):
            sys.stderr.write(proc.stderr)
        return proc.returncode, proc.stdout

    def op(self, kind: str, eq: str, solvable: bool):
        """One gen+solve round trip; returns (seconds, correct)."""
        self.count += 1
        gen_seed = self.seed * 1_000_003 + self.count
        d = os.path.join(self.workdir, f"op{self.count}")
        f = {name: os.path.join(d, f"{name}.json") for name in ("A", "B", "C")}
        argv = ["solve", eq, "--A", f["A"], "--C", f["A"] if kind == "equal-range-pair" else f["C"]]
        if eq != "douglas":
            argv += ["--B", f["B"]]
        argv += ["--json", "--out", os.path.join(d, "sol")]
        start = perf_counter()
        gen_code, gen_out = self._run(["gen", "--family", kind, "--seed", str(gen_seed),
                                       "--shape", f"6,5,4,3,{self.k}", "--out", d, "--json"])
        code, out = self._run(argv) if gen_code == 0 else (gen_code, "")
        elapsed = perf_counter() - start
        self.report_bytes += len(gen_out) + len(out)
        report = _json_report(out) or {}
        if solvable:
            ok = code == 0 and report.get("certificate", {}).get("passed") is True
        else:
            ok = code == 2 and report.get("status") == "unsolvable"
        if not ok:
            print(f"wrong: {kind} seed {gen_seed}: exit {gen_code}/{code}", file=sys.stderr)
        if self.keep and solvable and ok:
            self.kept.append((kind, eq, d))
        else:
            shutil.rmtree(d, ignore_errors=True)
        return elapsed, ok

    def post_check(self) -> int:
        """Re-verify the kept solutions from their files; returns the failures."""
        names = {"douglas": "X", "sylvester": "XY", "orthogonal": "XY",
                 "congruence": "XY", "congruence-cz": "XYZ"}
        failed = 0
        for kind, eq, d in self.kept:
            def load(name, sub=""):
                return matrixio.load_matrix(os.path.join(d, sub, f"{name}.json"))
            try:
                ops = {"A": load("A"), "C": load("A" if kind == "equal-range-pair" else "C")}
                if eq != "douglas":
                    ops["B"] = load("B")
                sol = {name: load(name, "sol") for name in names[eq]}
                passed = harness.verify(eq, ops, sol).passed
            except OpeqError as exc:  # a missing or unreadable file is a failure
                print(f"wrong: {kind} in {d}: {type(exc).__name__}: {exc}", file=sys.stderr)
                passed = False
            if not passed:
                print(f"wrong: {kind} in {d}: files do not verify", file=sys.stderr)
                failed += 1
        return failed

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_cycles(workload, seconds: float, on_op=None):
    """Run whole cycles of ``workload.kinds`` while the next one is expected to fit.

    At least one cycle always runs.  Returns (per-op seconds, wrong count).
    """
    times = []
    wrong = 0
    start = perf_counter()
    last = 0.0
    while not times or perf_counter() - start + last <= seconds:
        cycle_start = perf_counter()
        for kind, eq, solvable in workload.kinds:
            if on_op is not None:
                on_op(len(times), kind)
            dt, ok = workload.op(kind, eq, solvable)
            times.append(dt)
            wrong += not ok
        last = perf_counter() - cycle_start
    return times, wrong
