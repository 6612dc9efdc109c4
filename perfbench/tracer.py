"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the package: every module attribute
that refers to a layer function (``range_inclusion``, ``pinv``,
``np.linalg.svd`` and so on) is swapped for a recording wrapper, because
the solvers import those names directly and look them up in their own
namespace.  ``numpy.linalg._linalg.svd`` is swapped as well, so the SVD
behind ``np.linalg.norm(x, 2)`` is counted too.

Spans are kept in memory as tuples ``(id, name, start, end, parent, op)``
and written out once, when the run ends.  Counters are updated when a span
closes, so ratios are taken where the work happens.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# Equation tag of each solver entry point the benchmark and the CLI call.
SOLVERS = {
    ("douglas", "reduced_solution"): "douglas",
    ("sylvester", "solve_ax_yb"): "sylvester",
    ("sylvester", "solve_ax_by_orthogonal"): "orthogonal",
    ("congruence", "solve_congruence"): "congruence",
    ("congruence", "solve_congruence_cz"): "congruence-cz",
}
EQUATIONS = tuple(SOLVERS.values())

# Time spent in these layers is not report building; cli.emit.s is the
# rest of cli.run_command.
_NOT_EMIT = ("generate", "matrixio.load", "matrixio.save", "solve", "verify")

# Spans kept in memory; later ones are counted as dropped.  A traced k=1
# run makes about 60 spans per operation.
MAX_SPANS = 200_000


class Tracer:
    """Records spans and per-layer counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.op = -1
        self.total = defaultdict(float)
        self._stack = []
        self._depth = defaultdict(int)
        self._next_id = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn, on_close=None):
        total = self.total
        depth = self._depth
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            depth[layer] += 1
            lapack0 = total["kernel.lapack.s"]
            svd0 = total["kernel.svd.calls"]
            opeq_svd0 = total["n:kernel.svd"]
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[layer] -= 1
                dur = end - start
                total["n:" + name] += 1
                if depth[layer] == 0:
                    total[layer + ".busy_s"] += dur
                if on_close is not None:
                    on_close(args, dur, total["kernel.lapack.s"] - lapack0,
                             total["kernel.svd.calls"] - svd0, total["n:kernel.svd"] - opeq_svd0)
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, name, start, end, parent, self.op))
                else:
                    self.dropped += 1
        return wrapper

    def _install(self, modules, fn, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, value))

    def install(self):
        """Swap every layer function for its recording wrapper."""
        import opeq
        from opeq import cli, congruence, douglas, harness, kernel, matrixio, projections, sylvester

        linalg = np.linalg
        linalg_impl = sys.modules.get("numpy.linalg._linalg", linalg)
        pkg = [opeq, cli, congruence, douglas, harness, kernel, matrixio, projections, sylvester]
        total = self.total

        def lapack(kind):
            def close(args, dur, *_):
                total["kernel.lapack.s"] += dur
                total[f"kernel.{kind}.calls"] += 1
                if kind == "svd":
                    m, n = np.shape(args[0])[-2:]
                    total["kernel.svd.work"] += m * n * min(m, n)
            return close

        for kind, fn in (("svd", linalg.svd), ("eigh", linalg.eigh),
                         ("eigh", linalg.eigvalsh), ("qr", linalg.qr)):
            wrapper = self._wrap(f"lapack.{fn.__name__}", "lapack", fn, lapack(kind))
            self._install([linalg, linalg_impl], fn, wrapper)

        for name in ("svd", "pinv", "psd_sqrt"):
            fn = getattr(kernel, name)
            self._install(pkg, fn, self._wrap(f"kernel.{name}", "kernel", fn))

        for name, short in (("projection_quad", "quad"), ("range_inclusion", "inclusion"),
                            ("numerical_rank", "rank")):
            fn = getattr(projections, name)
            self._install(pkg, fn, self._wrap(f"projections.{short}", "projections", fn))

        for (modname, attr), eq in SOLVERS.items():
            fn = getattr(sys.modules[f"opeq.{modname}"], attr)

            def close(args, dur, lapack_s, svd_calls, opeq_svd_calls, eq=eq):
                total[f"solve.{eq}.s"] += dur
                total[f"solve.{eq}.n"] += 1
                total[f"solve.{eq}.svd_calls"] += svd_calls
                total[f"solve.{eq}.opeq_svd_calls"] += opeq_svd_calls
                total["solve.self_s"] += dur - lapack_s
            self._install(pkg, fn, self._wrap(f"solve.{eq}", "solve", fn, close))

        def verify_close(args, dur, _lapack, svd_calls, opeq_svd_calls):
            total["verify.svd_calls"] += svd_calls
            total["verify.opeq_svd_calls"] += opeq_svd_calls
        self._install(pkg, harness.verify,
                      self._wrap("verify", "verify", harness.verify, verify_close))
        self._install(pkg, harness.generate,
                      self._wrap("generate", "generate", harness.generate))

        def io_close(args, dur, *_):
            total["matrixio.bytes"] += os.path.getsize(args[0])
        for name in ("load_matrix", "save_matrix"):
            fn = getattr(matrixio, name)
            short = name.split("_")[0]
            self._install(pkg, fn, self._wrap(f"matrixio.{short}", f"matrixio.{short}", fn, io_close))
        def command_close(args, dur, _lapack, svd_calls, opeq_svd_calls):
            total[f"cli.{args[0][0]}.svd_calls"] += svd_calls
            total[f"cli.{args[0][0]}.opeq_svd_calls"] += opeq_svd_calls
        self._install(pkg, cli.run_command,
                      self._wrap("cli.run_command", "cli.run_command", cli.run_command, command_close))

    def uninstall(self):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def per_op(self, ops: int) -> dict:
        """Per-layer metrics per operation (``generate.s`` per generated instance)."""
        t = self.total
        out = {}
        for kind in ("svd", "eigh", "qr"):
            out[f"kernel.{kind}.calls"] = t[f"kernel.{kind}.calls"] / ops
        out["kernel.svd.work"] = t["kernel.svd.work"] / ops
        out["kernel.lapack.s"] = t["kernel.lapack.s"] / ops
        for short in ("quad", "inclusion", "rank"):
            out[f"projections.{short}.calls"] = t[f"n:projections.{short}"] / ops
        out["projections.s"] = t["projections.busy_s"] / ops
        for eq in EQUATIONS:
            n = t[f"solve.{eq}.n"]
            out[f"solve.{eq}.s"] = t[f"solve.{eq}.s"] / n if n else 0.0
            out[f"solve.{eq}.svd_calls"] = t[f"solve.{eq}.svd_calls"] / n if n else 0.0
        out["solve.self_s"] = t["solve.self_s"] / ops
        out["verify.s"] = t["verify.busy_s"] / ops
        out["verify.svd_calls"] = t["verify.svd_calls"] / ops
        gens = t["n:generate"]
        out["generate.s"] = t["generate.busy_s"] / gens if gens else 0.0
        out["matrixio.load.s"] = t["matrixio.load.busy_s"] / ops
        out["matrixio.save.s"] = t["matrixio.save.busy_s"] / ops
        out["matrixio.bytes"] = t["matrixio.bytes"] / ops
        run_s = t["cli.run_command.busy_s"]
        out["cli.run_command.s"] = run_s / ops
        inner = sum(t[f"{layer}.busy_s"] for layer in _NOT_EMIT)
        out["cli.emit.s"] = max(run_s - inner, 0.0) / ops if run_s else 0.0
        return out

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"],
                                 "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
