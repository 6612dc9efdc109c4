"""opeq benchmark: certified-solve throughput and the CLI round trip.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-k32 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing hooked in;
``--trace 1`` is the separate traced run that gives the per-layer metrics.
``--workload all`` runs every workload in turn, each in its own process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
carry the environment stamp and a readable table.  The exit code is 0 only
when every operation came back with the verdict its family was built for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: runs on a shared two-core box are steadier, and the CLI
# children inherit the same setting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

# name: (kind, block size k, warm-up cycles in each set-up).  At k=1 one
# cycle takes about 10 ms, too short to warm up or to time set-up steadily.
WORKLOADS = {
    "certify-k32": ("certify", 32, 1),
    "certify-k1": ("certify", 1, 30),
    "cli-k16": ("cli", 16, 1),
}
SETUP_REPS = 3
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}


def _import_opeq():
    """Import the package from this checkout's ``src``, or fail."""
    if not (SRC / "opeq" / "__init__.py").is_file():
        sys.exit(f"error: no opeq package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import opeq
    if Path(opeq.__file__).resolve().parent != SRC / "opeq":
        sys.exit(f"error: imported opeq from {opeq.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: f"{blas[key].get('name')} {blas[key].get('version')}" for key in ("blas", "lapack")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_lapack": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "commit": commit,
        "seed": seed,
    }


def make(name: str, seed: int, in_process: bool = False):
    import workloads

    kind, k, warmup = WORKLOADS[name]
    if kind == "certify":
        return workloads.Certify(seed, k, warmup)
    return workloads.CliRoundTrip(seed, k, warmup, str(HERE / ".work"), str(SRC), in_process=in_process)


def ops_per_second(times: list, n_kinds: int) -> float:
    """Operations per second of a typical cycle: kinds over the sum of their median latencies.

    ``times`` holds whole cycles in kind order.  A plain mean lets the few
    operations that a busy shared host preempts set the figure; each kind's
    median does not, and the sum keeps every kind's share of the cycle.
    """
    return n_kinds / sum(statistics.median(times[i::n_kinds]) for i in range(n_kinds))


def end_to_end(name: str, seed: int, seconds: float):
    """Set up SETUP_REPS times, then time whole cycles.

    Returns (operations, wrong verdicts, end-to-end metrics, units).
    """
    import workloads

    is_cli = WORKLOADS[name][0] == "cli"
    setups = []
    for _ in range(SETUP_REPS):
        w = make(name, seed)
        start = perf_counter()
        w.setup()
        setups.append(perf_counter() - start)
        if len(setups) < SETUP_REPS:
            w.close()

    def keep_first_cycle(i, kind):
        w.keep = i < len(w.kinds)

    try:
        times, wrong = workloads.run_cycles(w, seconds, keep_first_cycle if is_cli else None)
        if is_cli:
            wrong += w.post_check()
    finally:
        w.close()
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_second(times, len(w.kinds)),
        "op_ms_p50": statistics.median(times) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    # p90 is printed but not gated: on a shared two-core VM its run-to-run
    # spread reached the largest bound BENCHMARK.json may set.
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    beyond = sum(t > p90 for t in times)
    print(f"setup reps (s): {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"samples: {len(times)} operations; op_ms_p90 {p90 * 1e3:.6g} ms with {beyond} "
          f"beyond it (not gated)")
    return len(times), wrong, metrics, E2E_UNITS


# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "kernel.svd.calls": "count", "kernel.eigh.calls": "count", "kernel.qr.calls": "count",
    "kernel.svd.work": "count", "kernel.lapack.s": "s",
    "projections.quad.calls": "count", "projections.inclusion.calls": "count",
    "projections.rank.calls": "count", "projections.s": "s",
    **{f"solve.{eq}.{m}": u for eq in ("douglas", "sylvester", "orthogonal", "congruence",
                                          "congruence-cz")
       for m, u in (("s", "s"), ("svd_calls", "count"))},
    "solve.self_s": "s", "verify.s": "s", "verify.svd_calls": "count", "generate.s": "s",
    "matrixio.load.s": "s", "matrixio.save.s": "s", "matrixio.bytes": "bytes",
    "cli.import_s": "s", "cli.run_command.s": "s", "cli.emit.s": "s", "cli.report_bytes": "bytes",
    "op.peak_alloc_mb": "MB", "trace.overhead_frac": "fraction",
}


def traced(name: str, seed: int, seconds: float):
    """Alternating untraced and traced blocks, then one tracemalloc cycle.

    Returns (operations, wrong verdicts, per-layer metrics, units).
    """
    import tracemalloc

    import workloads
    from tracer import Tracer

    is_cli = WORKLOADS[name][0] == "cli"
    w = make(name, seed, in_process=True)
    tracer = Tracer()
    baseline = {}
    try:
        # Set-up is traced only for generate.s: on certify-* every instance
        # is generated here.
        tracer.install()
        try:
            w.setup()
        finally:
            tracer.uninstall()
        for key in list(tracer.total):
            if key not in ("n:generate", "generate.busy_s"):
                del tracer.total[key]
        # SVD counts of each kind, LAPACK calls and opeq.kernel.svd calls:
        # in the solver, in verify and, for the CLI, in `opeq solve`.
        plain_op = w.op

        def counted_op(kind, eq, solvable):
            keys = [f"{part}.{which}" for part in (f"solve.{eq}", "verify", "cli.solve")
                    for which in ("svd_calls", "opeq_svd_calls")]
            before = [tracer.total[key] for key in keys]
            out = plain_op(kind, eq, solvable)
            seen = tuple(int(tracer.total[key] - b) for key, b in zip(keys, before))
            baseline.setdefault(kind, set()).add(seen)
            return out

        def on_op(i, kind):
            tracer.op += 1

        # Untraced and traced blocks alternate, so that both see the same
        # drift in machine speed and their ratio gives the tracing overhead.
        plain, times, wrong, report_bytes = [], [], 0, 0
        block = min(1.0, seconds / 2)
        start, pair = perf_counter(), 0.0
        while not times or perf_counter() - start + pair <= seconds:
            pair_start = perf_counter()
            block_times, block_wrong = workloads.run_cycles(w, block)
            plain += block_times
            wrong += block_wrong
            bytes_before = w.report_bytes if is_cli else 0
            w.op = counted_op
            tracer.install()
            try:
                block_times, block_wrong = workloads.run_cycles(w, block, on_op)
            finally:
                tracer.uninstall()
                w.op = plain_op
            times += block_times
            wrong += block_wrong
            report_bytes += (w.report_bytes - bytes_before) if is_cli else 0
            pair = perf_counter() - pair_start

        # One more cycle with tracemalloc on around each solve+verify only
        # (for the CLI, around `opeq solve`), untraced otherwise.
        peaks = []
        target, attr = (workloads.cli, "run_command") if is_cli else (workloads, "solve_and_verify")
        inner = getattr(target, attr)

        def measured(*args):
            if is_cli and args[0][0] != "solve":
                return inner(*args)
            tracemalloc.start()
            try:
                return inner(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        setattr(target, attr, measured)
        try:
            for kind, eq, solvable in w.kinds:
                wrong += not w.op(kind, eq, solvable)[1]
        finally:
            setattr(target, attr, inner)
    finally:
        w.close()

    metrics = tracer.per_op(len(times))
    metrics["cli.report_bytes"] = report_bytes / len(times)
    metrics["op.peak_alloc_mb"] = max(peaks) / 2**20
    metrics["cli.import_s"] = _import_seconds() if is_cli else 0.0
    n_kinds = len(w.kinds)
    metrics["trace.overhead_frac"] = 1.0 - ops_per_second(times, n_kinds) / ops_per_second(plain, n_kinds)
    metrics = {key: metrics[key] for key in LAYER_UNITS}
    spans = HERE / "out" / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(str(spans))
    print(f"spans: {len(tracer.spans)} kept, {tracer.dropped} dropped, written to "
          f"{spans.relative_to(ROOT)}")
    print("SVDs per operation by kind, LAPACK (opeq.kernel.svd): solver, verify, CLI solve")
    for kind, seen in baseline.items():
        cells = [", ".join(f"{s[i]} ({s[i + 1]})" for i in (0, 2, 4)) for s in sorted(seen)]
        print(f"  {kind:32s} {' | '.join(cells)}")
    ops = len(plain) + len(times) + len(w.kinds)
    return ops, wrong, metrics, LAYER_UNITS


def _import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for _ in range(3):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import opeq.cli"], env=env, check=True)
        runs.append(perf_counter() - start)
    return statistics.median(runs)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 1
        correct &= res["correct"] and proc.returncode == 0
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{key}": value for key, value in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_opeq()
    if args.workload == "all":
        return run_all(args)
    print("env: " + json.dumps(environment(args.seed)))
    run = traced if args.trace else end_to_end
    attempted, wrong, metrics, units = run(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload}: wrong_frac {wrong / attempted:.6g} ({wrong}/{attempted})")
    for key, value in metrics.items():
        print(f"  {key:32s} {value:14.6g} {units[key]}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
