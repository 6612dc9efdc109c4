"""The benchmark's own checks: repeatable counts, a stable verdict mix, and
agreement between BENCHMARK.json and what run.py prints.

Run from the root of a checkout (about a minute; the CLI checks dominate):

    python3 -m pytest -q perfbench/check_determinism.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

run._import_opeq()

import workloads  # noqa: E402
from opeq.exceptions import NotSolvable  # noqa: E402

COUNTS = ("calls", "svd_calls", "kernel.svd.work", "matrixio.bytes", "cli.report_bytes")
HELD_OUT_SEED = 7


def _counts(metrics):
    return {key: value for key, value in metrics.items() if key.endswith(COUNTS)}


@pytest.mark.parametrize("name", ["certify-k1", "cli-k16"])
def test_traced_counts_repeat_exactly(name):
    first = run.traced(name, seed=3, seconds=0.1)
    second = run.traced(name, seed=3, seconds=0.1)
    assert first[1] == second[1] == 0
    assert _counts(first[2]) == _counts(second[2])
    assert first[2]["verify.svd_calls"] > 0


def _certify_verdicts(seed):
    w = run.make("certify-k1", seed)
    w.setup()
    out = []
    for kind, eq, _ in w.kinds:
        ops = workloads.change_basis(eq, w.bank[kind], w.rng)
        try:
            out.append("passed" if workloads.solve_and_verify(eq, ops) else "failed")
        except NotSolvable:
            out.append("unsolvable")
    return out


def test_held_out_seed_gives_the_same_verdict_mix():
    expected = ["passed" if solvable else "unsolvable" for _, _, solvable in workloads.CERTIFY_KINDS]
    assert _certify_verdicts(3) == _certify_verdicts(HELD_OUT_SEED) == expected


def test_held_out_seed_cli_round_trips_are_correct():
    w = run.make("cli-k16", HELD_OUT_SEED, in_process=True)
    try:
        w.setup()
        w.keep = True
        results = [w.op(kind, eq, solvable)[1] for kind, eq, solvable in w.kinds]
        assert w.post_check() == 0
    finally:
        w.close()
    assert all(results)


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
