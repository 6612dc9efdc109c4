"""Tests of the matrix file format and the command line interface."""

import argparse
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from opeq import (HypothesisViolated, NotSolvable, ParseError, ShapeError, ToleranceConfig, harness,
                  load_matrix, load_matrix_meta, save_matrix, sylvester)
from opeq.matrixio import matrix_to_obj
from opeq.cli import (DEMO_MAX_N, build_parser, make_truncated_shift, run_command,
                      truncated_shift_demo)
from opeq.rng import Xoshiro256StarStar, complex_normal_matrix


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_roundtrip_is_bit_exact(tmp_path):
    m = complex_normal_matrix(Xoshiro256StarStar(5), 4, 3)
    path = tmp_path / "m.json"
    save_matrix(path, m)
    np.testing.assert_array_equal(load_matrix(path), m)


def test_identity_file(tmp_path):
    path = write(tmp_path / "i.json",
                 {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]})
    np.testing.assert_array_equal(load_matrix(path), np.eye(2))


def test_complex_entry_mapping(tmp_path):
    path = write(tmp_path / "c.json",
                 {"rows": 1, "cols": 2, "data": [[0.0, 0.0], [1.5, -2.0]]})
    m = load_matrix(path)
    assert m[0, 1] == 1.5 - 2.0j


def test_shape_error_on_wrong_data_length(tmp_path):
    path = write(tmp_path / "bad.json",
                 {"rows": 2, "cols": 2, "data": [[1.0, 0.0]] * 3})
    with pytest.raises(ShapeError):
        load_matrix(path)


def test_block_k_must_divide(tmp_path):
    path = write(tmp_path / "blk.json",
                 {"rows": 4, "cols": 4, "block_k": 3, "data": [[0.0, 0.0]] * 16})
    with pytest.raises(ShapeError):
        load_matrix(path)
    path = write(tmp_path / "blk2.json",
                 {"rows": 4, "cols": 4, "block_k": 2, "data": [[0.0, 0.0]] * 16})
    assert load_matrix_meta(path)[1] == 2
    assert run_command(["gen", "--family", "equal-range-pair", "--seed", "1",
                        "--shape", "6,5,4,3,2", "--out", str(tmp_path / "gen")]) == 0
    m, block_k = load_matrix_meta(tmp_path / "gen" / "A.json")
    assert m.shape == (12, 10) and block_k == 2


def test_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_matrix(path)
    path = write(tmp_path / "pair.json", {"rows": 1, "cols": 1, "data": [[1.0]]})
    with pytest.raises(ParseError):
        load_matrix(path)
    path = write(tmp_path / "rows.json", {"cols": 1, "data": [[1.0, 0.0]]})
    with pytest.raises(ParseError):
        load_matrix(path)
    # float64 conversion alone would read true as 1.0 and "1.5" as 1.5.
    for name, pair in (("string", ["x", 0.0]), ("null", [None, 0.0]),
                       ("triple", [1.0, 0.0, 0.0]), ("boolean", [True, False]),
                       ("mixed-boolean", [1.0, False]), ("numeric-string", ["1.5", 0.0])):
        path = write(tmp_path / f"{name}.json", {"rows": 1, "cols": 1, "data": [pair]})
        with pytest.raises(ParseError, match=f"{name}.json"):
            load_matrix(path)



@pytest.mark.parametrize("fields", [{"rows": True, "cols": 1}, {"rows": 1, "cols": True},
                                    {"rows": True, "cols": True},
                                    {"rows": 1, "cols": 1, "block_k": True}])
def test_boolean_sizes_are_parse_errors(tmp_path, fields):
    path = write(tmp_path / "bool.json", {**fields, "data": [[1.0, 0.0]]})
    with pytest.raises(ParseError, match="bool.json"):
        load_matrix(path)


def test_boolean_size_file_exit_1(tmp_path, capsys):
    a = write(tmp_path / "A.json", {"rows": True, "cols": True, "data": [[1.0, 0.0]]})
    c = write(tmp_path / "C.json", {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]})
    assert run_command(["solve", "douglas", "--A", a, "--C", c]) == 1
    assert capsys.readouterr().err.startswith("error: ParseError: ")

def save_instance(tmp_path, **mats):
    paths = {}
    for name, m in mats.items():
        path = tmp_path / f"{name}.json"
        save_matrix(path, np.asarray(m, dtype=complex))
        paths[name] = str(path)
    return paths


def test_solve_sylvester_exit_codes(tmp_path, capsys):
    files = save_instance(tmp_path, A=np.diag([1.0, 0.0]), B=np.diag([0.0, 1.0]), C=np.eye(2))
    code = run_command(["solve", "sylvester", "--A", files["A"], "--B", files["B"],
                        "--C", files["C"], "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["certificate"]["passed"]
    assert report["certificate"]["residuals"]["equation"] <= 1e-12


def test_diagnose_sylvester_unsolvable_exit_2(tmp_path, capsys):
    files = save_instance(tmp_path, A=np.diag([1.0, 0.0]), B=np.diag([1.0, 0.0]),
                          C=np.diag([0.0, 1.0]))
    code = run_command(["diagnose", "sylvester", "--A", files["A"], "--B", files["B"],
                        "--C", files["C"], "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert not report["solvable"]
    assert report["residuals"]["classical_residual"] == pytest.approx(1.0)


def test_solve_unsolvable_prints_certificate(tmp_path, capsys):
    files = save_instance(tmp_path, A=np.diag([1.0, 0.0]), B=np.diag([1.0, 0.0]),
                          C=np.diag([0.0, 1.0]))
    code = run_command(["solve", "sylvester", "--A", files["A"], "--B", files["B"],
                        "--C", files["C"], "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["status"] == "unsolvable"
    assert "cond_range_cnb" in report["decisions"]


def test_solve_douglas_and_range_not_contained(tmp_path, capsys):
    files = save_instance(tmp_path, A=np.diag([1.0, 0.0]), C=np.diag([0.7, 0.0]),
                          BADC=[[0.0, 0.0], [1.0, 0.0]])
    out_dir = tmp_path / "out"
    code = run_command(["solve", "douglas", "--A", files["A"], "--C", files["C"],
                        "--json", "--out", str(out_dir)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["lambda_factor"] == pytest.approx(0.49)
    np.testing.assert_allclose(load_matrix(out_dir / "X.json"), np.diag([0.7, 0.0]))
    assert run_command(["solve", "douglas", "--A", files["A"], "--C", files["C"]]) == 0
    assert "\nsolution:\n  X: matrix 2x2\n" in capsys.readouterr().out
    code = run_command(["solve", "douglas", "--A", files["A"], "--C", files["BADC"], "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["error"] == "RangeNotContained"


def test_solve_congruence_worked(tmp_path, capsys):
    files = save_instance(tmp_path, A=np.diag([1.0, 0.0]), B=np.eye(2),
                          C=[[0.0, 0.0], [1.0, 0.0]])
    code = run_command(["solve", "congruence", "--A", files["A"], "--B", files["B"],
                        "--C", files["C"], "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["certificate"]["residuals"]["equation"] <= 1e-12


def test_intersect_identity(tmp_path, capsys):
    files = save_instance(tmp_path, A=np.eye(3), B=np.eye(3))
    code = run_command(["intersect", "--A", files["A"], "--B", files["B"], "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["dim"] == 3


def test_usage_error_exit_1(capsys):
    assert run_command(["solve", "riccati", "--A", "x", "--C", "y"]) == 1
    assert run_command(["solve", "sylvester", "--A", "x", "--C", "y"]) == 1
    assert run_command([]) == 1


@pytest.mark.parametrize("argv", [
    ["diagnose", "sylvester", "--A", "A.json", "--B", "B.json", "--C", "C.json", "--out", "d"],
    ["demo", "truncated-shift", "--out", "d"],
    ["gen", "--family", "sylvester-solvable", "--seed", "0", "--tol-rank", "0.5"],
    ["gen", "--family", "sylvester-solvable", "--seed", "0", "--tol-residual", "0.5"],
])
def test_unread_flags_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    # Each subcommand takes only the flags it reads; the rest exit 1 unread.
    monkeypatch.chdir(tmp_path)
    assert run_command(argv) == 1
    assert capsys.readouterr().err.startswith("error: unrecognized arguments: --")
    assert not any(tmp_path.iterdir())


def test_missing_file_exit_1(capsys):
    assert run_command(["intersect", "--A", "/nonexistent.json", "--B", "/nonexistent.json"]) == 1


def test_unwritable_out_exit_1(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("")
    code = run_command(["gen", "--family", "sylvester-solvable", "--seed", "0",
                        "--out", str(blocker)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: FileExistsError: ")
    files = save_instance(tmp_path, A=np.eye(2), C=np.eye(2))
    code = run_command(["solve", "douglas", "--A", files["A"], "--C", files["C"],
                        "--out", str(blocker / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: NotADirectoryError: ")



def test_out_of_memory_exit_1(monkeypatch, capsys):
    def exhausted(spec):
        raise MemoryError("Unable to allocate 21.0 TiB")

    # Stands in for an oversized --shape; nothing large is allocated.
    monkeypatch.setattr(harness, "generate", exhausted)
    code = run_command(["gen", "--family", "sylvester-solvable", "--seed", "0",
                        "--shape", "6,5,4,3,200000"])
    assert code == 1
    assert capsys.readouterr().err == "error: MemoryError: Unable to allocate 21.0 TiB\n"


def test_failed_certificate_exits_1_not_2(tmp_path, capsys, monkeypatch):
    # The solve adapter looks its solver up at call time, so a wrong answer
    # reaches verify: the report is printed and the command fails with exit 1.
    real = sylvester.solve_ax_yb

    def wrong(*args, **kwargs):
        sol = real(*args, **kwargs)
        return dataclasses.replace(sol, x=sol.x + 1.0)

    monkeypatch.setattr(sylvester, "solve_ax_yb", wrong)
    files = save_instance(tmp_path, A=np.diag([1.0, 0.0]), B=np.diag([0.0, 1.0]), C=np.eye(2))
    code = run_command(["solve", "sylvester", "--A", files["A"], "--B", files["B"],
                        "--C", files["C"], "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: NotASolution: ")
    report = json.loads(captured.out)
    assert report["certificate"]["passed"] is False
    assert report["certificate"]["failures"] == ["equation"]


def test_gen_is_byte_identical_across_runs(tmp_path, capsys):
    for sub in ("one", "two"):
        code = run_command(["gen", "--family", "sylvester-solvable", "--seed", "42",
                            "--out", str(tmp_path / sub), "--json"])
        assert code == 0
        capsys.readouterr()
    for name in ("A", "B", "C", "X0", "Y0"):
        first = (tmp_path / "one" / f"{name}.json").read_bytes()
        second = (tmp_path / "two" / f"{name}.json").read_bytes()
        assert first == second


def test_gen_report_lists_files(tmp_path, capsys):
    code = run_command(["gen", "--family", "scaled-equality-pair", "--seed", "3",
                        "--lam", "4.0", "--out", str(tmp_path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(report["files"]) == {"A", "C"}
    assert report["params"]["lam"] == 4.0
    a = load_matrix(tmp_path / "A.json")
    c = load_matrix(tmp_path / "C.json")
    defect = np.linalg.norm(c @ c.conj().T - 4.0 * a @ a.conj().T)
    assert defect <= 1e-12 * np.linalg.norm(a @ a.conj().T) * 4.0


def test_gen_rejects_infinite_lambda_before_writing(tmp_path, capsys):
    code = run_command(["gen", "--family", "scaled-equality-pair", "--seed", "0",
                        "--lam", "inf", "--out", str(tmp_path)])
    assert code == 1
    assert "InfeasibleSpec" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_solve_douglas_overflowing_norm_keeps_the_exit_contract(tmp_path, capsys):
    # ||A||_2^2 = 1e600 overflows in the certificate, which used to raise OverflowError; the
    # Gram combination of the majorization gap overflows too, so that check fails closed,
    # its NaN written as null and no numpy warning printed
    big = 1e300 * np.eye(2)
    save_matrix(tmp_path / "A.json", big)
    save_matrix(tmp_path / "C.json", big)
    code = run_command(["solve", "douglas", "--A", str(tmp_path / "A.json"),
                        "--C", str(tmp_path / "C.json"), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: NotASolution: ")
    assert len(captured.err.splitlines()) == 1

    def strict(token):
        raise ValueError(f"non-standard JSON constant {token}")

    cert = json.loads(captured.out, parse_constant=strict)["certificate"]
    assert cert["residuals"]["equation"] == 0.0
    assert cert["residuals"]["majorization_gap"] is None
    assert cert["failures"] == ["majorization_gap"]


@pytest.mark.parametrize("tag", ["douglas", "orthogonal"])
def test_solve_with_zero_rows_is_certified(tmp_path, capsys, tag):
    # m = 0: the Gram matrix of the majorization gap is 0x0
    files = save_instance(tmp_path, A=np.zeros((0, 2)), B=np.zeros((0, 3)), C=np.zeros((0, 2)))
    flags = [arg for name in harness.EQUATIONS[tag].operands for arg in (f"--{name}", files[name])]
    assert run_command(["solve", tag, *flags, "--json"]) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["passed"] and cert["residuals"]["majorization_gap"] == 0.0


def test_json_report_is_stable(tmp_path, capsys):
    files = save_instance(tmp_path, A=np.diag([1.0, 0.0]), B=np.diag([0.0, 1.0]), C=np.eye(2))
    argv = ["diagnose", "sylvester", "--A", files["A"], "--B", files["B"],
            "--C", files["C"], "--json"]
    run_command(argv)
    first = capsys.readouterr().out
    run_command(argv)
    second = capsys.readouterr().out
    assert first == second


def test_diagnose_congruence_inconclusive_status(tmp_path, capsys):
    files = save_instance(tmp_path, A=np.diag([1.0, 0.0]))
    code = run_command(["diagnose", "congruence", "--A", files["A"], "--B", files["A"],
                        "--C", files["A"], "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["status"] == "inconclusive"


def test_solve_orthogonal_and_cz_commands(tmp_path, capsys):
    files = save_instance(tmp_path, A=np.diag([1.0, 0.0]), B=np.diag([0.0, 1.0]), C=np.eye(2),
                          EYE=np.eye(2))
    code = run_command(["solve", "orthogonal", "--A", files["A"], "--B", files["B"],
                        "--C", files["C"], "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["lambda_factor"] == pytest.approx(1.0)
    code = run_command(["solve", "congruence-cz", "--A", files["A"], "--B", files["A"],
                        "--C", files["EYE"], "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["intersection_dim"] == 1
    assert report["certificate"]["residuals"]["z_norm"] > 1e-10
    # An empty R(A) ^ R(B) violates a hypothesis of the construction, which is
    # sufficient, not necessary: X = Y = Z = I solves this instance.
    code = run_command(["solve", "congruence-cz", "--A", files["A"], "--B", files["B"],
                        "--C", files["EYE"], "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: EmptyIntersection: ") and captured.out == ""
    ops = {name: load_matrix(files[key]) for name, key in (("A", "A"), ("B", "B"), ("C", "EYE"))}
    eye = np.eye(2, dtype=complex)
    assert harness.verify("congruence-cz", ops, {"X": eye, "Y": eye, "Z": eye}).passed


def test_gen_ranks_flag(tmp_path, capsys):
    code = run_command(["gen", "--family", "sylvester-solvable", "--seed", "5",
                        "--shape", "6,6,5,5,1", "--ranks", "A=2,B=2",
                        "--out", str(tmp_path), "--json"])
    assert code == 0
    capsys.readouterr()
    from opeq import numerical_rank
    assert numerical_rank(load_matrix(tmp_path / "A.json")) == 2
    assert numerical_rank(load_matrix(tmp_path / "B.json")) == 2
    assert run_command(["gen", "--family", "sylvester-solvable", "--seed", "5",
                        "--ranks", "A=notanint", "--out", str(tmp_path)]) == 1
    assert run_command(["gen", "--family", "sylvester-solvable", "--seed", "5",
                        "--ranks", "A=99", "--out", str(tmp_path)]) == 1
    assert run_command(["gen", "--family", "sylvester-solvable", "--seed", "5",
                        "--ranks", "a=2,Q=1", "--out", str(tmp_path)]) == 1
    assert run_command(["gen", "--family", "sylvester-solvable", "--seed", "5",
                        "--ranks", "A=3,A=2", "--out", str(tmp_path)]) == 1
    assert run_command(["gen", "--family", "orthogonal-pair", "--seed", "5",
                        "--ranks", "X0=2", "--out", str(tmp_path)]) == 1


def test_truncated_shift_matrix():
    t = make_truncated_shift(3)
    assert t.shape == (6, 6)
    np.testing.assert_allclose(np.diag(t).real, [0.0, 1.0, 0.0, 0.5, 0.0, 1.0 / 3.0])


def test_truncated_shift_demo_values():
    report = truncated_shift_demo(3)
    assert report["numerical_rank"] == 3
    assert report["min_nonzero_singular_value"] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert report["pinv_norm"] == pytest.approx(3.0, rel=1e-12)
    assert [row["n"] for row in report["rows"]] == [1, 2, 3]
    assert report["rows"][0]["min_nonzero_singular_value"] == pytest.approx(1.0)


def test_demo_command_text_output(capsys):
    assert run_command(["demo", "truncated-shift", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "min_nonzero_singular_value" in out


def test_demo_rejects_n_below_one(capsys):
    for n in (0, -1, DEMO_MAX_N + 1):
        with pytest.raises(ValueError):
            truncated_shift_demo(n)
        assert run_command(["demo", "truncated-shift", "--n", str(n)]) == 1
        assert capsys.readouterr().err.startswith("error: ValueError:")


def gen_instance(tmp_path, family):
    out = tmp_path / family
    assert run_command(["gen", "--family", family, "--seed", "0", "--out", str(out), "--json"]) == 0
    return [arg for name in "ABC" for arg in (f"--{name}", str(out / f"{name}.json"))]


def test_solve_congruence_unsolvable_reports_diagnosis(tmp_path, capsys):
    files = gen_instance(tmp_path, "congruence-criterion-violating")
    capsys.readouterr()
    code = run_command(["solve", "congruence", *files, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["status"] == "unsolvable"
    assert {"cond_cnbstar_in_a", "cond_cnastar_in_b"} <= set(report["decisions"])
    assert not report["decisions"]["cond_cnbstar_in_a"]["holds"]
    assert report["hypotheses_hold"] and report["decisions"]["hyp_c_in_b"]["holds"]


def test_solve_sylvester_seed_draws_a_homogeneous_part(tmp_path, capsys):
    files = gen_instance(tmp_path, "sylvester-solvable")
    capsys.readouterr()
    xs = []
    for seed in ([], ["--seed", "7"]):
        out = tmp_path / f"sol{len(seed)}"
        code = run_command(["solve", "sylvester", *files, *seed, "--json", "--out", str(out)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["certificate"]["passed"]
        xs.append(load_matrix(out / "X.json"))
    assert np.linalg.norm(xs[0] - xs[1]) > 1e-6


# equation tag -> generated family with a solvable instance of it.
SOLVABLE_FAMILY = {
    "douglas": "scaled-equality-pair",
    "sylvester": "sylvester-solvable",
    "orthogonal": "orthogonal-pair",
    "congruence": "congruence-solvable",
    "congruence-cz": "equal-range-pair",
}


def test_solve_choices_are_the_equation_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    equation = next(a for a in sub.choices["solve"]._actions if a.dest == "equation")
    assert set(equation.choices) == set(harness.EQUATIONS) == set(SOLVABLE_FAMILY)
    for tag in equation.choices:
        ops = harness.generate(harness.InstanceSpec(seed=2, family=SOLVABLE_FAMILY[tag]))
        ops.setdefault("C", ops["A"])  # equal-range-pair: R(A) ^ R(B) = R(A) = R(C)
        solution, _ = harness.EQUATIONS[tag].solve(ops, ToleranceConfig(), None)
        assert harness.verify(tag, ops, solution).passed


@pytest.mark.parametrize("tag", list(harness.EQUATIONS))
def test_solve_report_fields_leave_measurement_to_verify(tag):
    ops = harness.generate(harness.InstanceSpec(seed=2, family=SOLVABLE_FAMILY[tag]))
    ops.setdefault("C", ops["A"])
    solution, fields = harness.EQUATIONS[tag].solve(ops, ToleranceConfig(), None)
    measured = set(harness.verify(tag, ops, solution).residuals)
    keys = set(fields).union(*(v for v in fields.values() if isinstance(v, dict)))
    assert not keys & measured
    assert "norms" not in fields
    # A copy of a certificate number can hide under another name (say "residual"
    # for "equation"), so pin the fields to what the solvers construct.
    assert keys <= {"lambda_factor", "intersection_dim", "decisions", "basis_in_range_c"}


def test_diagnose_choices_are_the_table_entries_with_a_diagnosis():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    equation = next(a for a in sub.choices["diagnose"]._actions if a.dest == "equation")
    with_diagnosis = [tag for tag, eq in harness.EQUATIONS.items() if eq.diagnose is not None]
    assert equation.choices == with_diagnosis == ["sylvester", "congruence"]


def assert_file_entry(entry, m):
    """A report entry that refers to a written matrix file instead of inlining it."""
    assert set(entry) == {"path", "rows", "cols", "fro", "sha256"}
    with open(entry["path"], "rb") as fh:
        assert entry["sha256"] == hashlib.sha256(fh.read()).hexdigest()
    assert (entry["rows"], entry["cols"]) == m.shape
    assert entry["fro"] == pytest.approx(np.linalg.norm(m), rel=1e-14)


@pytest.mark.parametrize("tag", list(SOLVABLE_FAMILY))
def test_solve_out_reports_files_not_data(tmp_path, capsys, tag):
    flags = gen_instance(tmp_path, SOLVABLE_FAMILY[tag])
    capsys.readouterr()
    files = dict(zip(flags[::2], flags[1::2]))
    if tag == "douglas":
        del files["--B"]
    if tag == "congruence-cz":
        files["--C"] = files["--A"]
    argv = ["solve", tag, *(arg for item in files.items() for arg in item)]
    assert run_command([*argv, "--json"]) == 0
    inline = json.loads(capsys.readouterr().out)
    out = tmp_path / "sol"
    assert run_command([*argv, "--json", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    unknowns = harness.EQUATIONS[tag].unknowns
    assert set(report["solution"]) == set(unknowns) == set(report["files"])
    sol = {}
    for name in unknowns:
        sol[name] = load_matrix(report["files"][name])
        assert_file_entry(report["solution"][name], sol[name])
        # Without --out the matrix is inline, as matrix_to_obj writes it.
        assert inline["solution"][name] == matrix_to_obj(sol[name])
    assert inline["files"] == {}
    assert {k: v for k, v in report.items() if k not in ("solution", "files")} == {
        k: v for k, v in inline.items() if k not in ("solution", "files")}
    ops = {flag[2:]: load_matrix(path) for flag, path in files.items()}
    assert harness.verify(tag, ops, sol).passed


def test_solve_out_text_names_the_file(tmp_path, capsys):
    files = save_instance(tmp_path, A=np.diag([1.0, 0.0]), C=np.diag([0.7, 0.0]))
    out = tmp_path / "out"
    assert run_command(["solve", "douglas", "--A", files["A"], "--C", files["C"],
                        "--out", str(out)]) == 0
    assert f"\nsolution:\n  X: matrix 2x2 in {out / 'X.json'}\n" in capsys.readouterr().out


def test_intersect_out_reports_basis_file(tmp_path, capsys):
    files = save_instance(tmp_path, A=np.diag([1.0, 1.0, 0.0]), B=np.diag([0.0, 1.0, 1.0]))
    argv = ["intersect", "--A", files["A"], "--B", files["B"], "--json"]
    assert run_command(argv) == 0
    inline = json.loads(capsys.readouterr().out)
    assert run_command([*argv, "--out", str(tmp_path / "out")]) == 0
    report = json.loads(capsys.readouterr().out)
    basis = load_matrix(report["files"]["basis"])
    assert_file_entry(report["basis"], basis)
    assert inline["basis"] == matrix_to_obj(basis) and inline["files"] == {}
    assert set(report["files"]) == {"basis", "X", "Z", "Y"}
    assert report["dim"] == inline["dim"] == 1


# (operands or generated family, equation, solve exit code, congruence status,
#  a solution verify passes on an instance whose hypotheses fail)
CONTRACT = {
    "congruence-criteria-fail": (
        {"A": np.diag([1.0, 0.0]), "B": np.diag([1.0, 0.0]), "C": np.diag([0.0, 1.0])},
        "congruence", 2, "unsolvable", None),
    "congruence-hypothesis-fails": (
        {"A": np.diag([1.0, 0.0]), "B": np.diag([1.0, 0.0]), "C": np.diag([1.0, 0.0])},
        "congruence", 1, "inconclusive", None),
    "congruence-solvable": ("congruence-solvable", "congruence", 0, "solvable", None),
    "congruence-criterion-violating": (
        "congruence-criterion-violating", "congruence", 2, "unsolvable", None),
    "cz-empty-intersection": (
        {"A": np.diag([1.0, 0.0]), "B": np.diag([0.0, 1.0]), "C": np.eye(2)},
        "congruence-cz", 1, None, {"X": np.eye(2), "Y": np.eye(2), "Z": np.eye(2)}),
    "cz-intersection-outside-range-c": (
        {"A": np.diag([1.0, 0.0]), "B": np.diag([1.0, 0.0]), "C": np.diag([0.0, 1.0])},
        "congruence-cz", 1, None,
        {"X": np.diag([0.0, 1.0]), "Y": np.diag([0.0, 1.0]), "Z": np.diag([1.0, 0.0])}),
    "sylvester-unsolvable": ("sylvester-unsolvable", "sylvester", 2, None, None),
    # A* B != 0 is no refusal: R(C) outside R(A) + R(B) alone decides the exit code.
    "orthogonal-both-fail": (
        {"A": np.diag([1.0, 0.0]), "B": np.diag([1.0, 0.0]), "C": np.diag([0.0, 1.0])},
        "orthogonal", 2, None, None),
    "orthogonal-overlapping-ranges": (
        {"A": np.eye(2), "B": np.eye(2), "C": np.eye(2)},
        "orthogonal", 0, None, {"X": np.eye(2) / 2, "Y": np.eye(2) / 2}),
}


@pytest.mark.parametrize("case", list(CONTRACT))
def test_exit_2_means_not_solvable(tmp_path, capsys, case):
    source, tag, want_code, want_status, witness = CONTRACT[case]
    if isinstance(source, str):
        source = harness.generate(harness.InstanceSpec(seed=0, family=source))
    eq = harness.EQUATIONS[tag]
    ops = {name: np.asarray(source[name], dtype=complex) for name in eq.operands}
    files = save_instance(tmp_path, **ops)
    flags = [arg for name in eq.operands for arg in (f"--{name}", files[name])]

    try:
        eq.solve(ops, ToleranceConfig(), None)
        raised = None
    except (NotSolvable, HypothesisViolated) as exc:
        raised = exc
    code = run_command(["solve", tag, *flags, "--json"])
    captured = capsys.readouterr()
    assert code == want_code
    assert (code == 2) == isinstance(raised, NotSolvable)
    assert (code == 1) == isinstance(raised, HypothesisViolated)
    if code == 2:
        assert json.loads(captured.out)["status"] == "unsolvable"
    if code == 1:
        assert captured.err.startswith(f"error: {type(raised).__name__}: ")
    if witness is not None:
        assert harness.verify(tag, ops, witness).passed

    if eq.diagnose is not None:
        code = run_command(["diagnose", tag, *flags, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report.get("status") == want_status
        assert code == (0 if report["solvable"] else 2)
    if tag == "congruence":
        expected = {"unsolvable": NotSolvable, "inconclusive": HypothesisViolated,
                    "solvable": type(None)}
        assert type(raised) is expected[want_status]
