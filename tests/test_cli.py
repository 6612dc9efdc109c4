"""Tests of the matrix file format and the command line interface."""

import argparse
import json

import numpy as np
import pytest

from opeq import (ParseError, ShapeError, ToleranceConfig, harness, load_matrix, load_matrix_meta,
                  save_matrix)
from opeq.cli import build_parser, make_truncated_shift, run_command, truncated_shift_demo
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
    for name, pair in (("string", ["x", 0.0]), ("null", [None, 0.0]),
                       ("triple", [1.0, 0.0, 0.0])):
        path = write(tmp_path / f"{name}.json", {"rows": 1, "cols": 1, "data": [pair]})
        with pytest.raises(ParseError, match=f"{name}.json"):
            load_matrix(path)


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
    assert report["residuals"]["residual"] <= 1e-12


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
    assert report["residuals"]["residual"] <= 1e-12


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


def test_missing_file_exit_1(capsys):
    assert run_command(["intersect", "--A", "/nonexistent.json", "--B", "/nonexistent.json"]) == 1


def test_orthogonal_hypothesis_violation_exit_1(tmp_path, capsys):
    files = save_instance(tmp_path, A=np.eye(2), B=np.eye(2), C=np.eye(2))
    code = run_command(["solve", "orthogonal", "--A", files["A"], "--B", files["B"],
                        "--C", files["C"]])
    assert code == 1


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
    assert report["norms"]["z"] > 1e-10
    code = run_command(["solve", "congruence-cz", "--A", files["A"], "--B", files["B"],
                        "--C", files["EYE"], "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "EmptyIntersection"


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
    for n in (0, -1):
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
    assert {"cond_cnbstar_in_a", "cond_cstar_nastar_in_b"} <= set(report["decisions"])
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
