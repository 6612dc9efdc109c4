"""Tests of the matrix file format and the command line interface."""

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opeq
from opeq import (HypothesisViolated, NotSolvable, ParseError, ShapeError, ToleranceConfig, harness,
                  load_matrix, load_matrix_meta, save_matrix, sylvester)
from opeq import matrixio
from opeq.matrixio import matrix_to_obj
from opeq.cli import (DEMO_MAX_N, build_parser, make_truncated_shift, run_command,
                      truncated_shift_demo)
from opeq.rng import Xoshiro256StarStar, complex_normal_matrix


# Malformed-file tests write each file in both layouts: json.dumps's spaced default, and
# the compact one save_matrix writes, which load_matrix_meta first tries to decode in slices.
LAYOUTS = {"spaced": json.dumps,
           "compact": lambda obj: json.dumps(obj, separators=(",", ":")) + "\n"}


def write(path, obj, layout="spaced"):
    path.write_text(LAYOUTS[layout](obj))
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
    for layout in LAYOUTS:
        path = write(tmp_path / "bad.json",
                     {"rows": 2, "cols": 2, "data": [[1.0, 0.0]] * 3}, layout)
        with pytest.raises(ShapeError, match=r"data length 3 != rows\*cols = 4"):
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
    for layout in LAYOUTS:
        path = write(tmp_path / "pair.json", {"rows": 1, "cols": 1, "data": [[1.0]]}, layout)
        with pytest.raises(ParseError, match=r"pair.json: data entries must be \[re, im\] pairs"):
            load_matrix(path)
        path = write(tmp_path / "rows.json", {"cols": 1, "data": [[1.0, 0.0]]}, layout)
        with pytest.raises(ParseError, match="rows.json: missing field 'rows'"):
            load_matrix(path)
        # float64 conversion alone would read true as 1.0 and "1.5" as 1.5.
        for name, pair in (("string", ["x", 0.0]), ("null", [None, 0.0]),
                           ("triple", [1.0, 0.0, 0.0]), ("boolean", [True, False]),
                           ("mixed-boolean", [1.0, False]), ("numeric-string", ["1.5", 0.0])):
            path = write(tmp_path / f"{name}.json", {"rows": 1, "cols": 1, "data": [pair]}, layout)
            with pytest.raises(ParseError, match=f"{name}.json"):
                load_matrix(path)


@pytest.mark.parametrize("fields", [{"rows": True, "cols": 1}, {"rows": 1, "cols": True},
                                    {"rows": True, "cols": True},
                                    {"rows": 1, "cols": 1, "block_k": True}])
def test_boolean_sizes_are_parse_errors(tmp_path, fields):
    for layout in LAYOUTS:
        path = write(tmp_path / "bool.json", {**fields, "data": [[1.0, 0.0]]}, layout)
        with pytest.raises(ParseError, match="bool.json: field '(rows|cols|block_k)' must be"):
            load_matrix(path)


def compact_text(rows, cols, data, block_k=None):
    """A file in save_matrix's layout, with ``data`` as raw text."""
    head = f'{{"rows":{rows},"cols":{cols}' + ("" if block_k is None else f',"block_k":{block_k}')
    return f'{head},"data":[{data}]}}\n'


@pytest.mark.parametrize("text, error, message", [
    (compact_text(1, 1, "[1e999,0.0]"), ParseError, "non-finite entry in data"),
    (compact_text(2, 3, ",".join(["[0.0,0.0]"] * 6), block_k=2), ShapeError,
     "block_k=2 does not divide 2x3"),
    (compact_text(100000, 100000, "[1.0,0.0]"), ShapeError,
     r"data length 1 != rows\*cols = 10000000000"),
    (compact_text(1, 1, "[1.0,0.0],"), ParseError, "invalid JSON at line 1"),
    (compact_text(1, 1, "[1.0,0.0]") + "{", ParseError,
     "invalid JSON at line 2: Extra data"),
])
def test_saved_layout_deviations_reach_the_json_error(tmp_path, text, error, message):
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(error, match=message):
        load_matrix(path)


@pytest.mark.parametrize("text, message", [
    (compact_text(1, 1, "[" * 100000 + "]" * 100000), "JSON nested too deeply"),
    ('{"rows": 1, "cols": 1, "data": ' + "[" * 100000 + "]" * 100000 + "}", "JSON nested too deeply"),
    (compact_text(1, 1, "[1.0,0.0]") + "\u00e9", "not ASCII text"),
], ids=["compact-deep", "spaced-deep", "non-ascii"])
def test_deep_or_non_ascii_files_are_parse_errors(tmp_path, capsys, text, message):
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=f"m.json: {message}"):
        load_matrix(path)
    assert run_command(["solve", "douglas", "--A", str(path), "--C", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {path}: {message}") and err.count("\n") == 1


def test_other_valid_layouts_load_bit_identically(tmp_path):
    m = complex_normal_matrix(Xoshiro256StarStar(3), 60, 80)
    m[0, 0] = -0.0
    save_matrix(tmp_path / "m.json", m, block_k=20)
    text = (tmp_path / "m.json").read_text()
    obj = json.loads(text)
    # Saved, this matrix is decoded in several slices; every other layout goes through json.loads.
    assert len(text) > 2 * matrixio.SLICE_CHARS
    for name, other in (("no-newline", text[:-1]), ("pretty", json.dumps(obj, indent=2)),
                        ("reordered", json.dumps(dict(reversed(obj.items()))))):
        (tmp_path / f"{name}.json").write_text(other)
        loaded, block_k = load_matrix_meta(tmp_path / f"{name}.json")
        assert block_k == 20
        assert loaded.tobytes() == m.tobytes(), name


@pytest.mark.parametrize("block_k", [None, 1])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (1, matrixio.CHUNK_ENTRIES - 1),
                                   (1, matrixio.CHUNK_ENTRIES), (1, matrixio.CHUNK_ENTRIES + 1),
                                   (1, 3 * matrixio.CHUNK_ENTRIES + 5)])
def test_save_matrix_writes_the_reference_bytes(tmp_path, shape, block_k):
    m = complex_normal_matrix(Xoshiro256StarStar(7), *shape)
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    m.flat[:4] = np.asarray(extremes[:m.size]) + 1j * np.asarray(extremes[::-1][:m.size])
    path = tmp_path / "m.json"
    digest = save_matrix(path, m, block_k)
    reference = (json.dumps(matrix_to_obj(m, block_k), separators=(",", ":")) + "\n").encode("ascii")
    assert path.read_bytes() == reference
    assert digest == hashlib.sha256(reference).hexdigest()
    # The saved layout is decoded in slices, without the whole-file fallback.
    assert matrixio._load_saved_layout(reference.decode("ascii")) is not None
    loaded, loaded_k = load_matrix_meta(path)
    assert loaded.tobytes() == m.tobytes() and loaded_k == block_k


@pytest.mark.parametrize("block_k, error, message", [
    (0, ParseError, "field 'block_k' must be a positive integer"),
    (-1, ParseError, "field 'block_k' must be a positive integer"),
    (1.5, ParseError, "field 'block_k' must be a positive integer"),
    (np.float64(3.0), ParseError, "field 'block_k' must be a positive integer"),
    (2, ShapeError, "block_k=2 does not divide 3x3"),
])
def test_save_matrix_refuses_a_block_k_its_loader_refuses(tmp_path, block_k, error, message):
    # The loader's error for the same header, raised before a byte is written.
    path = tmp_path / "m.json"
    with pytest.raises(error, match=f"m.json: {message}"):
        save_matrix(path, np.eye(3), block_k)
    assert list(tmp_path.iterdir()) == []


def test_save_matrix_writes_an_integer_like_block_k_as_an_int(tmp_path):
    path = tmp_path / "m.json"
    save_matrix(path, np.eye(4), np.int64(2))
    assert load_matrix_meta(path)[1] == 2 and '"block_k":2,' in path.read_text()


# The interpreter's own SHA-256 module: _sha2 on CPython 3.12 and later, _sha256 before.
BUILTIN_SHA256 = next((name for name in ("_sha2", "_sha256") if importlib.util.find_spec(name)), None)


@pytest.mark.skipif(BUILTIN_SHA256 is None, reason="the interpreter has no built-in SHA-256 module")
def test_cli_process_never_loads_openssl(tmp_path):
    """A gen process that writes files imports no _hashlib (hashlib's OpenSSL binding)."""
    assert matrixio.sha256 is importlib.import_module(BUILTIN_SHA256).sha256
    data = bytes(range(256)) * 1000
    assert matrixio.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    src = str(Path(opeq.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "opeq.cli", "gen",
                           "--family", "sylvester-solvable", "--seed", "1", "--shape", "2,2,2,2,1",
                           "--out", str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "C.json").exists()
    # -X importtime logs one line per import, the module name after the last "|".
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "opeq.matrixio" in imported
    assert "_hashlib" not in imported


@pytest.mark.parametrize("obj,message", [([1, 2], "expected a JSON object, got list"),
                                         ({"rows": 1, "cols": 1}, "missing or non-list field 'data'"),
                                         ({"rows": 1, "cols": 1, "data": 5}, "missing or non-list field 'data'")])
def test_non_matrix_objects_are_parse_errors(tmp_path, capsys, obj, message):
    for layout in LAYOUTS:
        path = write(tmp_path / "m.json", obj, layout)
        with pytest.raises(ParseError, match=f"m.json: {message}"):
            load_matrix(path)
        assert run_command(["solve", "douglas", "--A", path, "--C", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ParseError: {path}: {message}") and err.count("\n") == 1


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


SINGULAR, INJECTIVE, ZERO = [[1.0, 2.0], [2.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], np.zeros((2, 2))


@pytest.mark.parametrize("a, b, seed", [(SINGULAR, SINGULAR, 0), *((INJECTIVE, ZERO, s) for s in range(6))],
                         ids=["singular-0", *(f"injective-{s}" for s in range(6))])
def test_seeded_sylvester_solutions_at_c_zero_exit_0(tmp_path, capsys, a, b, seed):
    files = save_instance(tmp_path, A=a, B=b, C=ZERO)
    code = run_command(["solve", "sylvester", "--A", files["A"], "--B", files["B"], "--C", files["C"],
                        "--seed", str(seed), "--json"])
    assert json.loads(capsys.readouterr().out)["certificate"]["passed"]
    assert code == 0


def test_diagnose_sylvester_unsolvable_exit_2(tmp_path, capsys):
    files = save_instance(tmp_path, A=np.diag([1.0, 0.0]), B=np.diag([1.0, 0.0]),
                          C=np.diag([0.0, 1.0]))
    code = run_command(["diagnose", "sylvester", "--A", files["A"], "--B", files["B"],
                        "--C", files["C"], "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert not report["solvable"]
    # The particular pair is (0, 0): its backward error ||C|| / ||C|| is the decision's residual.
    assert report["decisions"]["cond_range_cnb"]["residual"] == pytest.approx(1.0)
    assert "residuals" not in report


def test_solve_douglas_on_a_subnormal_coefficient_is_certified(tmp_path, capsys):
    # The kept singular value 2e-317 divides without its reciprocal, which overflows: D = 0, certified.
    files = save_instance(tmp_path, A=np.full((2, 2), 1e-317), C=np.zeros((2, 2)))
    assert run_command(["solve", "douglas", "--A", files["A"], "--C", files["C"], "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["certificate"]["passed"] and report["certificate"]["residuals"]["lambda"] == 0.0


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
    assert report["certificate"]["residuals"]["lambda"] == pytest.approx(0.49)
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


# The operand flags of each equation tag, on files that need not exist: parsing fails first.
OPERAND_FLAGS = {tag: [arg for name in eq.operands for arg in (f"--{name}", f"{name}.json")]
                 for tag, eq in harness.EQUATIONS.items()}


@pytest.mark.parametrize("argv", [
    ["diagnose", "sylvester", "--A", "A.json", "--B", "B.json", "--C", "C.json", "--out", "d"],
    ["demo", "truncated-shift", "--out", "d"],
    ["gen", "--family", "sylvester-solvable", "--seed", "0", "--tol-rank", "0.5"],
    ["gen", "--family", "sylvester-solvable", "--seed", "0", "--tol-residual", "0.5"],
    ["solve", "douglas", "--A", "A.json", "--C", "C.json", "--B", "x"],
    *(["solve", tag, *OPERAND_FLAGS[tag], "--seed", "3"]
      for tag in ("douglas", "orthogonal", "congruence", "congruence-cz")),
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


@pytest.mark.parametrize("family", [f for f in harness.FAMILIES if f != "scaled-equality-pair"])
def test_gen_rejects_lam_where_the_family_reads_none(tmp_path, capsys, family):
    code = run_command(["gen", "--family", family, "--seed", "0", "--lam", "2", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (f"error: InfeasibleSpec: family {family} has no parameter lam; "
                                       "known: none\n")
    assert not any(tmp_path.iterdir())


def test_solve_douglas_overflowing_norm_keeps_the_exit_contract(tmp_path, capsys):
    # ||D||_2^2 = 1e400 overflows in the certificate: the majorization factor lambda fails closed,
    # its inf written as null and no numpy warning printed
    save_matrix(tmp_path / "A.json", np.array([[1e-100]], dtype=complex))
    save_matrix(tmp_path / "C.json", np.array([[1e100]], dtype=complex))
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
    assert cert["residuals"]["lambda"] is None
    assert cert["failures"] == ["lambda"]


@pytest.mark.parametrize("tag", ["douglas", "orthogonal"])
def test_solve_with_zero_rows_is_certified(tmp_path, capsys, tag):
    # m = 0: C is 0x2, inside the range of any coefficient
    files = save_instance(tmp_path, A=np.zeros((0, 2)), B=np.zeros((0, 3)), C=np.zeros((0, 2)))
    flags = [arg for name in harness.EQUATIONS[tag].operands for arg in (f"--{name}", files[name])]
    assert run_command(["solve", tag, *flags, "--json"]) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["passed"] and cert["residuals"]["range"] == 0.0


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
    # Both criteria hold, but the paper's pair is 0 and leaves all of C.
    files = save_instance(tmp_path, A=np.diag([1.0, 0.0]), C=[[0.0, 0.0], [1.0, 0.0]])
    code = run_command(["diagnose", "congruence", "--A", files["A"], "--B", files["A"],
                        "--C", files["C"], "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["status"] == "inconclusive"
    assert report["decisions"]["construction"] == {"holds": False, "rank_data": {"rank_a": 1}, "residual": 1.0}


def test_solve_congruence_where_the_paper_hypotheses_fail(tmp_path, capsys):
    # A = B = C = I breaks R(C* P_A) in N(B*), yet the paper's pair X = 0, Y = I is exact.
    eye = np.eye(3)
    files = save_instance(tmp_path, A=eye)
    code = run_command(["solve", "congruence", "--A", files["A"], "--B", files["A"], "--C", files["A"],
                        "--json", "--out", str(tmp_path / "out")])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["certificate"]["passed"]
    assert report["certificate"]["residuals"]["equation"] == 0.0
    assert not load_matrix(tmp_path / "out" / "X.json").any()
    np.testing.assert_array_equal(load_matrix(tmp_path / "out" / "Y.json"), eye)


def test_solve_orthogonal_and_cz_commands(tmp_path, capsys):
    files = save_instance(tmp_path, A=np.diag([1.0, 0.0]), B=np.diag([0.0, 1.0]), C=np.eye(2),
                          EYE=np.eye(2))
    code = run_command(["solve", "orthogonal", "--A", files["A"], "--B", files["B"],
                        "--C", files["C"], "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["certificate"]["residuals"]["lambda"] == pytest.approx(1.0)
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


@pytest.mark.parametrize("flag,value,message", [
    ("--ranks", "A3", "error: --ranks entries look like NAME=INT, got 'A3'"),
    ("--shape", "6,5,4", "error: InfeasibleSpec: shape must be (m, n, p, q, k), got (6, 5, 4)"),
    ("--shape", "6,5,4,3,1,1", "error: InfeasibleSpec: shape must be (m, n, p, q, k)"),
    ("--shape", "6,0,4,3,1", "error: InfeasibleSpec: all dimensions must be >= 1, got (6, 0, 4, 3, 1)"),
])
def test_gen_rejects_malformed_specs(tmp_path, capsys, flag, value, message):
    out = tmp_path / "gen"
    assert run_command(["gen", "--family", "sylvester-solvable", "--seed", "0", flag, value,
                        "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def test_gen_violating_congruence_needs_rank_a_above_the_shared_dimension(tmp_path, capsys):
    # Ranks 2 and 5 of m = 6 share a dimension of 2, leaving A no direction of its own.
    out = tmp_path / "gen"
    assert run_command(["gen", "--family", "congruence-criterion-violating", "--seed", "0",
                        "--ranks", "A=2,B=5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: InfeasibleSpec: the violating family needs "
                                       "rank A > shared dimension\n")
    assert not out.exists()


def test_solve_cz_with_small_operands_exits_0(tmp_path, capsys):
    # A and B times 1e-6 scale Z by 1e-12; the answer is as nonzero as the unscaled one.
    ops = harness.generate(harness.InstanceSpec(seed=0, family="equal-range-pair"))
    files = save_instance(tmp_path, A=1e-6 * ops["A"], B=1e-6 * ops["B"], C=ops["A"])
    code = run_command(["solve", "congruence-cz", "--A", files["A"], "--B", files["B"], "--C", files["C"],
                        "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["certificate"]["passed"]
    assert 0.0 < report["certificate"]["residuals"]["z_norm"] < 1e-10


def test_truncated_shift_matrix():
    t = make_truncated_shift(3)
    assert t.shape == (6, 6)
    np.testing.assert_allclose(np.diag(t).real, [0.0, 1.0, 0.0, 0.5, 0.0, 1.0 / 3.0])
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        make_truncated_shift(0)


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
    assert "construction" not in report["decisions"]


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


def equation_parsers(command):
    """The parser of each ``opeq <command> <tag>``, by tag."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == "equation").choices


def test_solve_choices_are_the_equation_table():
    parsers = equation_parsers("solve")
    assert set(parsers) == set(harness.EQUATIONS) == set(SOLVABLE_FAMILY)
    for tag, parser in parsers.items():
        eq = harness.EQUATIONS[tag]
        # The required flags are the operands; --seed exists where free parameters are declared.
        assert [a.option_strings for a in parser._actions if a.required] == [
            [f"--{name}"] for name in eq.operands]
        assert ("--seed" in parser._option_string_actions) == (eq.parameters is not None)
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
    assert keys <= {"intersection_dim", "decisions", "basis_in_range_c"}


def test_diagnose_choices_are_the_table_entries_with_a_diagnosis():
    parsers = equation_parsers("diagnose")
    with_diagnosis = [tag for tag, eq in harness.EQUATIONS.items() if eq.diagnose is not None]
    assert list(parsers) == with_diagnosis == ["sylvester", "congruence"]
    for tag, parser in parsers.items():
        assert [a.option_strings for a in parser._actions if a.required] == [
            [f"--{name}"] for name in harness.EQUATIONS[tag].operands]


@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_subcommand_help_shows_the_formula(capsys, command):
    assert run_command([command, "--help"]) == 0
    listing = capsys.readouterr().out
    for tag, parser in equation_parsers(command).items():
        formula = harness.EQUATIONS[tag].formula
        assert f"{tag} " in listing and formula in listing and parser.description == formula


def test_an_equation_entry_alone_makes_its_subcommand(tmp_path, monkeypatch, capsys):
    # Douglas's A X = C with the right-hand side named D, which nothing in the CLI names.
    douglas = harness.EQUATIONS["douglas"]
    toy = harness.Equation("A(m,p), D(m,n) -> X(p,n)", "A X = D",
                           lambda ops, tol, seed: douglas.solve({"A": ops["A"], "C": ops["D"]}, tol, seed),
                           douglas.verify)
    monkeypatch.setitem(harness.EQUATIONS, "toy", toy)
    parser = equation_parsers("solve")["toy"]
    assert set(parser._option_string_actions) == {"-h", "--help", "--json", "--tol-rank",
                                                  "--tol-residual", "--out", "--A", "--D"}
    assert "toy" not in equation_parsers("diagnose")
    files = save_instance(tmp_path, A=np.diag([1.0, 0.0]), D=np.diag([0.7, 0.0]))
    assert run_command(["solve", "toy", "--A", files["A"], "--D", files["D"], "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "solve toy" and report["certificate"]["passed"]


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
    # R(C* P_A) in N(B*) fails, but the paper's pair X = 0, Y = diag(1,0) is exact.
    "congruence-hypothesis-fails": (
        {"A": np.diag([1.0, 0.0]), "B": np.diag([1.0, 0.0]), "C": np.diag([1.0, 0.0])},
        "congruence", 0, "solvable", {"X": np.zeros((2, 2)), "Y": np.diag([1.0, 0.0])}),
    # Both criteria hold, but the paper's pair is 0 and the instance has no solution.
    "congruence-inconclusive": (
        {"A": np.diag([1.0, 0.0]), "B": np.diag([1.0, 0.0]), "C": np.array([[0.0, 0.0], [1.0, 0.0]])},
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


README = Path(__file__).parents[1] / "README.md"


def readme_block(heading, language):
    """The first ``language`` code block after ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    text = text[text.index(heading):]
    start = text.index(f"```{language}\n") + len(language) + 4
    return text[start:text.index("```", start)]


def test_readme_examples_run_as_written(tmp_path, monkeypatch, capsys):
    # Each opeq line of the command line block exits 0, or the code its "# exits N" comment names,
    # with an empty stderr; the library example prints what its comments say.
    monkeypatch.chdir(tmp_path)
    lines = [line for line in readme_block("## Command line", "sh").splitlines() if line.startswith("opeq ")]
    assert len(lines) == 7
    for line in lines:
        command, _, comment = line.partition("#")
        expected = re.match(r" exits (\d)", comment) if comment else None
        assert run_command(shlex.split(command)[1:]) == (int(expected[1]) if expected else 0), line
        assert capsys.readouterr().err == "", line
    exec(readme_block("## Library example", "python"), {})
    assert capsys.readouterr().out.splitlines() == ["True", "True 0.0"]
