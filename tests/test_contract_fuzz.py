"""Contract fuzz over every equation of the table, at ordinary magnitudes.

Each draw takes one :data:`~opeq.harness.EQUATIONS` entry, gives each
dimension letter of its shape signature a size in 0..4 and each operand a
random rank, then makes one of three kinds of instance: C = 0; C the
left-hand side of the formula at random unknowns (where the right-hand
side is C alone; elsewhere every operand gets full rank instead); or the
random C as drawn.  Whatever happens, only an :class:`OpeqError` may
escape, no ``RuntimeWarning`` may be raised, and every answer ``solve``
returns must pass :func:`verify`.

The command-line arm mutates the bytes of one operand file, as
:func:`~opeq.matrixio.save_matrix` writes it, in ``json.dumps``'s spaced
layout or nested with its keys reordered, and runs ``opeq solve``,
``opeq diagnose`` or ``opeq intersect`` on it: every run must exit 0 or 2
with nothing on stderr, or 1 with exactly one ``error:`` line.
"""

import json
import warnings
from collections import Counter
from functools import reduce

import numpy as np

from opeq import DEFAULT_TOL, OpeqError, save_matrix, verify
from opeq.cli import run_command
from opeq.harness import EQUATIONS, random_unitary, ranked_matrix
from opeq.kernel import parse_signature
from opeq.matrixio import matrix_to_obj
from opeq.rng import Xoshiro256StarStar

DRAWS = 1500
MAX_DIM = 4


def draw(rng):
    """(tag, operators, seed) of one random instance."""
    tags = list(EQUATIONS)
    tag = tags[rng.next_u64() % len(tags)]
    eq = EQUATIONS[tag]
    operands, unknowns = parse_signature(eq.signature)
    sizes = {}

    def matrix(rows, cols, full=False):
        m, n = (sizes.setdefault(dim, rng.next_u64() % (MAX_DIM + 1)) for dim in (rows, cols))
        return ranked_matrix(rng, m, n, min(m, n) if full else rng.next_u64() % (min(m, n) + 1))

    form = rng.next_u64() % 3
    plant = [factors for sign, factors in eq.terms if sign < 0] == [(("C", False),)]
    ops = {name: matrix(rows, cols, full=form == 1 and not plant) for name, rows, cols in operands}
    if form == 0:
        ops["C"] = np.zeros_like(ops["C"])
    elif form == 1 and plant:
        mats = {**ops, **{name: matrix(rows, cols) for name, rows, cols in unknowns}}
        ops["C"] = sum(reduce(np.matmul, (mats[n].conj().T if adjoint else mats[n] for n, adjoint in factors))
                       for sign, factors in eq.terms if sign > 0)
    seed = rng.next_u64() % 1000 if eq.parameters is not None else None
    return tag, ops, seed


def test_every_answer_solve_returns_is_certified():
    rng = Xoshiro256StarStar(20261019)
    certified, refused, failed = Counter(), Counter(), []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for i in range(DRAWS):
            tag, ops, seed = draw(rng)
            try:
                solution, _ = EQUATIONS[tag].solve(ops, DEFAULT_TOL, seed)
            except OpeqError:
                refused[tag] += 1
                continue
            cert = verify(tag, ops, solution)
            if cert.passed:
                certified[tag] += 1
            else:
                failed.append((i, tag, cert.failures, cert.residuals))
    assert not failed, failed[:5]
    # The fuzz exercises every equation's certificate, not only its refusals.
    assert all(certified[tag] >= 10 for tag in EQUATIONS), (certified, refused)


CLI_RUNS = 300
# Bytes a mutation inserts or writes over: digits, JSON punctuation, the non-JSON number
# spellings Python's json module accepts, JSON null, a NUL and a byte that is not ASCII.
TOKENS = [bytes([c]) for c in b'0123456789[]{},:"-.e+'] + [b"NaN", b"Infinity", b"null", b"\x00", b"\xff"]


def mutate(raw: bytes, rng) -> bytes:
    """Insert a token, delete or overwrite 1 to 3 bytes with one, or truncate, at a random offset."""
    kind = rng.next_u64() % 4
    at = rng.next_u64() % len(raw)
    token = TOKENS[rng.next_u64() % len(TOKENS)]
    span = 1 + rng.next_u64() % 3
    return (raw[:at] + token + raw[at:], raw[:at] + raw[at + span:],
            raw[:at] + token + raw[at + span:], raw[:at])[kind]


def test_mutated_matrix_files_keep_the_cli_exit_contract(tmp_path, capsys):
    rng = Xoshiro256StarStar(20261020)
    operands = {"A": ranked_matrix(rng, 3, 2, 2), "B": ranked_matrix(rng, 2, 3, 1)}
    operands["C"] = operands["A"] @ ranked_matrix(rng, 2, 3, 2)
    files = {}
    for name, m in operands.items():
        files[name] = tmp_path / f"{name}.json"
        save_matrix(files[name], m)
    mutated = tmp_path / "mutated.json"
    codes, broken = Counter(), []
    for run in range(CLI_RUNS):
        tag = ("douglas", "sylvester")[run % 2]
        names = EQUATIONS[tag].operands
        target = names[rng.next_u64() % len(names)]
        raw = mutate(files[target].read_bytes(), rng)
        mutated.write_bytes(raw)
        argv = ["solve", tag, "--json"]
        for name in names:
            argv += [f"--{name}", str(mutated if name == target else files[name])]
        code, err = run_cli(argv, capsys)
        codes[code] += 1
        if not keeps_exit_contract(code, err):
            broken.append((tag, target, raw, code, err))
    assert not broken, broken[:3]
    # The mutations reach both accepted and refused files.
    assert codes[0] and codes[1] >= CLI_RUNS // 2, codes


def run_cli(argv, capsys):
    """Exit code of ``run_command(argv)``, or the repr of what escaped it, and its stderr."""
    try:
        code = run_command(argv)
    except Exception as exc:  # an escape is the failure these tests look for
        code = repr(exc)
    return code, capsys.readouterr().err


def keeps_exit_contract(code, err) -> bool:
    one_error_line = err.startswith("error: ") and err.count("\n") == 1
    return code in (0, 2) and not err or code == 1 and one_error_line


def test_mutated_matrix_files_keep_the_exit_contract_of_the_other_commands(tmp_path, capsys):
    # u, v, w orthonormal; R(A) = span(u, v) and R(B) = span(u, w) meet in span(u).  Unmutated,
    # each command solves: C = w u* meets the three congruence hypotheses and both criteria,
    # C = A holds the intersection in its range, and the Sylvester C is A X + Y B.
    rng = Xoshiro256StarStar(20261021)
    u, v, w = random_unitary(rng, 3).T[:, :, None]
    a = np.hstack([u, v]) @ ranked_matrix(rng, 2, 2, 2)
    b = np.hstack([u, w]) @ ranked_matrix(rng, 2, 2, 2)
    commands = {
        ("solve", "orthogonal"): {"A": a, "B": b, "C": ranked_matrix(rng, 3, 3, 3)},
        ("solve", "congruence"): {"A": a, "B": b, "C": w @ u.conj().T},
        ("solve", "congruence-cz"): {"A": a, "B": b, "C": a},
        ("intersect",): {"A": a, "B": b},
        ("diagnose", "sylvester"): {"A": a, "B": b.T,
                                    "C": a @ ranked_matrix(rng, 2, 3, 2) + ranked_matrix(rng, 3, 2, 2) @ b.T},
        ("diagnose", "congruence"): {"A": a, "B": b, "C": w @ u.conj().T},
    }
    # Each operand in save_matrix's layout, in json.dumps's spaced one, and nested with its keys
    # reordered; the whole-file decoder reads the last two.
    layouts = (save_matrix, lambda path, m: path.write_text(json.dumps(matrix_to_obj(m))),
               lambda path, m: path.write_text(json.dumps(matrix_to_obj(m), indent=2, sort_keys=True)))
    files = {}
    for command, operands in commands.items():
        for name, m in operands.items():
            files[command, name] = [tmp_path / f"{'-'.join(command)}-{name}.{layout}.json" for layout in "csn"]
            for write, path in zip(layouts, files[command, name]):
                write(path, m)
    mutated = tmp_path / "mutated.json"
    codes, broken = Counter(), []
    for run in range(CLI_RUNS):
        command = list(commands)[run % len(commands)]
        layout = run // len(commands) % len(layouts)
        names = list(commands[command])
        target = names[rng.next_u64() % len(names)]
        raw = mutate(files[command, target][layout].read_bytes(), rng)
        mutated.write_bytes(raw)
        argv = [*command, "--json"]
        for name in names:
            argv += [f"--{name}", str(mutated if name == target else files[command, name][layout])]
        code, err = run_cli(argv, capsys)
        codes[command, layout, code] += 1
        if not keeps_exit_contract(code, err):
            broken.append((command, target, layout, raw, code, err))
    assert not broken, broken[:3]
    # In every layout, each command's mutations reach both accepted and refused files.
    assert all(codes[command, layout, code]
               for command in commands for layout in range(len(layouts)) for code in (0, 1)), codes
