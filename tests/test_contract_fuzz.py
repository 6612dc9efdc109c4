"""Contract fuzz over every equation of the table, at ordinary magnitudes.

Each draw takes one :data:`~opeq.harness.EQUATIONS` entry, gives each
dimension letter of its shape signature a size in 0..4 and each operand a
random rank, then makes one of three kinds of instance: C = 0; C the
left-hand side of the formula at random unknowns (where the right-hand
side is C alone; elsewhere every operand gets full rank instead); or the
random C as drawn.  Whatever happens, only an :class:`OpeqError` may
escape, no ``RuntimeWarning`` may be raised, and every answer ``solve``
returns must pass :func:`verify`.
"""

import warnings
from collections import Counter
from functools import reduce

import numpy as np

from opeq import DEFAULT_TOL, OpeqError, verify
from opeq.harness import EQUATIONS, ranked_matrix
from opeq.kernel import parse_signature
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
