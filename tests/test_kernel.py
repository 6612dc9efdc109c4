"""Tests of the matrix primitives: SVD, pinv, PSD square root."""

import ast
import gc
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import opeq
from opeq import (EmptyMatrix, InvalidMatrix, NotPSD, ToleranceAnomaly, ToleranceConfig, as_matrix, factor,
                  pinv, psd_sqrt, range_intersection, svd)
from opeq.harness import random_unitary, ranked_matrix
from opeq import kernel
from opeq.kernel import parse_signature, relative, spectral_norm
from opeq.rng import Xoshiro256StarStar, complex_normal_matrix


def herm2x2_eig(m):
    """Closed-form eigenvalues of a Hermitian 2x2 matrix, descending."""
    a, d, b = m[0, 0].real, m[1, 1].real, m[0, 1]
    mid = (a + d) / 2.0
    rad = np.sqrt(((a - d) / 2.0) ** 2 + abs(b) ** 2)
    return mid + rad, mid - rad


def test_svd_identity():
    np.testing.assert_allclose(svd(np.eye(2)).singular_values, [1.0, 1.0])


def test_svd_diagonal():
    np.testing.assert_allclose(svd(np.diag([3.0, 0.0])).singular_values, [3.0, 0.0])


def test_svd_nilpotent_matches_hand_oracle():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    # oracle: singular values are the square roots of the eigenvalues of m* m
    hi, lo = herm2x2_eig(m.conj().T @ m)
    expected = np.sqrt([hi, lo])
    np.testing.assert_allclose(expected, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(svd(m).singular_values, expected, atol=1e-14)


def test_svd_factors_random():
    rng = Xoshiro256StarStar(11)
    for m_dim, n_dim, r in [(5, 3, 2), (4, 6, 3), (7, 7, 5)]:
        m = ranked_matrix(rng, m_dim, n_dim, r)
        f = svd(m)
        k = min(m_dim, n_dim)
        np.testing.assert_allclose(f.u.conj().T @ f.u, np.eye(k), atol=1e-12 * k)
        np.testing.assert_allclose(f.v.conj().T @ f.v, np.eye(k), atol=1e-12 * k)
        recon = f.u @ np.diag(f.singular_values) @ f.v.conj().T
        assert np.linalg.norm(recon - m) <= 1e-12 * np.linalg.norm(m)
        assert (np.diff(f.singular_values) <= 1e-15).all()


def test_svd_empty_raises():
    with pytest.raises(EmptyMatrix):
        svd(np.zeros((0, 3)))


def test_factorization_applies_the_closed_form_projections_and_pinv():
    rng = Xoshiro256StarStar(41)
    for m_dim, n_dim, r in [(5, 3, 2), (4, 6, 3), (6, 6, 6)]:
        # oracle: a = U diag(sigma) V* with known factors, so P_A = U U*,
        # P_{A*} = V V* and A+ = V diag(1/sigma) U*
        u = random_unitary(rng, m_dim)[:, :r]
        v = random_unitary(rng, n_dim)[:, :r]
        sigma = np.linspace(1.0, 0.1, r)
        a = (u * sigma) @ v.conj().T
        p_a, p_astar, a_plus = u @ u.conj().T, v @ v.conj().T, (v / sigma) @ u.conj().T
        left = complex_normal_matrix(rng, m_dim, 2)
        right = complex_normal_matrix(rng, 2, n_dim)
        f = factor(a)
        assert f.rank == r and f.a.shape == (m_dim, n_dim)
        assert f.norm == pytest.approx(1.0, rel=1e-12)
        tol = dict(atol=1e-12)
        np.testing.assert_allclose(f.p_a(left), p_a @ left, **tol)
        np.testing.assert_allclose(f.n_astar(left), left - p_a @ left, **tol)
        np.testing.assert_allclose(f.right_p_astar(right), right @ p_astar, **tol)
        np.testing.assert_allclose(f.right_n_a(right), right - right @ p_astar, **tol)
        np.testing.assert_allclose(f.pinv(left), a_plus @ left, **tol)
        np.testing.assert_allclose(f.right_pinv(right), right @ a_plus, **tol)
        g = f.adjoint()
        np.testing.assert_allclose(g.a, a.conj().T)
        np.testing.assert_allclose(g.p_a(right.conj().T), p_astar @ right.conj().T, **tol)
        np.testing.assert_allclose(g.pinv(right.conj().T), a_plus.conj().T @ right.conj().T, **tol)


def test_factor_zero_and_empty_have_rank_zero():
    for shape in [(3, 2), (0, 3)]:
        f = factor(np.zeros(shape))
        assert f.rank == 0 and f.norm == 0.0
        assert f.pinv(np.ones((shape[0], 1))).shape == (shape[1], 1)
        assert not f.p_a(np.ones((shape[0], 1))).any()


def test_factor_anchor_sets_the_cutoff_scale():
    dust = 1e-14 * complex_normal_matrix(Xoshiro256StarStar(3), 4, 4)
    assert factor(dust).rank == 4
    anchored = factor(dust, anchor=1.0)
    assert anchored.rank == 0
    assert anchored.norm == factor(dust).norm > 0.0


def penrose_defects(m, x):
    mx, xm = m @ x, x @ m
    return (
        np.linalg.norm(m @ xm - m),
        np.linalg.norm(x @ mx - x),
        np.linalg.norm(mx.conj().T - mx),
        np.linalg.norm(xm.conj().T - xm),
    )


def test_pinv_identity():
    np.testing.assert_allclose(pinv(np.eye(2)), np.eye(2), atol=1e-14)


def test_pinv_scalar():
    np.testing.assert_allclose(pinv(np.array([[2.0]])), [[0.5]], atol=1e-15)


def test_pinv_projector_all_penrose_identities():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    x = pinv(m)
    np.testing.assert_allclose(x, m, atol=1e-14)
    for defect in penrose_defects(m, x):
        assert defect <= 1e-12


def test_pinv_zero_matrix():
    x = pinv(np.zeros((3, 2)))
    assert x.shape == (2, 3)
    assert not x.any()


def test_pinv_penrose_random():
    rng = Xoshiro256StarStar(23)
    for _ in range(30):
        m_dim = 2 + rng.next_u64() % 7
        n_dim = 2 + rng.next_u64() % 7
        r = 1 + rng.next_u64() % min(m_dim, n_dim)
        m = ranked_matrix(rng, m_dim, n_dim, r)
        x = pinv(m)
        d1, d2, d3, d4 = penrose_defects(m, x)
        assert d1 <= 1e-10 * np.linalg.norm(m)
        assert d2 <= 1e-10 * np.linalg.norm(x)
        assert d3 <= 1e-10 and d4 <= 1e-10


def test_pinv_commutes_with_adjoint():
    rng = Xoshiro256StarStar(5)
    for _ in range(10):
        m = ranked_matrix(rng, 5, 4, 3)
        np.testing.assert_allclose(pinv(m.conj().T), pinv(m).conj().T, atol=1e-12)


def test_psd_sqrt_identity():
    np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)


def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-14)


def test_psd_sqrt_rank_one_projector_matches_eigen_oracle():
    m = 0.5 * np.ones((2, 2))
    # oracle: eigenvalues (1, 0) with unit eigenvector (1, 1)/sqrt(2), so the
    # square root is sqrt(1) times the same rank-one projector, i.e. m itself
    hi, lo = herm2x2_eig(m)
    np.testing.assert_allclose([hi, lo], [1.0, 0.0], atol=1e-15)
    v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    oracle = np.sqrt(hi) * (v @ v.conj().T)
    np.testing.assert_allclose(psd_sqrt(m), oracle, atol=1e-14)
    np.testing.assert_allclose(psd_sqrt(m), m, atol=1e-14)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_psd_sqrt_rejects_non_hermitian():
    with pytest.raises(NotPSD):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("k", [-1000, -600, -400, -200, -66, 0, 66, 200, 400, 600, 1000])
def test_psd_sqrt_verdict_is_scale_invariant(k):
    # The verdict reads singular vectors weighted by s / s_1, so a common scaling changes no verdict,
    # down to subnormal entries.
    for scale in (2.0 ** k, 1e-320):
        with pytest.raises(NotPSD):
            psd_sqrt(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))
    m = np.array([[2.0, 1.0j], [-1.0j, 1.0]])
    np.testing.assert_allclose(psd_sqrt(2.0 ** k * m), 2.0 ** (k // 2) * psd_sqrt(m), rtol=1e-13)
    # The zero matrix has rank 0, so it has no singular vectors that could disagree.
    np.testing.assert_array_equal(psd_sqrt(np.zeros((2, 2))), np.zeros((2, 2)))


@pytest.mark.parametrize("k", [600, 1000])
def test_psd_sqrt_fails_closed_on_overflow(k):
    """No norm of m is squared, so nothing overflows or underflows: a non-Hermitian m raises
    NotPSD at 2^k and at 2^-k, where an exact 0 from an underflowed defect would pass it, and a
    PSD m at 2^600 keeps its root."""
    for scale in (2.0 ** k, 2.0 ** -k):
        with pytest.raises(NotPSD, match="not Hermitian"):
            psd_sqrt(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_allclose(psd_sqrt(2.0 ** 600 * np.eye(2)), 2.0 ** 300 * np.eye(2), rtol=1e-13)


def test_relative_is_one_rule_for_zero_and_overflowed_scales():
    assert relative(3.0, 4.0) == 0.75
    assert relative(-3.0, 4.0) == -0.75
    assert relative(0.0, 0.0) == 0.0
    assert relative(0.0, math.inf) == 0.0
    for value, scale in ((1e-30, 0.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan), (1.0, -2.0)):
        assert math.isnan(relative(value, scale)), (value, scale)


def test_no_module_has_an_absolute_floor():
    """Every relative residual goes through kernel.relative; a tiny literal such as 1e-300 in a
    max(..., floor) is how a check slips past it and divides roundoff by a near-zero scale."""
    floor = re.compile(r"\b1(\.0*)?e-3\d\d\b")
    sources = sorted(Path(opeq.__file__).parent.glob("*.py"))
    assert sources and [p.name for p in sources if floor.search(p.read_text())] == []


def test_no_module_keeps_a_fixed_threshold():
    """Every threshold comes from ToleranceConfig: no module-level float constant below 1e-3 is left,
    not even in primitives such as psd_sqrt and check_module_linearity that take no ToleranceConfig."""
    small = set()
    for path in sorted(Path(opeq.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                try:
                    value = ast.literal_eval(node.value)
                except ValueError:
                    continue
                if isinstance(value, float) and abs(value) < 1e-3:
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    small |= {f"{path.stem}.{ast.unparse(t)}" for t in targets}
    assert small == set()


@pytest.mark.parametrize("signature", ["A(m,p), C(m,n) -> X(p,n", "A(m), C(m,n)", "A(m,p) C(m,n) -> X((p,n)"])
def test_parse_signature_rejects_a_malformed_signature(signature):
    with pytest.raises(ValueError, match="malformed shape signature"):
        parse_signature(signature)


def test_psd_sqrt_rejects_empty_and_non_square_input():
    with pytest.raises(EmptyMatrix, match="empty matrix"):
        psd_sqrt(np.zeros((0, 0)))
    with pytest.raises(NotPSD, match=r"shape \(2, 3\) is not square"):
        psd_sqrt(np.zeros((2, 3)))


def test_psd_sqrt_clamps_eigenvalue_dust():
    q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    m = q @ np.diag([1.0, -1e-13]) @ q.conj().T
    s = psd_sqrt(m)
    assert np.linalg.eigvalsh(s)[0] >= -1e-14
    assert np.linalg.norm(s @ s - m) <= 1e-10 * np.linalg.norm(m)


def test_psd_sqrt_cuts_eigenvalue_dust_at_the_rank_cutoff():
    # Eigenvalues at or below the rank cutoff rank_rel * n * ||m||_2 are dust, whatever their sign:
    # 1e-11 at n = 4 (cutoff 4e-10) loses its 3.2e-6 root direction, and -1e-9 at n = 192 (cutoff
    # 1.92e-8) raises no NotPSD.
    q = random_unitary(Xoshiro256StarStar(11), 4)
    m = (q * [1.0, 1.0, 1.0, 1e-11]) @ q.conj().T
    root = psd_sqrt(m)
    assert np.linalg.matrix_rank(root, 1e-8) == 3
    assert np.linalg.norm(root @ root - m) == pytest.approx(1e-11, rel=1e-3)
    q = random_unitary(Xoshiro256StarStar(12), 192)
    m = (q * np.r_[np.ones(191), -1e-9]) @ q.conj().T
    root = psd_sqrt(m)
    assert np.linalg.norm(root @ root - m) <= 1e-8


def test_psd_sqrt_squares_back_and_commutes():
    rng = Xoshiro256StarStar(9)
    for _ in range(10):
        g = ranked_matrix(rng, 5, 5, 4)
        m = g @ g.conj().T
        s = psd_sqrt(m)
        norm = np.linalg.norm(m)
        assert np.linalg.norm(s @ s - m) <= 1e-10 * norm
        assert np.linalg.norm(s @ m - m @ s) <= 1e-10 * norm ** 2


@pytest.mark.parametrize("bad", [{"rank_rel": 0.0}, {"rank_rel": 1.0},
                                 {"residual_rel": -1e-3}, {"residual_rel": 2.0}])
def test_tolerance_config_validation(bad):
    with pytest.raises(ValueError):
        ToleranceConfig(**bad)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.zeros(3), np.full((2, 2), np.nan), [[1.0, 2.0], [3.0]],
                                 [["x"]]])
def test_as_matrix_raises_invalid_matrix(bad):
    with pytest.raises(InvalidMatrix):
        as_matrix(bad)


def test_complements_of_a_full_rank_side_are_exact_zeros():
    # N_{A*} vanishes when A is onto and N_A when A is injective; computed as
    # c - P c, either would be roundoff dust instead.
    rng = Xoshiro256StarStar(42)
    wide, tall = factor(ranked_matrix(rng, 3, 5, 3)), factor(ranked_matrix(rng, 5, 3, 3))
    left, right = complex_normal_matrix(rng, 3, 2), complex_normal_matrix(rng, 2, 3)
    for zero, shape in ((wide.n_astar(left), (3, 2)), (tall.right_n_a(right), (2, 3))):
        assert not zero.any() and zero.shape == shape and zero.dtype == np.complex128
    # The other side keeps its kernel part.
    assert np.linalg.norm(wide.right_n_a(complex_normal_matrix(rng, 2, 5))) > 0.1
    assert np.linalg.norm(tall.n_astar(complex_normal_matrix(rng, 5, 2))) > 0.1


@pytest.fixture
def svd_calls(monkeypatch, forget):
    """Shapes of the matrices handed to ``np.linalg.svd`` from here on, with nothing remembered."""
    calls, real = [], np.linalg.svd

    def counting(m, *args, **kwargs):
        calls.append(m.shape)
        return real(m, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def some_operators(count, seed=7):
    rng = Xoshiro256StarStar(seed)
    return [ranked_matrix(rng, 5, 4, 3) for _ in range(count)]


def test_factor_remembers_an_equal_operand(svd_calls):
    a, = some_operators(1)
    f = factor(a)
    assert factor(a.copy()) is f and svd_calls == [(5, 4)]
    assert f.a is not a and np.array_equal(f.a, a)
    # spectral_norm does not read factor's slot: its norm is the values-only SVD's, which can differ
    # in the last bits from f.norm (0.31708810126802545 against ...556 on this operand).
    norm = spectral_norm(a)
    assert len(svd_calls) == 2
    assert norm == float(np.linalg.svd(a, compute_uv=False)[0])


def test_factor_refactors_an_operand_changed_in_place(svd_calls):
    a, = some_operators(1)
    f = factor(a)
    a[0, 0] += 1.0
    g = factor(a)
    assert g is not f and np.array_equal(g.a, a) and not np.array_equal(f.a, a) and len(svd_calls) == 2


def test_factor_misses_on_another_tol_or_anchor(svd_calls):
    a, = some_operators(1)
    f = factor(a)
    coarse = factor(a, ToleranceConfig(rank_rel=1e-3))
    anchored = factor(a, anchor=1.0)
    assert len({id(f), id(coarse), id(anchored)}) == 3 and len(svd_calls) == 3
    assert factor(a, anchor=1.0) is anchored and len(svd_calls) == 3


def test_spectral_norm_remembers_its_last_operand(svd_calls):
    a, b = some_operators(2)
    norm = spectral_norm(a)
    assert spectral_norm(a.copy()) == norm and len(svd_calls) == 1
    a[0, 0] += 1.0
    spectral_norm(a)
    spectral_norm(b)
    assert len(svd_calls) == 3


@pytest.mark.parametrize("call, failing", [
    (lambda a, b: factor(a), (5, 4)),
    (lambda a, b: spectral_norm(a), (5, 4)),
    # The principal angles' SVD of N_{A*} U_B, after the factorizations of A and B.
    (lambda a, b: range_intersection(a, b), (5, 3)),
], ids=["factor", "spectral_norm", "principal-angles"])
def test_lapack_nonconvergence_is_a_tolerance_anomaly(monkeypatch, forget, call, failing):
    real = np.linalg.svd

    def fails_on_shape(m, *args, **kwargs):
        if m.shape == failing:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(m, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", fails_on_shape)
    with pytest.raises(ToleranceAnomaly, match=f"^SVD did not converge on a {failing[0]}x{failing[1]} matrix$"):
        call(*some_operators(2))


def test_a_remembered_factorization_is_read_only():
    a, = some_operators(1)
    f = factor(a)
    for name in ("a", "u", "s", "v", "singular_values"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(f, name)[0] = 0.0
    a[0, 0] = 0.0  # the caller's operand stays its own


def test_only_the_last_factorization_and_norm_are_kept():
    factored, measured = [], []
    for m in some_operators(3):
        factored.append(weakref.ref(factor(m)))
        spectral_norm(2.0 * m)
        measured.append(weakref.ref(kernel._last_norm[0]))
    gc.collect()
    assert [ref() is not None for ref in factored] == [False, False, True]
    assert [ref() is not None for ref in measured] == [False, False, True]
