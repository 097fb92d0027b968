from __future__ import annotations

import numpy as np
import pytest

from subnewton.linsolve import solve_eigen
from subnewton.regularize import SYMMETRY_TOL, _symmetrized, min_eigenvalue, ridge, \
    spectral_floor, spectrum


def random_symmetric(rng, p):
    a = rng.standard_normal((p, p))
    return 0.5 * (a + a.T)


# -- symmetrization -----------------------------------------------------------


def symmetrizer_inputs():
    """Exactly symmetric; asymmetric within SYMMETRY_TOL everywhere; in one
    entry pair only, across the first and third of 400 x 400's five row
    blocks (so the others are copied, and the third has no positive
    asymmetry yet is averaged); 1 x 1 and 0 x 0."""
    rng = np.random.default_rng(8)
    sym = random_symmetric(rng, 200)
    skew = 1e-10 * np.triu(rng.standard_normal((200, 200)), 1)
    one_pair = random_symmetric(rng, 400)
    one_pair[10, 180] += 0.1 * SYMMETRY_TOL
    return [sym, sym + skew - skew.T, one_pair, np.array([[2.5]]), np.zeros((0, 0))]


@pytest.mark.parametrize("h", symmetrizer_inputs(), ids=["symmetric", "skewed", "one-pair",
                                                         "1x1", "0x0"])
def test_symmetrized_is_the_average_bit_for_bit(h):
    """_symmetrized(h) is 0.5 * (h + h') bit for bit and _symmetrized(h,
    float32) its float32 rounding, each a Fortran-ordered copy."""
    average = 0.5 * (h + h.T)
    for dtype in (np.float64, np.float32):
        sym = _symmetrized(h, dtype)
        assert sym.dtype == dtype and sym.flags.f_contiguous
        assert not np.shares_memory(sym, h)
        assert sym.tobytes(order="C") == average.astype(dtype).tobytes()


@pytest.mark.parametrize("h", symmetrizer_inputs()[:4], ids=["symmetric", "skewed",
                                                             "one-pair", "1x1"])
def test_symmetrized_callers_keep_their_values_in_c_order(h):
    """min_eigenvalue, ridge and spectral_floor read the average 0.5 * (h +
    h') and give what they gave from it bit for bit, as C-ordered arrays;
    a shift makes each input positive definite, for floors on both sides of
    its smallest eigenvalue."""
    h = h + 40.0 * np.eye(h.shape[0])
    average = 0.5 * (h + h.T)
    eigs, vecs = np.linalg.eigh(average)
    assert eigs[0] > 1.0
    assert min_eigenvalue(h) == float(np.linalg.eigvalsh(average)[0])
    shifted = average.copy()
    shifted[np.diag_indices_from(shifted)] += 0.3
    floor = eigs[0] + 1.0
    floored = (vecs * np.maximum(eigs, floor)) @ vecs.T
    expected = [(ridge(h, 0.3), shifted), (spectral_floor(h, eigs[0] - 1.0), average),
                (spectral_floor(h, floor), 0.5 * (floored + floored.T))]
    for out, want in expected:
        assert out.flags.c_contiguous and not np.shares_memory(out, h)
        assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_symmetrized_rejects_bad_input(dtype):
    """As every function reading it does: a non-finite entry, gross
    asymmetry, or a non-square shape."""
    for h, match in ((np.array([[np.inf, 0.0], [0.0, 1.0]]), "non-finite"),
                     (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite"),
                     (np.array([[1.0, 5.0], [0.0, 1.0]]), "not symmetric"),
                     (np.ones((2, 3)), "square")):
        with pytest.raises(ValueError, match=match):
            _symmetrized(h, dtype)
        for reader in (min_eigenvalue, lambda h: ridge(h, 0.1),
                       lambda h: spectral_floor(h, 0.1)):
            with pytest.raises(ValueError, match=match):
                reader(h)


# -- min eigenvalue -----------------------------------------------------------


def test_min_eig_diagonal():
    assert min_eigenvalue(np.diag([3.0, 1.0, 0.1])) == pytest.approx(0.1)


def test_min_eig_identity():
    assert min_eigenvalue(np.eye(4)) == pytest.approx(1.0)


def test_min_eig_against_inverse_iteration():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((30, 10))
    h = a.T @ a / 30 + 0.05 * np.eye(10)
    # independent oracle: power iteration on H^{-1}
    v = rng.standard_normal(10)
    h_inv = np.linalg.inv(h)
    for _ in range(5000):
        v = h_inv @ v
        v /= np.linalg.norm(v)
    oracle = float(v @ h @ v)
    assert abs(min_eigenvalue(h) - oracle) <= 1e-8


def test_min_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[1.0, 5.0], [0.0, 1.0]]))  # grossly asymmetric


# -- factored spectrum ---------------------------------------------------------


def spectrum_input(kind, p, rng):
    if kind == "indefinite":
        return random_symmetric(rng, p)
    if kind == "rank-deficient":  # a sampled Hessian with fewer rows than p
        a = rng.standard_normal((p // 2, p))
        return a.T @ (rng.random(p // 2)[:, None] * a) / max(p // 2, 1)
    return np.diag(rng.standard_normal(p).round(1))  # diagonal, with repeats


@pytest.mark.parametrize("kind", ["indefinite", "rank-deficient", "diagonal"])
@pytest.mark.parametrize("p", [1, 2, 3, 17, 60])
def test_spectrum_floored_solve_matches_the_dense_floor(p, kind):
    rng = np.random.default_rng(p)
    h = spectrum_input(kind, p, rng)
    kept = h.copy()
    spec = spectrum(h)
    np.testing.assert_array_equal(h, kept)  # the reduction works on a copy
    exact = np.linalg.eigvalsh(h)
    assert np.abs(spec.eigvals - exact).max() <= 1e-13 * np.abs(exact).max()
    floor = max(float(spec.eigvals[0]), 0.0) + 1e-2
    g = rng.standard_normal(p)
    y = solve_eigen(spec, np.maximum(spec.eigvals, floor), g)
    expected = np.linalg.solve(spectral_floor(h, floor), g)
    assert np.linalg.norm(y - expected) <= 1e-10 * np.linalg.norm(expected)
    np.testing.assert_allclose(spec.from_eigenbasis(spec.to_eigenbasis(g)), g,
                               rtol=0, atol=1e-13 * np.linalg.norm(g))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_spectrum_rejects_bad_input(dtype):
    with pytest.raises(ValueError):
        spectrum(np.array([[np.inf, 0.0], [0.0, 1.0]]), dtype)
    with pytest.raises(ValueError):
        spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]), dtype)
    with pytest.raises(ValueError):
        spectrum(np.array([[1.0, 5.0], [0.0, 1.0]]), dtype)
    with pytest.raises(ValueError):
        spectrum(np.ones((2, 3)), dtype)


@pytest.mark.parametrize("kind", ["indefinite", "rank-deficient", "diagonal"])
@pytest.mark.parametrize("p", [1, 2, 3, 17, 60, 300])
def test_float32_spectrum_is_the_float64_one_to_float32_accuracy(p, kind):
    """The float32 decomposition reads a rounded copy (the input is left
    alone), and its eigenvalues, its factored V and the first k columns of V
    hold to a small multiple of float32's epsilon times ||H||."""
    rng = np.random.default_rng(p)
    h = spectrum_input(kind, p, rng)
    kept = h.copy()
    spec = spectrum(h, np.float32)
    np.testing.assert_array_equal(h, kept)
    assert spec.eigvals.dtype == spec.z.dtype == spec.tau.dtype == np.float32
    exact = np.linalg.eigvalsh(h)
    scale = max(float(np.abs(exact).max()), 1e-300)
    eps32 = float(np.finfo(np.float32).eps)
    assert np.abs(spec.eigvals - exact).max() <= 10 * p * eps32 * scale
    g = rng.standard_normal(p)
    back = spec.from_eigenbasis(spec.to_eigenbasis(g))
    assert back.dtype == np.float32
    assert np.linalg.norm(back - g) <= 10 * p * eps32 * np.linalg.norm(g)
    k = (p + 1) // 2
    vecs = spec.eigenvectors(k)
    assert vecs.shape == (p, k) and vecs.dtype == np.float32
    np.testing.assert_allclose(vecs, spec.from_eigenbasis(np.eye(p, k, dtype=np.float32)),
                               rtol=0, atol=10 * eps32)


def test_float32_spectrum_averages_a_slightly_asymmetric_input():
    """An accumulation asymmetry below SYMMETRY_TOL is averaged away before
    the rounding, as on the float64 path (both read _symmetrized), over
    several of the column blocks the single pass works in."""
    rng = np.random.default_rng(5)
    sym = random_symmetric(rng, 200)
    skew = 1e-10 * np.triu(rng.standard_normal((200, 200)), 1)
    h = sym + skew - skew.T
    from_asymmetric = spectrum(h, np.float32)
    from_average = spectrum(0.5 * (h + h.T), np.float32)
    np.testing.assert_array_equal(from_asymmetric.eigvals, from_average.eigvals)
    np.testing.assert_array_equal(from_asymmetric.z, from_average.z)


# -- spectral floor -----------------------------------------------------------


def test_floor_diagonal_case():
    out = spectral_floor(np.diag([3.0, 1.0, 0.1]), 0.5)
    np.testing.assert_allclose(out, np.diag([3.0, 1.0, 0.5]), atol=1e-12)
    assert np.linalg.eigvalsh(out).min() == pytest.approx(0.5)


def test_floor_below_min_is_identity():
    h = np.diag([3.0, 1.0, 0.5])
    out = spectral_floor(h, 0.2)
    np.testing.assert_array_equal(out, h)


def test_floor_above_max_gives_scaled_identity():
    rng = np.random.default_rng(2)
    h = random_symmetric(rng, 6)
    lam = float(np.linalg.eigvalsh(h)[-1]) + 1.0
    out = spectral_floor(h, lam)
    np.testing.assert_allclose(out, lam * np.eye(6), atol=1e-10)


def test_floor_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = random_symmetric(rng, 8)
        lam = float(rng.random() * 2)
        once = spectral_floor(h, lam)
        twice = spectral_floor(once, lam)
        assert np.abs(once - twice).max() <= 1e-10


def test_floor_never_decreases_spectrum_and_keeps_eigenvectors():
    rng = np.random.default_rng(4)
    for _ in range(100):
        h = random_symmetric(rng, 7)
        lam = float(rng.random() * 3)
        out = spectral_floor(h, lam)
        before = np.linalg.eigvalsh(h)
        after = np.linalg.eigvalsh(out)
        np.testing.assert_allclose(after, np.maximum(before, lam), atol=1e-10)
        assert after.min() >= before.min() - 1e-12
        assert after.min() >= lam - 1e-10 or lam <= before.min()


def test_gradient_descent_limit_collinearity():
    """Flooring at khat >= lambda_max turns the step into -g / khat exactly."""
    rng = np.random.default_rng(5)
    h = random_symmetric(rng, 9)
    h = h @ h.T / 9  # PSD
    khat = float(np.linalg.eigvalsh(h)[-1]) * 1.5
    floored = spectral_floor(h, khat)
    np.testing.assert_allclose(floored, khat * np.eye(9), atol=1e-10)
    g = rng.standard_normal(9)
    direction = -np.linalg.solve(floored, g)
    expected = -g / khat
    cos = direction @ expected / (np.linalg.norm(direction) * np.linalg.norm(expected))
    assert abs(cos - 1.0) <= 1e-10
    np.testing.assert_allclose(direction, expected, atol=1e-10)


# -- ridge shift --------------------------------------------------------------


def test_ridge_diagonal_case():
    out = ridge(np.diag([1.0, 2.0]), 0.5)
    np.testing.assert_allclose(out, np.diag([1.5, 2.5]), atol=1e-15)


def test_ridge_zero_is_noop():
    rng = np.random.default_rng(6)
    h = random_symmetric(rng, 5)
    np.testing.assert_array_equal(ridge(h, 0.0), 0.5 * (h + h.T))


def test_ridge_shifts_whole_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(100):
        h = random_symmetric(rng, 6)
        lam = float(rng.random() * 4)
        shifted = np.linalg.eigvalsh(ridge(h, lam))
        np.testing.assert_allclose(shifted, np.linalg.eigvalsh(h) + lam, atol=1e-10)


def test_negative_shift_rejected():
    with pytest.raises(ValueError):
        ridge(np.eye(2), -0.1)
    with pytest.raises(ValueError):
        spectral_floor(np.eye(2), -0.1)
