from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from subnewton.data import generate_synthetic
from subnewton.model import Dataset, ObjectiveModel
from subnewton.sampling import SampleSet, draw, gradient_lemma_check, \
    gradient_sample_size, hessian_lemma_check, hessian_sample_size, \
    subsampled_gradient, subsampled_hessian
from subnewton.regularize import ridge


# -- sample-size formulas -----------------------------------------------------


def test_hessian_size_spot_values():
    assert hessian_sample_size(2.0, 0.5, 0.1, 10) == 74
    assert hessian_sample_size(1.0, 0.5, 0.1, 10) == 37


def test_hessian_size_eps_scaling_before_ceiling():
    raw = lambda eps: 2.0 * 3.0 * math.log(20 / 0.05) / eps**2
    assert raw(0.25) == pytest.approx(4 * raw(0.5))


def test_gradient_size_spot_value():
    assert gradient_sample_size(1.0, 0.5, 0.1) == 113


def test_gradient_size_bound_scaling_before_ceiling():
    raw = lambda g: (g / 0.5) ** 2 * (1 + math.sqrt(8 * math.log(10))) ** 2
    assert raw(2.0) == pytest.approx(4 * raw(1.0))


def test_gradient_size_delta_to_one_limit():
    raw = lambda d: (1.0 / 0.5) ** 2 * (1 + math.sqrt(8 * math.log(1 / d))) ** 2
    assert raw(1 - 1e-14) == pytest.approx(4.0, rel=1e-5)


@pytest.mark.parametrize("fn,args", [
    (hessian_sample_size, (0.0, 0.5, 0.1, 10)),
    (hessian_sample_size, (2.0, 1.5, 0.1, 10)),
    (hessian_sample_size, (2.0, 0.5, 0.0, 10)),
    (gradient_sample_size, (-1.0, 0.5, 0.1)),
    (gradient_sample_size, (1.0, 0.0, 0.1)),
])
def test_size_formula_domain_errors(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.05, 0.9),
       st.floats(0.05, 0.9))
@settings(max_examples=60, deadline=None)
def test_sizes_nonincreasing_in_eps_and_delta(e1, e2, d1, d2):
    e_lo, e_hi = sorted((e1, e2))
    d_lo, d_hi = sorted((d1, d2))
    assert hessian_sample_size(3.0, e_lo, d_lo, 25) >= hessian_sample_size(3.0, e_hi, d_lo, 25)
    assert hessian_sample_size(3.0, e_lo, d_lo, 25) >= hessian_sample_size(3.0, e_lo, d_hi, 25)
    assert gradient_sample_size(2.0, e_lo, d_lo) >= gradient_sample_size(2.0, e_hi, d_lo)
    assert gradient_sample_size(2.0, e_lo, d_lo) >= gradient_sample_size(2.0, e_lo, d_hi)


# -- draws --------------------------------------------------------------------


def test_exhaustive_draw_is_full_index_set():
    s = draw(5, 5, "without", np.random.default_rng(0))
    np.testing.assert_array_equal(s.indices, np.arange(5))
    assert s.full


def test_whole_range_draw_consumes_no_randomness():
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    assert draw(1000, 1000, "without", rng).full
    assert rng.bit_generator.state == before
    # short of n, or with replacement, a draw is random and not the range
    assert not draw(1000, 999, "without", rng).full
    assert not draw(1000, 1000, "with", rng).full
    assert rng.bit_generator.state != before


def test_fixed_seed_reproduces_sample():
    for mode in ("with", "without"):
        a = draw(100, 30, mode, np.random.default_rng(77))
        b = draw(100, 30, mode, np.random.default_rng(77))
        np.testing.assert_array_equal(a.indices, b.indices)
        assert a.replacement == b.replacement == mode


def test_with_replacement_frequencies_uniform():
    # 1000 draws of 1000 each = 1e6 index picks over n=1e4 cells: mean count
    # 100, sd 10; every count must sit within 5 sd of the mean
    n, size, reps = 10_000, 1_000, 1_000
    rng = np.random.default_rng(123)
    counts = np.zeros(n, dtype=int)
    for _ in range(reps):
        counts += np.bincount(draw(n, size, "with", rng).indices, minlength=n)
    total = reps * size
    mean = total / n
    sd = math.sqrt(total * (1 / n) * (1 - 1 / n))
    assert np.abs(counts - mean).max() <= 5 * sd


def test_without_replacement_draw_too_large():
    with pytest.raises(ValueError):
        draw(10, 11, "without", np.random.default_rng(0))


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(indices=np.array([0, 0]), replacement="without", source_n=5)
    # a repeat in an ascending run, and one in an unsorted sample, whose
    # check is the full one
    for idx in ([0, 1, 1, 3], [3, 1, 0, 1], [4, 2, 4]):
        with pytest.raises(ValueError, match="duplicates"):
            SampleSet(indices=np.array(idx), replacement="without", source_n=5)
        assert SampleSet(indices=np.array(idx), replacement="with", source_n=5).size == len(idx)
    for idx in ([-1, 2], [2, -1], [0, 5], [5, 0]):
        with pytest.raises(ValueError, match="out of range"):
            SampleSet(indices=np.array(idx), replacement="without", source_n=5)
    assert SampleSet(indices=np.array([0, 2, 4]), replacement="without", source_n=5).ascending
    assert not SampleSet(indices=np.array([2, 0, 4]), replacement="without",
                         source_n=5).ascending
    with pytest.raises(ValueError):
        SampleSet(indices=np.array([7]), replacement="with", source_n=5)
    with pytest.raises(ValueError):
        SampleSet(indices=np.array([], dtype=int), replacement="with", source_n=5)


# -- sub-sampled assembly -----------------------------------------------------


@pytest.fixture(scope="module")
def lemma_model():
    """Small logistic problem whose lemma size is well below n."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((500, 20)) * 0.3
    t = a @ rng.standard_normal(20)
    b = (rng.random(500) < 1 / (1 + np.exp(-t))).astype(float)
    return ObjectiveModel(Dataset(features=a, labels=b), "logistic", reg=0.5)


def test_full_sample_reproduces_hessian_and_gradient(lemma_model):
    m = lemma_model
    x = np.linspace(-0.2, 0.4, m.p)
    full = SampleSet(indices=np.arange(m.n), replacement="without", source_n=m.n)
    np.testing.assert_allclose(subsampled_hessian(m, x, full), m.hessian(x), atol=1e-12)
    np.testing.assert_allclose(subsampled_gradient(m, x, full), m.gradient(x), atol=1e-12)


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_whole_range_gradient_is_the_models_without_a_gather(storage):
    """A whole-range sample's gradient walks the design's own row blocks
    (two dense blocks here): the full gradient bit for bit, with its A'w
    counted, and no gathered n x p copy of the design."""
    rng = np.random.default_rng(6)
    n, p = 6000, 40
    a = rng.standard_normal((n, p))
    if storage == "csr":
        a = sp.csr_matrix(np.where(rng.random((n, p)) < 0.4, a, 0.0))
    b = (rng.random(n) < 0.5).astype(float)
    m = ObjectiveModel(Dataset(features=a, labels=b), "logistic", reg=1e-3)
    x = rng.standard_normal(p) / np.sqrt(p)
    full = draw(n, n, "without", rng)
    for t in (None, m.evaluate(x)[0]):
        passes = m.data_passes
        tracemalloc.start()
        try:
            g = subsampled_gradient(m, x, full, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.data_passes - passes == 2 - (t is not None)  # A x unless given, A'w
        assert g.tobytes() == m.gradient(x, t).tobytes()
        assert peak < n * p * 8 / 4


def test_singleton_sample_is_component(lemma_model):
    m = lemma_model
    x = np.full(m.p, 0.1)
    s = SampleSet(indices=np.array([17]), replacement="with", source_n=m.n)
    a, b = m.dataset.features[17], m.dataset.labels[17]
    expected = (1.0 / (1.0 + math.exp(-(a @ x))) - b) * a + m.reg * x
    np.testing.assert_allclose(subsampled_gradient(m, x, s), expected, atol=1e-14)
    np.testing.assert_allclose(subsampled_hessian(m, x, s),
                               m.sampled_hessian([17], x).dense(), atol=1e-14)


def test_subsampled_hessian_symmetric(lemma_model):
    m = lemma_model
    s = draw(m.n, 60, "with", np.random.default_rng(5))
    h = subsampled_hessian(m, np.zeros(m.p), s)
    assert np.abs(h - h.T).max() <= 1e-12


def test_population_mismatch_rejected(lemma_model):
    s = SampleSet(indices=np.array([0]), replacement="with", source_n=3)
    with pytest.raises(ValueError):
        subsampled_hessian(lemma_model, np.zeros(lemma_model.p), s)


def test_hessian_lemma_frequency(lemma_model):
    eps, delta = 0.5, 0.1
    res = hessian_lemma_check(lemma_model, np.zeros(lemma_model.p), eps, delta,
                              resamples=1000, seed=0)
    assert not res.clamped, "lemma size must genuinely subsample here"
    assert res.passed(delta, margin=0.02)


def test_gradient_lemma_frequency(lemma_model):
    eps, delta = 0.5, 0.1
    res = gradient_lemma_check(lemma_model, np.zeros(lemma_model.p), eps, delta,
                               resamples=1000, seed=0)
    assert res.passed(delta, margin=0.02)


def test_hessian_lemma_with_data_driven_gamma():
    """Ridge family with no l2 penalty: the strong-convexity floor comes
    entirely from the data, so sampling genuinely risks the event."""
    rng = np.random.default_rng(44)
    z = rng.standard_normal((2000, 8))
    u, _, vt = np.linalg.svd(z, full_matrices=False)
    a = np.sqrt(2000) * (u * np.geomspace(1.0, 0.7, 8)) @ vt
    m = ObjectiveModel(Dataset(features=a, labels=rng.standard_normal(2000)),
                       "ridge", reg=0.0)
    est = m.curvature_constants()
    assert est.gamma > 0.4  # data-driven floor, not a penalty artifact
    size = hessian_sample_size(est.kappa1, 0.5, 0.1, m.p)
    assert size < m.n
    res = hessian_lemma_check(m, np.zeros(m.p), 0.5, 0.1, resamples=500, seed=3)
    assert res.passed(0.1, margin=0.02)


def test_hessian_lemma_check_reads_the_models_constants(lemma_model):
    """The lemma size and event threshold come from the model's own
    curvature constants."""
    m = lemma_model
    est = m.curvature_constants()
    res = hessian_lemma_check(m, np.zeros(m.p), 0.5, 0.1, resamples=5, seed=1)
    assert res.sample_size == hessian_sample_size(est.kappa1, 0.5, 0.1, m.p)
    assert res.threshold == 0.5 * est.gamma
    assert res.resamples == 5


def test_hessian_lemma_check_needs_strong_convexity():
    rng = np.random.default_rng(46)
    a = rng.standard_normal((50, 4))
    a[:, 3] = 0.0  # a zero column: gamma = 0 with no penalty
    m = ObjectiveModel(Dataset(features=a, labels=np.zeros(50)), "ridge", reg=0.0)
    assert not m.curvature_constants().strongly_convex
    with pytest.raises(ValueError, match="needs gamma > 0"):
        hessian_lemma_check(m, np.zeros(m.p), 0.5, 0.1, resamples=5)


def test_event_detector_catches_rank_deficient_samples():
    """Samples smaller than p leave the unpenalized Hessian singular, so the
    concentration event must register as failed every time."""
    rng = np.random.default_rng(45)
    a = rng.standard_normal((200, 10))
    m = ObjectiveModel(Dataset(features=a, labels=np.zeros(200)), "ridge", reg=0.0)
    est = m.curvature_constants()
    threshold = 0.5 * est.gamma
    draws = np.random.default_rng(9)
    for _ in range(20):
        s = draw(m.n, 5, "without", draws)  # fewer rows than columns
        h = subsampled_hessian(m, np.zeros(m.p), s)
        assert np.linalg.eigvalsh(h)[0] < threshold


# -- the matrix-free sampled Hessian ------------------------------------------


@pytest.mark.parametrize("ridge_shift", [None, 0.3], ids=["plain", "ridge"])
@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_operator_products_match_the_assembled_hessian(storage, ridge_shift):
    rng = np.random.default_rng(31)
    a = rng.standard_normal((300, 40)) * (rng.random((300, 40)) < 0.2)
    b = (rng.random(300) < 0.5).astype(float)
    features = sp.csr_matrix(a) if storage == "csr" else a
    m = ObjectiveModel(Dataset(features=features, labels=b), "logistic", reg=0.01)
    x = 0.3 * rng.standard_normal(m.p)
    s = draw(m.n, 90, "without", rng)
    op = m.sampled_hessian(s.indices, x)
    h = assembled = subsampled_hessian(m, x, s)
    if ridge_shift is not None:
        op, h = replace(op, shift=op.shift + ridge_shift), ridge(h, ridge_shift)
        # the same sample assembled with the shift reg + lambda added once
        shifted = ObjectiveModel(m.dataset, "logistic", reg=m.reg + ridge_shift)
        assembled = subsampled_hessian(shifted, x, s)
    for _ in range(5):
        d = rng.standard_normal(m.p)
        ref = h @ d
        assert np.linalg.norm(op @ d - ref) <= 1e-12 * np.linalg.norm(ref)
    np.testing.assert_array_equal(op.dense(), assembled)


def test_operator_dense_is_the_sampled_assembly_bit_for_bit(small_logistic):
    m = small_logistic
    rng = np.random.default_rng(32)
    x = rng.standard_normal(m.p)
    s = draw(m.n, 120, "with", rng)
    a_s = m.dataset.features[s.indices]
    w = m._fam.phi_double(a_s @ x)
    b = a_s * np.sqrt(w)[:, None]  # dense rows: the self-product of sqrt(w) A_S
    ref = b.T @ b
    ref /= s.size
    ref[np.diag_indices_from(ref)] += m.reg
    dense = m.sampled_hessian(s.indices, x).dense()
    np.testing.assert_array_equal(dense, ref)
    np.testing.assert_array_equal(dense, subsampled_hessian(m, x, s))
    np.testing.assert_array_equal(dense, dense.T)
    general = (a_s * w[:, None]).T @ a_s / s.size + m.reg * np.eye(m.p)
    assert np.abs(dense - general).max() <= 1e-14 * np.abs(general).max()
