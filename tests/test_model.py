from __future__ import annotations

import dataclasses
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from subnewton import model as model_module
from subnewton import solvers
from subnewton.data import generate_synthetic
from subnewton.model import EXP_CLAMP, ConditionEstimates, Dataset, EvaluationError, \
    LogisticFamily, ObjectiveModel, PoissonFamily, RidgeFamily, _sigmoid
from subnewton.sampling import SampleSet, subsampled_gradient
from subnewton.solvers import SolverConfig, run

from conftest import central_diff_gradient, central_diff_hessian


def single_row_model(family, a, b, reg=0.0):
    return ObjectiveModel(Dataset(features=np.array([a]), labels=np.array([b])),
                          family, reg)


def component_gradient(m, i, x):
    """grad f_i(x): the sampled gradient over the one-index sample {i}."""
    return subsampled_gradient(m, x, SampleSet([i], replacement="with", source_n=m.n))


# -- value --------------------------------------------------------------------


def test_value_ridge_zero_iterate_zero_label():
    m = single_row_model("ridge", [1.0, 0.0], 0.0)
    assert m.value(np.zeros(2)) == 0.0


def test_value_logistic_hand():
    m = single_row_model("logistic", [1.0, 0.0], 1.0)
    assert m.value(np.zeros(2)) == pytest.approx(math.log(2), abs=1e-12)


def test_value_poisson_hand():
    m = single_row_model("poisson", [1.0, 0.0], 0.0, reg=0.5)
    assert m.value(np.array([1.0, 0.0])) == pytest.approx(math.e + 0.25, abs=1e-12)


def test_value_overflow_is_error():
    m = single_row_model("ridge", [1.0, 0.0], 0.0, reg=1.0)
    with pytest.raises(EvaluationError):
        m.value(np.array([1e200, 0.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_value_overflow_raises_without_a_warning():
    # the message reports max|x_i|, which cannot overflow where ||x|| does
    m = single_row_model("ridge", [1.0, 0.0], 0.0, reg=1.0)
    with pytest.raises(EvaluationError, match=r"max\|x_i\|=1e\+200"):
        m.value(np.array([1e200, 0.0]))


@pytest.mark.parametrize("fixture", ["small_ridge", "small_logistic", "small_poisson"])
def test_evaluation_from_margins_and_pass_count(fixture, request):
    m = request.getfixturevalue(fixture)
    rng = np.random.default_rng(3)
    x, p = 0.3 * rng.standard_normal(m.p), 0.3 * rng.standard_normal(m.p)
    t, ap = m.dataset.features @ x, m.dataset.features @ p
    before = m.data_passes
    assert m.value(x, t) == m.value(x)
    np.testing.assert_array_equal(m.gradient(x, t), m.gradient(x))
    # the margins save A x; A'w is still one pass
    assert m.data_passes - before == 1 + 1 + 2
    for alpha in (1.0, 0.5, 1e-3):
        along = m.value(x + alpha * p, t + alpha * ap)
        assert along == pytest.approx(m.value(x + alpha * p), rel=1e-12)


def block_model(family, n, p, storage, seed=0):
    """A model on seeded rows (about 30% zeros) with labels of its family."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p))
    a[rng.random((n, p)) < 0.3] = 0.0
    t = a @ (0.3 * rng.standard_normal(p))
    if family == "ridge":
        b = t + 0.1 * rng.standard_normal(n)
    elif family == "logistic":
        b = (rng.random(n) < 1.0 / (1.0 + np.exp(-t))).astype(float)
    else:
        b = rng.poisson(np.exp(t)).astype(float)
    features = sp.csr_matrix(a) if storage == "csr" else a
    return ObjectiveModel(Dataset(features, b), family, reg=0.01)


# 16 rows per block at p = 6: n = 10 is below one block, 100 ends in a part
# block, 1003 spans 63 blocks and ends in a part block
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [10, 100, 1003])
@pytest.mark.parametrize("storage", ["dense", "csr"])
@pytest.mark.parametrize("family", ["ridge", "logistic", "poisson"])
def test_evaluate_is_margins_value_and_gradient_bit_for_bit(family, storage, n, monkeypatch):
    monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", 16 * 6 * 8)
    m = block_model(family, n, 6, storage)
    x = 0.2 * np.random.default_rng(1).standard_normal(6)
    before = m.data_passes
    t, f, g = m.evaluate(x)
    assert m.data_passes - before == 2  # A x and A'w, from one walk over the rows
    np.testing.assert_array_equal(t, m._margins(x))
    assert f == m.value(x, t) == m.value(x)
    np.testing.assert_array_equal(g, m.gradient(x, t))
    np.testing.assert_array_equal(g, m.gradient(x))
    a, b = m.dataset.features, m.dataset.labels
    kind = model_module.FAMILIES[family]
    if storage == "csr":  # one block: today's products
        np.testing.assert_array_equal(t, a @ x)
        np.testing.assert_array_equal(
            g, a.T @ (kind.phi_prime(a @ x) - b) / n + m.reg * x)
    else:  # the blocks only reorder the sums
        np.testing.assert_allclose(t, a @ x, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(g, a.T @ (kind.phi_prime(t) - b) / n + m.reg * x,
                                   rtol=1e-12, atol=1e-14)
    before = m.data_passes
    t_only, f_only, none = m.evaluate(x, gradient=False)
    assert m.data_passes - before == 1 and none is None
    np.testing.assert_array_equal(t_only, t)
    assert f_only == f


def test_evaluate_at_the_default_block_size_spans_blocks():
    m = block_model("logistic", 6000, 50, "dense", seed=4)
    assert len(m._blocks) == 3  # 2621 rows per block at p = 50
    x = 0.2 * np.random.default_rng(2).standard_normal(50)
    t, f, g = m.evaluate(x)
    np.testing.assert_array_equal(t, m._margins(x))
    assert f == m.value(x)
    np.testing.assert_array_equal(g, m.gradient(x))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("storage", ["dense", "csr"])
@pytest.mark.parametrize("family", ["ridge", "logistic", "poisson"])
def test_evaluate_at_zero_makes_no_product_and_keeps_the_bits(family, storage, monkeypatch):
    # at x = 0 the margins are zero: one product (A'w), and the same bits as
    # the product path's margins, F and gradient
    monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", 16 * 6 * 8)
    m = block_model(family, 1003, 6, storage)
    x = np.zeros(6)
    before = m.data_passes
    t, f, g = m.evaluate(x)
    assert m.data_passes - before == 1
    product = m._margins(x)
    assert t.tobytes() == product.tobytes()
    assert f == m.value(x, product) == m.value(x)
    assert g.tobytes() == m.gradient(x, product).tobytes() == m.gradient(x).tobytes()
    before = m.data_passes
    t_only, f_only, none = m.evaluate(x, gradient=False)
    assert m.data_passes == before and none is None
    assert t_only.tobytes() == product.tobytes() and f_only == f


# 16 rows per block at p = 6: a 10-row sample is one block, 1003 rows span 63
@pytest.mark.parametrize("size", [10, 1003])
@pytest.mark.parametrize("storage", ["dense", "csr"])
@pytest.mark.parametrize("family", ["ridge", "logistic", "poisson"])
def test_sampled_hessian_product_walks_row_blocks(family, storage, size, monkeypatch):
    monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", 16 * 6 * 8)
    m = block_model(family, 1003, 6, storage)
    rng = np.random.default_rng(3)
    x = 0.2 * rng.standard_normal(6)
    idx = rng.integers(0, m.n, size=size)
    h = m.sampled_hessian(idx, x)
    assert len(h._blocks) == (1 if storage == "csr" else math.ceil(size / 16))
    hd = h.dense()
    for _ in range(3):
        d = rng.standard_normal(6)
        np.testing.assert_allclose(h @ d, hd @ d, rtol=1e-12,
                                   atol=1e-12 * np.abs(hd).max() * np.abs(d).max())
        if storage == "csr":  # one block: the unblocked product, bit for bit
            a_s, w = h.rows, h.curvature / size
            np.testing.assert_array_equal(
                h @ d, np.asarray(a_s.T @ (w * (a_s @ d))).ravel() + h.shift * d)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_evaluate_raises_on_a_non_finite_gradient(storage):
    # t = 0 keeps F at 0, while each row adds 1e100 * 1e208 to A'w: inf
    a = np.full((2, 1), 1e100)
    features = sp.csr_matrix(a) if storage == "csr" else a
    m = ObjectiveModel(Dataset(features, np.full(2, -1e208)), "ridge")
    x = np.zeros(1)
    assert m.evaluate(x, gradient=False)[1] == 0.0
    with pytest.raises(EvaluationError, match="gradient is non-finite"):
        m.evaluate(x)
    with pytest.raises(EvaluationError, match="gradient is non-finite"):
        m.gradient(x)


# -- link kernels -------------------------------------------------------------

LINK_EDGES = np.array([800.0, -800.0, 745.0, -745.0, 36.0, -36.0, 0.0, -0.0, 5e-324,
                       np.inf, -np.inf])


def link_margins():
    return np.concatenate([10.0 * np.random.default_rng(41).standard_normal(2000),
                           LINK_EDGES])


def two_branch_sigmoid(t):
    # the sign-split form: 1/(1+e^{-t}) on t >= 0, e^t/(1+e^t) below
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_logistic_kernels_match_the_two_branch_forms():
    t = link_margins()
    s = two_branch_sigmoid(t)
    np.testing.assert_array_equal(_sigmoid(t), s)
    np.testing.assert_array_equal(LogisticFamily.phi_prime(t), s)
    np.testing.assert_array_equal(LogisticFamily.phi_double(t), s * (1.0 - s))
    phi, ref = LogisticFamily.phi(t), np.logaddexp(0.0, t)
    finite = np.isfinite(ref)
    np.testing.assert_array_equal(phi[~finite], ref[~finite])
    ulps = np.abs(phi[finite] - ref[finite]) / np.spacing(np.abs(ref[finite]))
    assert ulps.max() <= 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ridge_and_poisson_kernels_unchanged():
    t = link_margins()
    np.testing.assert_array_equal(RidgeFamily.phi(t), 0.5 * t * t)
    np.testing.assert_array_equal(RidgeFamily.phi_prime(t), t)
    np.testing.assert_array_equal(RidgeFamily.phi_double(t), np.ones_like(t))
    clamped = np.exp(np.minimum(t, EXP_CLAMP))
    for kernel in (PoissonFamily.phi, PoissonFamily.phi_prime, PoissonFamily.phi_double):
        np.testing.assert_array_equal(kernel(t), clamped)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_kernel_feeds_phi_and_phi_prime_bit_for_bit():
    t = link_margins()
    kernels = {LogisticFamily: np.exp(-np.abs(t)),
               PoissonFamily: np.exp(np.minimum(t, EXP_CLAMP)), RidgeFamily: t}
    for kind, expected in kernels.items():
        np.testing.assert_array_equal(kind.kernel(t), expected)
        out = np.empty_like(t)
        assert kind.kernel(t, out=out) is out
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(kind.phi(t, out), kind.phi(t))
        np.testing.assert_array_equal(kind.phi_prime(t, out), kind.phi_prime(t))


# -- gradient -----------------------------------------------------------------


def test_gradient_logistic_hand():
    ds = Dataset(features=np.array([[1.0, 0.0], [0.0, 1.0]]),
                 labels=np.array([1.0, 0.0]))
    m = ObjectiveModel(ds, "logistic")
    np.testing.assert_allclose(m.gradient(np.zeros(2)), [-0.25, 0.25], atol=1e-15)


def test_gradient_vanishes_at_ridge_optimum(small_ridge):
    m = small_ridge
    a = m.dataset.features
    gram = a.T @ a / m.n + m.reg * np.eye(m.p)
    x_opt = np.linalg.solve(gram, a.T @ m.dataset.labels / m.n)
    assert np.linalg.norm(m.gradient(x_opt)) < 1e-10


@pytest.mark.parametrize("fixture", ["small_ridge", "small_logistic", "small_poisson"])
def test_gradient_matches_finite_differences(fixture, request):
    m = request.getfixturevalue(fixture)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.standard_normal(m.p) * 0.5
        g = m.gradient(x)
        fd = central_diff_gradient(m.value, x)
        assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))


# -- component calculus -------------------------------------------------------


def test_component_gradient_mean_is_full_gradient(small_logistic):
    m = small_logistic
    x = np.linspace(-0.5, 0.5, m.p)
    mean = np.mean([component_gradient(m, i, x) for i in range(m.n)], axis=0)
    np.testing.assert_allclose(mean, m.gradient(x), atol=1e-12)


def test_component_gradient_logistic_hand():
    m = single_row_model("logistic", [1.0, 0.0], 1.0)
    np.testing.assert_allclose(component_gradient(m, 0, np.zeros(2)), [-0.5, 0.0],
                               atol=1e-15)


def test_component_gradient_ridge_zero_residual():
    m = single_row_model("ridge", [2.0, 0.0], 2.0)
    np.testing.assert_allclose(component_gradient(m, 0, np.array([1.0, 0.0])),
                               [0.0, 0.0], atol=1e-15)


def test_component_gradient_index_error(small_logistic):
    with pytest.raises(ValueError, match="out of range"):
        component_gradient(small_logistic, small_logistic.n, np.zeros(small_logistic.p))


def test_hessian_full_sample_identity(small_logistic, small_ridge, small_poisson):
    """The full Hessian is the all-indices sample assembled, bit for bit, for
    every family on dense and CSR rows: at x = 0.2, and at x = 0, where
    every family's Phi'' is one constant and it comes from the model's kept
    Gram.  Both equal the sample assembled from a gathered copy of the
    rows."""
    models = []
    for dense in (small_logistic, small_ridge, small_poisson):
        models += [dense, ObjectiveModel(Dataset(sp.csr_matrix(dense.dataset.features),
                                                 dense.dataset.labels),
                                         dense.family, reg=dense.reg)]
    for m in models:
        a, kind = m.dataset.features, model_module.FAMILIES[m.family]
        for x in (np.zeros(m.p), np.full(m.p, 0.2)):
            h_all = m.sampled_hessian(np.arange(m.n), x).dense()
            np.testing.assert_array_equal(m.hessian(x), h_all)
            gathered = model_module.SampledHessian(
                a[np.arange(m.n)], kind.phi_double(np.asarray(a @ x).ravel()), m.reg)
            np.testing.assert_array_equal(h_all, gathered.dense())
        assert m._gram is not None


def test_full_range_sample_matches_a_gathered_range_to_rounding():
    """On a column-major design the full range reads the design's own rows
    and a gathered 0..n-1 is row-major, so the two agree to rounding."""
    m = block_model("logistic", 6000, 50, "dense", seed=7)
    a = m.dataset.features
    assert a.flags.f_contiguous
    x = 0.2 * np.random.default_rng(8).standard_normal(m.p)
    own = m.sampled_hessian(np.arange(m.n), x)
    gathered = model_module.SampledHessian(a[np.arange(m.n)], own.curvature, own.shift)
    assert own.rows is a and gathered.rows.flags.c_contiguous
    h_own, h_gathered = own.dense(), gathered.dense()
    assert np.linalg.norm(h_own - h_gathered) <= 1e-13 * np.linalg.norm(h_gathered)
    d = np.random.default_rng(9).standard_normal(m.p)
    assert np.linalg.norm(own @ d - gathered @ d) <= 1e-13 * np.linalg.norm(gathered @ d)


def test_full_sample_reads_the_design_rows(small_logistic):
    m = small_logistic
    x = np.full(m.p, 0.2)
    assert m.sampled_hessian(np.arange(m.n), x).rows is m.dataset.features
    # any other index sequence, a permutation of all rows included, is gathered
    h = m.sampled_hessian(np.arange(m.n)[::-1], x)
    assert h.rows is not m.dataset.features
    np.testing.assert_array_equal(h.rows, m.dataset.features[::-1])


def test_hessian_reuses_the_kept_gram(monkeypatch):
    """Only the first constant-curvature hessian forms the Gram A'A/n; later
    ones read the kept one, which is read-only.  A non-constant curvature
    assembles the weighted sample."""
    grams = []
    weighted_gram = model_module.weighted_gram

    def counted(a, w=None, out=None):
        grams.append(w is None)
        return weighted_gram(a, w, out)
    monkeypatch.setattr(model_module, "weighted_gram", counted)
    m = block_model("ridge", 100, 6, "dense")
    h0 = m.hessian(np.full(m.p, 0.3))  # ridge: Phi'' = 1 everywhere
    assert grams == [True] and not m._gram.flags.writeable
    np.testing.assert_array_equal(m.hessian(np.zeros(m.p)), h0)
    assert grams == [True]
    logistic = block_model("logistic", 100, 6, "dense")
    logistic.hessian(np.full(m.p, 0.3))
    assert grams == [True, False] and logistic._gram is None


def test_start_hessian_lookup_reads_no_design_block():
    """At x0 = 0 every margin is zero, so the start Hessian's curvature is
    Phi''(0) with no product A x0: once a CG run has kept the Gram and the
    inverse, a later run's plan and preconditioner lookup read no block of
    the design.  The spy does see the product at x != 0."""
    reads = []

    class Spy(np.ndarray):
        def __matmul__(self, other):
            reads.append(self.shape)
            return np.ndarray.__matmul__(self, other)

        def __rmatmul__(self, other):
            reads.append(self.shape)
            return np.ndarray.__rmatmul__(self, other)

    dataset, _ = generate_synthetic(300, 8, family="logistic", seed=5)
    dataset = Dataset(dataset.features, dataset.labels)  # the spy stays on this copy
    m = ObjectiveModel(dataset, "logistic", reg=1e-3)
    x0 = np.zeros(m.p)
    cfg = SolverConfig(sample_frac_h=0.5, max_iters=3,
                       inexact=solvers.InexactnessSpec(theta1=1e-2, theta2=0.5))
    run(m, cfg, x0)  # forms and keeps the Gram and the start inverse
    object.__setattr__(dataset, "features", dataset.features.view(Spy))
    header, _ = solvers._newton_like(m, cfg, x0)
    assert header["preconditioner"] == "start-hessian"
    assert reads == []
    m.hessian_inverse(np.full(m.p, 0.1), 0.0)
    assert reads


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_float32_copy_multiplies_in_float32_over_its_own_blocks(small_logistic, storage,
                                                              monkeypatch):
    """``astype(float32)`` rounds the rows only; its product reads float32
    blocks of ``ROW_BLOCK_BYTES`` (twice the rows of a float64 block), keeps
    the weights and the sum over blocks in float64, and agrees with the
    float64 product to float32 rounding."""
    m = small_logistic
    monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", 8 * m.p * 16)  # 16 float64 rows
    rng = np.random.default_rng(3)
    idx = np.sort(rng.choice(m.n, 100, replace=False))
    x = 0.3 * rng.standard_normal(m.p)
    h = m.sampled_hessian(idx, x)
    if storage == "csr":
        h = replace(h, rows=sp.csr_matrix(h.rows))
    h32 = h.astype(np.float32)
    assert h.dtype == np.float64 and h32.dtype == np.float32
    assert h32.curvature is h.curvature and h32.shift == h.shift
    if storage == "dense":
        assert [a_b.shape[0] for a_b, _ in h._blocks] == [16] * 6 + [4]
        assert [a_b.shape[0] for a_b, _ in h32._blocks] == [32] * 3 + [4]
    assert all(w_b.dtype == np.float64 for _, w_b in h32._blocks)
    for d in (rng.standard_normal(m.p), rng.standard_normal(m.p).astype(np.float32)):
        hd, hd32 = h @ d, h32 @ d
        assert hd.dtype == hd32.dtype == np.float64
        assert np.linalg.norm(hd32 - hd) <= 1e-6 * np.linalg.norm(hd)


def test_hessian_single_logistic_component():
    m = single_row_model("logistic", [1.0, 0.0], 1.0)
    h = m.sampled_hessian([0], np.zeros(2)).dense()
    np.testing.assert_allclose(h, [[0.25, 0.0], [0.0, 0.0]], atol=1e-15)


@pytest.mark.parametrize("fixture", ["small_ridge", "small_logistic", "small_poisson"])
def test_hessian_matches_gradient_finite_differences(fixture, request):
    m = request.getfixturevalue(fixture)
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.standard_normal(m.p) * 0.3
        h = m.hessian(x)
        fd = central_diff_hessian(m.gradient, x)
        assert np.abs(fd - h).max() <= 1e-4 * max(1.0, np.abs(h).max())


def test_hessian_empty_sample_error(small_logistic):
    with pytest.raises(ValueError):
        small_logistic.sampled_hessian([], np.zeros(small_logistic.p)).dense()


def test_hessian_raw_index_out_of_range(small_logistic):
    m = small_logistic
    for idx in ([0, -1], [0, m.n]):
        with pytest.raises(ValueError, match="sample index out of range"):
            m.sampled_hessian(idx, np.zeros(m.p))


def test_hessian_raw_empty_sample_names_it(small_logistic):
    with pytest.raises(ValueError, match="sample must be non-empty"):
        small_logistic.sampled_hessian([], np.zeros(small_logistic.p))


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_raw_index_sample_is_its_sample_set(small_logistic, storage):
    """An index sequence gives the matrix of its with-replacement SampleSet,
    bit for bit, and the full ascending range reads the design's own rows
    whichever way it is given."""
    base = small_logistic
    features = base.dataset.features
    m = ObjectiveModel(Dataset(sp.csr_matrix(features) if storage == "csr" else features,
                               base.dataset.labels), base.family, reg=base.reg)
    x = np.full(m.p, 0.2)
    rng = np.random.default_rng(21)
    for idx in (rng.integers(0, m.n, size=37), [5, 5, 3], np.arange(m.n)[::-1]):
        raw = m.sampled_hessian(list(idx), x).dense()
        as_set = m.sampled_hessian(SampleSet(idx, replacement="with", source_n=m.n), x)
        np.testing.assert_array_equal(raw, as_set.dense())
    full = SampleSet(np.arange(m.n), replacement="without", source_n=m.n)
    assert m.sampled_hessian(full, x).rows is m.dataset.features
    assert m.sampled_hessian(np.arange(m.n), x).rows is m.dataset.features


@pytest.mark.parametrize("fixture", ["small_ridge", "small_logistic", "small_poisson"])
def test_sampled_hessians_stay_psd(fixture, request):
    m = request.getfixturevalue(fixture)
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = rng.standard_normal(m.p) * 0.4
        idx = rng.integers(0, m.n, size=rng.integers(1, 30))
        h = m.sampled_hessian(idx, x).dense()
        assert np.linalg.eigvalsh(h)[0] >= m.reg - 1e-10


# -- gradient-norm bound ------------------------------------------------------


def test_bound_logistic_unit_rows_is_two():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    b = np.array([1.0, 0.0, 1.0])
    m = ObjectiveModel(Dataset(features=a, labels=b), "logistic")
    assert m.gradient_norm_bound(np.array([3.0, -2.0])) == pytest.approx(2.0)


def test_bound_ridge_at_origin(small_ridge):
    m = small_ridge
    norms = np.linalg.norm(m.dataset.features, axis=1)
    expected = float((np.abs(m.dataset.labels) * norms).max())
    assert m.gradient_norm_bound(np.zeros(m.p)) == pytest.approx(expected)


@pytest.mark.parametrize("fixture", ["small_ridge", "small_logistic", "small_poisson"])
def test_bound_dominates_every_component(fixture, request):
    m = request.getfixturevalue(fixture)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.standard_normal(m.p) * 0.5
        bound = m.gradient_norm_bound(x)
        worst = max(np.linalg.norm(component_gradient(m, i, x)) for i in range(m.n))
        assert worst <= bound * (1 + 1e-12)


def test_poisson_bound_saturates():
    m = single_row_model("poisson", [1.0, 1.0], 2.0)
    huge = np.full(2, 40.0)
    assert m.gradient_norm_bound(huge) == model_module.BOUND_CAP


# -- curvature constants ------------------------------------------------------


def test_khat_and_kappa_tilde_hand_values():
    est = ConditionEstimates(gamma=1.0, big_k=2.0,
                             per_component_k=np.array([4.0, 2.0, 2.0, 2.0]))
    assert est.kappa1 == 4.0
    assert est.khat(2) == 3.0
    assert est.kappa_tilde(2, "without") == 3.0
    assert est.kappa_tilde(2, "with") == 4.0


def test_ridge_orthonormal_rows_per_component_k():
    m = ObjectiveModel(Dataset(features=np.eye(4), labels=np.zeros(4)),
                       "ridge", reg=0.5)
    est = m.curvature_constants()
    np.testing.assert_allclose(est.per_component_k, 1.5)


def test_condition_number_ordering_random_k_sets():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = rng.integers(2, 40)
        ks = rng.random(n) * 10 + 0.1
        est = ConditionEstimates(gamma=1.0, big_k=float(ks.mean()),
                                 per_component_k=ks)
        qs = sorted(rng.integers(1, n + 1, size=2))
        q, r = int(qs[0]), int(qs[1])
        assert est.kappa <= est.kappa_tilde(n, "without") + 1e-12
        assert est.kappa_tilde(r, "without") <= est.kappa_tilde(q, "without") + 1e-12


@pytest.mark.parametrize("fixture", ["small_ridge", "small_logistic", "small_poisson"])
def test_model_constants_bound_true_curvature(fixture, request):
    """gamma I <= full Hessian <= K I at random points, and each component
    Hessian <= K_i I (Poisson: inside the radius used for the constants)."""
    m = request.getfixturevalue(fixture)
    radius = 1.0
    est = m.curvature_constants(domain_radius=radius)
    rng = np.random.default_rng(29)
    for _ in range(10):
        x = rng.standard_normal(m.p)
        x *= radius * rng.random() / np.linalg.norm(x)
        eigs = np.linalg.eigvalsh(m.hessian(x))
        assert eigs[0] >= est.gamma - 1e-9
        assert eigs[-1] <= est.big_k + 1e-9
        i = int(rng.integers(m.n))
        hi = m.sampled_hessian([i], x).dense()
        assert np.linalg.eigvalsh(hi)[-1] <= est.per_component_k[i] + 1e-9


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("family", ["ridge", "logistic"])
def test_constant_curvature_bounds_from_one_unweighted_gram(family, storage, monkeypatch):
    """gamma = reg + c_lo*lambda_min and K = reg + c_hi*lambda_max agree with
    explicitly weighted Grams, from one Gram and one eigvalsh."""
    rng = np.random.default_rng(43)
    a = rng.standard_normal((300, 9)) * rng.random(9)
    a[rng.random(a.shape) < 0.3] = 0.0
    b = (rng.random(300) < 0.5).astype(float)
    feats = sp.csr_matrix(a) if storage == "sparse" else a
    m = ObjectiveModel(Dataset(features=feats, labels=b), family, reg=0.07)
    calls = {"weighted_gram": 0, "eigvalsh": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(model_module, "weighted_gram")
    counted(np.linalg, "eigvalsh")
    est = m.curvature_constants()
    monkeypatch.undo()
    assert calls == {"weighted_gram": 1, "eigvalsh": 1}

    fam = model_module.FAMILIES[family]

    def reference(c):
        eigs = np.linalg.eigvalsh(a.T @ (np.full((300, 1), c) * a) / 300)
        return eigs[0], eigs[-1]
    assert est.big_k == pytest.approx(0.07 + reference(fam.curvature_hi)[1], rel=1e-12)
    if fam.curvature_lo > 0:
        assert est.gamma == pytest.approx(0.07 + reference(fam.curvature_lo)[0], rel=1e-12)
    else:
        assert est.gamma == 0.07


@pytest.mark.parametrize("family", ["ridge", "logistic"])
def test_curvature_bound_and_constants_share_the_unweighted_gram(family, monkeypatch):
    """gamma and K are bit-identical to eigvalsh of weighted_gram(A)/n, from
    one Gram.  The full Hessian at zero is the curvature bound
    c_hi A'A/n + reg I (Phi''(0) = c_hi for both families), whose top
    eigenvalue is K."""
    dataset, _ = generate_synthetic(300, 9, family=family, seed=6, condition_target=1e3)
    m = ObjectiveModel(dataset, family, reg=0.03)
    grams = []
    gram = model_module.weighted_gram

    def counted(*args):
        grams.append(args)
        return gram(*args)
    monkeypatch.setattr(model_module, "weighted_gram", counted)
    est = m.curvature_constants()
    assert len(grams) == 1
    monkeypatch.undo()
    fam = model_module.FAMILIES[family]
    eigs = np.linalg.eigvalsh(gram(dataset.features) / 300)
    assert est.big_k == 0.03 + fam.curvature_hi * float(eigs[-1])
    if fam.curvature_lo > 0:
        assert est.gamma == 0.03 + fam.curvature_lo * float(eigs[0])

    bound = fam.curvature_hi * (dataset.features.T @ dataset.features) / 300 \
        + 0.03 * np.eye(9)
    start = m.hessian(np.zeros(9))
    np.testing.assert_array_equal(start, start.T)
    assert np.abs(start - bound).max() <= 1e-15 * np.abs(bound).max()
    assert np.linalg.eigvalsh(start)[-1] == pytest.approx(est.big_k, rel=1e-12)


def test_curvature_constants_kept_per_model_and_read_only(monkeypatch):
    dataset, _ = generate_synthetic(300, 9, family="logistic", seed=5)
    m = ObjectiveModel(dataset, "logistic", reg=0.01)
    unweighted = []
    gram = model_module.weighted_gram

    def counted(a, w=None, out=None):
        if w is None:
            unweighted.append(a)
        return gram(a, w, out)
    monkeypatch.setattr(model_module, "weighted_gram", counted)
    cfg = SolverConfig(variant="ssn-hessian", sample_frac_h=0.5, max_iters=5, seed=1)
    first = run(m, cfg, np.zeros(m.p))
    second = run(m, replace(cfg, seed=2), np.zeros(m.p))
    assert len(unweighted) == 1
    assert first.header["kappa"] == second.header["kappa"]
    est = m.curvature_constants()
    assert m.curvature_constants(domain_radius=3.0) is est  # the radius is Poisson's
    with pytest.raises(ValueError, match="read-only"):
        est.per_component_k[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        est.gamma = 0.0
    with pytest.raises(AttributeError):
        m.reg = 1.0
    assert est.khat(1) == float(np.max(est.per_component_k))


def test_poisson_curvature_constants_kept_per_radius(monkeypatch):
    rng = np.random.default_rng(23)
    a = rng.standard_normal((200, 8)) * 0.3
    b = rng.poisson(np.exp(a @ rng.standard_normal(8) * 0.5)).astype(float)
    m = ObjectiveModel(Dataset(features=a, labels=b), "poisson", reg=0.1)
    grams = []
    gram = model_module.weighted_gram

    def counted(*args):
        grams.append(args)
        return gram(*args)
    monkeypatch.setattr(model_module, "weighted_gram", counted)
    cfg = SolverConfig(variant="gd", max_iters=3)
    run(m, cfg, np.zeros(m.p))  # radius 2 ||x0|| + 1 = 1
    run(m, cfg, np.zeros(m.p))
    assert len(grams) == 1
    radius = 2.0 * float(np.linalg.norm(np.full(m.p, 0.1))) + 1.0
    run(m, cfg, np.full(m.p, 0.1))  # a new radius
    assert len(grams) == 2
    assert m.curvature_constants(domain_radius=radius) is \
        m.curvature_constants(domain_radius=radius)
    assert len(grams) == 2
    m.curvature_constants()  # back to the default radius 1
    assert len(grams) == 3


@pytest.mark.parametrize("storage", ["dense", "sparse"])
def test_sampled_hessian_from_margins_matches_the_x_form(small_logistic, storage):
    """Given t = A x, the weights are Phi''(t[S]).  CSR rows and the full
    index range reproduce the x-only form bitwise.  A dense BLAS product
    with a subset of rows may round a row differently (OpenBLAS handles
    rows past the last multiple of 4 in a separate kernel), so there the
    two forms agree to rounding."""
    feats = small_logistic.dataset.features
    if storage == "sparse":
        feats = sp.csr_matrix(np.where(np.abs(feats) < 0.5, 0.0, feats))
    m = ObjectiveModel(Dataset(features=feats, labels=small_logistic.dataset.labels),
                       "logistic", reg=0.05)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(m.p)
    t = m._margins(x)
    for idx in (rng.choice(m.n, 1), rng.choice(m.n, 7), rng.choice(m.n, 64, replace=False),
                np.arange(m.n)):
        from_t, from_x = m.sampled_hessian(idx, x, t), m.sampled_hessian(idx, x)
        np.testing.assert_array_equal(from_t.curvature, LogisticFamily.phi_double(t[idx]))
        if storage == "sparse" or idx.size == m.n:
            np.testing.assert_array_equal(from_t.curvature, from_x.curvature)
            np.testing.assert_array_equal(from_t.dense(), from_x.dense())
        else:
            np.testing.assert_allclose(from_t.curvature, from_x.curvature, rtol=1e-13)
            np.testing.assert_allclose(from_t.dense(), from_x.dense(), rtol=1e-13,
                                       atol=1e-15)


def test_rank_deficient_ridge_flagged_not_strongly_convex():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    m = ObjectiveModel(Dataset(features=a, labels=np.zeros(3)), "ridge", reg=0.0)
    est = m.curvature_constants()
    assert not est.strongly_convex
    assert est.kappa == math.inf


def test_labels_validated_per_family():
    a = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        ObjectiveModel(Dataset(features=a, labels=np.array([0.5])), "logistic")
    with pytest.raises(ValueError):
        ObjectiveModel(Dataset(features=a, labels=np.array([-1.0])), "poisson")
    with pytest.raises(ValueError):
        ObjectiveModel(Dataset(features=a, labels=np.array([1.5])), "poisson")


def test_sparse_storage_matches_dense(small_logistic):
    dense = small_logistic
    sparse_ds = Dataset(features=sp.csr_matrix(dense.dataset.features),
                        labels=dense.dataset.labels)
    m = ObjectiveModel(sparse_ds, "logistic", reg=dense.reg)
    assert sparse_ds.storage == "sparse"
    x = np.linspace(-0.3, 0.3, dense.p)
    assert m.value(x) == pytest.approx(dense.value(x), rel=1e-14)
    np.testing.assert_allclose(m.gradient(x), dense.gradient(x), atol=1e-12)
    np.testing.assert_allclose(m.hessian(x), dense.hessian(x), atol=1e-12)
    np.testing.assert_allclose(
        m.sampled_hessian([3, 5], x).dense(),
        dense.sampled_hessian([3, 5], x).dense(), atol=1e-12)


def test_sparse_non_finite_features_rejected():
    a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, np.nan]]))
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(features=a, labels=np.zeros(2))


def test_dense_non_finite_features_rejected_in_any_row_block():
    """The finite check walks the row blocks; an entry in the last one is
    found as one in the first is."""
    a = np.ones((3 * model_module.ROW_BLOCK_BYTES // (8 * 4), 4))
    for row in (0, -1):
        bad = a.copy()
        bad[row, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(features=bad, labels=np.zeros(a.shape[0]))


@pytest.mark.parametrize("p", [model_module.COLUMN_MAJOR_MAX_P,
                               model_module.COLUMN_MAJOR_MAX_P + 1])
def test_dense_non_finite_features_rejected_in_either_layout(p):
    """The finite check's row blocks are strided views of a column-major
    design and contiguous ones of a row-major design; it finds an entry in
    either, in the first row or the last, the first column or the last."""
    a = np.ones((3 * model_module.ROW_BLOCK_BYTES // (8 * p), p))
    for row, col in ((0, 0), (-1, -1), (-1, 0)):
        bad = a.copy()
        bad[row, col] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(features=bad, labels=np.zeros(a.shape[0]))
    assert Dataset(a, np.zeros(a.shape[0])).features.flags[
        "F_CONTIGUOUS" if p <= model_module.COLUMN_MAJOR_MAX_P else "C_CONTIGUOUS"]


@pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
def test_empty_designs_rejected(shape):
    for a in (np.zeros(shape), sp.csr_matrix(shape)):
        with pytest.raises(ValueError, match="n >= 1 rows"):
            Dataset(features=a, labels=np.zeros(shape[0]))


def test_model_construction_makes_no_design_sized_temporary():
    """Dataset's finite check and the row norms walk the row blocks, with
    no n x p temporary; the norms equal the whole-design ones bit for bit."""
    dataset, _ = generate_synthetic(20_000, 50, seed=3)
    a, b = dataset.features, dataset.labels
    tracemalloc.start()
    try:
        m = ObjectiveModel(Dataset(a, b), "logistic", reg=1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * a.nbytes
    assert m._row_norms is m.dataset.row_norms()  # one array, not a copy
    np.testing.assert_array_equal(m.dataset.row_norms(), np.linalg.norm(a, axis=1))


def test_csr_row_norms_are_taken_once_and_shared():
    """A CSR design's norms are taken on first read, as CSR's own row sums
    of the squares give them, and the model holds that array itself."""
    rng = np.random.default_rng(21)
    a = sp.random(300, 40, density=0.1, format="csr", random_state=rng,
                  data_rvs=rng.standard_normal)
    dataset = Dataset(a, np.zeros(300))
    m = ObjectiveModel(dataset, "logistic", reg=1e-3)
    assert m._row_norms is dataset.row_norms() is dataset.row_norms()
    expected = np.sqrt(np.asarray(a.multiply(a).sum(axis=1)).ravel())
    assert dataset.row_norms().tobytes() == expected.tobytes()
    assert not dataset.row_norms().flags.writeable


@pytest.mark.parametrize("p", [model_module.COLUMN_MAJOR_MAX_P,
                               model_module.COLUMN_MAJOR_MAX_P + 1])
def test_finite_entries_whose_squares_overflow_load_with_an_inf_norm(p):
    """The row norms are the finite check, and a row of entries near 1e200 has
    an inf norm though every entry is finite: it loads, with no warning, and
    its norm reads inf, as np.linalg.norm's does; every other norm is
    np.linalg.norm's bit for bit."""
    a = np.random.default_rng(p).standard_normal((3 * model_module.ROW_BLOCK_BYTES // (8 * p), p))
    a[-1] = 1e200
    dataset = Dataset(a, np.zeros(a.shape[0]))
    with np.errstate(over="ignore"):
        expected = np.linalg.norm(dataset.features, axis=1)
    assert dataset.row_norms()[-1] == np.inf
    assert dataset.row_norms().tobytes() == expected.tobytes()
    assert not dataset.row_norms().flags.writeable


@pytest.mark.parametrize("p", [1, 50, model_module.COLUMN_MAJOR_MAX_P])
def test_narrow_dense_design_is_column_major_with_its_input_values(p):
    a = np.random.default_rng(p).standard_normal((300, p))
    features = Dataset(a, np.zeros(300)).features
    assert features.flags.f_contiguous and features.dtype == np.float64
    assert features.tobytes() == a.tobytes()


def test_wide_dense_design_stays_row_major():
    p = model_module.COLUMN_MAJOR_MAX_P + 1
    a = np.random.default_rng(1).standard_normal((300, p))
    for given in (a, np.asfortranarray(a)):
        features = Dataset(given, np.zeros(300)).features
        assert features.flags.c_contiguous and not features.flags.f_contiguous
        assert features.tobytes() == a.tobytes()
    assert Dataset(a, np.zeros(300)).features is a  # row-major float64: no copy


@pytest.mark.parametrize("p", [50, model_module.COLUMN_MAJOR_MAX_P + 1])
def test_dense_design_in_its_stored_order_is_adopted_without_a_copy(p):
    """A float64 array already in ``dense_order(p)`` is the stored design;
    any other order or dtype is copied with its values."""
    a = np.random.default_rng(p).standard_normal((300, p))
    stored = model_module.dense_order(p)
    other = "C" if stored == "F" else "F"
    given = np.asarray(a, order=stored)
    assert np.shares_memory(Dataset(given, np.zeros(300)).features, given)
    a32 = np.asarray(a, dtype=np.float32, order=stored)
    for given, values in ((np.asarray(a, order=other), a), (a32, a32.astype(np.float64))):
        features = Dataset(given, np.zeros(300)).features
        assert not np.shares_memory(features, given)
        assert features.dtype == np.float64 and features.flags[f"{stored}_CONTIGUOUS"]
        np.testing.assert_array_equal(features, values)


def test_csr_design_keeps_its_storage():
    a = sp.random(300, 20, density=0.1, format="csr", random_state=0)
    features = Dataset(a, np.zeros(300)).features
    assert sp.issparse(features) and features.format == "csr"
    np.testing.assert_array_equal(features.toarray(), a.toarray())


def row_major_twin(column, monkeypatch):
    """The model on the same values as column-major ``column``, stored
    row-major."""
    monkeypatch.setattr(model_module, "COLUMN_MAJOR_MAX_P", 0)
    row = ObjectiveModel(Dataset(column.dataset.features, column.dataset.labels),
                         column.family, reg=column.reg)
    assert column.dataset.features.flags.f_contiguous
    assert row.dataset.features.flags.c_contiguous
    return row


def assert_close(got, want, rtol=1e-12):
    assert np.linalg.norm(np.subtract(got, want)) <= rtol * np.linalg.norm(want)


@pytest.mark.parametrize("family", ["ridge", "logistic", "poisson"])
def test_evaluate_agrees_across_both_layouts(family, monkeypatch):
    column = block_model(family, 6000, 50, "dense", seed=6)
    row = row_major_twin(column, monkeypatch)
    x = 0.2 * np.random.default_rng(2).standard_normal(50)
    (t_c, f_c, g_c), (t_r, f_r, g_r) = column.evaluate(x), row.evaluate(x)
    assert_close(t_c, t_r)
    assert abs(f_c - f_r) <= 1e-12 * abs(f_r)
    assert_close(g_c, g_r)


# 7 rows per block at p = 50: 1003 rows span 144 blocks and end in a part block
@pytest.mark.parametrize("family", ["ridge", "logistic", "poisson"])
def test_ragged_row_blocks_agree_across_both_layouts(family, monkeypatch):
    monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", 7 * 50 * 8)
    column = block_model(family, 1003, 50, "dense", seed=4)
    row = row_major_twin(column, monkeypatch)
    x = 0.2 * np.random.default_rng(3).standard_normal(50)
    for m in (column, row):
        assert len(m._blocks) == 144 and m._blocks[-1][1].shape[0] == 1003 % 7
    (t_c, f_c, g_c), (t_r, f_r, g_r) = column.evaluate(x), row.evaluate(x)
    assert_close(t_c, t_r)
    assert abs(f_c - f_r) <= 1e-12 * abs(f_r)
    assert_close(g_c, g_r)
    assert_close(column.gradient(x), row.gradient(x))  # A x and A'w walked apart
    assert abs(column.value(x) - row.value(x)) <= 1e-12 * abs(f_r)
    # at x = 0 the walk makes A'w alone
    (_, f0_c, g0_c), (_, f0_r, g0_r) = column.evaluate(np.zeros(50)), row.evaluate(np.zeros(50))
    assert f0_c == f0_r
    assert_close(g0_c, g0_r)


@pytest.mark.parametrize("family", ["ridge", "logistic", "poisson"])
def test_samples_agree_across_both_layouts(family, monkeypatch):
    """A gathered sample, its sampled gradient and the full Hessian from
    the design's own rows agree on either layout to rounding."""
    column = block_model(family, 3000, 40, "dense", seed=9)
    row = row_major_twin(column, monkeypatch)
    rng = np.random.default_rng(10)
    x = 0.2 * rng.standard_normal(40)
    sample = SampleSet(rng.integers(0, 3000, 700), replacement="with", source_n=3000)
    h_c, h_r = column.sampled_hessian(sample, x), row.sampled_hessian(sample, x)
    assert_close(h_c.dense(), h_r.dense())
    d = rng.standard_normal(40)
    assert_close(h_c @ d, h_r @ d)
    assert_close(subsampled_gradient(column, x, sample), subsampled_gradient(row, x, sample))
    assert_close(column.hessian(x), row.hessian(x))


def test_a_tall_run_keeps_no_copy_of_the_design():
    """An ssn-hessian run on a built 100000 x 50 model allocates far less
    than a float32 copy of its design (n p 4 bytes)."""
    dataset, _ = generate_synthetic(100_000, 50, family="logistic", seed=5)
    m = ObjectiveModel(dataset, "logistic", reg=1e-4)
    cfg = SolverConfig(variant="ssn-hessian", sample_frac_h=0.01, seed=3)
    tracemalloc.start()
    try:
        trace = run(m, cfg, np.zeros(m.p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.stop == "GradTol"
    assert peak < m.n * m.p * 4 / 2


def test_sparse_integer_features_cast_to_float():
    a = sp.csr_matrix(np.array([[1, 0], [0, 3]], dtype=np.int64))
    ds = Dataset(features=a, labels=np.zeros(2))
    assert ds.features.dtype == np.float64
    np.testing.assert_array_equal(ds.features.toarray(), [[1.0, 0.0], [0.0, 3.0]])


def test_sparse_duplicate_entries_summed_into_canonical_form():
    # row 0 stores column 1 twice, out of order: 2 + 5 at (0, 1)
    a = sp.csr_matrix((np.array([2.0, 1.0, 5.0]), np.array([1, 0, 1]), np.array([0, 3, 3])),
                      shape=(2, 2))
    assert not a.has_canonical_format
    ds = Dataset(features=a, labels=np.zeros(2))
    assert ds.features.has_canonical_format
    np.testing.assert_array_equal(ds.features.indices, [0, 1])
    np.testing.assert_array_equal(ds.features.toarray(), [[1.0, 7.0], [0.0, 0.0]])
    assert not a.has_canonical_format  # the caller's matrix is left as it was


def test_dimension_mismatch_rejected(small_logistic):
    with pytest.raises(ValueError):
        small_logistic.value(np.zeros(small_logistic.p + 1))


def test_high_dimension_gamma_falls_back_to_penalty():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((2100, 2050)) * 0.1
    m = ObjectiveModel(Dataset(features=a, labels=np.zeros(2100)), "ridge", reg=0.3)
    est = m.curvature_constants()
    assert est.gamma == 0.3  # exact eigensolve skipped above the size cutoff
    assert est.big_k == pytest.approx(float(np.mean(est.per_component_k)))
