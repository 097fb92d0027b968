from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp

from subnewton import model as model_module
from subnewton.model import EXP_CLAMP, ConditionEstimates, Dataset, EvaluationError, \
    LogisticFamily, ObjectiveModel, PoissonFamily, RidgeFamily, _sigmoid

from conftest import central_diff_gradient, central_diff_hessian


def single_row_model(family, a, b, reg=0.0):
    return ObjectiveModel(Dataset(features=np.array([a]), labels=np.array([b])),
                          family, reg)


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
    mean = np.mean([m.component_gradient(i, x) for i in range(m.n)], axis=0)
    np.testing.assert_allclose(mean, m.gradient(x), atol=1e-12)


def test_component_gradient_logistic_hand():
    m = single_row_model("logistic", [1.0, 0.0], 1.0)
    np.testing.assert_allclose(m.component_gradient(0, np.zeros(2)), [-0.5, 0.0],
                               atol=1e-15)


def test_component_gradient_ridge_zero_residual():
    m = single_row_model("ridge", [2.0, 0.0], 2.0)
    np.testing.assert_allclose(m.component_gradient(0, np.array([1.0, 0.0])),
                               [0.0, 0.0], atol=1e-15)


def test_component_gradient_index_error(small_logistic):
    with pytest.raises(IndexError):
        small_logistic.component_gradient(small_logistic.n, np.zeros(small_logistic.p))


def test_hessian_full_sample_identity(small_logistic):
    m = small_logistic
    x = np.full(m.p, 0.2)
    h_all = m.sampled_hessian(np.arange(m.n), x).dense()
    np.testing.assert_allclose(h_all, m.hessian(x), atol=1e-12)


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
        worst = max(np.linalg.norm(m.component_gradient(i, x)) for i in range(m.n))
        assert worst <= bound * (1 + 1e-12)


def test_poisson_bound_saturates():
    m = single_row_model("poisson", [1.0, 1.0], 2.0)
    huge = np.full(2, 40.0)
    assert m.gradient_norm_bound(huge) == m.bound_cap


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
        assert est.kappa <= est.kappa_q(n) + 1e-12
        assert est.kappa_q(r) <= est.kappa_q(q) + 1e-12


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
