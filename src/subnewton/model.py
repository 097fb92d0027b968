"""Finite-sum GLM objectives with component-wise calculus and curvature constants.

The objective has the form

    F(x) = (1/n) sum_i f_i(x),
    f_i(x) = Phi(a_i'x) - b_i a_i'x + (reg/2) ||x||^2,

where Phi is the cumulant generating function of the family.  The l2
penalty is folded into every component so that the finite-sum structure is
exact: component means reproduce the full gradient/Hessian bit-for-bit.

Three families are provided: ridge regression (Phi(t) = t^2/2), logistic
regression (Phi(t) = ln(1+e^t)) and Poisson regression (Phi(t) = e^t).

A model's data and reg are fixed once it is built, so its curvature
constants are computed once per model and kept, read-only: later runs and
plans on the same model reuse them.  Poisson's depend on a domain radius,
and the model keeps those of the last radius asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# exp() arguments are clamped here; e^700 is just below the float64 overflow
# edge, so individual terms stay finite and only aggregate overflow can occur.
EXP_CLAMP = 700.0

# Hard ceiling for per-component gradient-norm bounds (Poisson blows up in
# exp(||x||^2/2)); callers compare against this to detect saturation.
BOUND_CAP = 1e300

# Exact smallest-eigenvalue computation of the data Gram term is only done up
# to this dimension; above it the strong-convexity estimate falls back to reg.
EXACT_GAMMA_MAX_DIM = 2000


class EvaluationError(ArithmeticError):
    """Objective or derivative evaluation produced a non-finite value."""


# Link kernels.  Phi, Phi' and Phi'' run over all n margins at every
# evaluation, so on a tall problem they cost as much as the products A x and
# A'w.  They are whole-array ufuncs over e^{-|t|}, which cannot overflow, with
# no boolean-mask gathers.  scipy.special.expit is faster still but is not
# used: importing scipy.special adds about 3.4 MiB of resident memory.


def _sigmoid(t):
    # 1/(1+e^{-t}) for t >= 0 and e^t/(1+e^t) below, both from one e^{-|t|};
    # bit-identical to evaluating the two branches separately
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


class RidgeFamily:
    name = "ridge"
    curvature_hi = 1.0  # sup of Phi'' over R
    curvature_lo = 1.0  # inf of Phi'' over R

    @staticmethod
    def phi(t):
        return 0.5 * t * t

    @staticmethod
    def phi_prime(t):
        return np.asarray(t, dtype=float)

    @staticmethod
    def phi_double(t):
        return np.ones_like(t, dtype=float)

    @staticmethod
    def validate_labels(b):
        if not np.all(np.isfinite(b)):
            raise ValueError("ridge labels must be finite reals")


class LogisticFamily:
    name = "logistic"
    curvature_hi = 0.25
    curvature_lo = 0.0

    @staticmethod
    def phi(t):
        # ln(1+e^t) = max(t,0) + log1p(e^{-|t|}), the formula np.logaddexp(0, t)
        # evaluates, written as vectorized ufuncs (2x faster, within 3 ulp)
        return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))

    @staticmethod
    def phi_prime(t):
        return _sigmoid(np.asarray(t, dtype=float))

    @staticmethod
    def phi_double(t):
        s = _sigmoid(np.asarray(t, dtype=float))
        return s * (1.0 - s)

    @staticmethod
    def validate_labels(b):
        if not np.all(np.isin(b, (0.0, 1.0))):
            raise ValueError("logistic labels must lie in {0, 1}")


class PoissonFamily:
    name = "poisson"
    curvature_hi = math.inf  # unbounded globally; bounded on a ball by caller
    curvature_lo = 0.0

    @staticmethod
    def phi(t):
        return np.exp(np.minimum(t, EXP_CLAMP))

    phi_prime = phi
    phi_double = phi

    @staticmethod
    def validate_labels(b):
        if np.any(b < 0) or not np.all(b == np.floor(b)):
            raise ValueError("poisson labels must be nonnegative integers")


FAMILIES = {
    "ridge": RidgeFamily,
    "logistic": LogisticFamily,
    "poisson": PoissonFamily,
}


@dataclass(frozen=True)
class Dataset:
    """Immutable design matrix plus labels.

    ``features`` is (n, p), dense ndarray or CSR sparse; ``labels`` is (n,).
    """

    features: object
    labels: np.ndarray

    def __post_init__(self):
        feats = self.features
        if sp.issparse(feats):
            # a float64 copy in canonical form: sorted, duplicates summed
            feats = feats.tocsr().astype(float)
            feats.sum_duplicates()
            values = feats.data
        else:
            feats = np.asarray(feats, dtype=float)
            if feats.ndim != 2:
                raise ValueError("features must be a 2-D array")
            values = feats
        if not np.all(np.isfinite(values)):
            raise ValueError("features contain non-finite entries")
        object.__setattr__(self, "features", feats)
        labels = np.asarray(self.labels, dtype=float).ravel()
        object.__setattr__(self, "labels", labels)
        n, p = self.features.shape
        if n < 1 or p < 1:
            raise ValueError("need n >= 1 rows and p >= 1 columns")
        if labels.shape[0] != n:
            raise ValueError(f"{labels.shape[0]} labels for {n} rows")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @property
    def storage(self) -> str:
        return "sparse" if sp.issparse(self.features) else "dense"

    def row_norms(self) -> np.ndarray:
        a = self.features
        if sp.issparse(a):
            return np.sqrt(np.asarray(a.multiply(a).sum(axis=1)).ravel())
        return np.linalg.norm(a, axis=1)

    def rows_dense(self, idx) -> np.ndarray:
        a = self.features[idx]
        return a.toarray() if sp.issparse(a) else a


def weighted_gram(a, w: np.ndarray | None = None) -> np.ndarray:
    """A' diag(w) A as a dense array, for dense or CSR rows A and weights
    w >= 0; without ``w`` it is A'A, formed with no weighted copy of A.

    Dense rows form it as the self-product B'B of B = sqrt(w) A, which numpy
    computes by a symmetric rank-k update: half the flops of the general
    product (w A)'A.  CSR rows gain nothing from that and keep (w A)'A.
    """
    if sp.issparse(a):
        gram = (a if w is None else a.multiply(w[:, None])).T @ a
        return gram.toarray()
    b = a if w is None else a * np.sqrt(w)[:, None]
    return b.T @ b


@dataclass(frozen=True)
class SampledHessian:
    """(1/|S|) A_S' diag(Phi''(A_S x)) A_S + shift * I, held as the gathered
    rows A_S and their curvatures.

    ``shift`` is the objective's reg; ssn-ridge adds its lambda_user to it.
    ``h @ d`` costs two products with A_S, O(nnz(A_S)) for dense or CSR
    rows, and never forms the p x p matrix.  ``dense()`` assembles it,
    keeping the sample's index order, so identical index sequences give
    bit-identical matrices.
    """

    rows: object  # A_S, dense or CSR
    curvature: np.ndarray  # Phi''(A_S x)
    shift: float

    def __matmul__(self, d: np.ndarray) -> np.ndarray:
        w = self.curvature / self.curvature.size
        return np.asarray(self.rows.T @ (w * np.asarray(self.rows @ d).ravel())).ravel() \
            + self.shift * d

    def dense(self) -> np.ndarray:
        h = weighted_gram(self.rows, self.curvature)
        h /= self.curvature.size
        h[np.diag_indices_from(h)] += self.shift
        if not np.all(np.isfinite(h)):
            raise EvaluationError("hessian accumulation is non-finite")
        return h


@dataclass(frozen=True)
class ConditionEstimates:
    """Curvature constants of a finite-sum objective.

    gamma is a strong-convexity lower bound of the full Hessian, big_k a
    smoothness upper bound, and per_component_k holds one smoothness bound
    per f_i.  khat(q) is the mean of the q largest per-component bounds; the
    condition numbers kappa = K/gamma and, for q rows drawn without
    replacement, kappa_tilde = khat(q)/gamma follow.
    Frozen, with read-only arrays, since a model shares one with all callers.
    """

    gamma: float
    big_k: float
    per_component_k: np.ndarray
    _prefix_means: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ks = np.array(self.per_component_k, dtype=float)
        means = np.cumsum(np.sort(ks)[::-1]) / np.arange(1, ks.size + 1)
        for name, arr in (("per_component_k", ks), ("_prefix_means", means)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.per_component_k.size

    @property
    def strongly_convex(self) -> bool:
        return self.gamma > 0.0

    def khat(self, q: int) -> float:
        """Mean of the q largest per-component smoothness constants."""
        if not 1 <= q <= self.n:
            raise ValueError(f"q must be in [1, {self.n}], got {q}")
        return float(self._prefix_means[q - 1])

    @property
    def kappa(self) -> float:
        return self.big_k / self.gamma if self.gamma > 0 else math.inf

    @property
    def kappa1(self) -> float:
        return self.khat(1) / self.gamma if self.gamma > 0 else math.inf

    def draw_khat(self, sample_size: int, replacement: str) -> float:
        """Smoothness bound of a sampled Hessian: K_max = khat(1) when drawing
        with replacement (any component may repeat), khat(min(|S|, n))
        without."""
        if replacement == "with":
            return self.khat(1)
        if replacement == "without":
            return self.khat(min(sample_size, self.n))
        raise ValueError(f"replacement must be 'with' or 'without', got {replacement!r}")

    def kappa_tilde(self, sample_size: int, replacement: str) -> float:
        """Sampling condition number draw_khat / gamma: kappa_1 or kappa_{|S|}."""
        khat = self.draw_khat(sample_size, replacement)
        return khat / self.gamma if self.gamma > 0 else math.inf


class ObjectiveModel:
    """A GLM finite-sum objective bound to a dataset.

    Per-dataset constants used by the gradient-norm bound are computed once
    at construction, so evaluating the bound at an iterate only costs ||x||.
    ``reg`` is fixed at construction.
    """

    def __init__(self, dataset: Dataset, family: str, reg: float = 0.0):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; pick from {sorted(FAMILIES)}")
        if reg < 0:
            raise ValueError("l2 penalty weight must be nonnegative")
        self.dataset = dataset
        self.family = family
        self._fam = FAMILIES[family]
        self._reg = float(reg)
        self._fam.validate_labels(dataset.labels)

        norms = dataset.row_norms()
        absb = np.abs(dataset.labels)
        self._row_norms = norms
        self._max_bnorm = float((absb * norms).max())
        self._max_sq_plus_reg = float((norms**2).max() + self.reg)
        self._max_one_plus_b_norm = float(((1.0 + absb) * norms).max())
        # log of max_i ||a_i|| e^{||a_i||^2 / 2}, kept in log space to defer overflow
        with np.errstate(divide="ignore"):
            self._log_poisson_row = float(
                np.max(np.where(norms > 0, np.log(norms), -np.inf) + 0.5 * norms**2)
            )
        self.data_passes = 0  # full-data products so far (A x and A'w)
        self._constants: tuple[float | None, ConditionEstimates] | None = None

    @property
    def reg(self) -> float:
        return self._reg

    # -- scalar objective ------------------------------------------------

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def p(self) -> int:
        return self.dataset.p

    def _margins(self, x):
        # every full-data product A x goes through here; A'w is in gradient
        self.data_passes += 1
        return np.asarray(self.dataset.features @ x).ravel()

    def value(self, x: np.ndarray, t: np.ndarray | None = None) -> float:
        """F(x) = mean(Phi(a_i'x) - b_i a_i'x) + (reg/2)||x||^2; given the
        margins t = A x, it costs O(n) instead of a pass over the data."""
        x = self._check_x(x)
        with np.errstate(over="ignore", invalid="ignore"):
            if t is None:
                t = self._margins(x)
            # b't as one dot product, with no n-length b*t temporary
            val = float(np.mean(self._fam.phi(t))) \
                - float(self.dataset.labels @ t) / self.n \
                + 0.5 * self.reg * float(x @ x)
        if not math.isfinite(val):
            # max|x_i| cannot overflow where ||x|| can
            raise EvaluationError(
                f"objective value is non-finite at max|x_i|={float(np.max(np.abs(x))):.3g}")
        return val

    def gradient(self, x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
        """mean_i (Phi'(a_i'x) - b_i) a_i + reg * x; ``t`` as in ``value``."""
        x = self._check_x(x)
        if t is None:
            t = self._margins(x)
        w = self._fam.phi_prime(t) - self.dataset.labels
        self.data_passes += 1
        g = np.asarray(self.dataset.features.T @ w).ravel() / self.n + self.reg * x
        if not np.all(np.isfinite(g)):
            raise EvaluationError("gradient is non-finite")
        return g

    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        """Gradient of the single component f_i; the mean over all i equals
        the full gradient."""
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range [0, {self.n})")
        x = self._check_x(x)
        a = self.dataset.rows_dense([i]).ravel()
        t = np.array([a @ x])
        w = float(self._fam.phi_prime(t)[0] - self.dataset.labels[i])
        return w * a + self.reg * x

    def sampled_hessian(self, indices, x: np.ndarray,
                        t: np.ndarray | None = None) -> SampledHessian:
        """(1/|S|) sum_{j in S} Phi''(a_j'x) a_j a_j' + reg * I, unassembled:
        gathers the rows A_S and their curvatures Phi''(A_S x).  Given the
        iterate's margins t = A x, the curvatures come from t[S] with no
        product A_S x.  S = 0..n-1 reproduces the full Hessian exactly."""
        idx = np.asarray(indices, dtype=int).ravel()
        if idx.size == 0:
            raise ValueError("empty sample")
        if idx.min() < 0 or idx.max() >= self.n:
            raise IndexError("sample index out of range")
        x = self._check_x(x)
        a_s = self.dataset.features[idx]
        t_s = np.asarray(a_s @ x).ravel() if t is None else t[idx]
        return SampledHessian(a_s, self._fam.phi_double(t_s), self.reg)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Full Hessian from the dataset's own rows, with no gathered copy;
        for CSR or C-ordered dense rows it is the all-indices sample
        assembled, bit for bit."""
        x = self._check_x(x)
        a = self.dataset.features
        t = np.asarray(a @ x).ravel()
        return SampledHessian(a, self._fam.phi_double(t), self.reg).dense()

    # -- bounds and constants ---------------------------------------------

    def gradient_norm_bound(self, x: np.ndarray) -> float:
        """G(x) with ||grad f_i(x)|| <= G(x) for every component.

        Family-specific closed forms over precomputed data constants; the
        Poisson bound saturates at ``BOUND_CAP`` instead of overflowing.
        """
        x = self._check_x(x)
        xnorm = float(np.linalg.norm(x))
        if self.family == "ridge":
            return xnorm * self._max_sq_plus_reg + self._max_bnorm
        if self.family == "logistic":
            return self.reg * xnorm + self._max_one_plus_b_norm
        log_mid = 0.5 * xnorm**2 + self._log_poisson_row
        mid = math.exp(log_mid) if log_mid < math.log(BOUND_CAP) else BOUND_CAP
        return min(self.reg * xnorm + mid + self._max_bnorm, BOUND_CAP)

    def curvature_constants(self, domain_radius: float | None = None) -> ConditionEstimates:
        """Per-component and aggregate curvature bounds.

        K_i = c_i ||a_i||^2 + reg with c_i the family's Phi'' bound; for
        Poisson, Phi'' is unbounded globally and is bounded over the ball
        ||x|| <= domain_radius instead (default radius 1, matching a start
        at the origin).  Guarantees then hold while iterates stay inside.

        gamma = reg + lambda_min of the data term when Phi'' has a positive
        global lower bound (ridge); otherwise gamma = reg.  For ridge and
        logistic, c_lo <= Phi'' <= c_hi are constants, so both bounds come
        from one eigvalsh of the unweighted Gram A'A/n: gamma = reg +
        c_lo*lambda_min and K = reg + c_hi*lambda_max.  Poisson's K needs the
        per-row weights.  Eigenvalues are only computed for p <= 2000.

        The result is kept with its radius (None unless Poisson), so only
        the first call, or the first at a new radius, pays for the Gram and
        eigvalsh.
        """
        radius = None
        if self.family == "poisson":
            radius = 1.0 if domain_radius is None else float(domain_radius)
            if radius < 0:
                raise ValueError("domain radius must be nonnegative")
        if self._constants is None or self._constants[0] != radius:
            self._constants = (radius, self._curvature_constants(radius))
        return self._constants[1]

    def _curvature_constants(self, radius: float | None) -> ConditionEstimates:
        norms = self._row_norms
        if self.family == "poisson":
            coeff = np.exp(np.minimum(norms * radius, EXP_CLAMP))
        else:
            coeff = np.full(self.n, self._fam.curvature_hi)
        per_k = coeff * norms**2 + self.reg

        gamma = self.reg
        if self.p > EXACT_GAMMA_MAX_DIM:
            big_k = float(np.mean(per_k))  # valid upper bound, avoids a p x p eigensolve
        elif self.family == "poisson":
            gram = weighted_gram(self.dataset.features, coeff) / self.n
            big_k = self.reg + float(np.linalg.eigvalsh(gram)[-1])
        else:
            eigs = np.linalg.eigvalsh(weighted_gram(self.dataset.features) / self.n)
            c_lo = self._fam.curvature_lo
            # eigenvalues at rounding level of the top one are rank deficiency
            if c_lo * float(eigs[0]) > 1e-12 * max(1.0, c_lo * float(eigs[-1])):
                gamma = self.reg + c_lo * float(eigs[0])
            big_k = self.reg + self._fam.curvature_hi * float(eigs[-1])
        return ConditionEstimates(gamma=gamma, big_k=big_k, per_component_k=per_k)

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.p:
            raise ValueError(f"iterate has dimension {x.shape[0]}, expected {self.p}")
        return x
