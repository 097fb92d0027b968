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

Products with the full design, and a sampled Hessian's products with its
gathered rows A_S, walk dense rows in blocks of about ``ROW_BLOCK_BYTES``;
CSR rows are one block.  ``evaluate`` gives the margins t = A x, F and the
gradient A'(Phi'(t) - b)/n + reg x from one walk: each block's A_b' w_b runs
while A_b, just read for A_b x, is still in cache, so it reads the design
once where ``value`` and ``gradient`` read it twice.  Every margin and
gradient sums over the same blocks, so ``evaluate`` agrees with ``value``
and ``gradient`` bit for bit.  A ``SampledHessian`` product H d reads each
block of A_S once in the same way, for A_b d and then A_b'(w_b A_b d).

Where Phi''(A x) is one constant c on every row (ridge everywhere, every
family at x = 0), ``hessian`` is c A'A/n + reg I from a Gram A'A/n the model
keeps after the first such call, so later calls cost O(p^2).
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

# Dense rows are walked in blocks of this many bytes (2621 rows at p = 50),
# small enough that a block read for A_b x is still in L2 cache when
# ``evaluate`` multiplies it by w_b, and large enough that the per-block
# numpy calls stay cheap.  In two sweeps at 200000 x 50 and one BLAS thread,
# 2048 and 2621 rows per block were within 1.2% of the fastest fused
# evaluation, 1024 and 4096 within 7%, 8192 were 14-16% slower and 512
# were 24-26% slower (BENCH_fused.json).
ROW_BLOCK_BYTES = 1 << 20


class EvaluationError(ArithmeticError):
    """Objective or derivative evaluation produced a non-finite value."""


# Link kernels.  Phi, Phi' and Phi'' run over all n margins at every
# evaluation, so on a tall problem they cost as much as the products A x and
# A'w.  They are whole-array ufuncs over e^{-|t|}, which cannot overflow, with
# no boolean-mask gathers.  scipy.special.expit is faster still but is not
# used: importing scipy.special adds about 3.4 MiB of resident memory.
#
# A family's ``kernel(t, out)`` is the one array Phi(t, k) and Phi'(t, k)
# both read, so an evaluation of both pays one exp: e^{-|t|} for logistic,
# the clamped e^t for Poisson, t itself for ridge.  Without k, each computes
# it, bit for bit as ``kernel`` does.


def _sigmoid(t, e=None):
    # 1/(1+e^{-t}) for t >= 0 and e^t/(1+e^t) below, both from one
    # e = e^{-|t|}; bit-identical to evaluating the two branches separately.
    # The numerator max(e, [t >= 0]) is 1 or e, as np.where(t >= 0, 1, e)
    # picks it, without that select's branch on the sign of each margin
    # (4x faster over 200000 margins of random sign)
    if e is None:
        e = LogisticFamily.kernel(t)
    return np.maximum(e, t >= 0) / (1.0 + e)


class RidgeFamily:
    name = "ridge"
    curvature_hi = 1.0  # sup of Phi'' over R
    curvature_lo = 1.0  # inf of Phi'' over R

    @staticmethod
    def kernel(t, out=None):
        if out is None:
            return t
        np.copyto(out, t)
        return out

    @staticmethod
    def phi(t, k=None):
        return 0.5 * t * t

    @staticmethod
    def phi_prime(t, k=None):
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
    def kernel(t, out=None):
        # e^{-|t|}, with -|t| as copysign(t, -1) in one ufunc
        out = np.copysign(t, -1.0, out=out)
        return np.exp(out, out=out)

    @staticmethod
    def phi(t, k=None):
        # ln(1+e^t) = max(t,0) + log1p(e^{-|t|}), the formula np.logaddexp(0, t)
        # evaluates, written as vectorized ufuncs (2x faster, within 3 ulp)
        return np.maximum(t, 0.0) + np.log1p(LogisticFamily.kernel(t) if k is None else k)

    @staticmethod
    def phi_prime(t, k=None):
        return _sigmoid(np.asarray(t, dtype=float), k)

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
    def kernel(t, out=None):
        out = np.minimum(t, EXP_CLAMP, out=out)
        return np.exp(out, out=out)

    @staticmethod
    def phi(t, k=None):
        return PoissonFamily.kernel(t) if k is None else k

    phi_prime = phi

    @staticmethod
    def phi_double(t):
        return PoissonFamily.kernel(t)

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


def _row_blocks(a) -> list:
    """(rows, A_rows) over the rows of A: views of ``ROW_BLOCK_BYTES``-sized
    dense blocks, or all CSR rows as one block (slicing CSR would copy it)."""
    if sp.issparse(a):
        return [(slice(None), a)]
    step = max(1, ROW_BLOCK_BYTES // (a.itemsize * a.shape[1]))
    return [(slice(lo, lo + step), a[lo:lo + step]) for lo in range(0, a.shape[0], step)]


def _shifted(h: np.ndarray, shift: float) -> np.ndarray:
    """h + shift * I in place; raises EvaluationError if h is non-finite."""
    h[np.diag_indices_from(h)] += shift
    if not np.all(np.isfinite(h)):
        raise EvaluationError("hessian accumulation is non-finite")
    return h


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
    ``h @ d`` costs 4 nnz(A_S) flops and never forms the p x p matrix: it
    walks dense A_S in blocks of ``ROW_BLOCK_BYTES`` and takes each block's
    A_b'(w_b * A_b d) while A_b is still in cache, so A_S is read once per
    product; CSR rows are one block.  The weights w = Phi''/|S| are scaled
    once, at construction.  ``dense()`` assembles it, keeping the sample's
    index order, so identical index sequences give bit-identical matrices.
    """

    rows: object  # A_S, dense or CSR
    curvature: np.ndarray  # Phi''(A_S x)
    shift: float
    # (A_b, w_b) over the row blocks of A_S, with w = curvature / |S|
    _blocks: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = self.curvature / self.curvature.size
        object.__setattr__(self, "_blocks",
                           [(a_b, w[rows]) for rows, a_b in _row_blocks(self.rows)])

    def __matmul__(self, d: np.ndarray) -> np.ndarray:
        hd = np.zeros(self.rows.shape[1])
        for a_b, w_b in self._blocks:
            hd += np.asarray(a_b.T @ (w_b * np.asarray(a_b @ d).ravel())).ravel()
        return hd + self.shift * d

    def dense(self) -> np.ndarray:
        h = weighted_gram(self.rows, self.curvature)
        h /= self.curvature.size
        return _shifted(h, self.shift)


@dataclass(frozen=True)
class ConditionEstimates:
    """Curvature constants of a finite-sum objective.

    gamma is a strong-convexity lower bound of the full Hessian, big_k a
    smoothness upper bound, and per_component_k holds one smoothness bound
    per f_i.  khat(q) is the mean of the q largest per-component bounds; the
    condition numbers kappa = K/gamma and, for q rows drawn without
    replacement, kappa_tilde = khat(q)/gamma follow.  rank_deficient says
    the data Gram (Poisson's weighted one) has an eigenvalue at rounding
    level of its largest, so at reg = 0 every Hessian of the objective is
    singular; it is only known where the eigenvalues are computed (p <=
    EXACT_GAMMA_MAX_DIM), and False above.
    Frozen, with read-only arrays, since a model shares one with all callers.
    """

    gamma: float
    big_k: float
    per_component_k: np.ndarray
    rank_deficient: bool = False
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
        self._gram: np.ndarray | None = None  # A'A/n, kept by ``hessian``
        self._blocks = _row_blocks(dataset.features)

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
        # every full-data product A x goes through here or ``evaluate``, and
        # A'w through ``_transpose_product``
        self.data_passes += 1
        t = np.empty(self.n)
        for rows, a_b in self._blocks:
            t[rows] = a_b @ x
        return t

    def _transpose_product(self, w):
        self.data_passes += 1
        atw = np.zeros(self.p)
        for rows, a_b in self._blocks:
            atw += np.asarray(a_b.T @ w[rows]).ravel()
        return atw

    def value(self, x: np.ndarray, t: np.ndarray | None = None) -> float:
        """F(x) = mean(Phi(a_i'x) - b_i a_i'x) + (reg/2)||x||^2; given the
        margins t = A x, it costs O(n) instead of a pass over the data."""
        x = self._check_x(x)
        with np.errstate(over="ignore", invalid="ignore"):
            if t is None:
                t = self._margins(x)
            return self._value(x, t, self._fam.phi(t))

    def _value(self, x, t, phi) -> float:
        # b't as one dot product, with no n-length b*t temporary
        val = float(np.mean(phi)) - float(self.dataset.labels @ t) / self.n \
            + 0.5 * self.reg * float(x @ x)
        if not math.isfinite(val):
            # max|x_i| cannot overflow where ||x|| can
            raise EvaluationError(
                f"objective value is non-finite at max|x_i|={float(np.max(np.abs(x))):.3g}")
        return val

    def gradient(self, x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
        """mean_i (Phi'(a_i'x) - b_i) a_i + reg * x; ``t`` as in ``value``."""
        x = self._check_x(x)
        with np.errstate(over="ignore", invalid="ignore"):
            if t is None:
                t = self._margins(x)
            atw = self._transpose_product(self._fam.phi_prime(t) - self.dataset.labels)
            return self._gradient(x, atw)

    def _gradient(self, x, atw) -> np.ndarray:
        g = atw / self.n + self.reg * x
        if not np.all(np.isfinite(g)):
            raise EvaluationError("gradient is non-finite")
        return g

    def evaluate(self, x: np.ndarray, gradient: bool = True):
        """(t, F, grad F) at x: the margins t = A x, F as ``value(x, t)``
        gives it and, with ``gradient``, the gradient as ``gradient(x, t)``
        gives it (else None), bit for bit.

        One walk over the row blocks computes t_b = A_b x, w_b = Phi'(t_b) -
        b_b and A_b' w_b while A_b is still in cache, so the design is read
        once for two products (both count in ``data_passes``).  Phi and Phi'
        share one exp per margin, kept in an n-length buffer.  Raises
        EvaluationError if F or the gradient is non-finite.
        """
        x = self._check_x(x)
        if not gradient:
            t = self._margins(x)
            return t, self.value(x, t), None
        fam, labels = self._fam, self.dataset.labels
        self.data_passes += 2
        t, k, atw = np.empty(self.n), np.empty(self.n), np.zeros(self.p)
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, a_b in self._blocks:
                t[rows] = a_b @ x
                t_b = t[rows]
                k_b = fam.kernel(t_b, out=k[rows])
                atw += np.asarray(a_b.T @ (fam.phi_prime(t_b, k_b) - labels[rows])).ravel()
                k[rows] = fam.phi(t_b, k_b)  # Phi(t) takes the kernel's place
            f = self._value(x, t, k)
        return t, f, self._gradient(x, atw)

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
        product A_S x.  S = 0..n-1 in order reproduces the full Hessian
        exactly; it reads the design's own rows, with no gathered copy, which
        for CSR or C-ordered dense rows gives the same matrix bit for bit."""
        idx = np.asarray(indices, dtype=int).ravel()
        if idx.size == 0:
            raise ValueError("empty sample")
        if idx.min() < 0 or idx.max() >= self.n:
            raise IndexError("sample index out of range")
        x = self._check_x(x)
        a = self.dataset.features
        if idx.size == self.n and np.array_equal(idx, np.arange(self.n)):
            a_s, t_s = a, t
        else:
            a_s, t_s = a[idx], None if t is None else t[idx]
        if t_s is None:
            t_s = np.asarray(a_s @ x).ravel()
        return SampledHessian(a_s, self._fam.phi_double(t_s), self.reg)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Full Hessian: the all-indices sample assembled, from the dataset's
        own rows.  Where Phi''(A x) is one constant c on every row (ridge,
        and every family at x = 0) it is c A'A/n + reg I from the Gram A'A/n,
        which the first such call forms and the model keeps, read-only; for
        c = 1/4 (logistic) and c = 1 (ridge, Poisson at 0) that is the
        assembled sample bit for bit, since scaling by a power of two is
        exact."""
        h = self.sampled_hessian(np.arange(self.n), x)
        c = h.curvature[0]
        if not np.all(h.curvature == c):
            return h.dense()
        if self._gram is None:
            self._gram = weighted_gram(self.dataset.features) / self.n
            self._gram.flags.writeable = False
        return _shifted(c * self._gram, self.reg)

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
        c_lo*lambda_min and K = reg + c_hi*lambda_max.  Poisson's K needs the per-row weights.
        Eigenvalues are only computed for p <= 2000; the same eigvalsh says
        whether the design is rank deficient.

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

        gamma, deficient = self.reg, False
        if self.p > EXACT_GAMMA_MAX_DIM:
            big_k = float(np.mean(per_k))  # valid upper bound, avoids a p x p eigensolve
        else:
            c_lo, c_hi = self._fam.curvature_lo, self._fam.curvature_hi
            if self.family == "poisson":  # its K needs the per-row weights
                gram, c_hi = weighted_gram(self.dataset.features, coeff) / self.n, 1.0
            else:
                gram = weighted_gram(self.dataset.features) / self.n
            eigs = np.linalg.eigvalsh(gram)
            lo, hi = float(eigs[0]), float(eigs[-1])
            # eigenvalues at rounding level of the top one are rank deficiency
            deficient = lo <= 1e-12 * hi
            if c_lo * lo > 1e-12 * max(1.0, c_lo * hi):
                gamma = self.reg + c_lo * lo
            big_k = self.reg + c_hi * hi
        return ConditionEstimates(gamma=gamma, big_k=big_k, per_component_k=per_k,
                                  rank_deficient=deficient)

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.p:
            raise ValueError(f"iterate has dimension {x.shape[0]}, expected {self.p}")
        return x
