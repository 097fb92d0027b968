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

A dense design of at most ``COLUMN_MAJOR_MAX_P`` columns is stored
column-major, a wider one row-major.  Products with the full design, and a
sampled Hessian's products with its gathered rows A_S, walk dense rows in
blocks of about ``ROW_BLOCK_BYTES``; CSR rows are one block.  ``evaluate``
gives the margins t = A x, F and the gradient A'(Phi'(t) - b)/n + reg x from
one walk: each block's A_b' w_b runs while A_b, just read for A_b x, is
still in cache, so it reads the design once where ``value`` and
``gradient`` read it twice.  Every margin and gradient sums over the same
blocks, so ``evaluate`` agrees with ``value`` and ``gradient`` bit for bit;
at x = 0 it makes no product A x, and the model keeps F(0) and the gradient
there for later calls.  A ``SampledHessian`` product H d reads each block of
A_S once in the same way, for A_b d and then A_b'(w_b A_b d).  Its
``astype(float32)`` copy, which CG multiplies by where the run's plan asks
for float32, runs both products on float32 rows, with the weights and the
sum over blocks in float64; the check of CG's direction and any assembly
use the float64 original.

Where Phi''(A x) is one constant c on every row (ridge everywhere, every
family at x = 0, where the margins are zero and no product A x is made),
``hessian`` is c A'A/n + reg I from a Gram A'A/n the model keeps after the
first such call, so later calls cost O(p^2);
``curvature_constants(keep_gram=True)`` keeps the Gram its eigvalsh reads,
so a run that asks for both forms one.  ``hessian_inverse`` keeps the
inverse of such a Hessian per (c, shift), so a later run at the same shift
skips its Cholesky and potri.  Only callers that ask keep either: a model
that never preconditions a CG run holds no p x p array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .linsolve import spd_inverse
from .sampling import SampleSet

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

# Dense designs of at most this many columns are stored column-major, wider
# ones row-major.  At n p = 1e7 and one BLAS thread, the walk's two products
# A_b x and A_b' w_b took 25-50% less time over column-major blocks from
# p = 20 to 200, and the same at 500.  Gathering sampled rows, strided there,
# costs more: a sorted 10% gather took 3-6 ms more than row-major at p = 40
# to 80, about one walk's saving, and 13-14 ms more from p = 100, and a
# 5000 x 500 ssn-hessian solve, whose 1000-row samples feed every CG
# product, took 17% longer on a column-major copy (BENCH_layout.json).
COLUMN_MAJOR_MAX_P = 64

# The families whose float32 solves (solvers.plan's ``solve_dtype``) stay
# finite; Poisson's Phi'' = e^t overflows float32.
FLOAT32_FAMILIES = ("logistic", "ridge")


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
    A dense design is kept as a float64 array with the same values,
    column-major where p <= ``COLUMN_MAJOR_MAX_P`` and row-major above.
    """

    features: object
    labels: np.ndarray

    def __post_init__(self):
        feats = self.features
        if sp.issparse(feats):
            # a float64 copy in canonical form: sorted, duplicates summed
            feats = feats.tocsr().astype(float)
            feats.sum_duplicates()
        else:
            feats = np.asarray(feats)
            if feats.ndim != 2:
                raise ValueError("features must be a 2-D array")
            order = "F" if feats.shape[1] <= COLUMN_MAJOR_MAX_P else "C"
            feats = np.asarray(feats, dtype=float, order=order)
        n, p = feats.shape
        if n < 1 or p < 1:
            raise ValueError("need n >= 1 rows and p >= 1 columns")
        # dense rows a block at a time, with no n x p boolean temporary
        parts = [feats.data] if sp.issparse(feats) else [a_b for _, a_b in _row_blocks(feats)]
        if not all(np.all(np.isfinite(v)) for v in parts):
            raise ValueError("features contain non-finite entries")
        object.__setattr__(self, "features", feats)
        labels = np.asarray(self.labels, dtype=float).ravel()
        object.__setattr__(self, "labels", labels)
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
        # per row block, so no n x p temporary a*a; each row sums as one
        # whole-array norm would sum it
        norms = np.empty(self.n)
        for rows, a_b in _row_blocks(a):
            norms[rows] = np.linalg.norm(a_b, axis=1)
        return norms

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


def weighted_gram(a, w: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """A' diag(w) A as a dense array, for dense or CSR rows A and weights
    w >= 0; without ``w`` it is A'A, formed with no weighted copy of A.

    Dense rows form it as the self-product B'B of B = sqrt(w) A, which numpy
    computes by a symmetric rank-k update: half the flops of the general
    product (w A)'A.  CSR rows gain nothing from that and keep (w A)'A.
    ``out``, a C-ordered p x p float64 array, receives it with the same bits.
    """
    if sp.issparse(a):
        gram = (a if w is None else a.multiply(w[:, None])).T @ a
        return gram.toarray(out=out)
    b = a if w is None else a * np.sqrt(w)[:, None]
    return np.matmul(b.T, b, out=out)


@dataclass(frozen=True)
class SampledHessian:
    """(1/|S|) A_S' diag(Phi''(A_S x)) A_S + shift * I, held as the gathered
    rows A_S and their curvatures.

    ``shift`` is the objective's reg, plus ssn-ridge's lambda_user.
    ``h @ d`` costs 4 nnz(A_S) flops and never forms the p x p matrix: it
    walks dense A_S in blocks of ``ROW_BLOCK_BYTES`` and takes each block's
    A_b'(w_b * A_b d) while A_b is still in cache, so A_S is read once per
    product; CSR rows are one block.  The weights w = Phi''/|S| are scaled
    once, at construction.  The two products with A_b run in the rows'
    ``dtype``: float64, or float32 in the copy ``astype`` gives CG, which
    reads half the bytes per product.  d and w_b * A_b d are rounded to that
    dtype on the way in, so no block is cast, while w and the sum over
    blocks stay float64.  ``dense()`` assembles it, keeping the sample's
    index order, so identical index sequences give bit-identical matrices,
    into ``out`` if given.
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

    @property
    def dtype(self) -> np.dtype:
        return self.rows.dtype

    def astype(self, dtype) -> "SampledHessian":
        """This operator with its rows rounded to ``dtype``."""
        return replace(self, rows=self.rows.astype(dtype))

    def __matmul__(self, d: np.ndarray) -> np.ndarray:
        dt = self.dtype
        d = np.asarray(d, dtype=dt)
        hd = np.zeros(self.rows.shape[1])
        for a_b, w_b in self._blocks:
            u = (w_b * np.asarray(a_b @ d).ravel()).astype(dt, copy=False)
            hd += np.asarray(a_b.T @ u).ravel()
        return hd + self.shift * d

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        h = weighted_gram(self.rows, self.curvature, out)
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
        # (c, shift) -> (c A'A/n + (reg + shift) I)^-1, kept by ``hessian_inverse``
        self._inverses: dict[tuple[float, float], np.ndarray] = {}
        self._blocks = _row_blocks(dataset.features)
        self._start = None  # (F(0), grad F(0)), kept by ``evaluate``
        self._kernel = None  # made by ``_kernel_buffer``

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
        share one exp per margin, kept in an n-length buffer.  At x = 0 the
        margins are zero, so no product A x is made: the walk reads the
        design once, for A'w, with the same bits, and the model keeps F(0)
        and the gradient there, so later calls at x = 0 read no data.  Raises
        EvaluationError if F or the gradient is non-finite.
        """
        x = self._check_x(x)
        if np.any(x) or self._start is None and not gradient:
            return self._walk(x, gradient)
        if self._start is None:
            self._start = self._walk(x, True)[1:]
        f, g = self._start
        return np.zeros(self.n), f, g.copy() if gradient else None

    def _kernel_buffer(self) -> np.ndarray:
        """The n-length array the model keeps for its walks' link values.
        An evaluation's fresh arrays of this size made glibc return heap
        memory to the system and fault it back in on every call."""
        if self._kernel is None:
            self._kernel = np.empty(self.n)
        return self._kernel

    def _walk(self, x, gradient):
        """``evaluate`` over the row blocks.  Where x = 0 the margins are
        zero, so no product A_b x is made, and Phi and Phi' are one constant
        each, computed once."""
        fam, labels = self._fam, self.dataset.labels
        moved = bool(np.any(x))
        t = np.empty(self.n) if moved else np.zeros(self.n)
        k = self._kernel_buffer()
        atw = np.zeros(self.p) if gradient else None
        self.data_passes += moved + gradient
        with np.errstate(over="ignore", invalid="ignore"):
            if not moved:
                t_0 = np.zeros(1)
                k_0 = fam.kernel(t_0, out=np.empty(1))
                prime_0 = fam.phi_prime(t_0, k_0)
                k.fill(fam.phi(t_0, k_0)[0])
            for rows, a_b in self._blocks:
                if not moved:
                    if gradient:
                        w_b = prime_0 - labels[rows]
                else:
                    t[rows] = a_b @ x
                    t_b = t[rows]
                    k_b = fam.kernel(t_b, out=k[rows])
                    if gradient:
                        w_b = fam.phi_prime(t_b, k_b) - labels[rows]
                    k[rows] = fam.phi(t_b, k_b)  # Phi(t) takes the kernel's place
                if gradient:
                    atw += np.asarray(a_b.T @ w_b).ravel()
            f = self._value(x, t, k)
        return t, f, None if atw is None else self._gradient(x, atw)

    def sampled_hessian(self, sample, x: np.ndarray, t: np.ndarray | None = None,
                        shift: float = 0.0) -> SampledHessian:
        """(1/|S|) sum_{j in S} Phi''(a_j'x) a_j a_j' + (reg + shift) * I,
        unassembled: gathers the rows A_S and their curvatures Phi''(A_S x);
        ``shift`` is ssn-ridge's lambda_user.  ``sample`` is a
        ``sampling.SampleSet`` drawn from n, or an index sequence, which is
        checked by making it one (with replacement).  Given the iterate's
        margins t = A x, the curvatures come from t[S] with no product A_S x.
        S = 0..n-1 in order (``SampleSet.full``) reads the design's own rows,
        with no gathered copy: on CSR rows the matrix a gathered range would
        give, bit for bit, and on dense rows the same up to rounding, since
        a gather is row-major and a narrow design column-major."""
        if not isinstance(sample, SampleSet):
            sample = SampleSet(sample, replacement="with", source_n=self.n)
        elif sample.source_n != self.n:
            raise ValueError("sample drawn from a different population size")
        x = self._check_x(x)
        a, idx = self.dataset.features, sample.indices
        a_s, t_s = (a, t) if sample.full else (a[idx], None if t is None else t[idx])
        if t_s is None:
            t_s = np.asarray(a_s @ x).ravel()
        return SampledHessian(a_s, self._fam.phi_double(t_s), self.reg + shift)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Full Hessian: the all-indices sample assembled, from the dataset's
        own rows.  Where Phi''(A x) is one constant c on every row (ridge,
        and every family at x = 0) it is c A'A/n + reg I from the Gram A'A/n,
        which the model keeps, read-only, from the first such call (or from
        ``curvature_constants(keep_gram=True)``); for c = 1/4 (logistic) and
        c = 1 (ridge, Poisson at 0) that is the assembled sample bit for bit,
        since scaling by a power of two is exact."""
        h, c = self._full_sample(x)
        if c is None:
            return h.dense()
        return _shifted(c * self._kept_gram(), self.reg)

    def hessian_inverse(self, x: np.ndarray, shift: float) -> np.ndarray:
        """(H(x) + shift I)^-1 of the full Hessian ``hessian`` gives, by
        ``linsolve.spd_inverse``, which raises ``NotPositiveDefiniteError``
        where it fails.  Where H comes from the kept Gram, the model also
        keeps the inverse, read-only, per curvature constant c and shift:
        later runs that precondition with it skip the Cholesky and potri."""
        h, c = self._full_sample(x)
        key = None if c is None else (float(c), float(shift))
        if key in self._inverses:
            return self._inverses[key]
        h = h.dense() if c is None else _shifted(c * self._kept_gram(), self.reg)
        h[np.diag_indices_from(h)] += shift
        inv = spd_inverse(h)
        if key is not None:
            inv.flags.writeable = False
            self._inverses[key] = inv
        return inv

    def _full_sample(self, x):
        """The all-indices sample at x, unassembled, and c where its
        curvature Phi''(A x) is that one constant on every row, else None.
        At x = 0 the margins are zero, so it makes no product A x."""
        x = self._check_x(x)
        full = SampleSet(np.arange(self.n), replacement="without", source_n=self.n)
        h = self.sampled_hessian(full, x, None if np.any(x) else np.zeros(self.n))
        c = h.curvature[0]
        return h, c if np.all(h.curvature == c) else None

    def _kept_gram(self) -> np.ndarray:
        if self._gram is None:
            self._gram = weighted_gram(self.dataset.features) / self.n
            self._gram.flags.writeable = False
        return self._gram

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

    def curvature_constants(self, domain_radius: float | None = None,
                            keep_gram: bool = False) -> ConditionEstimates:
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
        eigvalsh.  With ``keep_gram``, that call takes ridge's and
        logistic's Gram A'A/n from the model's kept one, formed and kept
        first as ``hessian`` would keep it: a run that will ask for the
        Hessian at x = 0 then forms one Gram, not two.  Other callers keep
        none, so no p x p array outlives a run that never reads it.
        """
        radius = None
        if self.family == "poisson":
            radius = 1.0 if domain_radius is None else float(domain_radius)
            if radius < 0:
                raise ValueError("domain radius must be nonnegative")
        if self._constants is None or self._constants[0] != radius:
            if keep_gram and radius is None and self.p <= EXACT_GAMMA_MAX_DIM:
                self._kept_gram()
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
            elif self._gram is not None:
                gram = self._gram
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
