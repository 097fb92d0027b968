"""Lemma-driven sample sizes, uniform index draws, and assembled sub-sampled
Hessians and gradients.

Two closed-form sample sizes drive everything:

* curvature sampling: |S| >= 2 kappa_1 ln(p/delta) / eps^2 keeps the smallest
  eigenvalue of the sampled Hessian above (1-eps)*gamma with probability at
  least 1-delta (matrix Chernoff bound);
* gradient sampling: |S| >= (G(x)/eps)^2 (1 + sqrt(8 ln(1/delta)))^2 keeps
  ||grad F - g|| <= eps with probability at least 1-delta (approximate
  matrix-multiplication bound, sampling with replacement).

Sizes exceeding n are clamped to n at draw time, which only strengthens the
guarantee; the clamping is reported so traces can log it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # model builds SampleSets, so sampling imports it only for types
    from .model import ObjectiveModel


@dataclass(frozen=True)
class SampleSet:
    """Ordered multiset of component indices with its draw mode.

    Construction checks the indices, in O(|S|) where they are strictly
    ascending (``ascending``), as every ``draw`` without replacement and
    every full index range is: the ends then bound the range and no index
    repeats.  Other index orders get a full range and duplicate check.
    """

    indices: np.ndarray
    replacement: str  # "with" | "without"
    source_n: int
    ascending: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int).ravel()
        object.__setattr__(self, "indices", idx)
        if self.replacement not in ("with", "without"):
            raise ValueError(f"replacement must be 'with' or 'without', got {self.replacement!r}")
        if idx.size == 0:
            raise ValueError("sample must be non-empty")
        ascending = bool(np.all(idx[1:] > idx[:-1]))
        object.__setattr__(self, "ascending", ascending)
        lo, hi = (idx[0], idx[-1]) if ascending else (idx.min(), idx.max())
        if lo < 0 or hi >= self.source_n:
            raise ValueError("sample index out of range")
        if self.replacement == "without":
            if idx.size > self.source_n:
                raise ValueError("without-replacement sample larger than population")
            if not ascending and np.unique(idx).size != idx.size:
                raise ValueError("without-replacement sample has duplicates")

    @property
    def size(self) -> int:
        return int(self.indices.size)


def hessian_sample_size(kappa1: float, eps: float, delta: float, p: int) -> int:
    """ceil(2 kappa_1 ln(p/delta) / eps^2)."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if kappa1 < 1:
        raise ValueError(f"kappa1 must be >= 1, got {kappa1}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return math.ceil(2.0 * kappa1 * math.log(p / delta) / eps**2)


def gradient_sample_size(bound: float, eps: float, delta: float) -> int:
    """ceil((bound/eps)^2 (1 + sqrt(8 ln(1/delta)))^2)."""
    if bound <= 0:
        raise ValueError(f"gradient-norm bound must be positive, got {bound}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return math.ceil((bound / eps) ** 2 * (1.0 + math.sqrt(8.0 * math.log(1.0 / delta))) ** 2)


def draw(n: int, size: int, replacement: str, rng: np.random.Generator) -> SampleSet:
    """Uniform sample of component indices; deterministic under a fixed seed.

    Without-replacement draws come back index-ascending so that accumulation
    over the sample is bit-reproducible (and a full-size draw is exactly the
    whole index range).
    """
    if size < 1:
        raise ValueError("sample size must be >= 1")
    if replacement == "with":
        idx = rng.integers(0, n, size=size)
    elif replacement == "without":
        if size > n:
            raise ValueError(f"cannot draw {size} of {n} without replacement")
        idx = np.sort(rng.choice(n, size=size, replace=False))
    else:
        raise ValueError(f"replacement must be 'with' or 'without', got {replacement!r}")
    return SampleSet(indices=idx, replacement=replacement, source_n=n)


def clamped_size(requested: int, n: int) -> tuple[int, bool]:
    """Clamp a lemma size to the population; report whether clamping fired."""
    return (n, True) if requested > n else (requested, False)


def subsampled_hessian(model: ObjectiveModel, x: np.ndarray, sample: SampleSet,
                       t: np.ndarray | None = None, out: np.ndarray | None = None,
                       shift: float = 0.0) -> np.ndarray:
    """``model.sampled_hessian(sample, x, t, shift)`` assembled, into
    ``out`` (a C-ordered p x p float64 array) if given."""
    return model.sampled_hessian(sample, x, t, shift).dense(out)


def subsampled_gradient(model: ObjectiveModel, x: np.ndarray, sample: SampleSet,
                        t: np.ndarray | None = None) -> np.ndarray:
    """(1/|S|) sum_{j in S} grad f_j(x), its margins t[S] if given t = A x;
    all indices (ascending, without replacement) and no t reproduce the full
    gradient bit-for-bit."""
    if sample.source_n != model.n:
        raise ValueError("sample drawn from a different population size")
    idx = sample.indices
    a_s = model.dataset.features[idx]
    x = np.asarray(x, dtype=float).ravel()
    t = np.asarray(a_s @ x).ravel() if t is None else t[idx]
    w = model._fam.phi_prime(t) - model.dataset.labels[idx]
    return np.asarray(a_s.T @ w).ravel() / idx.size + model.reg * x


# -- statistical verification suites -----------------------------------------
#
# Both checks compare an empirical failure frequency against delta plus a
# small margin for sampling noise.  The bounds are one-sided, so observed
# frequencies far *below* delta are expected (the concentration inequalities
# are conservative); only exceeding delta + margin is a failure.


@dataclass(frozen=True)
class LemmaCheckResult:
    failures: int
    resamples: int
    threshold: float
    sample_size: int
    clamped: bool

    @property
    def frequency(self) -> float:
        return self.failures / self.resamples

    def passed(self, delta: float, margin: float = 0.02) -> bool:
        return self.frequency <= delta + margin


def hessian_lemma_check(
    model: ObjectiveModel,
    x: np.ndarray,
    eps: float,
    delta: float,
    resamples: int,
    seed: int = 0,
    replacement: str = "without",
    estimates=None,
) -> LemmaCheckResult:
    """Empirical frequency of lambda_min(H) < (1-eps)*gamma at the lemma size."""
    est = estimates if estimates is not None else model.curvature_constants()
    if not est.strongly_convex:
        raise ValueError("curvature lemma check needs gamma > 0")
    requested = hessian_sample_size(est.kappa1, eps, delta, model.p)
    size, clamped = clamped_size(requested, model.n)
    rng = np.random.default_rng(seed)
    threshold = (1.0 - eps) * est.gamma
    failures = 0
    for _ in range(resamples):
        s = draw(model.n, size, replacement, rng)
        h = subsampled_hessian(model, x, s)
        if float(np.linalg.eigvalsh(h)[0]) < threshold:
            failures += 1
    return LemmaCheckResult(failures, resamples, threshold, size, clamped)


def gradient_lemma_check(
    model: ObjectiveModel,
    x: np.ndarray,
    eps: float,
    delta: float,
    resamples: int,
    seed: int = 0,
) -> LemmaCheckResult:
    """Empirical frequency of ||grad F - g|| > eps at the lemma size
    (with replacement, as the bound requires)."""
    bound = model.gradient_norm_bound(x)
    requested = gradient_sample_size(bound, eps, delta)
    size, clamped = clamped_size(requested, model.n)
    rng = np.random.default_rng(seed)
    full = model.gradient(x)
    failures = 0
    for _ in range(resamples):
        s = draw(model.n, size, "with", rng)
        g = subsampled_gradient(model, x, s)
        if float(np.linalg.norm(full - g)) > eps:
            failures += 1
    return LemmaCheckResult(failures, resamples, eps, size, clamped)
