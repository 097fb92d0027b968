"""Spectral-floor and ridge regularization of sampled Hessians.

The spectral floor replaces every eigenvalue below ``lam`` by ``lam`` while
preserving eigenvectors; the ridge variant simply adds ``lam`` to the whole
spectrum.  Either way the result is positive definite with smallest
eigenvalue at least ``lam``, which is what makes the Newton step a descent
direction even when the raw sample is singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# accumulation asymmetry beyond this means the input was not a Hessian
SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class RegularizedHessian:
    matrix: np.ndarray
    min_eig: float | None = None  # set by spectral_floor, which has the spectrum


def _symmetrize(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix has non-finite entries")
    skew = np.abs(h - h.T).max() if h.size else 0.0
    if skew > SYMMETRY_TOL * max(1.0, np.abs(h).max()):
        raise ValueError(f"matrix is not symmetric (max asymmetry {skew:.3g})")
    return 0.5 * (h + h.T)


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue via a full symmetric eigendecomposition."""
    return float(np.linalg.eigvalsh(_symmetrize(h))[0])


def spectral_floor(h: np.ndarray, lam: float) -> RegularizedHessian:
    """Floor the spectrum at ``lam``: eigenvalues become max(eig_i, lam),
    eigenvectors are kept.  A floor at or below the smallest eigenvalue
    returns the input unchanged (the operator is the identity there).
    """
    if lam < 0:
        raise ValueError("spectral floor must be nonnegative")
    h = _symmetrize(h)
    eigs, vecs = np.linalg.eigh(h)
    if lam <= eigs[0]:
        return RegularizedHessian(matrix=h, min_eig=float(eigs[0]))
    floored = np.maximum(eigs, lam)
    out = (vecs * floored) @ vecs.T
    out = 0.5 * (out + out.T)
    return RegularizedHessian(matrix=out, min_eig=float(floored.min()))


def ridge(h: np.ndarray, lam: float) -> RegularizedHessian:
    """H + lam*I; every eigenvalue shifts by exactly lam."""
    if lam < 0:
        raise ValueError("ridge shift must be nonnegative")
    h = _symmetrize(h)
    out = h.copy()
    out[np.diag_indices_from(out)] += lam
    return RegularizedHessian(matrix=out)
