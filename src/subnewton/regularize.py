"""Spectral-floor and ridge regularization of sampled Hessians.

The spectral floor replaces every eigenvalue below ``lam`` by ``lam`` while
preserving eigenvectors; the ridge variant simply adds ``lam`` to the whole
spectrum.  Either way the result is positive definite with smallest
eigenvalue at least ``lam``, which is what makes the Newton step a descent
direction even when the raw sample is singular.
"""

from __future__ import annotations

import numpy as np

# accumulation asymmetry beyond this means the input was not a Hessian
SYMMETRY_TOL = 1e-8


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


def spectrum(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the validated matrix: the
    one eigendecomposition the floor and the ssn-spectral solve share."""
    return np.linalg.eigh(_symmetrize(h))


def spectral_floor(h: np.ndarray, lam: float) -> np.ndarray:
    """Floor the spectrum at ``lam``: eigenvalues become max(eig_i, lam),
    eigenvectors are kept.  A floor at or below the smallest eigenvalue
    returns the input unchanged (the operator is the identity there).
    """
    if lam < 0:
        raise ValueError("spectral floor must be nonnegative")
    eigs, vecs = spectrum(h)
    if lam <= eigs[0]:
        return _symmetrize(h)
    out = (vecs * np.maximum(eigs, lam)) @ vecs.T
    return 0.5 * (out + out.T)


def ridge(h: np.ndarray, lam: float) -> np.ndarray:
    """H + lam*I; every eigenvalue shifts by exactly lam."""
    if lam < 0:
        raise ValueError("ridge shift must be nonnegative")
    out = _symmetrize(h)
    out[np.diag_indices_from(out)] += lam
    return out
