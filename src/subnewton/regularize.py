"""Spectral-floor and ridge regularization of sampled Hessians.

The spectral floor replaces every eigenvalue below ``lam`` by ``lam`` while
preserving eigenvectors; the ridge variant simply adds ``lam`` to the whole
spectrum.  Either way the result is positive definite with smallest
eigenvalue at least ``lam``, which is what makes the Newton step a descent
direction even when the raw sample is singular.

``spectrum`` is the eigendecomposition ssn-spectral's step reads: it keeps
the eigenvector matrix V factored, so the step never pays for forming it.
``spectral_floor`` forms the floored matrix densely, as a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack

# accumulation asymmetry beyond this means the input was not a Hessian
SYMMETRY_TOL = 1e-8


def _symmetrize(h: np.ndarray) -> np.ndarray:
    """A fresh copy of the validated h, averaged with its transpose, as
    0.5 * (h + h') gives it bit for bit.

    One pass forms D = h - h'.  D is antisymmetric, so max D is the largest
    asymmetry, and it is finite only when every entry of h is (a non-finite
    entry makes its pair or diagonal entry of D inf or nan).  The
    scale max|h| is read only when the asymmetry exceeds SYMMETRY_TOL, and an
    exactly symmetric h (every dense assembly) is copied, not averaged.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not h.size:
        return h.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        out = h - h.T
    skew = float(out.max())
    if not math.isfinite(skew):
        raise ValueError("matrix has non-finite entries")
    if skew > SYMMETRY_TOL and skew > SYMMETRY_TOL * float(np.abs(h).max()):
        raise ValueError(f"matrix is not symmetric (max asymmetry {skew:.3g})")
    if skew:
        np.add(h, h.T, out=out)
        out *= 0.5
    else:
        np.copyto(out, h)
    return out


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue via a full symmetric eigendecomposition."""
    return float(np.linalg.eigvalsh(_symmetrize(h))[0])


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition H = V diag(eigvals) V' of a symmetric H, with V = Q Z
    kept factored.  LAPACK sytrd reduces H = Q T Q' to a tridiagonal T, with
    Q = diag(1, Q1) and Q1 the product of its Householder reflectors, stored
    as a QR factorization's are, so ormqr applies them; Z holds the
    eigenvectors of T.  Applying V or V' to a vector costs O(p^2); forming V
    would cost a 2p^3-flop back-transform.
    """

    eigvals: np.ndarray  # ascending
    z: np.ndarray
    reflectors: np.ndarray  # Q1's, (p-1) x (p-1), Fortran-ordered
    tau: np.ndarray

    def _apply_q(self, v: np.ndarray, trans: str) -> np.ndarray:
        if not self.tau.size:  # p = 1: Q = I
            return v
        out = v.copy()
        out[1:] = lapack.dormqr("L", trans, self.reflectors, self.tau, v[1:, None],
                                lwork=1)[0][:, 0]
        return out

    def to_eigenbasis(self, v: np.ndarray) -> np.ndarray:
        """V' v = Z' (Q' v)."""
        return self.z.T @ self._apply_q(v, "T")

    def from_eigenbasis(self, c: np.ndarray) -> np.ndarray:
        """V c = Q (Z c)."""
        return self._apply_q(self.z @ c, "N")


def spectrum(h: np.ndarray) -> Spectrum:
    """Eigenvalues (ascending) and factored eigenvectors of the validated
    matrix, from one tridiagonal reduction: ssn-spectral's floor and its
    step share them."""
    # _symmetrize returns a fresh, exactly symmetric array, so sym.T is sym in
    # Fortran order, which sytrd overwrites with its reflectors without a copy
    sym = _symmetrize(h)
    lwork = int(lapack.dsytrd_lwork(sym.shape[0], lower=1)[0])  # lets sytrd run blocked
    c, d, e, tau, _ = lapack.dsytrd(sym.T, lower=1, lwork=lwork, overwrite_a=1)
    # left at its default: divide and conquer (stevd) where scipy has it, else MRRR
    eigvals, z = eigh_tridiagonal(d, e, check_finite=False)
    return Spectrum(eigvals, z, np.asfortranarray(c[1:, :-1]), tau)


def spectral_floor(h: np.ndarray, lam: float) -> np.ndarray:
    """Floor the spectrum at ``lam``: eigenvalues become max(eig_i, lam),
    eigenvectors are kept.  A floor at or below the smallest eigenvalue
    returns the input unchanged (the operator is the identity there).
    """
    if lam < 0:
        raise ValueError("spectral floor must be nonnegative")
    eigs, vecs = np.linalg.eigh(_symmetrize(h))
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
