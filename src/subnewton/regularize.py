"""Spectral-floor and ridge regularization of sampled Hessians.

The spectral floor replaces every eigenvalue below ``lam`` by ``lam`` while
preserving eigenvectors; the ridge variant simply adds ``lam`` to the whole
spectrum.  Either way the result is positive definite with smallest
eigenvalue at least ``lam``, which is what makes the Newton step a descent
direction even when the raw sample is singular.

``spectrum`` is the eigendecomposition ssn-spectral's step reads: it keeps
the eigenvector matrix V factored, so the step never pays for forming it.
It runs in float64, or in float32 for a run whose step ``linsolve.
solve_floored`` certifies in float64: one pass over the float64 H checks it
as ``_symmetrize`` does and rounds it into a float32 copy, which LAPACK's
ssytrd reduces and float32 stevd diagonalizes.  On a 500 x 500 sampled
Hessian, one BLAS thread, that takes about 13 ms against 21 ms in float64.
``spectral_floor`` forms the floored matrix densely, as a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack

# accumulation asymmetry beyond this means the input was not a Hessian
SYMMETRY_TOL = 1e-8
# the float64 row block _symmetrized_float32 works on, sized for cache
_BLOCK_BYTES = 256 * 1024


def _validated(h) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    return h


def _check_skew(h: np.ndarray, skew: float) -> None:
    """Reject h, whose largest asymmetry is ``skew``, if that is not finite
    (so h has a non-finite entry) or exceeds SYMMETRY_TOL, absolutely and
    relative to max|h|."""
    if not math.isfinite(skew):
        raise ValueError("matrix has non-finite entries")
    if skew > SYMMETRY_TOL and skew > SYMMETRY_TOL * float(np.abs(h).max()):
        raise ValueError(f"matrix is not symmetric (max asymmetry {skew:.3g})")


def _symmetrize(h: np.ndarray) -> np.ndarray:
    """A fresh copy of the validated h, averaged with its transpose, as
    0.5 * (h + h') gives it bit for bit.

    One pass forms D = h - h'.  D is antisymmetric, so max D is the largest
    asymmetry, and it is finite only when every entry of h is (a non-finite
    entry makes its pair or diagonal entry of D inf or nan).  The
    scale max|h| is read only when the asymmetry exceeds SYMMETRY_TOL, and an
    exactly symmetric h (every dense assembly) is copied, not averaged.
    """
    h = _validated(h)
    if not h.size:
        return h.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        out = h - h.T
    skew = float(out.max())
    _check_skew(h, skew)
    if skew:
        np.add(h, h.T, out=out)
        out *= 0.5
    else:
        np.copyto(out, h)
    return out


def _symmetrized_float32(h: np.ndarray) -> np.ndarray:
    """0.5 * (h + h') of the validated h, rounded to a Fortran-ordered float32
    array, from one pass over h a row block at a time (each row block with
    the matching column block), so no p x p float64 array is formed.  A block
    whose rows equal its columns exactly (every block of a dense assembly) is
    its own average and is rounded as it is."""
    h = _validated(h)
    p = h.shape[0]
    out = np.empty((p, p), dtype=np.float32, order="F")
    width = max(1, _BLOCK_BYTES // (8 * max(p, 1)))
    scratch = np.empty((min(width, p), p))
    skew = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, p, width):
            rows, cols = h[lo:lo + width], h[:, lo:lo + width].T
            block = scratch[:rows.shape[0]]
            np.subtract(rows, cols, out=block)
            top = block.max()
            skew = np.maximum(skew, top)  # nan-propagating, unlike max()
            if top or block.min():
                np.add(rows, cols, out=block)
                block *= 0.5
                rows = block
            out[:, lo:lo + width] = rows.T  # column j of out is row j of the average
    _check_skew(h, float(skew))
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
    would cost a 2p^3-flop back-transform.  Every array is in the dtype the
    decomposition ran in, and V and V' are applied in it: a vector is
    rounded to that dtype on the way in.
    """

    eigvals: np.ndarray  # ascending
    z: np.ndarray
    reflectors: np.ndarray  # Q1's, (p-1) x (p-1), Fortran-ordered
    tau: np.ndarray

    def _apply_q(self, v: np.ndarray, trans: str) -> np.ndarray:
        """Q v or Q' v for a vector or a p x k block v in the spectrum's dtype."""
        if not self.tau.size:  # p = 1: Q = I
            return v
        ormqr = lapack.sormqr if self.tau.dtype == np.float32 else lapack.dormqr
        out = v.copy()
        block = out[1:] if v.ndim == 2 else out[1:, None]
        lwork = 1  # a vector takes the unblocked code
        if block.shape[1] > 1:  # a block takes the blocked one, at its optimal workspace
            lwork = int(ormqr("L", trans, self.reflectors, self.tau, block, lwork=-1)[1][0])
        block[:] = ormqr("L", trans, self.reflectors, self.tau, block, lwork=lwork)[0]
        return out

    def to_eigenbasis(self, v: np.ndarray) -> np.ndarray:
        """V' v = Z' (Q' v)."""
        return self.z.T @ self._apply_q(v.astype(self.z.dtype, copy=False), "T")

    def from_eigenbasis(self, c: np.ndarray) -> np.ndarray:
        """V c = Q (Z c)."""
        return self._apply_q(self.z @ c.astype(self.z.dtype, copy=False), "N")

    def eigenvectors(self, k: int) -> np.ndarray:
        """The first k columns of V, Q Z[:, :k], as a p x k array."""
        return self._apply_q(self.z[:, :k], "N")


def spectrum(h: np.ndarray, dtype=np.float64) -> Spectrum:
    """Eigenvalues (ascending) and factored eigenvectors of the validated
    matrix, from one tridiagonal reduction in ``dtype`` (float64, or
    float32 from a rounded copy of h): ssn-spectral's floor and its step
    share them."""
    if np.dtype(dtype) == np.float32:
        sym, sytrd, sytrd_lwork = _symmetrized_float32(h), lapack.ssytrd, lapack.ssytrd_lwork
    else:
        # _symmetrize returns a fresh, exactly symmetric array, so sym.T is sym
        # in Fortran order
        sym, sytrd, sytrd_lwork = _symmetrize(h).T, lapack.dsytrd, lapack.dsytrd_lwork
    # sytrd overwrites the Fortran-ordered sym with its reflectors, without a copy
    lwork = int(sytrd_lwork(sym.shape[0], lower=1)[0])  # lets sytrd run blocked
    c, d, e, tau, _ = sytrd(sym, lower=1, lwork=lwork, overwrite_a=1)
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
