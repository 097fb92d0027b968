"""Newton-direction solves: exact via Cholesky or a factored eigendecomposition,
inexact via preconditioned conjugate gradients under a two-part acceptance
contract.

A floored eigenbasis solve may run on a float32 eigendecomposition
(``solve_floored``): its factored inverse M gives the direction and the
corrections of iterative refinement, in float32, while every residual is
taken in float64 against H_S + U D U', the float64 H_S with the eigenvalues
of the k float32 eigenvectors U below the floor raised to it.  A direction
is returned only once that residual meets ``EXACT_RESIDUAL_RTOL``, the
exact solves' own contract; a solve that does not get there within
``MAX_REFINEMENTS`` returns None, and the caller redoes it in float64.

An inexact direction p for the system H p = -g is accepted when

  (a) ||H p + g|| <= theta1 ||g||          (relative residual), and
  (b) p'g <= -(1 - theta2) p'Hp            (sufficient descent).

The exact solution satisfies both for any theta1, theta2 in [0, 1), so a
spec with theta1 = 0 asks for ``solve_exact``, and ``solve_inexact``
rejects it.  CG started from zero satisfies (b) automatically in exact
arithmetic (its residuals are orthogonal to the iterate), but (b) is still
verified explicitly and iteration continues if it ever fails.

CG is only worth running while it is cheaper than the exact solve it would
otherwise fall back to.  On a dense p x p matrix one Cholesky factorization
costs p^3/3 flops and one CG matvec 2p^2, so CG gets at most ceil(p/6)
iterations (flop parity) before the solve falls back to Cholesky.  A solve
where CG never meets the contract then costs about two exact solves; with a
full p-iteration CG run it would cost about seven.

A sampled Hessian can also come as a matrix-free operator
(``model.SampledHessian``): a product costs 4|S|p flops in one read of the
gathered rows A_S, a cache-sized row block at a time, and forms no p x p
matrix, while the fallback must first assemble that matrix (|S|p^2 to
2|S|p^2 flops) and then factor it.  With a preconditioner
(2p^2 flops per application) the ceil(p/6) iterations cost
(2/3)|S|p^2 + p^3/3 flops, below the assembly plus factorization they stand
in for, so the same budget keeps a missed solve within about two exact ones.

The preconditioner is the caller's, fixed for a whole run; a fallback forms
no inverse.  Solvers use the inverse of the full Hessian at the start point,
which every later sample's H is a reweighted subsample of.  From x0 = 0 the
model builds that Hessian from a Gram it keeps and keeps its inverse
(``spd_inverse``, per shift), so only the first run on a model pays the
O(np^2) Gram and the O(p^3) Cholesky and potri (6.9 ms at p = 500, one BLAS
thread); a later run at the same shift reads the kept inverse.
On a 5000 x 500 logistic problem with a 1e8-conditioned design, started at
zero, a fresh
sample of |S| = p rows meets theta1 = 1e-2 in 38-54 iterations, inside
ceil(p/6) = 84, where the inverse of another sample needs 147-213.  A dense
symmetric product applies M several times faster than two triangular solves
with a Cholesky factor, at the same flop count.  An inexact M only costs
iterations: the contract is always checked against the H of the current
solve.

The contract says nothing of the precision CG runs in, so a caller may ask
for float32 products (``solve_inexact``'s ``cg_dtype``, with a float32 M):
CG then multiplies by float32 copies of H and M, which read half the bytes,
while its iterates, residuals and step lengths stay float64.  The check of
both conditions and any fallback use the float64 H, so an accepted
direction carries the same float64 certificate as one CG found in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .regularize import Spectrum

EXACT_RESIDUAL_RTOL = 1e-10
MAX_REFINEMENTS = 3

# how a Newton direction was solved for: exactly (Cholesky or an eigenbasis),
# CG accepted by the contract, CG that missed it and fell back to Cholesky,
# or a float32 eigenbasis solve whose refinement stalled, redone in float64
PATH_EXACT = "cholesky"
PATH_EIGEN = "eigh"
PATH_CG = "cg"
PATH_FALLBACK = "cholesky-fallback"
PATH_EIGEN_FALLBACK = "eigh-fallback"


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Factorization failed; caller should regularize or resample."""


@dataclass(frozen=True)
class InexactnessSpec:
    """Tolerances of the two-part acceptance contract."""

    theta1: float
    theta2: float

    def __post_init__(self):
        if not 0 <= self.theta1 < 1:
            raise ValueError(f"theta1 must be in [0, 1), got {self.theta1}")
        if not 0 <= self.theta2 < 1:
            raise ValueError(f"theta2 must be in [0, 1), got {self.theta2}")


@dataclass(frozen=True)
class InexactDiagnostics:
    """Acceptance ratios of a direction; ``solve_inexact`` also fills in the
    CG iterations it ran and the path (``PATH_CG`` or ``PATH_FALLBACK``)
    that produced the direction."""

    ok: bool
    residual_ratio: float
    descent_ratio: float
    cg_iters: int = 0
    path: str | None = None


def _cholesky(h: np.ndarray):
    try:
        return scipy.linalg.cho_factor(h, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from None


def spd_inverse(h: np.ndarray) -> np.ndarray:
    """H^-1 of a symmetric positive definite H via Cholesky and LAPACK potri,
    with both triangles filled; raises ``NotPositiveDefiniteError`` where
    either fails."""
    inv, info = scipy.linalg.lapack.dpotri(_cholesky(h)[0], lower=True, overwrite_c=True)
    if info != 0:
        raise NotPositiveDefiniteError(f"potri failed with info={info}")
    return np.where(np.tri(inv.shape[0], dtype=bool), inv, inv.T)


def solve_exact(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H y = rhs for symmetric positive definite H via Cholesky.

    The residual is driven below 1e-10 * ||rhs|| with a few steps of
    iterative refinement; failure to reach that (or to factorize) raises
    ``NotPositiveDefiniteError``.
    """
    h = np.asarray(h, dtype=float)
    rhs = np.asarray(rhs, dtype=float).ravel()
    factor = _cholesky(h)
    y = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    for _ in range(MAX_REFINEMENTS):
        resid = rhs - h @ y
        if float(np.linalg.norm(resid)) <= EXACT_RESIDUAL_RTOL * rhs_norm:
            return y
        y = y + scipy.linalg.cho_solve(factor, resid, check_finite=False)
    if float(np.linalg.norm(rhs - h @ y)) <= EXACT_RESIDUAL_RTOL * rhs_norm:
        return y
    raise NotPositiveDefiniteError("refinement stalled; matrix numerically singular")


def solve_eigen(spectrum: Spectrum, eigvals: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve V diag(eigvals) V' y = rhs in O(p^2), with V the factored
    eigenvectors of ``spectrum`` and ``eigvals`` its eigenvalues as the
    caller changed them (ssn-spectral floors them).

    Raises ``NotPositiveDefiniteError`` unless the smallest eigenvalue exceeds
    p * machine epsilon * the largest (numpy's rank tolerance).
    """
    smallest = float(eigvals.min())
    if not smallest > eigvals.size * np.finfo(float).eps * float(eigvals.max()):
        raise NotPositiveDefiniteError(f"smallest eigenvalue {smallest:.3g} is not positive")
    return spectrum.from_eigenbasis(spectrum.to_eigenbasis(rhs) / eigvals)


def solve_floored(h: np.ndarray, spectrum: Spectrum, floor: float,
                  rhs: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Solve H^ y = rhs for H^ = H + U diag(floor - lambda_L) U', with
    ``spectrum`` a float32 eigendecomposition of the float64 H, lambda_L its
    k eigenvalues below ``floor`` and U = Q Z_L their eigenvectors, the only
    k columns promoted to float64.  H^ is H with that part of its spectrum
    floored, as the float32 eigenvectors resolve it.

    M = V diag(1 / max(lambda, floor)) V', applied factored in float32, gives
    the first y and each correction y += M (rhs - H^ y); the residuals are
    float64.  Returns y and ||H^ y - rhs|| / ||rhs|| once that is at most
    ``EXACT_RESIDUAL_RTOL``, or None if ``MAX_REFINEMENTS`` corrections do
    not get there.  Raises ``NotPositiveDefiniteError`` unless the floor is
    positive.
    """
    if not floor > 0:
        raise NotPositiveDefiniteError(f"spectral floor {floor:.3g} is not positive")
    rhs = np.asarray(rhs, dtype=float).ravel()
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0.0
    eigvals = spectrum.eigvals
    k = int(np.searchsorted(eigvals, floor))  # ascending: the first k are below
    inverse = 1.0 / np.maximum(eigvals, floor)
    u = spectrum.eigenvectors(k).astype(float)
    raise_by = floor - eigvals[:k].astype(float)

    def apply_m(v):
        return spectrum.from_eigenbasis(spectrum.to_eigenbasis(v) * inverse).astype(float)

    y = apply_m(rhs)
    for refinement in range(MAX_REFINEMENTS + 1):
        resid = rhs - (h @ y + u @ (raise_by * (u.T @ y)))
        ratio = float(np.linalg.norm(resid)) / rhs_norm
        if ratio <= EXACT_RESIDUAL_RTOL:
            return y, ratio
        if refinement < MAX_REFINEMENTS:
            y = y + apply_m(resid)
    return None


def _times(m, v: np.ndarray) -> np.ndarray:
    """m @ v in m's dtype, returned in v's: v is rounded to m's dtype first,
    so a float32 m is read as it is, never cast to float64."""
    return (m @ v.astype(m.dtype, copy=False)).astype(v.dtype, copy=False)


def _cg_iterates(h, g, budget, precond=None):
    """Preconditioned conjugate-gradient iterates for H p = -g from the zero
    start; ``precond`` is a symmetric positive definite M ~ H^-1 applied as
    M @ r, and None runs plain CG.  The products with H and M run in their
    own dtype; the iterates, residuals and step lengths stay in g's.

    Yields (p, ||H p + g||) after every update, the residual as the
    recurrence carries it.  Stops early if rounding destroys the curvature
    d'Hd > 0 or the preconditioned residual r'Mr > 0.
    """
    p = np.zeros_like(g)
    r = -g.copy()          # residual of H p = -g
    z = r if precond is None else _times(precond, r)
    d = z.copy()
    rz = float(r @ z)
    for _ in range(budget):
        hd = _times(h, d)
        dhd = float(d @ hd)
        if dhd <= 0:
            return
        alpha = rz / dhd
        p = p + alpha * d
        r = r - alpha * hd
        rr = float(r @ r)
        yield p, np.sqrt(rr)
        z = r if precond is None else _times(precond, r)
        rz_next = rr if precond is None else float(r @ z)
        if rz_next <= 0:
            return
        d = z + (rz_next / rz) * d
        rz = rz_next


def solve_inexact(h, g: np.ndarray, spec: InexactnessSpec, precond: np.ndarray | None = None,
                  cg_dtype=np.float64) -> tuple[np.ndarray, InexactDiagnostics]:
    """Direction p approximately solving H p = -g under the acceptance
    contract, with the diagnostics of the accepted direction.

    ``h`` is a p x p array or a ``model.SampledHessian`` (an operator with
    ``@``, ``astype`` and ``dense()``), which CG only multiplies by.  CG,
    preconditioned by ``precond`` if given, runs from the zero start and
    returns the first iterate meeting the residual condition that also
    passes the descent condition.  It gets ceil(p/6) iterations before the
    solve assembles H and falls back to Cholesky.  theta1 = 0 asks for the
    exact solve, which is ``solve_exact``'s, so it raises ValueError here.

    With ``cg_dtype`` float32, CG multiplies by a float32 copy of H, at half
    the bytes per product, while its iterates stay float64; ``precond`` is
    applied in its own dtype, so a caller that runs many float32 solves
    passes one float32 copy of it.  Both conditions are still checked with
    the float64 H, and a fallback assembles and factors the float64 H, so
    every direction returned carries the float64 certificate whatever
    precision found it.
    """
    if spec.theta1 == 0.0:
        raise ValueError("theta1 = 0 asks for an exact solve; use solve_exact")
    g = np.asarray(g, dtype=float).ravel()
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        raise ValueError("gradient is zero; nothing to solve")
    target = spec.theta1 * gnorm
    budget = math.ceil(g.size / 6)
    h_cg = h if h.dtype == cg_dtype else h.astype(cg_dtype)
    cg_iters = 0
    for p, res in _cg_iterates(h_cg, g, budget, precond):
        cg_iters += 1
        if res <= target:
            diag = verify_inexact(h, g, p, spec)
            if diag.ok:
                return p, replace(diag, cg_iters=cg_iters, path=PATH_CG)
    h = h.dense() if hasattr(h, "dense") else np.asarray(h, dtype=float)
    p = -solve_exact(h, g)
    diag = verify_inexact(h, g, p, spec)
    if not diag.ok:
        raise NotPositiveDefiniteError("exact fallback violates the descent contract")
    return p, replace(diag, cg_iters=cg_iters, path=PATH_FALLBACK)


def verify_inexact(h, g, p, spec: InexactnessSpec) -> InexactDiagnostics:
    """Check both acceptance conditions; the two ratios feed solver traces.

    residual_ratio = ||Hp + g|| / ||g||  (condition (a): <= theta1)
    descent_ratio  = -p'g / p'Hp         (condition (b): >= 1 - theta2)

    A theta1 of zero means "numerically exact" and is checked against the
    exact-solve residual contract rather than a literal zero, which floating
    point cannot attain.
    """
    g = np.asarray(g, dtype=float).ravel()
    p = np.asarray(p, dtype=float).ravel()
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return InexactDiagnostics(ok=False, residual_ratio=np.inf, descent_ratio=0.0)
    hp = h @ p
    residual_ratio = float(np.linalg.norm(hp + g)) / gnorm
    php = float(p @ hp)
    pg = float(p @ g)
    descent_ratio = -pg / php if php > 0 else 0.0
    ok = residual_ratio <= max(spec.theta1, EXACT_RESIDUAL_RTOL) \
        and pg <= -(1.0 - spec.theta2) * php
    return InexactDiagnostics(ok=ok, residual_ratio=residual_ratio,
                              descent_ratio=descent_ratio)
