"""Kalman-rank observability of the reduced pairs (C_lam, A_lam).

Observability is measured through the smallest singular value of the Kalman
matrix rather than an integer rank, so every verdict carries a quantitative
margin.  The lambda sweep certifies "observable for all lambda in [0, 1]"
with a stated grid and refinement resolution: the failure set is algebraic
in lambda, hence either everything or a finite set of points that a fine
grid plus local minimization catches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decomposition import BlockFamily, block_form, common_kernel, numerical_rank
from .errors import DimensionMismatch
from .matrix_core import NormalizedPair, is_hurwitz, symmetric_part

#: Certified-observable requires sigma_min above this multiple of the tolerance.
CERT_FACTOR = 100.0


def kalman_matrix(C, A) -> np.ndarray:
    """Vertical stack [C; CA; CA^2; ...; CA^(k-1)]."""
    C = np.atleast_2d(np.asarray(C, float))
    A = np.atleast_2d(np.asarray(A, float))
    k = A.shape[0]
    if A.shape[1] != k or C.shape[1] != k:
        raise DimensionMismatch(
            f"incompatible shapes C {C.shape}, A {A.shape}"
        )
    if k == 0:
        return np.zeros((0, 0))
    rows = [C]
    M = C
    for _ in range(k - 1):
        M = M @ A
        rows.append(M)
    return np.vstack(rows)


def _sigma_min(O: np.ndarray, k: int) -> float:
    """Smallest of the k column singular values (0 if rank-deficient by shape)."""
    if k == 0:
        return np.inf
    if O.shape[0] < k:
        return 0.0
    s = np.linalg.svd(O, compute_uv=False)
    return float(s[k - 1])


def pair_observable(C, A, tol: float = 1e-9):
    """Kalman rank test with an unobservable-subspace witness.

    Returns (observable, basis) where basis is an orthonormal basis of the
    numerical null space of the Kalman matrix (A-invariant, killed by C)
    when the pair is unobservable, and None otherwise.
    """
    basis = numerical_rank(kalman_matrix(C, A), tol).basis
    if basis.shape[1] == 0:
        return True, None
    return False, basis


@dataclass
class ObservabilityReport:
    """Result of the lambda sweep over the Kalman matrices of (C_lam, A_lam)."""

    grid: np.ndarray
    sigma_min: np.ndarray
    verdict: str  # observable_for_all_lambda | fails_at | inconclusive
    margin: float  # min over refined minima of sigma_min
    lambda_star: Optional[float] = None
    witness: Optional[np.ndarray] = None  # orthonormal unobservable basis
    cert_threshold: float = 0.0
    tol: float = 0.0


def _golden_min(f, a: float, b: float, xtol: float = 1e-8):
    """Golden-section minimization of f on [a, b]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def sweep_lambda(
    blocks: BlockFamily, n_grid: int = 257, tol: float = 1e-9
) -> ObservabilityReport:
    """Evaluate sigma_min of the Kalman matrix on a lambda grid and refine.

    Every strict local minimum of the grid curve is refined by
    golden-section search to Delta-lambda = 1e-8 (a zero strictly between
    grid points only dents the curve by O(spacing), so refinement cannot be
    gated on the raw grid value).  Verdicts:
    fails_at when a refined minimum drops below the tolerance scale,
    observable_for_all_lambda when the global refined minimum clears
    CERT_FACTOR times it, inconclusive in between.
    """
    if n_grid < 2:
        raise ValueError("n_grid must be >= 2")
    k = blocks.k
    grid = np.linspace(0.0, 1.0, n_grid)
    if k == 0:
        return ObservabilityReport(
            grid, np.full(n_grid, np.inf), "observable_for_all_lambda",
            np.inf, cert_threshold=0.0, tol=tol,
        )

    def sig(lam: float) -> float:
        return _sigma_min(kalman_matrix(blocks.C(lam), blocks.A(lam)), k)

    sigma = np.array([sig(l) for l in grid])
    scale = 1.0 + float(
        max(np.linalg.norm(kalman_matrix(blocks.C(l), blocks.A(l)), 2)
            for l in (0.0, 0.5, 1.0))
    )
    tol_eff = tol * scale
    cert_threshold = CERT_FACTOR * tol_eff

    # candidate minima: strict local minima of the grid curve (a plateau of
    # exactly constant values contributes only the global argmin below)
    candidates = []
    for i in range(n_grid):
        left = sigma[i - 1] if i > 0 else np.inf
        right = sigma[i + 1] if i < n_grid - 1 else np.inf
        if sigma[i] <= left and sigma[i] <= right and min(left, right) > sigma[i]:
            candidates.append(i)
    i_min = int(np.argmin(sigma))
    if i_min not in candidates:
        candidates.append(i_min)

    margin = float(np.min(sigma))
    lam_star = float(grid[int(np.argmin(sigma))])
    for i in candidates:
        a = grid[max(i - 1, 0)]
        b = grid[min(i + 1, n_grid - 1)]
        x, fx = _golden_min(sig, a, b)
        if fx < margin:
            margin, lam_star = float(fx), float(x)

    if margin < tol_eff:
        rank = numerical_rank(
            kalman_matrix(blocks.C(lam_star), blocks.A(lam_star)), tol
        )
        # sigma_min can be tiny but above the rank threshold; the witness is
        # then the closest-to-null direction
        basis = rank.basis if rank.basis.shape[1] else rank.complement[:, -1:]
        return ObservabilityReport(
            grid, sigma, "fails_at", margin, lam_star, basis,
            cert_threshold, tol_eff,
        )
    if margin > cert_threshold:
        return ObservabilityReport(
            grid, sigma, "observable_for_all_lambda", margin,
            cert_threshold=cert_threshold, tol=tol_eff,
        )
    return ObservabilityReport(
        grid, sigma, "inconclusive", margin, lam_star,
        cert_threshold=cert_threshold, tol=tol_eff,
    )


@dataclass
class CrosscheckReport:
    """Agreement between Hurwitzness of B and observability of its (C, A)."""

    hurwitz: bool
    abscissa: float
    observable: bool
    agree: bool
    marginal: bool
    k: int


def hurwitz_observability_crosscheck(B, tol: float = 1e-9) -> CrosscheckReport:
    """For B with B^T + B <= 0: B is Hurwitz iff (C, A) is observable.

    The block form (A, -C^T; C, D) is taken in the frame adapted to
    ker(B^T + B).  Points with spectral abscissa inside the marginal band
    are flagged rather than forced to agree.
    """
    B = np.asarray(B, float)
    S = symmetric_part(B)
    w = np.linalg.eigvalsh(S) if S.size else np.zeros(1)
    if w.size and w[-1] > tol * (1.0 + np.linalg.norm(S, "fro")):
        raise ValueError("B^T + B is not negative semidefinite")
    npair = NormalizedPair(B, B)
    decomp = common_kernel(npair, tol)
    fam = block_form(npair, decomp, tol)
    hz = is_hurwitz(B, tol)
    observable, _ = pair_observable(fam.C0, fam.A0, tol)
    agree = (hz.hurwitz == observable) or hz.marginal
    return CrosscheckReport(
        hz.hurwitz, hz.abscissa, observable, agree, hz.marginal, decomp.k
    )
