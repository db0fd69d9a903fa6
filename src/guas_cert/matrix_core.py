"""Matrix-pair validation, Lyapunov normalization and Hurwitz testing.

The central objects are a pair (B0, B1) of square matrices together with a
symmetric positive definite matrix P such that B_i^T P + P B_i is negative
semidefinite for both i.  After the change of variables x -> P^{1/2} x the
Lyapunov matrix becomes the identity and the pair satisfies
B_i^T + B_i <= 0, which is the form every downstream module assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    LambdaOutOfRange,
    NoCommonWeakLyapunov,
    NonFiniteInput,
    NotPositiveDefinite,
)


def _as_square(B, name="B") -> np.ndarray:
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {B.shape}")
    return B


def symmetric_part(B) -> np.ndarray:
    """Return B^T + B, symmetrized exactly."""
    B = _as_square(B)
    S = B.T + B
    return 0.5 * (S + S.T)


def default_semidef_tol(S: np.ndarray) -> float:
    """Relative semidefiniteness tolerance: 1e-9 * (1 + ||S||_F)."""
    return 1e-9 * (1.0 + np.linalg.norm(S, "fro"))


def _check_spd(P: np.ndarray, tol: float | None = None) -> np.ndarray:
    P = _as_square(P, "P")
    if not np.all(np.isfinite(P)):
        raise NonFiniteInput("P has a non-finite entry")
    if tol is None:
        tol = default_semidef_tol(P)
    if np.max(np.abs(P - P.T)) > tol:
        raise NotPositiveDefinite("P is not symmetric within tolerance")
    P = 0.5 * (P + P.T)
    w = np.linalg.eigvalsh(P)
    if w[0] <= tol:
        raise NotPositiveDefinite(f"P has non-positive eigenvalue {w[0]:.3e}")
    return P


@dataclass(frozen=True)
class MatrixPair:
    """A raw pair (B0, B1) with an optional Lyapunov candidate P."""

    B0: np.ndarray
    B1: np.ndarray
    P: Optional[np.ndarray] = None
    label: str = ""

    def __post_init__(self):
        B0 = _as_square(self.B0, "B0")
        B1 = _as_square(self.B1, "B1")
        if B0.shape != B1.shape:
            raise DimensionMismatch(
                f"B0 and B1 must have identical shapes, got {B0.shape} vs {B1.shape}"
            )
        object.__setattr__(self, "B0", B0)
        object.__setattr__(self, "B1", B1)
        if self.P is not None:
            object.__setattr__(self, "P", _check_spd(self.P))

    @property
    def d(self) -> int:
        return self.B0.shape[0]

    def lyapunov_or_identity(self) -> np.ndarray:
        return np.eye(self.d) if self.P is None else self.P


@dataclass(frozen=True)
class SemidefVerdict:
    """Outcome of a negative-semidefiniteness check on one symmetric matrix."""

    holds: bool
    max_eigenvalue: float
    witness: Optional[np.ndarray] = None  # X with X^T S X > tol, iff not holds
    tol: float = 0.0


@dataclass(frozen=True)
class NormalizedPair:
    """The pair after reduction to the identity Lyapunov matrix.

    Satisfies S_i = B_i^T + B_i <= 0 (up to tolerance) for i = 0, 1.
    ``provenance`` records the P and change of variables used.
    """

    B0n: np.ndarray
    B1n: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.B0n.shape[0]

    @property
    def S0(self) -> np.ndarray:
        return symmetric_part(self.B0n)

    @property
    def S1(self) -> np.ndarray:
        return symmetric_part(self.B1n)

    def B(self, lam: float) -> np.ndarray:
        return convex_combination(self, lam)


def check_weak_lyapunov(pair: MatrixPair, P=None, tol: float | None = None):
    """Check that B_i^T P + P B_i is negative semidefinite for i = 0, 1.

    Returns a pair of SemidefVerdict.  When a check fails, the verdict
    carries the eigenvector realizing the positive eigenvalue as witness.
    """
    P = _check_spd(pair.lyapunov_or_identity() if P is None else np.asarray(P, float))
    if P.shape[0] != pair.d:
        raise DimensionMismatch("P dimension does not match the pair")
    verdicts = []
    for B in (pair.B0, pair.B1):
        M = B.T @ P + P @ B
        M = 0.5 * (M + M.T)
        t = default_semidef_tol(M) if tol is None else tol
        w, V = np.linalg.eigh(M)
        holds = w[-1] <= t
        witness = None if holds else V[:, -1].copy()
        verdicts.append(SemidefVerdict(holds, float(w[-1]), witness, t))
    return verdicts[0], verdicts[1]


def require_finite(pair: MatrixPair) -> None:
    """Raise NonFiniteInput when B0 or B1 has a NaN or infinite entry."""
    for name, M in (("B0", pair.B0), ("B1", pair.B1)):
        if not np.all(np.isfinite(M)):
            raise NonFiniteInput(f"{name} has a non-finite entry")


def normalize(pair: MatrixPair, P=None) -> NormalizedPair:
    """Reduce the pair to identity Lyapunov matrix: B -> P^{1/2} B P^{-1/2}.

    The transform is a similarity, so spectra are preserved, and
    B'^T + B' = P^{-1/2} (B^T P + P B) P^{-1/2} <= 0.
    """
    require_finite(pair)
    P = pair.lyapunov_or_identity() if P is None else np.asarray(P, float)
    v0, v1 = check_weak_lyapunov(pair, P)  # validates P as well
    if not (v0.holds and v1.holds):
        bad = [i for i, v in enumerate((v0, v1)) if not v.holds]
        raise NoCommonWeakLyapunov(
            f"B_i^T P + P B_i has positive eigenvalue for i in {bad} "
            f"(max eigenvalues {v0.max_eigenvalue:.3e}, {v1.max_eigenvalue:.3e})"
        )
    P = 0.5 * (P + P.T)
    w, U = np.linalg.eigh(P)
    sqrt_P = (U * np.sqrt(w)) @ U.T
    inv_sqrt_P = (U / np.sqrt(w)) @ U.T
    B0n = sqrt_P @ pair.B0 @ inv_sqrt_P
    B1n = sqrt_P @ pair.B1 @ inv_sqrt_P
    return NormalizedPair(
        B0n,
        B1n,
        provenance={"P": P, "sqrt_P": sqrt_P, "inv_sqrt_P": inv_sqrt_P},
    )


@dataclass(frozen=True)
class HurwitzResult:
    hurwitz: bool
    abscissa: float  # max real part of the spectrum
    marginal: bool  # abscissa within +/- tol of zero


def is_hurwitz(B, tol: float = 1e-9) -> HurwitzResult:
    """Decide Hurwitzness from the spectral abscissa.

    A matrix with abscissa inside [-tol, +tol] is flagged marginal and the
    caller decides; rotations sit exactly on that boundary.
    """
    B = _as_square(B)
    abscissa = float(np.max(np.linalg.eigvals(B).real)) if B.size else -np.inf
    return HurwitzResult(abscissa < -tol, abscissa, abs(abscissa) <= tol)


def convex_combination(pair: NormalizedPair, lam: float) -> np.ndarray:
    """B_lam = (1 - lam) B0 + lam B1 for lam in [0, 1]."""
    if not 0.0 <= lam <= 1.0:
        raise LambdaOutOfRange(f"lambda = {lam} outside [0, 1]")
    return (1.0 - lam) * pair.B0n + lam * pair.B1n


# ---------------------------------------------------------------------------
# Strict 2x2 Lyapunov search in the normalized form P = [[1, q], [q, r]]
# ---------------------------------------------------------------------------


@dataclass
class StrictLyapunovSearch:
    """Result of the strict common quadratic Lyapunov search for d = 2.

    ``found`` with (q, r, P) if both M_i = B_i^T P + P B_i are negative
    definite at P = [[1, q], [q, r]].  Otherwise the two determinant curves
    det M_i = 0 are returned sampled, plus the r-axis intersections of each
    curve (the ordinates of the curve at q = 0).  The search is restricted
    to P with top-left entry 1; this loses no generality up to positive
    scaling of P, but the degenerate family with top-left entry 0 is not
    covered.
    """

    found: bool
    q: Optional[float] = None
    r: Optional[float] = None
    P: Optional[np.ndarray] = None
    vertex_ordinates: tuple = ()
    curve_points: tuple = ()
    search_box: tuple = ()
    message: str = ""


def _qr_coefficient_mats(B: np.ndarray):
    """M(q, r) = M1 + q*Mq + r*Mr where M* come from P = P1 + q Pq + r Pr."""
    parts = []
    for Pc in (
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, 1.0]]),
    ):
        M = B.T @ Pc + Pc @ B
        parts.append(0.5 * (M + M.T))
    return tuple(parts)


def _det_and_trace(coeffs, Q, R):
    """Vectorized det and trace of M(q, r) on meshgrids Q, R."""
    M1, Mq, Mr = coeffs
    m00 = M1[0, 0] + Q * Mq[0, 0] + R * Mr[0, 0]
    m01 = M1[0, 1] + Q * Mq[0, 1] + R * Mr[0, 1]
    m11 = M1[1, 1] + Q * Mq[1, 1] + R * Mr[1, 1]
    return m00 * m11 - m01 * m01, m00 + m11


def _det_roots_in_r(coeffs, q_values: np.ndarray):
    """Real roots in r of det M(q, r) = 0 for each q (quadratic in r)."""
    f0, _ = _det_and_trace(coeffs, q_values, np.zeros_like(q_values))
    f1, _ = _det_and_trace(coeffs, q_values, np.ones_like(q_values))
    f2, _ = _det_and_trace(coeffs, q_values, 2.0 * np.ones_like(q_values))
    c2 = 0.5 * (f0 - 2.0 * f1 + f2)
    c1 = 0.5 * (-3.0 * f0 + 4.0 * f1 - f2)
    c0 = f0
    points = []
    for q, a, b, c in zip(q_values, c2, c1, c0):
        if abs(a) < 1e-14 * (abs(b) + abs(c) + 1.0):
            if abs(b) > 1e-14:
                points.append((q, -c / b))
            continue
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            continue
        sq = np.sqrt(disc)
        points.append((q, (-b - sq) / (2.0 * a)))
        points.append((q, (-b + sq) / (2.0 * a)))
    return np.array(points).reshape(-1, 2)


def strict_lyapunov_2x2(pair: MatrixPair, grid: int = 241) -> StrictLyapunovSearch:
    """Search the (q, r) half-plane {r > q^2} for a strict common P.

    Feasibility of a grid point means both M_i are negative definite there
    (trace < 0 and det > 0 for a 2x2).  The search box is derived from the
    sampled determinant curves det M_i = 0 and the best candidate is refined
    locally before being accepted.
    """
    if pair.d != 2:
        raise DimensionMismatch(f"strict_lyapunov_2x2 requires d = 2, got d = {pair.d}")
    coeffs = [_qr_coefficient_mats(B) for B in (pair.B0, pair.B1)]

    # r-axis intersections of each curve: roots of det M_i(0, r) = 0.
    vertex_ordinates = []
    for c in coeffs:
        roots = _det_roots_in_r(c, np.zeros(1))
        vertex_ordinates.append(tuple(sorted(roots[:, 1])) if roots.size else ())

    # Sample both curves to derive the search box.
    q_scan = np.linspace(-50.0, 50.0, 4001)
    curves = [_det_roots_in_r(c, q_scan) for c in coeffs]
    all_pts = np.vstack([p for p in curves if p.size] or [np.zeros((0, 2))])
    if all_pts.size:
        q_lo, q_hi = all_pts[:, 0].min(), all_pts[:, 0].max()
        r_hi = all_pts[:, 1].max()
        pad_q = 0.1 * (q_hi - q_lo) + 0.5
        pad_r = 0.1 * abs(r_hi) + 0.5
        box = (q_lo - pad_q, q_hi + pad_q, 1e-12, r_hi + pad_r)
    else:
        box = (-5.0, 5.0, 1e-12, 10.0)

    def feasibility(Q, R):
        score = np.full(Q.shape, np.inf)
        for c in coeffs:
            det, tr = _det_and_trace(c, Q, R)
            score = np.minimum(score, np.minimum(det, -tr))
        return np.minimum(score, R - Q * Q)  # P positive definite

    def best_on_grid(q_lo, q_hi, r_lo, r_hi, n):
        qs = np.linspace(q_lo, q_hi, n)
        rs = np.linspace(r_lo, r_hi, n)
        Q, R = np.meshgrid(qs, rs)
        score = feasibility(Q, R)
        idx = np.unravel_index(np.argmax(score), score.shape)
        return float(Q[idx]), float(R[idx]), float(score[idx]), (
            qs[1] - qs[0] if n > 1 else 0.0,
            rs[1] - rs[0] if n > 1 else 0.0,
        )

    q_lo, q_hi, r_lo, r_hi = box
    q_best, r_best, s_best, (dq, dr) = best_on_grid(q_lo, q_hi, r_lo, r_hi, grid)
    # Local refinement around the best cell, whether or not it is feasible:
    # thin feasible slivers between the coarse nodes are caught here.
    for _ in range(3):
        q_best, r_best, s_best, (dq, dr) = best_on_grid(
            q_best - 2 * dq, q_best + 2 * dq, max(1e-12, r_best - 2 * dr),
            r_best + 2 * dr, 81,
        )

    curve_tuple = tuple(curves)
    if s_best > 0.0:
        P = np.array([[1.0, q_best], [q_best, r_best]])
        lam_max = max(
            np.linalg.eigvalsh(B.T @ P + P @ B)[-1] for B in (pair.B0, pair.B1)
        )
        if lam_max < -default_semidef_tol(P):
            return StrictLyapunovSearch(
                True, q_best, r_best, P,
                tuple(vertex_ordinates), curve_tuple, box,
                "strict common quadratic Lyapunov matrix found",
            )
    return StrictLyapunovSearch(
        False, None, None, None, tuple(vertex_ordinates), curve_tuple, box,
        "no strict common quadratic Lyapunov function of this normalized form",
    )
