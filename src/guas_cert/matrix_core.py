"""Matrix-pair validation, Lyapunov normalization, Hurwitz testing and the
exact strict common Lyapunov search for 2x2 pairs.

The central objects are a pair (B0, B1) of square matrices together with a
symmetric positive definite matrix P such that B_i^T P + P B_i is negative
semidefinite for both i.  After the change of variables x -> P^{1/2} x the
Lyapunov matrix becomes the identity and the pair satisfies
B_i^T + B_i <= 0, which is the form every downstream module assumes.

Each check runs one batched decomposition over both matrices of the pair:
one ``eigvals`` for Hurwitzness, one ``eigvalsh`` for the two Lyapunov
forms, which ``_lyapunov_forms`` alone builds.  P enters only on the pair
and is validated in one place, when a ``MatrixPair`` is built: the ``eigh``
that checks it is kept with the pair and gives the square roots
``normalize`` takes.  P = I, the default, is neither validated nor
decomposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
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


def _check_spd(P):
    """Validate P as symmetric positive definite; return it symmetrized, with
    the eigenvalues (ascending) and eigenvectors of its one ``eigh``."""
    P = _as_square(P, "P")
    if not np.all(np.isfinite(P)):
        raise NonFiniteInput("P has a non-finite entry")
    tol = default_semidef_tol(P)
    if np.max(np.abs(P - P.T)) > tol:
        raise NotPositiveDefinite("P is not symmetric within tolerance")
    P = 0.5 * (P + P.T)
    w, U = np.linalg.eigh(P)
    if w[0] <= tol:
        raise NotPositiveDefinite(f"P has non-positive eigenvalue {w[0]:.3e}")
    return P, w, U


@dataclass(frozen=True)
class MatrixPair:
    """A raw pair (B0, B1) with an optional Lyapunov candidate P.

    A given P is validated here, once, and its eigendecomposition is kept
    (as ``_P_eigh``) for the square roots ``normalize`` takes.
    """

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
        eig = None
        if self.P is not None:
            P, *eig = _check_spd(self.P)
            if P.shape != B0.shape:
                raise DimensionMismatch("P dimension does not match the pair")
            object.__setattr__(self, "P", P)
        object.__setattr__(self, "_P_eigh", eig)

    @property
    def d(self) -> int:
        return self.B0.shape[0]


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

    @cached_property
    def S0(self) -> np.ndarray:
        return symmetric_part(self.B0n)

    @cached_property
    def S1(self) -> np.ndarray:
        return symmetric_part(self.B1n)


def _lyapunov_forms(B: np.ndarray, P: np.ndarray):
    """The symmetrized forms M = B^T P + P B over a (..., d, d) stack of B
    (broadcast against P), and the largest eigenvalue of each from one
    batched ``eigvalsh`` (-inf when d = 0)."""
    M = B.swapaxes(-1, -2) @ P + P @ B
    M = 0.5 * (M + M.swapaxes(-1, -2))
    return M, np.max(np.linalg.eigvalsh(M), axis=-1, initial=-np.inf)


def check_weak_lyapunov(pair: MatrixPair):
    """Check that B_i^T P + P B_i is negative semidefinite for i = 0, 1.

    P is pair.P, or the identity when that is None.  Each form is held to
    ``default_semidef_tol`` of itself, and a form that fails gets an
    ``eigh`` of its own for the witness.  Returns a pair of SemidefVerdict.
    When a check fails, the verdict carries the eigenvector realizing the
    positive eigenvalue as witness.
    """
    P = np.eye(pair.d) if pair.P is None else pair.P
    M, w_max = _lyapunov_forms(np.stack([pair.B0, pair.B1]), P)
    verdicts = []
    for Mi, w in zip(M, w_max):
        t = default_semidef_tol(Mi)
        holds = w <= t
        witness = None if holds else np.linalg.eigh(Mi)[1][:, -1].copy()
        verdicts.append(SemidefVerdict(bool(holds), float(w), witness, t))
    return verdicts[0], verdicts[1]


def require_finite(pair: MatrixPair) -> None:
    """Raise NonFiniteInput when B0 or B1 has a NaN or infinite entry."""
    for name, M in (("B0", pair.B0), ("B1", pair.B1)):
        if not np.all(np.isfinite(M)):
            raise NonFiniteInput(f"{name} has a non-finite entry")


def normalize(pair: MatrixPair) -> NormalizedPair:
    """Reduce the pair to identity Lyapunov matrix: B -> P^{1/2} B P^{-1/2}.

    The transform is a similarity, so spectra are preserved, and
    B'^T + B' = P^{-1/2} (B^T P + P B) P^{-1/2} <= 0.  P is pair.P, and both
    square roots come from the eigendecomposition the pair kept.  When it
    is None, P = I: the pair is checked and copied, with no decomposition.
    """
    require_finite(pair)
    v0, v1 = check_weak_lyapunov(pair)
    if not (v0.holds and v1.holds):
        bad = [i for i, v in enumerate((v0, v1)) if not v.holds]
        raise NoCommonWeakLyapunov(
            f"B_i^T P + P B_i has positive eigenvalue for i in {bad} "
            f"(max eigenvalues {v0.max_eigenvalue:.3e}, {v1.max_eigenvalue:.3e})"
        )
    if pair.P is None:
        identity = np.eye(pair.d)
        return NormalizedPair(
            pair.B0.copy(),
            pair.B1.copy(),
            provenance={"P": identity, "sqrt_P": identity, "inv_sqrt_P": identity},
        )
    w, U = pair._P_eigh
    root_w = np.sqrt(w)
    sqrt_P = (U * root_w) @ U.T
    inv_sqrt_P = (U / root_w) @ U.T
    return NormalizedPair(
        sqrt_P @ pair.B0 @ inv_sqrt_P,
        sqrt_P @ pair.B1 @ inv_sqrt_P,
        provenance={"P": pair.P, "sqrt_P": sqrt_P, "inv_sqrt_P": inv_sqrt_P},
    )


@dataclass(frozen=True)
class HurwitzResult:
    """Fields are arrays over the leading axes when is_hurwitz gets a stack."""

    hurwitz: bool
    abscissa: float  # max real part of the spectrum
    marginal: bool  # abscissa within +/- tol of zero


def is_hurwitz(B, tol: float = 1e-9) -> HurwitzResult:
    """Decide Hurwitzness from the spectral abscissa, over leading batch axes.

    One ``eigvals`` runs over a (..., d, d) stack; the fields of the result
    are arrays over the leading axes, or Python scalars for one matrix.  A
    matrix with abscissa inside [-tol, +tol] is flagged marginal and the
    caller decides; rotations sit exactly on that boundary.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim < 2 or B.shape[-1] != B.shape[-2]:
        raise DimensionMismatch(f"B must be square, got shape {B.shape}")
    abscissa = np.max(np.linalg.eigvals(B).real, axis=-1, initial=-np.inf)
    hurwitz, marginal = abscissa < -tol, np.abs(abscissa) <= tol
    if B.ndim == 2:
        return HurwitzResult(bool(hurwitz), float(abscissa), bool(marginal))
    return HurwitzResult(hurwitz, abscissa, marginal)


# ---------------------------------------------------------------------------
# Strict 2x2 Lyapunov search over P = [[1, q], [q, r]]
# ---------------------------------------------------------------------------


@dataclass
class StrictLyapunovSearch:
    """Result of the strict common quadratic Lyapunov search for d = 2.

    ``found`` with P = [[1, q], [q, r]] if both M_i = B_i^T P + P B_i are
    negative definite there.  ``vertex_ordinates`` are the r-axis
    intersections of each determinant curve det M_i = 0 (its real roots in
    r at q = 0).  Every positive definite P is a positive multiple of one of
    this form, so the search loses no strict P.
    """

    found: bool
    P: Optional[np.ndarray] = None
    vertex_ordinates: tuple = ()
    message: str = ""


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _strict_fibres(B: np.ndarray, q: float):
    """The roots lo <= hi in r of det M_i(q, r) for each B_i of a (2, 2, 2)
    stack.  With B_i = [[a, b], [c, d]] Hurwitz and d < c q < -a, M_i(q, r)
    is negative definite exactly when lo < r < hi; hi is inf where c = 0.
    The roots are nan where they are not real."""
    a, b, c, d = B[:, 0, 0], B[:, 0, 1], B[:, 1, 0], B[:, 1, 1]
    u = a + c * q  # M[0, 0] / 2
    s = b + (a + d) * q  # M[0, 1] at r = 0
    # det M = -c^2 r^2 + beta r + gamma, whose discriminant factors
    beta, gamma = 4.0 * d * u - 2.0 * c * s, 4.0 * b * q * u - s * s
    disc = 16.0 * (a * d - b * c) * u * (d - c * q)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = beta + np.copysign(np.sqrt(disc), beta)  # no cancellation
        r1, r2 = t / (2.0 * c * c), -2.0 * gamma / t
    return np.minimum(r1, r2), np.maximum(r1, r2)


def _golden_max(f, a: float, b: float) -> float:
    """A maximizer of f, concave on (a, b), by golden-section search until
    the two inner points meet in floating point."""
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while a < x1 < x2 < b:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return x1 if f1 >= f2 else x2


def strict_lyapunov_2x2(pair: MatrixPair) -> StrictLyapunovSearch:
    """Decide whether a strict common P exists, exactly up to rounding.

    A strict P needs both B_i Hurwitz, so a pair that is not is refused at
    once; for a Hurwitz B_i, det M_i(q, r) > 0 alone means M_i < 0.  So for
    q with d_i < c_i q < -a_i the strict set of B_i is the open r-interval
    of ``_strict_fibres``, and it is empty for other q; where c_i = 0 it is
    unbounded above and every q qualifies.  Both strict sets are convex, so
    the length of the common interval is concave in q and a golden-section
    search over the common q-range maximizes it.  The midpoint of the
    longest interval is returned once an ``eigvalsh`` check confirms it;
    when both c_i = 0, q = 0 and r = 2 lo + 1.  The decision agrees with the
    criterion of Shorten and Narendra (2002): neither B0 B1 nor B0 B1^{-1}
    has a negative real eigenvalue.
    """
    if pair.d != 2:
        raise DimensionMismatch(f"strict_lyapunov_2x2 requires d = 2, got d = {pair.d}")
    B = np.stack([pair.B0, pair.B1])
    vertex_ordinates = tuple(
        tuple(v for v in ends if np.isfinite(v)) for ends in zip(*_strict_fibres(B, 0.0))
    )
    a, c, d = B[:, 0, 0], B[:, 1, 0], B[:, 1, 1]
    hurwitz = np.all(a + d < 0.0) and np.all(a * d - B[:, 0, 1] * c > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ends = np.sort([d / c, -a / c], axis=0)  # (-inf, inf) where c = 0
    q_lo, q_hi = ends[0].max(), ends[1].min()

    def common(q):
        lo, hi = _strict_fibres(B, q)
        return lo.max(), hi.min()

    def width(q):
        lo, hi = common(q)
        return hi - lo

    if hurwitz and q_lo < q_hi:
        q = _golden_max(width, q_lo, q_hi) if np.isfinite(q_hi - q_lo) else 0.0
        lo, hi = common(q)
        if lo < hi:
            r = 0.5 * (lo + hi) if np.isfinite(hi) else 2.0 * lo + 1.0
            P = np.array([[1.0, q], [q, r]])
            if _lyapunov_forms(B, P)[1].max() < -default_semidef_tol(P):
                return StrictLyapunovSearch(
                    True, P, vertex_ordinates, "strict common quadratic Lyapunov matrix found"
                )
    return StrictLyapunovSearch(
        False, None, vertex_ordinates,
        "no strict common quadratic Lyapunov function (up to rounding)",
    )
