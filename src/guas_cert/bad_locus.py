"""Geometry of the vanishing-output locus of the reduced bilinear system.

F is the cone of points x where C0 x and C1 x are colinear and opposed,
i.e. where some lam in [0, 1] kills the output C_lam x.  Off the common
output kernel N = ker C0 ∩ ker C1 that lam is unique and analytic (the
feedback lambda_of).  G collects the points of F on the unit sphere where
the drift A_lam x is (weakly) tangent to F; discreteness of G certifies
uniform observability.  scan_G decides discreteness by algebra on the
curve F ∩ S, whose points are kernel vectors of C_lam: the tangency
residual along it is a polynomial in lam, so a few values prove whether it
vanishes identically.  in_F, in_F_dual and in_G are pointwise oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial import Polynomial

from .decomposition import BlockFamily, numerical_rank
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InNullSpace,
    NotInF,
)
from .observability import CERT_FACTOR, ObservabilityReport, sigma_C_bisection


def wedge(u, v) -> np.ndarray:
    """Exterior product of m-vectors as the vector of 2x2 minors.

    Components u_i v_j - u_j v_i for i < j in lexicographic order, over the
    last axis (leading axes are batch axes); empty when m = 1 (colinearity
    is then vacuous).
    """
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    if u.shape != v.shape:
        raise DimensionMismatch(f"wedge operands {u.shape} vs {v.shape}")
    i, j = np.triu_indices(u.shape[-1], 1)
    return u[..., i] * v[..., j] - u[..., j] * v[..., i]


@dataclass(frozen=True)
class LocusGeometry:
    """Output blocks together with N = ker C0 ∩ ker C1."""

    blocks: BlockFamily
    N_basis: np.ndarray
    k: int
    k_prime: int


def locus_geometry(blocks: BlockFamily, tol: float = 1e-9) -> LocusGeometry:
    if blocks.k_prime == 0:
        N = np.eye(blocks.k)
    else:
        N = numerical_rank(np.vstack([blocks.C0, blocks.C1]), tol).basis
    return LocusGeometry(blocks, N, blocks.k, blocks.k_prime)


def _outputs(blocks: BlockFamily, x):
    x = np.asarray(x, float).ravel()
    return blocks.C0 @ x, blocks.C1 @ x


def _colinear_opposed(u, v, tol: float) -> bool:
    """||u ∧ v|| and <u, v> both at most tol * (1 + ||u|| ||v||)."""
    scale = tol * (1.0 + np.linalg.norm(u) * np.linalg.norm(v))
    return bool(np.linalg.norm(wedge(u, v)) <= scale and float(u @ v) <= scale)


def in_F(blocks: BlockFamily, x, tol: float = 1e-9) -> bool:
    """Membership in the cone F: C0 x, C1 x colinear and opposed.

    Tested as ||C0 x ∧ C1 x|| small (relative) together with
    <C0 x, C1 x> <= tol; see in_F_dual for the equivalent one-liner.
    """
    return _colinear_opposed(*_outputs(blocks, x), tol)


def in_F_dual(blocks: BlockFamily, x, tol: float = 1e-9) -> bool:
    """Equivalent characterization: <C0 x, C1 x> + ||C0 x|| ||C1 x|| = 0."""
    c0, c1 = _outputs(blocks, x)
    n0, n1 = np.linalg.norm(c0), np.linalg.norm(c1)
    return bool(float(c0 @ c1) + n0 * n1 <= tol * (1.0 + n0 * n1))


def in_N(blocks: BlockFamily, x, tol: float = 1e-9) -> bool:
    c0, c1 = _outputs(blocks, x)
    scale = 1.0 + float(np.linalg.norm(np.asarray(x, float)))
    return bool(np.linalg.norm(c0) + np.linalg.norm(c1) <= tol * scale)


def lambda_of(blocks: BlockFamily, x, tol: float = 1e-9) -> float:
    """The unique lam in [0, 1] with C_lam x = 0, for x in F \\ N.

    lam(x) = <C0 x - C1 x, C0 x> / ||C0 x - C1 x||^2.  The result is
    postcondition-checked (||C_lam x|| small) and clamped to [0, 1].
    """
    if not in_F(blocks, x, tol):
        raise NotInF("lambda_of requires x in the cone F")
    if in_N(blocks, x, tol):
        raise InNullSpace("x in ker C0 ∩ ker C1: lambda is not unique")
    c0, c1 = _outputs(blocks, x)
    diff = c0 - c1
    lam = float(diff @ c0) / float(diff @ diff)
    if not -tol <= lam <= 1.0 + tol:
        raise NotInF(f"computed lambda {lam} outside [0, 1]")
    lam = min(max(lam, 0.0), 1.0)
    resid = np.linalg.norm(blocks.C(lam) @ np.asarray(x, float).ravel())
    if resid > tol * (1.0 + np.linalg.norm(c0) + np.linalg.norm(c1)):
        raise NotInF(f"postcondition failed: ||C_lam x|| = {resid:.3e}")
    return lam


def _g_expression(blocks: BlockFamily, x, lam):
    """The tangency residual C0 A_lam x ∧ C1 x + C0 x ∧ C1 A_lam x, and its scale.

    Over leading batch axes shared by x (..., k) and lam (...).  The scale
    1 + ||C0 A_lam x|| ||C1 x|| + ||C0 x|| ||C1 A_lam x|| is what in_G
    measures the residual's norm against.
    """
    x = np.asarray(x, float)
    lam = np.asarray(lam, float)[..., None]
    x = np.broadcast_to(x, np.broadcast_shapes(x.shape, lam.shape))
    Ax = (1.0 - lam) * (x @ blocks.A0.T) + lam * (x @ blocks.A1.T)
    c0, c1 = x @ blocks.C0.T, x @ blocks.C1.T
    a0, a1 = Ax @ blocks.C0.T, Ax @ blocks.C1.T
    norm = lambda v: np.linalg.norm(v, axis=-1)  # noqa: E731
    scale = 1.0 + norm(a0) * norm(c1) + norm(c0) * norm(a1)
    return wedge(a0, c1) + wedge(c0, a1), scale


def in_G(blocks: BlockFamily, x, tol: float = 1e-9):
    """Membership in the tangency set G for a unit vector x.

    Returns (member, residual, lam_used).  For x in F \\ N the residual is
    evaluated at the unique lambda_of(x).  For x in N the expression is
    affine in lambda, and existence of a zero on [0, 1] reduces to the same
    colinear-and-opposed test applied to its endpoint values.
    """
    if not in_F(blocks, x, tol):
        return False, np.nan, None
    if in_N(blocks, x, tol):
        (w0, w1), _ = _g_expression(blocks, x, [0.0, 1.0])
        n0, n1 = np.linalg.norm(w0), np.linalg.norm(w1)
        if not _colinear_opposed(w0, w1, tol):
            return False, float(min(n0, n1)), None
        lam = n0 / (n0 + n1) if n0 + n1 > 0 else 0.0
        resid = float(np.linalg.norm((1.0 - lam) * w0 + lam * w1))
        return resid <= tol * (1.0 + n0 + n1), resid, float(lam)
    try:
        lam = lambda_of(blocks, x, tol)
    except NotInF:
        # a loose tolerance admits near-boundary points whose killing
        # lambda falls outside [0, 1]; those are not in F_0
        return False, np.nan, None
    w, scale = _g_expression(blocks, x, lam)
    resid = float(np.linalg.norm(w))
    return bool(resid <= tol * scale), resid, lam


# ---------------------------------------------------------------------------
# Discreteness of G, decided on the curve F ∩ S
# ---------------------------------------------------------------------------

NODES = 0.5 - 0.5 * np.cos((2.0 * np.arange(11) + 1.0) * np.pi / 22.0)  # Chebyshev


def kernel_vector(C) -> np.ndarray:
    """Signed maximal minors of (k-1) x k matrices (batched): C n = 0, and n
    spans ker C when rank C = k - 1 (for k = 3, the cross product of rows)."""
    return np.stack([(-1.0) ** i * np.linalg.det(np.delete(C, i, axis=-1))
                     for i in range(C.shape[-1])], axis=-1)


@dataclass
class GScanReport:
    """Whether G is discrete, and why: n_samples counts lambdas evaluated, n_hits
    the points of G located, and margin had to clear CERT_FACTOR * tol."""

    verdict: str  # discrete | not_discrete | inconclusive
    n_samples: int = 0
    n_hits: int = 0
    note: str = ""
    rule: str = ""  # curve (k' = k - 1) | finite_F (k' >= k)
    degree: int = 0  # degree bound of the polynomial the rule rests on
    margin: float = 0.0
    roots: np.ndarray = field(default_factory=lambda: np.empty(0))
    points: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    sigma_C_lower_bound: float = 0.0  # of sigma_(k-1)(C_lam) on [0, 1]


def scan_G(geometry: LocusGeometry, obs: ObservabilityReport,
           tol: float = 1e-9) -> GScanReport:
    """Decide exactly whether G is discrete, for dim K <= 3 and N = {0}.

    With sigma_(k-1)(C_lam) > obs.cert_threshold proved on [0, 1], ker C_lam
    is at most a line.  k' >= k: it is nonzero only at roots of det(C^T C),
    of degree 2k, so F ∩ S is finite once sigma_k(C_lam) clearly is not 0.
    k' = k - 1: F ∩ S is the curve ± n/||n||, n = kernel_vector(C_lam), on
    which the tangency residual is a polynomial g(lam) of degree 2k - 1; G
    is finite once g clearly is not 0 (as in_G scales it), else a curve.
    """
    k, blocks, threshold = geometry.k, geometry.blocks, CERT_FACTOR * tol
    if k <= 1:
        return GScanReport("discrete", note="F ∩ S has at most two points")
    if k > 3 or geometry.N_basis.shape[1]:
        why = f"k = {k} > 3" if k > 3 else "N = ker C0 ∩ ker C1 is nontrivial"
        return GScanReport("inconclusive", note=why + ": discreteness of G undecided")
    run = sigma_C_bisection(blocks, k - 1, obs)
    report = GScanReport("inconclusive", run.n_evals, sigma_C_lower_bound=run.bound)
    if run.verdict != "certified":
        report.note = "ker C_lambda may be a plane (sigma_(k-1) not proved > 0)"
        return report
    report.n_samples += len(NODES)
    C = blocks.C(NODES[:, None, None])
    if geometry.k_prime >= k:
        sigma = float(np.linalg.svd(C, compute_uv=False)[:, k - 1].max())
        c = float(max(np.linalg.norm(blocks.C0, 2), np.linalg.norm(blocks.C1, 2)))
        report.rule, report.degree, report.margin = "finite_F", 2 * k, sigma / (1 + c)
        report.verdict = "discrete" if report.margin > threshold else "inconclusive"
        return report
    n = kernel_vector(C)
    n_sq = np.sum(n * n, axis=-1)
    g, scale = _g_expression(blocks, n / np.sqrt(n_sq)[:, None], NODES)
    report.rule, report.degree = "curve", 2 * k - 1
    report.margin = float(np.max(np.linalg.norm(g, axis=-1) / scale, initial=0.0))
    if report.margin <= threshold:
        report.verdict, report.note = "not_discrete", "g vanishes along F ∩ S"
        return report
    # roots locate G for the certificate only (k' = 2: g has one component);
    # a rounding-level top coefficient is trimmed, its spurious root spoils all
    fit = Polynomial.fit(NODES, n_sq * g[:, 0], report.degree)
    r = fit.trim(1e-12 * np.abs(fit.coef).max()).roots()
    r = r.real[(np.abs(r.imag) <= 1e-6) & (np.abs(r.real - 0.5) <= 0.5 + 1e-9)]
    report.verdict, report.roots = "discrete", np.clip(np.sort(r), 0.0, 1.0)
    x = kernel_vector(blocks.C(report.roots[:, None, None]))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    report.points, report.n_hits = np.concatenate([x, -x]), 2 * len(x)
    return report


@dataclass
class KPetitVerdict:
    """Uniform-observability classification for kernel dimension <= 2."""

    uniformly_observable: Optional[bool]  # None when the sweep was inconclusive
    case: str
    notes: str = ""


def kpetit_classify(
    blocks: BlockFamily, obs: ObservabilityReport, tol: float = 1e-9
) -> KPetitVerdict:
    """For dim K <= 2: uniformly observable iff observable for all lambda.

    The equivalence is free in this dimension; the case diagnostic reports
    which geometric mechanism applies when k = 2.
    """
    k = blocks.k
    if k > 2:
        raise DimensionTooLarge(f"classification requires dim K <= 2, got {k}")
    verdict = {
        "observable_for_all_lambda": True,
        "fails_at": False,
        "inconclusive": None,
    }[obs.verdict]
    if k == 0:
        return KPetitVerdict(True, "trivial", "K = {0}")
    if k == 1:
        e = np.ones(1)
        case = (
            "no lambda kills C_lambda e1"
            if not in_F(blocks, e, tol)
            else "some lambda in [0,1] kills the output on K"
        )
        return KPetitVerdict(verdict, case)
    # k == 2 diagnostics
    r0, r1 = numerical_rank(blocks.C0, tol), numerical_rank(blocks.C1, tol)
    notes = f"rank C0 margin {r0.margin:.2e}, rank C1 margin {r1.margin:.2e}"
    n0, n1 = r0.basis, r1.basis
    if n0.shape[1] == 1 and n1.shape[1] == 1 and (
        abs(float(n0[:, 0] @ n1[:, 0])) > 1.0 - 1e-9
    ):
        return KPetitVerdict(verdict, "equal_output_kernels", notes)
    a0 = float(blocks.A0[0, 1])
    a1 = float(blocks.A1[0, 1])
    if a0 * a1 > tol:
        case = "distinct_kernels_common_rotation_direction"
    else:
        case = "A_lambda vanishes for some lambda in [0,1]"
    return KPetitVerdict(verdict, case, notes)
