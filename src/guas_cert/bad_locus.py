"""Geometry of the vanishing-output locus of the reduced bilinear system.

F is the cone of points x where C0 x and C1 x are colinear and opposed,
i.e. where some lam in [0, 1] kills the output C_lam x.  Off the common
output kernel N = ker C0 ∩ ker C1 that lam is unique and analytic (the
feedback lambda_of).  G collects the points of F on the unit sphere where
the drift A_lam x is (weakly) tangent to F; discreteness of G certifies
uniform observability.  The scan decides discreteness empirically by
lattice sampling plus refinement shrinkage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .decomposition import BlockFamily, numerical_rank
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InNullSpace,
    NotInF,
    UnsupportedDimension,
)
from .observability import ObservabilityReport


def wedge(u, v) -> np.ndarray:
    """Exterior product of two m-vectors as the vector of 2x2 minors.

    Components u_i v_j - u_j v_i for i < j in lexicographic order; an empty
    vector when m = 1 (colinearity is then vacuous).
    """
    u = np.asarray(u, float).ravel()
    v = np.asarray(v, float).ravel()
    if u.shape != v.shape:
        raise DimensionMismatch(f"wedge operands {u.shape} vs {v.shape}")
    i, j = np.triu_indices(len(u), 1)
    return u[i] * v[j] - u[j] * v[i]


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


def _g_expression(blocks: BlockFamily, x, lam: float) -> np.ndarray:
    """The tangency residual C0 A_lam x ∧ C1 x + C0 x ∧ C1 A_lam x."""
    x = np.asarray(x, float).ravel()
    c0, c1 = blocks.C0 @ x, blocks.C1 @ x
    Ax = blocks.A(lam) @ x
    return wedge(blocks.C0 @ Ax, c1) + wedge(c0, blocks.C1 @ Ax)


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
        w0 = _g_expression(blocks, x, 0.0)
        w1 = _g_expression(blocks, x, 1.0)
        n0, n1 = np.linalg.norm(w0), np.linalg.norm(w1)
        if not _colinear_opposed(w0, w1, tol):
            return False, float(min(n0, n1)), None
        lam = n0 / (n0 + n1) if n0 + n1 > 0 else 0.0
        resid = float(np.linalg.norm((1.0 - lam) * w0 + lam * w1))
        return resid <= tol * (1.0 + n0 + n1), resid, float(lam)
    try:
        lam = lambda_of(blocks, x, tol)
    except NotInF:
        # loose scan tolerances admit near-boundary points whose killing
        # lambda falls outside [0, 1]; those are not in F_0
        return False, np.nan, None
    w = _g_expression(blocks, x, lam)
    x = np.asarray(x, float).ravel()
    Ax = blocks.A(lam) @ x
    scale = 1.0 + (
        np.linalg.norm(blocks.C0 @ Ax) * np.linalg.norm(blocks.C1 @ x)
        + np.linalg.norm(blocks.C0 @ x) * np.linalg.norm(blocks.C1 @ Ax)
    )
    resid = float(np.linalg.norm(w)) if w.size else 0.0
    return resid <= tol * scale, resid, lam


# ---------------------------------------------------------------------------
# Sphere scan for discreteness of G
# ---------------------------------------------------------------------------


def sphere_samples(k: int, resolution: int) -> tuple[np.ndarray, float]:
    """Quasi-uniform samples of S^(k-1) and their typical spacing."""
    if k == 1:
        return np.array([[1.0], [-1.0]]), 1.0
    if k == 2:
        n = max(8, 4 * resolution)
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return np.column_stack([np.cos(theta), np.sin(theta)]), 2.0 * np.pi / n
    if k == 3:
        n = max(100, 8 * resolution * resolution)
        i = np.arange(n)
        phi = np.pi * (3.0 - np.sqrt(5.0)) * i  # golden angle lattice
        z = 1.0 - (2.0 * i + 1.0) / n
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        pts = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
        return pts, float(np.sqrt(4.0 * np.pi / n))
    raise UnsupportedDimension(f"no certified sphere lattice for k = {k}")


@dataclass
class GCluster:
    points: np.ndarray
    centroid: np.ndarray
    diameter: float
    dimension_estimate: int
    touches_N: bool


@dataclass
class GScanReport:
    """Outcome of a discreteness scan of G on the unit sphere of K.

    The residual threshold used for hits is tied to the lattice spacing, so
    the hit set is a tolerance band around G; the primary discreteness
    criterion is whether clusters shrink proportionally when the lattice is
    refined 2x, which a genuine curve does not do.
    """

    verdict: str  # discrete | not_discrete | inconclusive
    clusters: list = field(default_factory=list)
    fine_clusters: list = field(default_factory=list)
    spacing: float = 0.0
    fine_spacing: float = 0.0
    n_samples: int = 0
    n_hits: int = 0
    samples: Optional[np.ndarray] = None  # hit points (coarse pass)
    residuals: Optional[np.ndarray] = None
    note: str = ""


def _cluster_hits(points: np.ndarray, spacing: float, geometry: LocusGeometry,
                  tol: float) -> list[GCluster]:
    """Group hits lying within a few lattice spacings of each other."""
    from scipy.spatial import cKDTree

    if len(points) == 0:
        return []
    tree = cKDTree(points)
    pairs = tree.query_pairs(2.5 * spacing)
    parent = list(range(len(points)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for i in range(len(points)):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for idx in groups.values():
        pts = points[idx]
        centroid = pts.mean(axis=0)
        radius = np.linalg.norm(pts - centroid, axis=1).max() if len(pts) else 0.0
        diameter = 2.0 * float(radius)
        # local PCA: count spreads that exceed a few lattice spacings
        dim = 0
        if len(pts) >= 3:
            s = np.linalg.svd(pts - centroid, compute_uv=False)
            stds = s / np.sqrt(len(pts))
            cutoff = max(2.0 * spacing, 0.1 * (stds[0] if stds.size else 0.0))
            dim = int(np.sum(stds > cutoff))
        touches = any(
            in_N(geometry.blocks, p, max(tol, 1e-6)) for p in pts[:16]
        )
        clusters.append(GCluster(pts, centroid, diameter, dim, touches))
    return clusters


def _scan_once(geometry: LocusGeometry, resolution: int, tol: float):
    pts, spacing = sphere_samples(geometry.k, resolution)
    # residual tolerance tied to the lattice: catches samples near G, not
    # only exactly on it
    scan_tol = max(tol, spacing)
    hits, resids = [], []
    for x in pts:
        member, resid, _ = in_G(geometry.blocks, x, scan_tol)
        if member:
            hits.append(x)
            resids.append(resid)
    hits = np.array(hits).reshape(-1, geometry.k)
    clusters = _cluster_hits(hits, spacing, geometry, tol)
    return hits, np.array(resids), spacing, clusters, len(pts)


def scan_G(
    geometry: LocusGeometry, resolution: int = 64, tol: float = 1e-9
) -> GScanReport:
    """Sample the unit sphere, locate G, and decide its discreteness.

    Certified verdicts require k <= 3; for larger k the scan is not run and
    the verdict is inconclusive (sphere sampling cannot ground a GUAS
    certificate there, so samples could not change the verdict).
    """
    k = geometry.k
    if k == 0:
        return GScanReport("discrete", note="empty state space")
    if k > 3:
        return GScanReport(
            "inconclusive",
            note=f"k = {k} > 3: sphere sampling cannot certify discreteness",
        )

    hits, resids, spacing, clusters, n = _scan_once(geometry, resolution, tol)
    hits2, _, spacing2, clusters2, n2 = _scan_once(
        geometry, 2 * resolution, tol
    )

    report = GScanReport(
        "inconclusive", clusters, clusters2, spacing, spacing2,
        n + n2, len(hits) + len(hits2), hits, resids,
    )
    if any(c.touches_N for c in clusters + clusters2):
        report.note = "a cluster touches N; weak tangency there is untested"

    if not clusters and not clusters2:
        report.verdict = "discrete"
        return report
    point_like = all(c.diameter <= 4.0 * spacing2 for c in clusters2)
    if point_like and len(clusters2) <= max(1, 4 * len(clusters)):
        report.verdict = "discrete"
        return report
    for c2 in clusters2:
        if c2.diameter <= 8.0 * spacing2 or c2.dimension_estimate < 1:
            continue
        # find a matching coarse cluster that did not shrink
        for c in clusters:
            near = np.linalg.norm(c.centroid - c2.centroid) <= (
                c.diameter + c2.diameter + 4.0 * spacing
            )
            if near and c.diameter > 8.0 * spacing and c2.diameter > 0.6 * c.diameter:
                report.verdict = "not_discrete"
                return report
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
