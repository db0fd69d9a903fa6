"""Geometry of the vanishing-output locus of the reduced bilinear system.

F is the cone of points x where C0 x and C1 x are colinear and opposed,
i.e. where some lam in [0, 1] kills the output C_lam x.  Off the common
output kernel N = ker C0 ∩ ker C1 that lam is unique and analytic (the
feedback lambda_of).  G collects the points of F on the unit sphere where
the drift A_lam x is (weakly) tangent to F; discreteness of G certifies
uniform observability.  scan_G decides discreteness by algebra on the
curve F ∩ S, whose points are kernel vectors of C_lam: the tangency
residual along it is a polynomial in lam, so a few values prove whether it
vanishes identically.  Its inputs never change (the Chebyshev NODES and
degree 2k - 1), so the scan is fixed linear algebra: one batched det gives
the kernel vectors, a cached least-squares operator per degree the
residual's coefficients, and a companion matrix their roots.  The oracles
in_F, in_F_dual, in_N, in_G and lambda_of read one classification of
C0 x, C1 x over points x (..., k).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .decomposition import BlockFamily, numerical_rank, rank_threshold
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InNullSpace,
    NotInF,
)
from .observability import CERT_FACTOR, SweepScale, sigma_C_bisection


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
    i, j = _pairs(u.shape[-1])
    return u[..., i] * v[..., j] - u[..., j] * v[..., i]


@cache
def _pairs(m: int):
    """The index pairs i < j of m coordinates, as np.triu_indices(m, 1)."""
    return np.nonzero(np.arange(m)[:, None] < np.arange(m))


_dot = partial(np.einsum, "...i,...i->...")  # <u, v> over the last axis


def _norm(u):
    """||u|| over the last axis: np.linalg.norm's own arithmetic, without
    its argument checks."""
    return np.sqrt(np.add.reduce(u * u, axis=-1))


def _colinear_opposed(u, v, nu, nv, tol: float):
    """||u ∧ v|| and <u, v> both at most tol * (1 + ||u|| ||v||), over the
    last axis; nu and nv are the norms of u and v."""
    scale = tol * (1.0 + nu * nv)
    return (_norm(wedge(u, v)) <= scale) & (_dot(u, v) <= scale)


#: C0 x, C1 x, their norms and the tests read off them over the leading axes
#: of x: F and N as in_F, in_N report them, lam the killing lambda on F \ N
#: (NaN where lambda_of raises), raw and resid what its last two checks test.
_Locus = namedtuple("_Locus", "c0 c1 n0 n1 F N raw resid lam")


def _locus(blocks: BlockFamily, x, tol: float) -> _Locus:
    """Classify x of shape (..., k); the einsum contractions give a row the
    same bits alone as inside a batch."""
    x = np.asarray(x, float)
    c0 = np.einsum("...j,ij->...i", x, blocks.C0)
    c1 = np.einsum("...j,ij->...i", x, blocks.C1)
    n0, n1 = _norm(c0), _norm(c1)
    F = _colinear_opposed(c0, c1, n0, n1, tol)
    N = n0 + n1 <= tol * (1.0 + _norm(x))
    diff = c0 - c1
    with np.errstate(invalid="ignore"):  # 0 / 0 where C0 x = C1 x, off F \ N
        raw = _dot(diff, c0) / _dot(diff, diff)
    lam = np.minimum(np.maximum(raw, 0.0), 1.0)
    resid = _norm((1.0 - lam)[..., None] * c0 + lam[..., None] * c1)
    ok = F & ~N & (-tol <= raw) & (raw <= 1.0 + tol) & (resid <= tol * (1.0 + n0 + n1))
    return _Locus(c0, c1, n0, n1, F, N, raw, resid, np.where(ok, lam, np.nan))


def _killing_lambda(loc: _Locus, tol: float) -> float:
    """lambda_of for one classified point: its lam, or the failure behind NaN."""
    if not loc.F:
        raise NotInF("lambda_of requires x in the cone F")
    if loc.N:
        raise InNullSpace("x in ker C0 ∩ ker C1: lambda is not unique")
    if not -tol <= loc.raw <= 1.0 + tol:
        raise NotInF(f"computed lambda {float(loc.raw)} outside [0, 1]")
    if np.isnan(loc.lam):
        raise NotInF(f"postcondition failed: ||C_lam x|| = {float(loc.resid):.3e}")
    return float(loc.lam)


def _scalar(a):
    """A result over no leading axes as a Python scalar; arrays pass through."""
    return a.item() if np.ndim(a) == 0 else a


def in_F(blocks: BlockFamily, x, tol: float = 1e-9):
    """Membership in the cone F of each x (..., k): C0 x, C1 x colinear and
    opposed; a bool for a 1-D x, else a bool array over the leading axes.

    Tested as ||C0 x ∧ C1 x|| small (relative) together with
    <C0 x, C1 x> <= tol; see in_F_dual for the equivalent one-liner.
    """
    return _scalar(_locus(blocks, x, tol).F)


def in_F_dual(blocks: BlockFamily, x, tol: float = 1e-9):
    """Equivalent characterization: <C0 x, C1 x> + ||C0 x|| ||C1 x|| = 0."""
    c0, c1, n0, n1 = _locus(blocks, x, tol)[:4]
    return _scalar(_dot(c0, c1) + n0 * n1 <= tol * (1.0 + n0 * n1))


def in_N(blocks: BlockFamily, x, tol: float = 1e-9):
    """Membership in N = ker C0 ∩ ker C1 of each x (..., k), shaped as in_F:
    ||C0 x|| + ||C1 x|| at most tol * (1 + ||x||)."""
    return _scalar(_locus(blocks, x, tol).N)


def lambda_of(blocks: BlockFamily, x, tol: float = 1e-9) -> float:
    """The unique lam in [0, 1] with C_lam x = 0, for x in F \\ N.

    lam(x) = <C0 x - C1 x, C0 x> / ||C0 x - C1 x||^2.  The result is
    postcondition-checked (||C_lam x|| small) and clamped to [0, 1].
    """
    return _killing_lambda(_locus(blocks, np.asarray(x, float).ravel(), tol), tol)


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
    scale = 1.0 + _norm(a0) * _norm(c1) + _norm(c0) * _norm(a1)
    return wedge(a0, c1) + wedge(c0, a1), scale


def in_G(blocks: BlockFamily, x, tol: float = 1e-9):
    """Membership in the tangency set G for unit vectors x (..., k).

    Returns (member, residual, lam_used).  For x in F \\ N the residual is
    evaluated at the unique lambda_of(x).  Every wedge term of g has a
    factor C_i x, so g is zero on N at every lambda: points of F ∩ N are
    members, with lam_used 0 and the residual evaluated there.  A 1-D x
    gives (bool, float, float | None); a batch gives arrays over the
    leading axes, with NaN for None.
    """
    x = np.asarray(x, float)
    loc = _locus(blocks, x, tol)
    on_N = loc.F & loc.N
    # NaN off F and where a loose tol admits a point whose killing lambda
    # leaves [0, 1]; with k' = 1 the wedge is empty and its norm would read 0
    lam = np.where(on_N, 0.0, loc.lam)
    w, scale = _g_expression(blocks, x, lam)
    resid = np.where(np.isnan(lam), np.nan, _norm(w))
    member = on_N | (resid <= tol * scale)
    if x.ndim == 1:
        return bool(member), float(resid), None if np.isnan(lam) else float(lam)
    return member, resid, lam


# ---------------------------------------------------------------------------
# Discreteness of G, decided on the curve F ∩ S
# ---------------------------------------------------------------------------

NODES = 0.5 - 0.5 * np.cos((2.0 * np.arange(11) + 1.0) * np.pi / 22.0)  # Chebyshev


#: the fit's window variable: NODES mapped affinely onto [-1, 1], as
#: Polynomial.fit maps its domain [min, max] of the nodes
_MID, _HALF = (NODES[-1] + NODES[0]) / 2.0, (NODES[-1] - NODES[0]) / 2.0


@cache
def _fit_operator(degree: int) -> np.ndarray:
    """The (degree + 1, len(NODES)) least-squares operator from values at
    NODES to power coefficients in the window variable, the pseudo-inverse
    of the Vandermonde matrix there.  ValueError when NODES are too few to
    determine a polynomial of that degree."""
    if degree + 1 > len(NODES):
        raise ValueError(f"a degree-{degree} fit needs {degree + 1} nodes, "
                         f"NODES has {len(NODES)}")
    op = np.linalg.pinv(np.vander((NODES - _MID) / _HALF, degree + 1, increasing=True))
    op.flags.writeable = False  # shared by every call through the cache
    return op


def _window_roots(c) -> np.ndarray:
    """Complex roots of the power series c once coefficients at most
    1e-12 max|c| are trimmed off its top: the eigenvalues of its companion
    matrix, none for a constant."""
    big = np.flatnonzero(np.abs(c) > 1e-12 * np.abs(c).max())
    n = big[-1] if big.size else 0  # the degree after the trim
    if n == 0:
        return np.empty(0)
    companion = np.eye(n, k=-1)
    companion[:, -1] -= c[:n] / c[n]
    return np.linalg.eigvals(companion)


@cache
def _minor_columns(k: int):
    """Row i: the k - 1 columns left when column i of a k-column matrix is
    deleted; and the cofactor signs (-1)^i."""
    return np.nonzero(~np.eye(k, dtype=bool))[1].reshape(k, k - 1), (-1.0) ** np.arange(k)


def kernel_vector(C) -> np.ndarray:
    """Signed maximal minors of (k-1) x k matrices (batched): C n = 0, and n
    spans ker C when rank C = k - 1 (for k = 3, the cross product of rows).

    One batched det over the k minors of every matrix, with the same bits
    as one det per deleted column.
    """
    C = np.asarray(C, float)
    cols, signs = _minor_columns(C.shape[-1])
    return signs * np.linalg.det(np.swapaxes(C[..., cols], -3, -2))


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


def _nontrivial_N(blocks: BlockFamily, tol: float) -> bool:
    """Whether N = ker C0 ∩ ker C1 is nonzero by the rank rule of
    ``numerical_rank``, from the singular values of [C0; C1] alone."""
    CC = np.vstack([blocks.C0, blocks.C1])
    s, threshold = rank_threshold(np.linalg.svd(CC, compute_uv=False), blocks.k, tol)
    return bool(np.any(s <= threshold))


def scan_G(blocks: BlockFamily, scale: SweepScale) -> GScanReport:
    """Decide exactly whether G is discrete, for dim K <= 3 and N = {0}.

    Reads the reduced blocks and the family's sweep scale, whose ``tol``
    sets the rank rule and the CERT_FACTOR * tol margins; N = ker C0 ∩
    ker C1 is computed only once k is in range.  With sigma_(k-1)(C_lam) >
    scale.cert_threshold proved on [0, 1], ker C_lam is at most a line.
    k' >= k: it is nonzero only at roots of det(C^T C), of degree 2k, so
    F ∩ S is finite once sigma_k(C_lam) clearly is not 0.  k' = k - 1:
    F ∩ S is the curve ± n/||n||, n = kernel_vector(C_lam), on which the
    tangency residual is a polynomial g(lam) of degree 2k - 1; G is finite
    once g clearly is not 0 (as in_G scales it), else a curve.  The points
    of a finite G are reported for the certificate only: the real roots in
    [0, 1] of the fit of n_sq g (its first component) by ``_fit_operator``,
    found by ``_window_roots``, and the kernel vectors there.
    """
    k, threshold = blocks.k, CERT_FACTOR * scale.tol
    if k <= 1:
        return GScanReport("discrete", note="F ∩ S has at most two points")
    if k > 3 or _nontrivial_N(blocks, scale.tol):
        why = f"k = {k} > 3" if k > 3 else "N = ker C0 ∩ ker C1 is nontrivial"
        return GScanReport("inconclusive", note=why + ": discreteness of G undecided")
    run = sigma_C_bisection(blocks, k - 1, scale)
    report = GScanReport("inconclusive", run.n_evals, sigma_C_lower_bound=run.bound)
    if run.verdict != "certified":
        report.note = "ker C_lambda may be a plane (sigma_(k-1) not proved > 0)"
        return report
    report.n_samples += len(NODES)
    C = blocks.C(NODES[:, None, None])
    if blocks.k_prime >= k:
        sigma = float(np.linalg.svd(C, compute_uv=False)[:, k - 1].max())
        c = max(blocks.norms.C0, blocks.norms.C1)
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
    r = _MID + _HALF * _window_roots(_fit_operator(report.degree) @ (n_sq * g[:, 0]))
    r = r.real[(np.abs(r.imag) <= 1e-6) & (np.abs(r.real - 0.5) <= 0.5 + 1e-9)]
    report.verdict, report.roots = "discrete", np.clip(np.sort(r), 0.0, 1.0)
    x = kernel_vector(blocks.C(report.roots[:, None, None]))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    report.points, report.n_hits = np.concatenate([x, -x]), 2 * len(x)
    return report


def kpetit_classify(blocks: BlockFamily, tol: float = 1e-9) -> str:
    """Which geometric mechanism applies for dim K <= 2, as a label.

    For k <= 2, uniform observability is equivalent to observability for
    every lambda, which the sweep decides; the label only says why.
    """
    k = blocks.k
    if k > 2:
        raise DimensionTooLarge(f"classification requires dim K <= 2, got {k}")
    if k == 0:
        return "trivial"
    if k == 1:
        if in_F(blocks, np.ones(1), tol):
            return "some lambda in [0,1] kills the output on K"
        return "no lambda kills C_lambda e1"
    n0, n1 = numerical_rank(blocks.C0, tol).basis, numerical_rank(blocks.C1, tol).basis
    if n0.shape[1] == 1 and n1.shape[1] == 1 and (
        abs(float(n0[:, 0] @ n1[:, 0])) > 1.0 - 1e-9
    ):
        return "equal_output_kernels"
    if float(blocks.A0[0, 1]) * float(blocks.A1[0, 1]) > tol:
        return "distinct_kernels_common_rotation_direction"
    return "A_lambda vanishes for some lambda in [0,1]"
