"""Kalman-rank and Hautus observability of the reduced pairs (C_lam, A_lam).

Observability is measured through the smallest singular value of the Kalman
matrix rather than an integer rank, so every verdict carries a quantitative
margin.  The lambda sweep proves its verdicts on all of [0, 1]: sigma_k of
the Kalman matrix is Lipschitz in lambda (Weyl's inequality), so intervals
are bisected until each one's bound clears the certification threshold, a
computed value falls below the tolerance, or neither can happen.

The bisection starts from every 16th point of the n_grid partition (or the
largest power-of-two stride that fits n_grid - 1) and splits only the
intervals whose bound has not cleared, so a well-conditioned family costs a
few dozen lambdas instead of n_grid.  Every verdict still rests on a cover
of [0, 1] by intervals.  The reported margins are lower bounds over the
cover actually used, so where a coarse interval cleared they can be smaller
than the full grid would give.

Halving only converges linearly to a zero of sigma.  So every level that
splits also evaluates one secant probe, in the same batched call: the zero
of the steeper secant through the smallest computed value and its two
evaluated neighbours.  Near a simple zero sigma is V-shaped, the steeper
secant lies on one branch, and a refutation takes a handful of levels
instead of about twenty.  The probe never enters the cover, so it moves no
bound; its value refutes or ends certifying like any other computed value.

A family's grid and thresholds are one ``SweepScale``, built once by
``sweep_scale`` from one SVD of O(lam) at lam = 0, 1/2, 1; the Kalman sweep,
the sigma_j(C_lam) bisection and the G-scan all take it.  With k' >= k,
every lam where (C_lam, A_lam) is unobservable is a zero of sigma_k(C_lam),
so the analyzer runs that bisection first and hands its lam* to the sweep
as ``lam_hat``: one value there below the floor refutes without a bisection.

A family with one drift, ||A1 - A0||_2 <= cert_threshold, is certified
before the bisection by the Hautus (PBH) test instead (``_hautus_bound``).
(C_lam, A_lam) is observable exactly when sigma_min([A_lam - i w I; C_lam])
> 0 for every real w, since the skew A_lam has only imaginary eigenvalues.
For the skew A_(1/2) one ``eigh`` gives its eigenvalues and eigenvectors;
a window around each eigenvalue, half the gap to its nearest neighbour,
and the det / trace bound of a 2 x 2 form bound that sigma_min below in
closed form, and -|lam - 1/2| ||A1 - A0||_2 covers the drift's motion.
Each term is a ratio of two quadratics in lam, so its minimum on [0, 1]
is at an end or at a root of one quadratic: no grid, no Lipschitz
constant, no power of A.  The Kalman sigma_k needs A^(k-1), and its
Lipschitz bound grows like ||A||^(k-1).  When the bound does not clear
the threshold, the bisection runs as before.  Refutation stays on the
Kalman matrix: a computed sigma_k below the floor comes with a real unit
witness x* of K that O(lam*) sends within the floor of 0, which the
constant input lam* keeps silent; a lower bound that fails to clear shows
no such direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .decomposition import BlockFamily, block_form, common_kernel, numerical_rank
from .decomposition import _fix_column_signs
from .errors import DimensionMismatch
from .matrix_core import MatrixPair, NormalizedPair, check_weak_lyapunov, is_hurwitz

#: Certified-observable requires sigma_min above this multiple of the tolerance.
CERT_FACTOR = 100.0
#: Largest stride, a power of two, of the first pass of a bisection over its grid.
MAX_STRIDE = 16
#: Most points of a lambda grid.  A bisection level evaluates up to n_grid
#: lambdas in one batched call, so a huge n_grid would exhaust memory.
MAX_GRID = 2**16 + 1


def kalman_matrix(C, A) -> np.ndarray:
    """Vertical stack [C; CA; CA^2; ...; CA^(k-1)], over shared leading batch axes."""
    C = np.atleast_2d(np.asarray(C, float))
    A = np.atleast_2d(np.asarray(A, float))
    k = A.shape[-1]
    if A.shape[-2] != k or C.shape[-1] != k:
        raise DimensionMismatch(
            f"incompatible shapes C {C.shape}, A {A.shape}"
        )
    rows = [C]
    for _ in range(k - 1):
        rows.append(rows[-1] @ A)
    return np.concatenate(rows, axis=-2)


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
class Bisection:
    """Outcome of a certified bisection of a Lipschitz function on [0, 1]."""

    verdict: str  # certified | refuted | inconclusive
    bound: float  # proved lower bound of the function on [0, 1]
    value: float  # smallest computed value
    lambda_star: float  # where the smallest computed value was found
    n_evals: int  # lambdas at which sigma was evaluated

    @property
    def margin(self) -> float:
        """The proved bound if certified, else the smallest computed value."""
        return self.bound if self.verdict == "certified" else self.value


def _secant_probe(lams: np.ndarray, vals: np.ndarray, m: float, v: float):
    """The zero of the steeper of the two secants through (m, v) and its
    evaluated neighbours a < m < b in ``lams``, or None unless it falls
    strictly inside (a, b) and is not m.

    When v is the smallest computed value, the secant (a, m) does not rise
    and (m, b) does not fall.  Near a simple zero sigma is V-shaped, and the
    steeper secant joins two points on one branch of the V, so its zero lies
    close to the zero of sigma.
    """
    below = np.where(lams < m, lams, -np.inf)
    above = np.where(lams > m, lams, np.inf)
    ia, ib = int(np.argmax(below)), int(np.argmin(above))
    a, b = below[ia], above[ib]
    if not (np.isfinite(a) and np.isfinite(b)):
        return None
    left, right = (v - vals[ia]) / (m - a), (vals[ib] - v) / (b - m)
    slope = left if abs(left) > abs(right) else right
    if slope == 0:  # flat; a NaN slope fails the bracket test below
        return None
    probe = m - v / slope
    return float(probe) if a < probe < b and probe != m else None


def weyl_bisection(
    sigma: Callable[[np.ndarray], np.ndarray],
    lipschitz: float,
    grid: np.ndarray,
    threshold: float,
    floor: float,
) -> Bisection:
    """Prove sigma > threshold on [0, 1], or find a point where sigma < floor.

    ``sigma`` maps an array of lambdas to their values in one batched call.
    On [l, r] an L-Lipschitz sigma is at least (sigma(l) + sigma(r) -
    L (r - l)) / 2.  The first pass evaluates every s-th point of ``grid``,
    s the largest power of two <= MAX_STRIDE that divides len(grid) - 1.
    From there each level splits, at their midpoints, the intervals whose
    bound does not clear ``threshold``; on a 2^m + 1 point grid the
    midpoints down to adjacent points are grid points.  Certifying stops
    once a computed value is at or below ``threshold`` (it bounds every
    interval it ends) or more intervals need splitting than ``grid`` has,
    which near a minimum within rounding of ``threshold`` would grow without
    bound; then only the lowest len(grid) - 1 bounds below ``floor``, which
    alone can hold a refutation, are split.  The verdict is refuted when a
    computed value is below ``floor``, certified when every interval clears
    ``threshold``, and inconclusive when nothing is left to split or a
    midpoint no longer falls strictly inside its interval.  ``bound`` is a
    lower bound of sigma over the cover actually used, so where a coarse
    interval cleared it can be smaller than the full grid would give.

    Each level that splits also evaluates one secant probe
    (``_secant_probe``) at the smallest computed value, in the same call as
    the midpoints.  The probe's value counts like any other computed value:
    it refutes below ``floor`` and ends certifying at or below
    ``threshold``.  It never enters the cover, so it moves no interval
    bound, and a run that splits nothing evaluates none.  Near a simple zero
    the probes converge superlinearly where the midpoints only halve.
    """
    budget = len(grid) - 1
    new_lams = grid[:: math.gcd(budget, MAX_STRIDE)]
    new_vals = sigma(new_lams)
    seen_lams, seen_vals = new_lams, new_vals
    lo, hi, s_lo, s_hi = new_lams[:-1], new_lams[1:], new_vals[:-1], new_vals[1:]
    value, lam_star, settled, certifying = np.inf, 0.0, np.inf, True
    while True:
        bound = 0.5 * (s_lo + s_hi - lipschitz * (hi - lo))
        i = int(np.argmin(new_vals))
        if new_vals[i] < value:
            value, lam_star = float(new_vals[i]), float(new_lams[i])
        lower = min(settled, float(bound.min()))
        if value < floor:
            return Bisection("refuted", lower, value, lam_star, len(seen_lams))
        split = bound <= threshold
        certifying = certifying and value > threshold and split.sum() <= budget
        if not certifying:
            lowest = np.argsort(bound)[:budget]
            split = np.zeros(len(bound), bool)
            split[lowest[bound[lowest] < floor]] = True
        settled = min(settled, float(bound[~split].min(initial=np.inf)))
        if not np.any(split):
            verdict = "certified" if certifying else "inconclusive"
            return Bisection(verdict, lower, value, lam_star, len(seen_lams))
        lo, hi, s_lo, s_hi = lo[split], hi[split], s_lo[split], s_hi[split]
        mid = 0.5 * (lo + hi)
        if np.any((mid <= lo) | (mid >= hi)):
            return Bisection("inconclusive", lower, value, lam_star, len(seen_lams))
        probe = _secant_probe(seen_lams, seen_vals, lam_star, value)
        new_lams = mid if probe is None else np.append(mid, probe)
        new_vals = sigma(new_lams)
        seen_lams = np.concatenate([seen_lams, new_lams])
        seen_vals = np.concatenate([seen_vals, new_vals])
        mid_vals = new_vals[: len(mid)]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        s_lo = np.concatenate([s_lo, mid_vals])
        s_hi = np.concatenate([mid_vals, s_hi])


@dataclass(frozen=True)
class SweepScale:
    """The grid and thresholds of a lambda sweep, set once per block family.

    ``floor`` is tol_eff = tol (1 + max ||O(lam)|| over lam in {0, 1/2, 1}):
    a computed sigma_k(O(lam)) below it refutes.  ``cert_threshold`` is
    CERT_FACTOR * floor: a cover whose every bound clears it certifies.
    """

    grid: np.ndarray  # the partition of [0, 1] a bisection may evaluate
    tol: float  # the caller's tolerance: scan_G's rank rule and margins
    floor: float
    cert_threshold: float
    n_evals: int  # lambdas evaluated to set floor: 3, none when k = 0


def _kalman_sigmas(blocks: BlockFamily, lams: np.ndarray) -> np.ndarray:
    """The k singular values of O(lam) at each of ``lams``, one batched SVD;
    zeros when O has fewer than k rows."""
    lam = lams[:, None, None]
    O = kalman_matrix(blocks.C(lam), blocks.A(lam))
    if O.shape[-2] < blocks.k:
        return np.zeros((len(lams), blocks.k))
    return np.linalg.svd(O, compute_uv=False)


def sweep_scale(
    blocks: BlockFamily, n_grid: int = 257, tol: float = 1e-9
) -> SweepScale:
    """The n_grid partition of [0, 1] and the thresholds of a sweep on it,
    from one SVD of O(lam) at lam = 0, 1/2, 1; ValueError unless n_grid is
    an integer (numpy integers count) in [2, MAX_GRID]."""
    if not (isinstance(n_grid, (int, np.integer)) and 2 <= n_grid <= MAX_GRID):
        raise ValueError(f"n_grid must be an integer in [2, {MAX_GRID}], got {n_grid}")
    grid = np.linspace(0.0, 1.0, n_grid)
    if blocks.k == 0:
        return SweepScale(grid, tol, tol, 0.0, 0)
    ends = _kalman_sigmas(blocks, np.array([0.0, 0.5, 1.0]))
    floor = tol * (1.0 + float(np.max(ends[:, 0])))
    return SweepScale(grid, tol, floor, CERT_FACTOR * floor, len(ends))


@dataclass
class ObservabilityReport:
    """Result of the lambda sweep of (C_lam, A_lam): the Hautus bound or the
    Kalman matrices."""

    scale: SweepScale  # the grid and thresholds the sweep ran on
    n_evals: int  # lambdas the sweep evaluated: lam_hat, the Hautus bound's, the bisection's
    verdict: str  # observable_for_all_lambda | fails_at | inconclusive
    # proved lower bound if observable (of sigma_k(O), or of the Hautus
    # sigma_min by ``test``), else the smallest sigma_k
    margin: float
    lambda_star: Optional[float] = None
    # (k, 1): the unit right singular vector of sigma_k(O(lambda_star))
    witness: Optional[np.ndarray] = None
    # what decided: kalman (sigma_k of O(lam)) | hautus (_hautus_bound)
    test: str = "kalman"


def sigma_C_bisection(blocks: BlockFamily, j: int, scale: SweepScale) -> Bisection:
    """Prove sigma_j(C_lam) > scale.cert_threshold on all of [0, 1].

    Every singular value of C_lam moves at most ||C1 - C0||_2 per unit of
    lam (Weyl), so ``weyl_bisection`` runs over the scale's grid with that
    constant, read from ``blocks.norms``; a computed value below the
    threshold ends it as refuted.
    """
    return weyl_bisection(
        lambda lams: np.linalg.svd(
            blocks.C(lams[:, None, None]), compute_uv=False
        )[:, j - 1],
        blocks.norms.dC,
        scale.grid, scale.cert_threshold, scale.cert_threshold,
    )


def _hautus_bound(blocks: BlockFamily, threshold: float):
    """A lower bound of f(lam, w) = sigma_min([A_lam - i w I; C_lam]) over
    lam in [0, 1] and real w, for a family whose drift barely moves, and
    the number of lambdas it evaluated.  It returns (0.0, 0) at once when
    some half-gap d_j (below) is at most ``threshold``: the bound is at
    most every d_j, so it could not clear the threshold.

    A_lam = A_h + (lam - 1/2) dA with A_h = A_(1/2) skew, and sigma_min
    moves at most ||dA||_2 per unit of lam, so f >= f_h - ||dA||_2 / 2,
    where f_h has A_h for A_lam.  One ``eigh`` of i A_h gives real theta_j
    and orthonormal v_j, with A_h v_j = -i theta_j v_j, and d_j, half the
    distance from theta_j to the nearest other theta (infinite when k = 1).
    At a w in no window |w + theta_j| < d_j, every |w + theta_l| >= d_l,
    so f_h >= min_l d_l.  Inside window j, write a unit x = a v_j + y with
    y orthogonal to v_j, s = ||y||, t = |a|: every other |w + theta_l| >
    d_j, so ||(A_h - i w) x|| >= d_j s, and ||C_lam x|| >= t c - r s with
    c = ||C_lam v_j|| and r the norm of C_lam on the complement of v_j, so
    c^2 + r^2 <= ||C_lam||_F^2.  Where t c >= r s, f_h^2 is at least the
    smaller eigenvalue of the 2 x 2 form [[c^2, -c r], [-c r, r^2 + d_j^2]]
    at (t, s), which is at least det / trace = c^2 d_j^2 / (c^2 + r^2 +
    d_j^2); where t c < r s, s^2 > c^2 / (c^2 + r^2) and d_j^2 s^2 is
    larger still.  That bound is at most d_j^2, so

        f >= min_j d_j ||C_lam v_j|| / sqrt(||C_lam||_F^2 + d_j^2) - ||dA||_2 / 2.

    For each j the square of the j-th term is a ratio N/D of two quadratics
    in lam with D > 0, so its minimum on [0, 1] lies at lam = 0, lam = 1 or
    a root of the quadratic N'D - ND' (whose cubic terms cancel).  The
    terms are evaluated at those candidates from C_lam V itself, one
    batched product; the quadratics only place the candidates.  A_lam is
    skew, so its eigenvalues are imaginary and f > 0 for every lam is the
    Hautus test: (C_lam, A_lam) is observable on all of [0, 1].
    """
    theta, V = np.linalg.eigh(0.5j * (blocks.A0 + blocks.A1))
    t = theta.tolist()
    gaps = [math.inf] + [b - a for a, b in zip(t, t[1:])] + [math.inf]
    half = [0.5 * min(left, right) for left, right in zip(gaps, gaps[1:])]
    if min(half) <= threshold:
        return 0.0, 0
    inv = np.array(half) ** -2.0  # 1 / d_j^2, 0 when k = 1
    C0, dC = blocks.C0, blocks.C1 - blocks.C0
    ends = np.stack([C0, dC])
    S = ends.reshape(2, -1)
    (f0, f1), (_, f2) = (S @ S.T).tolist()  # ||C_lam||_F^2 = f0 + 2 f1 lam + f2 lam^2
    W = V.view(float)  # Re v_j, Im v_j as columns 2j, 2j + 1
    # the 2 x 2 Gram of C0 w and dC w for each column w, summed over v_j's two
    E = (ends @ W).transpose(2, 0, 1)
    n = (E @ E.transpose(0, 2, 1)).reshape(-1, 2, 2, 2).sum(1).tolist()
    candidates = {0.0, 1.0}
    for e, ((n0, n1), (_, n2)) in zip(inv.tolist(), n):
        # ||C_lam v_j||^2 = n0 + 2 n1 lam + n2 lam^2 over D = e ||C_lam||_F^2 + 1:
        # N'D - ND' = 2 (a lam^2 + 2 b lam + c)
        d0, d1, d2 = e * f0 + 1.0, e * f1, e * f2
        a, b, c = n2 * d1 - n1 * d2, 0.5 * (n2 * d0 - n0 * d2), n1 * d0 - n0 * d1
        disc = b * b - a * c
        if disc < 0.0:
            continue
        q = -(b + math.copysign(math.sqrt(disc), b))
        for root in (q / a if a else 0.0, c / q if q else 0.0):
            if 0.0 < root < 1.0:
                candidates.add(root)
    lams = np.array(sorted(candidates))
    C = C0 + lams[:, None, None] * dC
    X = C @ W
    X *= X
    cv = X.sum(1).reshape(len(lams), -1, 2).sum(-1)  # ||C_lam v_j||^2
    terms = cv / (inv * (C * C).sum((1, 2))[:, None] + 1.0)
    return math.sqrt(terms.min()) - 0.5 * blocks.norms.dA, len(lams)


def sweep_lambda(
    blocks: BlockFamily, scale: SweepScale, lam_hat: Optional[float] = None
) -> ObservabilityReport:
    """Certify observability of (C_lam, A_lam) on all of [0, 1], or refute it.

    Runs ``weyl_bisection`` on sigma_k of the Kalman matrix O(lam) over the
    grid of ``scale`` (from ``sweep_scale``).  fails_at: a computed sigma_k
    below scale.floor; observable_for_all_lambda: every interval bound of
    the cover above scale.cert_threshold; inconclusive: neither.  A
    ``lam_hat`` is evaluated first, and a value there below the floor
    refutes at once.  Then, for one drift (||A1 - A0||_2 <= cert_threshold),
    ``_hautus_bound`` above cert_threshold certifies with that bound as the
    margin and ``test`` "hautus"; otherwise the bisection runs as without
    either.  ``n_evals`` counts lam_hat, the lambdas of the Hautus bound and
    those of the bisection, not the scale's.
    """
    k = blocks.k
    if k == 0:
        return ObservabilityReport(scale, 0, "observable_for_all_lambda", np.inf)
    n_evals = 0
    if lam_hat is not None:
        n_evals += 1
        value = float(_kalman_sigmas(blocks, np.array([lam_hat]))[0, k - 1])
        if value < scale.floor:
            return _refuted(blocks, scale, lam_hat, value, n_evals)
    if blocks.norms.dA <= scale.cert_threshold:  # one drift: the Hautus bound
        bound, evals = _hautus_bound(blocks, scale.cert_threshold)
        n_evals += evals
        if bound > scale.cert_threshold:
            return ObservabilityReport(
                scale, n_evals, "observable_for_all_lambda", bound, test="hautus"
            )
    # d/dlam C A^j has norm at most ||dC|| a^j + j c a^(j-1) ||dA||, with
    # a = max ||A_i||_2 and c = max ||C_i||_2; the blocks add in quadrature
    norms = blocks.norms
    a, c = max(norms.A0, norms.A1), max(norms.C0, norms.C1)
    dA, dC = norms.dA, norms.dC
    lipschitz = np.sqrt(sum(
        (dC * a**j + j * c * a ** max(j - 1, 0) * dA) ** 2 for j in range(k)
    ))
    run = weyl_bisection(
        lambda lams: _kalman_sigmas(blocks, lams)[:, k - 1],
        lipschitz, scale.grid, scale.cert_threshold, scale.floor,
    )
    n_evals += run.n_evals
    if run.verdict == "refuted":
        return _refuted(blocks, scale, run.lambda_star, run.value, n_evals)
    verdict = "observable_for_all_lambda" if run.verdict == "certified" else "inconclusive"
    return ObservabilityReport(scale, n_evals, verdict, run.margin)


def _refuted(
    blocks: BlockFamily, scale: SweepScale, lam: float, value: float, n_evals: int
) -> ObservabilityReport:
    """The fails_at report at lam.  The witness is the unit right singular
    vector of sigma_k(O(lam)), the value below the floor that refuted, with
    the sign rule of ``numerical_rank``'s bases."""
    Vh = np.linalg.svd(kalman_matrix(blocks.C(lam), blocks.A(lam)))[2]
    return ObservabilityReport(
        scale, n_evals, "fails_at", value, lam, _fix_column_signs(Vh[-1:].T)
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
    are flagged rather than forced to agree.  B^T + B is held to
    ``check_weak_lyapunov``'s tolerance, whatever ``tol`` is.
    """
    pair = MatrixPair(B, B)
    if not check_weak_lyapunov(pair)[0].holds:
        raise ValueError("B^T + B is not negative semidefinite")
    B = pair.B0
    npair = NormalizedPair(B, B)
    decomp = common_kernel(npair, tol)
    fam = block_form(npair, decomp, tol)
    hz = is_hurwitz(B, tol)
    observable, _ = pair_observable(fam.C0, fam.A0, tol)
    agree = (hz.hurwitz == observable) or hz.marginal
    return CrosscheckReport(
        hz.hurwitz, hz.abscissa, observable, agree, hz.marginal, decomp.k
    )
