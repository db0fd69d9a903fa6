"""Kalman-rank observability of the reduced pairs (C_lam, A_lam).

Observability is measured through the smallest singular value of the Kalman
matrix rather than an integer rank, so every verdict carries a quantitative
margin.  The lambda sweep proves its verdicts on all of [0, 1]: sigma_k of
the Kalman matrix is Lipschitz in lambda (Weyl's inequality), so intervals
are bisected until each one's bound clears the certification threshold, a
computed value falls below the tolerance, or neither can happen.

The n_grid partition is evaluated lazily: the bisection starts from every
16th grid point (or the largest power-of-two stride that fits n_grid - 1)
and evaluates a grid point only inside an interval whose bound has not
cleared, so a well-conditioned family costs a few dozen lambdas instead of
n_grid.  Every verdict still rests on a cover of [0, 1] by intervals.  The
reported margins are lower bounds over the cover actually used, so where a
coarse interval cleared they can be smaller than the full grid would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .decomposition import BlockFamily, block_form, common_kernel, numerical_rank
from .errors import DimensionMismatch
from .matrix_core import NormalizedPair, is_hurwitz, symmetric_part

#: Certified-observable requires sigma_min above this multiple of the tolerance.
CERT_FACTOR = 100.0
#: Largest stride, a power of two, of the first pass of a bisection over its grid.
MAX_STRIDE = 16


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


def _grid_cover(
    sigma: Callable[[np.ndarray], np.ndarray],
    lipschitz: float,
    grid: np.ndarray,
    threshold: float,
):
    """Intervals between points of ``grid`` that cover it, each of which
    clears ``threshold`` or joins adjacent grid points.

    The first pass evaluates every s-th point, s the largest power of two
    <= MAX_STRIDE that divides len(grid) - 1; intervals whose bound does not
    clear ``threshold`` are then halved in index space.  Returns the
    intervals' endpoints and values, and every lambda evaluated with its value.
    """
    idx = np.arange(0, len(grid), math.gcd(len(grid) - 1, MAX_STRIDE))
    vals = sigma(grid[idx])
    lams_seen, vals_seen = [grid[idx]], [vals]
    li, ri, vl, vr = idx[:-1], idx[1:], vals[:-1], vals[1:]
    while True:
        bound = 0.5 * (vl + vr - lipschitz * (grid[ri] - grid[li]))
        split = (bound <= threshold) & (ri - li > 1)
        if not np.any(split):
            break
        mi = (li[split] + ri[split]) // 2
        mv = sigma(grid[mi])
        lams_seen.append(grid[mi])
        vals_seen.append(mv)
        keep = ~split
        li = np.concatenate([li[keep], li[split], mi])
        ri = np.concatenate([ri[keep], mi, ri[split]])
        vl = np.concatenate([vl[keep], vl[split], mv])
        vr = np.concatenate([vr[keep], mv, vr[split]])
    # in grid order, so ties in the smallest value go to the lowest lambda
    lams, vals = np.concatenate(lams_seen), np.concatenate(vals_seen)
    order = np.argsort(lams, kind="stable")
    return grid[li], grid[ri], vl, vr, lams[order], vals[order]


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
    L (r - l)) / 2.  ``_grid_cover`` evaluates ``grid`` lazily: only where
    the bound of a coarser interval does not clear ``threshold``.  From its
    cover, intervals whose bound does not clear ``threshold`` are split at
    their midpoints.  Certifying stops once a computed value is at or below
    ``threshold`` (it bounds every interval it ends) or more intervals need
    splitting than ``grid`` has, which near a minimum within rounding of
    ``threshold`` would grow without bound; then only the lowest
    len(grid) - 1 bounds below ``floor``, which alone can hold a refutation,
    are split.  The verdict is refuted when a computed value is below
    ``floor``, certified when every interval clears ``threshold``, and
    inconclusive when nothing is left to split or a midpoint no longer falls
    strictly inside its interval.  ``bound`` is a lower bound of sigma over
    the cover actually used, so where a coarse interval cleared it can be
    smaller than the full grid would give.
    """
    budget = len(grid) - 1
    lo, hi, s_lo, s_hi, new_lams, new_vals = _grid_cover(
        sigma, lipschitz, grid, threshold
    )
    n_evals = len(new_lams)
    value, lam_star, settled, certifying = np.inf, 0.0, np.inf, True
    while True:
        bound = 0.5 * (s_lo + s_hi - lipschitz * (hi - lo))
        i = int(np.argmin(new_vals))
        if new_vals[i] < value:
            value, lam_star = float(new_vals[i]), float(new_lams[i])
        lower = min(settled, float(bound.min()))
        if value < floor:
            return Bisection("refuted", lower, value, lam_star, n_evals)
        split = bound <= threshold
        certifying = certifying and value > threshold and split.sum() <= budget
        if not certifying:
            lowest = np.argsort(bound)[:budget]
            split = np.zeros(len(bound), bool)
            split[lowest[bound[lowest] < floor]] = True
        settled = min(settled, float(bound[~split].min(initial=np.inf)))
        if not np.any(split):
            verdict = "certified" if certifying else "inconclusive"
            return Bisection(verdict, lower, value, lam_star, n_evals)
        lo, hi, s_lo, s_hi = lo[split], hi[split], s_lo[split], s_hi[split]
        mid = 0.5 * (lo + hi)
        if np.any((mid <= lo) | (mid >= hi)):
            return Bisection("inconclusive", lower, value, lam_star, n_evals)
        new_lams, new_vals = mid, sigma(mid)
        n_evals += len(mid)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        s_lo = np.concatenate([s_lo, new_vals])
        s_hi = np.concatenate([new_vals, s_hi])


@dataclass
class ObservabilityReport:
    """Result of the lambda sweep over the Kalman matrices of (C_lam, A_lam)."""

    grid: np.ndarray  # the partition of [0, 1] the bisection may evaluate
    n_evals: int  # lambdas at which sigma_k of the Kalman matrix was evaluated
    verdict: str  # observable_for_all_lambda | fails_at | inconclusive
    margin: float  # proved lower bound if observable, else the smallest sigma_k
    lambda_star: Optional[float] = None
    witness: Optional[np.ndarray] = None  # orthonormal unobservable basis
    cert_threshold: float = 0.0
    tol: float = 0.0


def sigma_C_bisection(
    blocks: BlockFamily, j: int, obs: ObservabilityReport
) -> Bisection:
    """Prove sigma_j(C_lam) > obs.cert_threshold on all of [0, 1].

    Every singular value of C_lam moves at most ||C1 - C0||_2 per unit of
    lam (Weyl), so ``weyl_bisection`` runs over the sweep's grid with that
    constant; a computed value below the threshold ends it as refuted.
    """
    return weyl_bisection(
        lambda lams: np.linalg.svd(
            blocks.C(lams[:, None, None]), compute_uv=False
        )[:, j - 1],
        np.linalg.norm(blocks.C1 - blocks.C0, 2),
        obs.grid, obs.cert_threshold, obs.cert_threshold,
    )


def sweep_lambda(
    blocks: BlockFamily, n_grid: int = 257, tol: float = 1e-9
) -> ObservabilityReport:
    """Certify observability of (C_lam, A_lam) on all of [0, 1], or refute it.

    Runs ``weyl_bisection`` on sigma_k of the Kalman matrix O(lam) over the
    n_grid partition, whose points it evaluates only where needed.
    fails_at: a computed sigma_k below tol_eff = tol (1 + max ||O(lam)||
    over lam in {0, 1/2, 1}); observable_for_all_lambda: every interval
    bound of the cover above CERT_FACTOR * tol_eff; inconclusive: neither.
    ``n_evals`` counts the three lambdas of tol_eff too.
    """
    if n_grid < 2:
        raise ValueError("n_grid must be >= 2")
    k = blocks.k
    grid = np.linspace(0.0, 1.0, n_grid)
    if k == 0:
        return ObservabilityReport(
            grid, 0, "observable_for_all_lambda",
            np.inf, cert_threshold=0.0, tol=tol,
        )

    def singular_values(lams: np.ndarray) -> np.ndarray:
        lam = lams[:, None, None]
        O = kalman_matrix(blocks.C(lam), blocks.A(lam))
        if O.shape[-2] < k:
            return np.zeros((len(lams), k))
        return np.linalg.svd(O, compute_uv=False)

    ends = singular_values(np.array([0.0, 0.5, 1.0]))
    tol_eff = tol * (1.0 + float(np.max(ends[:, 0])))
    cert_threshold = CERT_FACTOR * tol_eff
    # d/dlam C A^j has norm at most ||dC|| a^j + j c a^(j-1) ||dA||, with
    # a = max ||A_i||_2 and c = max ||C_i||_2; the blocks add in quadrature
    a = max(np.linalg.norm(blocks.A0, 2), np.linalg.norm(blocks.A1, 2))
    c = max(np.linalg.norm(blocks.C0, 2), np.linalg.norm(blocks.C1, 2))
    dA = np.linalg.norm(blocks.A1 - blocks.A0, 2)
    dC = np.linalg.norm(blocks.C1 - blocks.C0, 2)
    lipschitz = np.sqrt(sum(
        (dC * a**j + j * c * a ** max(j - 1, 0) * dA) ** 2 for j in range(k)
    ))
    run = weyl_bisection(
        lambda lams: singular_values(lams)[:, k - 1],
        lipschitz, grid, cert_threshold, tol_eff,
    )

    if run.verdict != "refuted":
        certified = run.verdict == "certified"
        return ObservabilityReport(
            grid, run.n_evals + len(ends),
            "observable_for_all_lambda" if certified else "inconclusive",
            run.bound if certified else run.value,
            cert_threshold=cert_threshold, tol=tol_eff,
        )
    lam = run.lambda_star
    rank = numerical_rank(kalman_matrix(blocks.C(lam), blocks.A(lam)), tol)
    # sigma_k can be tiny but above the rank threshold; the witness is then
    # the closest-to-null direction
    return ObservabilityReport(
        grid, run.n_evals + len(ends), "fails_at", run.value, lam,
        rank.basis if rank.basis.shape[1] else rank.complement[:, -1:],
        cert_threshold, tol_eff,
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
