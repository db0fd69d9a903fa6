import os

# One BLAS/OpenMP thread, as perfbench/run.py runs its workloads: the
# per-step loops multiply tiny matrices, and with a thread pool their wall
# time depends on host load.  This must run before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from guas_cert import MatrixPair, normalize
from guas_cert.gallery import assemble, kdeux, mason, shared_output, torus

try:
    from hypothesis import settings
except ImportError:  # the property suite skips itself
    pass
else:
    # reproducible examples, and a bounded count that keeps the suite short
    settings.register_profile(
        "guas-cert", derandomize=True, deadline=None, max_examples=150
    )
    settings.load_profile("guas-cert")


def skew(rng, n):
    M = rng.standard_normal((n, n))
    return M - M.T


def stable_block(rng, n, margin=0.5):
    """Random D with D^T + D negative definite by construction."""
    R = rng.standard_normal((n, n))
    shift = np.linalg.eigvalsh(R + R.T)[-1] / 2.0 + margin
    return R - shift * np.eye(n)


def block_pair(rng, k, k_prime, shared_C=False):
    """Random pair already in the canonical block layout."""
    A0, A1 = skew(rng, k), skew(rng, k)
    C0 = rng.standard_normal((k_prime, k))
    C1 = C0 if shared_C else rng.standard_normal((k_prime, k))
    D0, D1 = stable_block(rng, k_prime), stable_block(rng, k_prime)
    return MatrixPair(assemble(A0, C0, D0), assemble(A1, C1, D1))


def corpus_pairs():
    """Named regression pairs reused across property suites."""
    rng = np.random.default_rng(42)
    return {
        "minus_identity": MatrixPair(-np.eye(3), -2.0 * np.eye(3)),
        "mason": mason(),
        "kdeux_pp": kdeux(1.0, 1.0),
        "kdeux_pm": kdeux(1.0, -1.0),
        "kdeux_mm": kdeux(-1.0, -2.0),
        "shared_output": shared_output(),
        "torus": torus(),
        "shared_C": block_pair(rng, 3, 2, shared_C=True),
        "random_blocks": block_pair(rng, 2, 2),
    }


@pytest.fixture(scope="session")
def corpus():
    return corpus_pairs()


@pytest.fixture(scope="session")
def normalized_corpus(corpus):
    return {name: normalize(pair) for name, pair in corpus.items()}


def full_grid_bisection(sigma, lipschitz, grid, threshold, floor):
    """``observability.weyl_bisection`` with every grid point evaluated up
    front, apart from the lazy cover: the same bound, split rules, budget
    and midpoint bisection below grid resolution."""
    from guas_cert.observability import Bisection

    budget = len(grid) - 1
    new_lams, new_vals = grid, sigma(grid)
    n_evals = len(grid)
    lo, hi, s_lo, s_hi = grid[:-1], grid[1:], new_vals[:-1], new_vals[1:]
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
