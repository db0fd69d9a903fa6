import os
from unittest import mock

# One BLAS/OpenMP thread, as perfbench/run.py runs its workloads: the
# per-step loops multiply tiny matrices, and with a thread pool their wall
# time depends on host load.  This must run before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest
from scipy.linalg import expm

from guas_cert import BlockFamily, MatrixPair, normalize, observability, simulator
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


def kdeux_blocks(a, b):
    """The reduced system of ``kdeux(a, b)`` in its canonical block layout,
    bypassing the SVD frame (which is free to permute or flip K's basis)."""
    return BlockFamily(
        A0=np.array([[0.0, a], [-a, 0.0]]),
        A1=np.array([[0.0, b], [-b, 0.0]]),
        C0=np.array([[1.0, 0.0]]),
        C1=np.array([[0.0, 1.0]]),
    )


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


#: captured at import: tests patch ``observability.weyl_bisection`` itself
_weyl_bisection = observability.weyl_bisection


def full_grid_bisection(sigma, lipschitz, grid, threshold, floor):
    """``observability.weyl_bisection`` with a first pass over every grid
    point: the same bound, split rules, budget, probes and midpoint split."""
    with mock.patch.object(observability, "MAX_STRIDE", 1):
        return _weyl_bisection(sigma, lipschitz, grid, threshold, floor)


def greedy_reference(npair, x0, T, dt):
    """The greedy adversary one step at a time, apart from the block-stepped
    engine: the same q0/q1 order, tie test to ``simulator.TIE_TOL`` and
    keep-u-on-tie rule, stepping by expm(B_u dt)."""
    E = (expm(npair.B0n * dt), expm(npair.B1n * dt))
    x = np.asarray(x0, float)
    u, states, inputs = 0, [x], []
    for _ in range(max(1, round(T / dt))):
        q0, q1 = x @ npair.S0 @ x, x @ npair.S1 @ x
        if abs(q0 - q1) > simulator.TIE_TOL * (1.0 + abs(q0) + abs(q1)):
            u = 0 if q0 > q1 else 1
        inputs.append(u)
        x = E[u] @ x
        states.append(x)
    states = np.array(states)
    return simulator.Trajectory(np.arange(len(states)) * dt, states,
                                np.linalg.norm(states, axis=1), None,
                                np.array(inputs, float))
