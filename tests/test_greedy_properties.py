"""Property suite for the greedy adversary's block engine.

On random normalized pairs with d <= 7, built as ``switching_pair`` is (a
rotation on K, outputs and dissipative blocks, a random orthonormal frame),
the runs that ``_greedy_stretches`` steps in blocks of quadratic forms must
take the inputs of the per-step rule exactly, and their norms must match
its norms to rounding.  On ordered pairs, S0 >= S1, the per-step rule never
switches, and ``worst_case_runs`` must take them as linear runs, without the
block engine, with the same norms.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from guas_cert import (  # noqa: E402
    MatrixPair, common_kernel, normalize, simulator, worst_case_switching)
from guas_cert.gallery import assemble  # noqa: E402
from guas_cert.simulator import worst_case_runs  # noqa: E402

from conftest import greedy_reference, skew, stable_block  # noqa: E402


def random_pair(k, k_prime, seed):
    rng = np.random.default_rng(seed)
    B0, B1 = (assemble(skew(rng, k), rng.standard_normal((k_prime, k)),
                       stable_block(rng, k_prime)) for _ in range(2))
    Q, _ = np.linalg.qr(rng.standard_normal((k + k_prime, k + k_prime)))
    return normalize(MatrixPair(Q.T @ B0 @ Q, Q.T @ B1 @ Q))


def ordered_pair(k, k_prime, seed):
    """A pair with S0 >= S1: D1 = D0 - R R^T with R of random rank (0 gives
    S0 = S1), the A_i and C_i drawn independently, in a random orthonormal
    frame."""
    rng = np.random.default_rng(seed)
    D0 = stable_block(rng, k_prime)
    R = rng.standard_normal((k_prime, rng.integers(0, k_prime + 1)))
    B0, B1 = (assemble(skew(rng, k), rng.standard_normal((k_prime, k)), D)
              for D in (D0, D0 - R @ R.T))
    Q, _ = np.linalg.qr(rng.standard_normal((k + k_prime, k + k_prime)))
    return normalize(MatrixPair(Q.T @ B0 @ Q, Q.T @ B1 @ Q))


HORIZONS = [(2.0, 1e-2), (1.0, 5e-3), (4.0, 2e-2), (0.5, 0.1)]


@st.composite
def dimensions(draw):
    d = draw(st.integers(2, 7))
    k = draw(st.integers(1, d - 1))
    return k, d - k


@given(
    dims=dimensions(),
    seed=st.integers(0, 2**32 - 1),
    horizon=st.sampled_from(HORIZONS),
)
def test_blocks_take_the_per_step_rule(dims, seed, horizon):
    npair = random_pair(*dims, seed)
    T, dt = horizon
    rng = np.random.default_rng(seed + 1)
    starts = rng.standard_normal((3, npair.d))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    initial, window_start, final = worst_case_runs(npair, starts, T, dt)
    for i, x0 in enumerate(starts):
        ref = greedy_reference(npair, x0, T, dt)
        run = worst_case_switching(npair, x0, T, dt)
        np.testing.assert_array_equal(run.applied_lambda, ref.applied_lambda)
        tail = ref.norms[ref.times >= ref.T - T / 4.0]
        assert initial[i] == ref.norms[0]
        assert window_start[i] == pytest.approx(tail[0], rel=1e-13)
        assert final[i] == pytest.approx(ref.norms[-1], rel=1e-13)


@given(dims=dimensions(), seed=st.integers(0, 2**32 - 1), horizon=st.sampled_from(HORIZONS))
def test_ordered_pairs_run_linear(dims, seed, horizon):
    npair = ordered_pair(*dims, seed)
    T, dt = horizon
    starts = np.random.default_rng(seed + 1).standard_normal((3, npair.d))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    starts = np.vstack([starts, common_kernel(npair).K_basis.T])
    with mock.patch.object(simulator, "_form_tables", side_effect=AssertionError):
        initial, window_start, final = worst_case_runs(npair, starts, T, dt)
    for i, x0 in enumerate(starts):
        ref = greedy_reference(npair, x0, T, dt)
        assert not ref.applied_lambda.any()
        tail = ref.norms[ref.times >= ref.T - T / 4.0]
        assert initial[i] == ref.norms[0]
        assert window_start[i] == pytest.approx(tail[0], rel=1e-13)
        assert final[i] == pytest.approx(ref.norms[-1], rel=1e-13)
