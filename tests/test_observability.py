import numpy as np
import pytest

from guas_cert import (
    common_kernel,
    hurwitz_observability_crosscheck,
    kalman_matrix,
    normalize,
    pair_observable,
    sweep_lambda,
)
from guas_cert.decomposition import BlockFamily
from guas_cert.gallery import assemble, kdeux, shared_output, torus
from guas_cert.observability import weyl_bisection

from conftest import block_pair, skew, stable_block


def kdeux_blocks(a, b):
    """Canonical block layout of the two-rotation family, bypassing the
    SVD frame (which is free to permute/flip the K basis)."""
    A0 = np.array([[0.0, a], [-a, 0.0]])
    A1 = np.array([[0.0, b], [-b, 0.0]])
    C0 = np.array([[1.0, 0.0]])
    C1 = np.array([[0.0, 1.0]])
    F = np.eye(3)
    return BlockFamily(A0=A0, A1=A1, C0=C0, C1=C1,
                       D0=-np.eye(1), D1=-np.eye(1), k=2, k_prime=1, frame=F)


class TestKalmanMatrix:
    def test_shape(self):
        C = np.ones((2, 3))
        A = np.zeros((3, 3))
        assert kalman_matrix(C, A).shape == (6, 3)

    def test_first_block_is_C(self):
        rng = np.random.default_rng(0)
        C, A = rng.standard_normal((2, 4)), skew(rng, 4)
        M = kalman_matrix(C, A)
        np.testing.assert_array_equal(M[:2], C)
        np.testing.assert_allclose(M[2:4], C @ A)
        np.testing.assert_allclose(M[-2:], C @ np.linalg.matrix_power(A, 3))

    def test_stack_matches_slices(self):
        rng = np.random.default_rng(3)
        C = rng.standard_normal((5, 2, 3))
        A = np.stack([skew(rng, 3) for _ in range(5)])
        stacked = kalman_matrix(C, A)
        assert stacked.shape == (5, 6, 3)
        for i in range(5):
            np.testing.assert_array_equal(stacked[i], kalman_matrix(C[i], A[i]))

    def test_kdeux_determinant_closed_form(self):
        """det [C_lam; C_lam A_lam] = (2 lam^2 - 2 lam + 1)((1-lam) a + lam b)."""
        for a, b in [(1.0, 1.0), (2.0, 3.0), (-1.0, -2.0), (1.0, -1.0)]:
            blocks = kdeux_blocks(a, b)
            for lam in np.linspace(0.0, 1.0, 21):
                M = kalman_matrix(blocks.C(lam), blocks.A(lam))
                expected = (2 * lam**2 - 2 * lam + 1) * ((1 - lam) * a + lam * b)
                assert np.linalg.det(M) == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestPairObservable:
    def test_rotation_single_output(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        ok, basis = pair_observable(np.array([[1.0, 0.0]]), A)
        assert ok and basis is None

    def test_zero_dynamics_partial_output(self):
        ok, basis = pair_observable(np.array([[1.0, 0.0]]), np.zeros((2, 2)))
        assert not ok
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 1.0], atol=1e-12)

    def test_unobservable_direction_is_invariant(self):
        rng = np.random.default_rng(8)
        A = skew(rng, 4)
        # output that ignores an A-invariant plane does not see it
        C = np.array([[1.0, 0.0, 0.0, 0.0]])
        ok, basis = pair_observable(C, np.zeros((4, 4)))
        assert not ok and basis.shape[1] == 3

    def test_empty_state(self):
        ok, basis = pair_observable(np.zeros((1, 0)), np.zeros((0, 0)))
        assert ok


class TestSweepLambda:
    def test_kdeux_same_sign_observable(self):
        report = sweep_lambda(kdeux_blocks(1.0, 1.0))
        assert report.verdict == "observable_for_all_lambda"
        assert report.margin > 0
        assert report.witness is None

    def test_kdeux_opposite_sign_fails_interior(self):
        report = sweep_lambda(kdeux_blocks(1.0, -1.0))
        assert report.verdict == "fails_at"
        # (1-lam) a + lam b = 0 at lam = 1/2 for (a, b) = (1, -1)
        assert report.lambda_star == pytest.approx(0.5, abs=1e-6)
        x = report.witness
        assert x is not None
        M = kalman_matrix(
            kdeux_blocks(1.0, -1.0).C(report.lambda_star),
            kdeux_blocks(1.0, -1.0).A(report.lambda_star),
        )
        assert np.linalg.norm(M @ x) < 1e-6
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    def test_failure_location_tracks_root(self):
        # (1-lam) * 1 + lam * -3 = 0 at lam = 1/4
        report = sweep_lambda(kdeux_blocks(1.0, -3.0))
        assert report.verdict == "fails_at"
        assert report.lambda_star == pytest.approx(0.25, abs=1e-6)

    def test_grid_covers_unit_interval(self):
        report = sweep_lambda(kdeux_blocks(1.0, 2.0), n_grid=65)
        assert report.grid[0] == 0.0 and report.grid[-1] == 1.0
        assert len(report.grid) == 65
        assert report.sigma_min.shape == report.grid.shape

    def test_trivial_kernel_observable(self):
        blocks = BlockFamily(
            A0=np.zeros((0, 0)), A1=np.zeros((0, 0)),
            C0=np.zeros((2, 0)), C1=np.zeros((2, 0)),
            D0=-np.eye(2), D1=-np.eye(2), k=0, k_prime=2, frame=np.eye(2),
        )
        report = sweep_lambda(blocks)
        assert report.verdict == "observable_for_all_lambda"
        assert np.isinf(report.margin)

    def test_shared_output_injective_everywhere(self):
        npair = normalize(shared_output())
        blocks_sh = __import__("guas_cert").block_form(npair, common_kernel(npair))
        report = sweep_lambda(blocks_sh)
        assert report.verdict == "observable_for_all_lambda"


class TestWeylBisection:
    def test_minimum_near_floor_ends_inconclusive(self):
        """A positive minimum within rounding of the floor neither certifies
        nor refutes; the number of intervals stays bounded."""
        grid = np.linspace(0.0, 1.0, 257)
        sizes = []

        def f(lams):
            sizes.append(len(lams))
            return 1e-9 * (1 + 1e-7) + (lams - 0.3141592) ** 2

        run = weyl_bisection(f, 2.0, grid, 1e-7, 1e-9)
        assert run.verdict == "inconclusive"
        assert max(sizes) <= len(grid)
        assert run.bound <= run.value

    def test_certified_bound_holds_between_points(self):
        grid = np.linspace(0.0, 1.0, 9)
        f = lambda lams: 0.01 + np.abs(np.sin(7.0 * lams))  # noqa: E731
        run = weyl_bisection(f, 7.0, grid, 1e-3, 1e-6)
        assert run.verdict == "certified"
        lams = np.linspace(0.0, 1.0, 100001)
        assert f(lams).min() >= run.bound > 1e-3


class TestCrosscheck:
    def test_damped_rotation_agrees(self):
        rep = hurwitz_observability_crosscheck(np.array([[-1.0, -1.0], [1.0, -1.0]]))
        assert rep.hurwitz and rep.observable and rep.agree

    def test_skew_agrees_as_non_hurwitz(self):
        B = np.array([[0.0, 1.0], [-1.0, 0.0]])
        rep = hurwitz_observability_crosscheck(B)
        assert not rep.hurwitz and not rep.observable and rep.agree
        assert rep.marginal

    def test_block_with_unobservable_kernel(self):
        # zero A, output sees only one of two kernel directions
        B = assemble(np.zeros((2, 2)), np.array([[1.0, 0.0]]), np.array([[-1.0]]))
        rep = hurwitz_observability_crosscheck(B)
        assert not rep.hurwitz and not rep.observable and rep.agree

    def test_random_blocks_always_agree(self):
        """Hurwitz iff observable, across 200 random block matrices (d <= 6)."""
        rng = np.random.default_rng(2024)
        count = 0
        while count < 200:
            k = int(rng.integers(0, 5))
            kp = int(rng.integers(1, 7 - k)) if k < 6 else 0
            if k + kp > 6 or kp == 0:
                continue
            B = assemble(skew(rng, k), rng.standard_normal((kp, k)),
                         stable_block(rng, kp))
            rep = hurwitz_observability_crosscheck(B)
            if rep.marginal:
                continue  # outside the decision band; equivalence not asserted
            assert rep.agree, (k, kp, B)
            count += 1
