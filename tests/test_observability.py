import numpy as np
import pytest

from guas_cert import (
    AnalyzerOptions,
    MatrixPair,
    analyze,
    block_form,
    common_kernel,
    hurwitz_observability_crosscheck,
    kalman_matrix,
    normalize,
    observability,
    pair_observable,
    sweep_lambda,
)
from guas_cert.decomposition import BlockFamily
from guas_cert.gallery import assemble, kdeux, shared_output, torus
from guas_cert.observability import (
    MAX_GRID, _hautus_bound, sigma_C_bisection, sweep_scale, weyl_bisection,
)

from conftest import block_pair, full_grid_bisection, kdeux_blocks, skew, stable_block


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
        blocks = kdeux_blocks(1.0, 1.0)
        report = sweep_lambda(blocks, sweep_scale(blocks))
        assert report.verdict == "observable_for_all_lambda"
        assert report.margin > 0
        assert report.witness is None

    def test_kdeux_opposite_sign_fails_interior(self):
        blocks = kdeux_blocks(1.0, -1.0)
        report = sweep_lambda(blocks, sweep_scale(blocks))
        assert report.verdict == "fails_at"
        # (1-lam) a + lam b = 0 at lam = 1/2 for (a, b) = (1, -1)
        assert report.lambda_star == pytest.approx(0.5, abs=1e-6)
        x = report.witness
        assert x is not None
        M = kalman_matrix(blocks.C(report.lambda_star), blocks.A(report.lambda_star))
        assert np.linalg.norm(M @ x) < 1e-6
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert x.shape == (2, 1) and x[np.argmax(np.abs(x)), 0] > 0

    def test_witness_is_one_column_where_O_vanishes(self):
        """A0 = -A1 = J and C0 = -C1 = e1^T: at lam = 1/2 both C_lam and
        A_lam are exactly 0, so O(1/2) = 0 and every direction is
        unobservable there.  The witness is still one unit column, the right
        singular vector of the sigma_k that refuted, not a null-space basis."""
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        C = np.array([[1.0, 0.0]])
        blocks = BlockFamily(A0=J, A1=-J, C0=C, C1=-C)
        report = sweep_lambda(blocks, sweep_scale(blocks))
        assert report.verdict == "fails_at" and report.lambda_star == 0.5
        x = report.witness
        assert x.shape == (2, 1)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-15)
        O = kalman_matrix(blocks.C(0.5), blocks.A(0.5))
        assert not np.any(O)
        assert np.linalg.norm(O @ x) <= report.scale.floor

    def test_failure_location_tracks_root(self):
        # (1-lam) * 1 + lam * -3 = 0 at lam = 1/4
        blocks = kdeux_blocks(1.0, -3.0)
        report = sweep_lambda(blocks, sweep_scale(blocks))
        assert report.verdict == "fails_at"
        assert report.lambda_star == pytest.approx(0.25, abs=1e-6)

    def test_grid_covers_unit_interval(self):
        blocks = kdeux_blocks(1.0, 2.0)
        report = sweep_lambda(blocks, sweep_scale(blocks, n_grid=65))
        grid = report.scale.grid
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert len(grid) == 65
        # a well-conditioned family clears from a few grid points
        assert 0 < report.n_evals < len(grid)

    def test_grid_size_is_capped(self):
        """MAX_GRID points are accepted, and a well-conditioned family
        clears from the first pass, every 16th point (the scale's three
        lambdas of tol_eff are its own count); one more point is refused."""
        blocks = kdeux_blocks(1.0, 2.0)
        report = sweep_lambda(blocks, sweep_scale(blocks, n_grid=MAX_GRID))
        assert report.verdict == "observable_for_all_lambda"
        assert len(report.scale.grid) == MAX_GRID
        assert report.n_evals == (MAX_GRID - 1) // 16 + 1
        message = f"in \\[2, {MAX_GRID}\\], got {MAX_GRID + 1}$"
        with pytest.raises(ValueError, match=message):
            sweep_scale(blocks, n_grid=MAX_GRID + 1)

    def test_grid_size_must_be_an_integer(self):
        """A float grid size is refused with the range check's ValueError,
        not np.linspace's TypeError; a numpy integer is accepted."""
        blocks = kdeux_blocks(1.0, 2.0)
        with pytest.raises(ValueError, match="n_grid must be an integer .* got 257.0$"):
            sweep_scale(blocks, n_grid=257.0)
        report = sweep_lambda(blocks, sweep_scale(blocks, n_grid=np.int64(257)))
        assert len(report.scale.grid) == 257
        assert report.verdict == sweep_lambda(blocks, sweep_scale(blocks, n_grid=257)).verdict

    def test_well_conditioned_family_is_cheap(self, monkeypatch):
        """kdeux(1, 2) clears from a few grid points: fewer than n_grid // 4
        evaluations, each of them a point of the grid.  The scale is built
        before the recorder goes in, so it sees the sweep's lambdas only."""
        blocks = kdeux_blocks(1.0, 2.0)
        scale = sweep_scale(blocks, n_grid=257)
        seen = []
        kalman = observability.kalman_matrix

        def recorded(C, A):
            seen.append(np.atleast_1d(C[..., 0, 0]))
            return kalman(C, A)

        monkeypatch.setattr(observability, "kalman_matrix", recorded)
        report = sweep_lambda(blocks, scale)
        assert report.verdict == "observable_for_all_lambda"
        assert report.n_evals < 257 // 4
        # C_lam[0, 0] = 1 - lam for this family
        lams = 1.0 - np.concatenate(seen)
        assert len(lams) == report.n_evals
        assert np.all(np.min(np.abs(lams[:, None] - scale.grid), axis=1) < 1e-15)
        run = sigma_C_bisection(blocks, 1, scale)
        assert run.verdict == "certified" and run.n_evals < 257 // 4

    def test_trivial_kernel_observable(self):
        blocks = BlockFamily(
            A0=np.zeros((0, 0)), A1=np.zeros((0, 0)),
            C0=np.zeros((2, 0)), C1=np.zeros((2, 0)),
        )
        report = sweep_lambda(blocks, sweep_scale(blocks))
        assert report.verdict == "observable_for_all_lambda"
        assert np.isinf(report.margin)

    def test_shared_output_injective_everywhere(self):
        npair = normalize(shared_output())
        blocks_sh = __import__("guas_cert").block_form(npair, common_kernel(npair))
        report = sweep_lambda(blocks_sh, sweep_scale(blocks_sh))
        assert report.verdict == "observable_for_all_lambda"


def _drifting(eps):
    """k = 2, k' = 1: A0 = J, A1 = (1 + eps) J, C0 = e1^T, C1 = e2^T, so
    ||A1 - A0||_2 = |eps| and theta = +-(1 + eps / 2)."""
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return BlockFamily(A0=J, A1=(1.0 + eps) * J,
                       C0=np.array([[1.0, 0.0]]), C1=np.array([[0.0, 1.0]]))


class TestHautusBound:
    def test_one_dimension_bound_is_the_smallest_output(self):
        """k = 1: A = 0, theta = 0 alone, no window limit, so the bound is
        min |C_lam| over [0, 1], here 1 at lam = 0, from lam = 0 and 1 alone
        (the one critical point, lam = -1, is outside)."""
        blocks = BlockFamily(A0=np.zeros((1, 1)), A1=np.zeros((1, 1)),
                             C0=np.array([[1.0]]), C1=np.array([[2.0]]))
        scale = sweep_scale(blocks)
        assert _hautus_bound(blocks, scale.cert_threshold) == (1.0, 2)
        report = sweep_lambda(blocks, scale)
        assert (report.verdict, report.test) == ("observable_for_all_lambda", "hautus")
        assert (report.margin, report.n_evals) == (1.0, 2)

    def test_repeated_rotation_rate_declines(self):
        """A repeated theta has half-gap 0, and the bound is at most every
        half-gap: the Hautus bound declines and the Kalman sweep decides.
        The torus with equal rates is unobservable through one output and
        is refuted; shared_output's zero drift is observable through its
        injective C_lam and is certified."""
        A = torus(2, rates=(1.0, 1.0)).B0[:4, :4]
        torus_blocks = BlockFamily(A0=A, A1=A, C0=np.array([[1.0, 0.0, 1.0, 0.0]]),
                                   C1=np.array([[0.0, 1.0, 0.0, 1.0]]))
        npair = normalize(shared_output())
        shared_blocks = block_form(npair, common_kernel(npair))
        for blocks, verdict in ((torus_blocks, "fails_at"),
                                (shared_blocks, "observable_for_all_lambda")):
            scale = sweep_scale(blocks)
            assert blocks.norms.dA == 0.0
            assert _hautus_bound(blocks, scale.cert_threshold) == (0.0, 0)
            report = sweep_lambda(blocks, scale)
            assert (report.verdict, report.test) == (verdict, "kalman")

    @pytest.mark.parametrize("ratio, eigh_calls, test", [
        (2.0, 0, "kalman"), (0.5, 1, "hautus"),
    ], ids=["above", "below"])
    def test_drift_above_the_threshold_makes_no_eigh_call(
        self, monkeypatch, ratio, eigh_calls, test
    ):
        """The bound runs only when ||A1 - A0||_2 <= cert_threshold, and its
        one eigh is its first step: a drift that moves by twice the
        threshold makes no eigh call, one that moves by half of it makes
        one and certifies."""
        threshold = sweep_scale(_drifting(0.0)).cert_threshold
        blocks = _drifting(ratio * threshold)
        scale = sweep_scale(blocks)
        assert (blocks.norms.dA > scale.cert_threshold) == (ratio > 1.0)
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append(a) or eigh(*a))
        report = sweep_lambda(blocks, scale)
        assert (report.verdict, report.test) == ("observable_for_all_lambda", test)
        assert len(calls) == eigh_calls

    def test_margin_is_the_closed_form_less_half_the_drift(self):
        """_drifting(eps): theta = +-(1 + eps / 2), so d = 1 + eps / 2, and
        ||C_lam v||^2 = F / 2 with F = ||C_lam||_F^2 = (1 - lam)^2 + lam^2,
        smallest (1/2) at lam = 1/2, a root of the quadratic: the bound is
        d sqrt(F / 2 / (F + d^2)) there, less ||dA||_2 / 2 = eps / 2."""
        eps = 0.5 * sweep_scale(_drifting(0.0)).cert_threshold
        blocks = _drifting(eps)
        report = sweep_lambda(blocks, sweep_scale(blocks))
        d = 1.0 + eps / 2
        assert report.test == "hautus"
        assert report.margin == pytest.approx(d * np.sqrt(0.25 / (0.5 + d * d)) - eps / 2,
                                              rel=1e-12)

    def test_vanishing_plane_off_the_grid_is_refuted(self):
        """torus(2) with C0 = [1, 0, 1, 0] and C1 = [0, 1, -0.63/0.37, 0]:
        at lam* = 0.37, between grid points, C_lam sees nothing of the
        second rotation plane.  The Hautus bound stays below the threshold,
        and the Kalman sweep refutes near lam*."""
        A = torus().B0[:4, :4]
        C0 = np.array([[1.0, 0.0, 1.0, 0.0]])
        C1 = np.array([[0.0, 1.0, -0.63 / 0.37, 0.0]])
        pair = MatrixPair(assemble(A, C0, [[-1.0]]), assemble(A, C1, [[-2.0]]))
        v = analyze(pair, options=AnalyzerOptions(with_evidence=False))
        assert v.conclusion == "NOT_GUAS_constant_input"
        assert v.certificate["lambda_star"] == pytest.approx(0.37, abs=1e-6)
        assert "observability_test" not in v.margins
        blocks = BlockFamily(A0=A, A1=A, C0=C0, C1=C1)
        scale = sweep_scale(blocks)
        assert _hautus_bound(blocks, scale.cert_threshold)[0] < scale.cert_threshold


#: (sigma, Lipschitz constant, threshold, floor) of one bisection each
#: that certifies after refining below the grid, ends inconclusive with a
#: minimum within rounding of the floor, and refutes
BISECTION_CASES = [
    (lambda lams: 0.01 + np.abs(np.sin(7.0 * lams)), 7.0, 1e-3, 1e-6),
    (lambda lams: 1e-9 * (1 + 1e-7) + (lams - 0.3141592) ** 2, 2.0, 1e-7, 1e-9),
    (lambda lams: np.abs(lams - 0.3), 1.0, 1e-3, 1e-6),
]
CASE_IDS = ["certified", "near-floor", "refuted"]


def _calls_and_lambdas(f):
    """``f`` recording the lambdas of each of its calls."""
    calls = []

    def sigma(lams):
        calls.append(lams.copy())
        return f(lams)

    return sigma, calls


class TestWeylBisection:
    def test_minimum_near_floor_ends_inconclusive(self):
        """A positive minimum within rounding of the floor neither certifies
        nor refutes; the number of intervals stays bounded."""
        grid = np.linspace(0.0, 1.0, 257)
        sizes = []

        def f(lams):
            sizes.append(len(lams))
            # fail at once: an unbounded split would not end
            assert len(lams) <= len(grid)
            return 1e-9 * (1 + 1e-7) + (lams - 0.3141592) ** 2

        run = weyl_bisection(f, 2.0, grid, 1e-7, 1e-9)
        assert run.verdict == "inconclusive"
        assert max(sizes) <= len(grid)
        assert run.bound <= run.value

    def test_minimum_just_above_threshold_splits_within_budget(self):
        """No computed value reaches the threshold, and near the minimum no
        interval clears it: certifying stops once more than len(grid) - 1
        intervals need splitting, and the run ends inconclusive."""
        grid = np.linspace(0.0, 1.0, 257)

        def f(lams):
            assert len(lams) <= len(grid)
            return 1e-3 * (1 + 1e-9) + (lams - 0.3141592) ** 2

        run = weyl_bisection(f, 2.0, grid, 1e-3, 1e-6)
        assert run.verdict == "inconclusive"
        assert 1e-6 < run.bound <= 1e-3 < run.value

    def test_value_at_threshold_ends_certifying(self):
        """0.0005 + 0.01 |lam - 0.3|: the first call, over all 256 points or
        every 16th of 257, computes values below the threshold, which ends
        certifying, and no interval bound is below the floor, so nothing
        more is evaluated."""
        for n_grid, n_evals in ((256, 256), (257, 17)):
            sigma, calls = _calls_and_lambdas(
                lambda lams: 5e-4 + 0.01 * np.abs(lams - 0.3))
            grid = np.linspace(0.0, 1.0, n_grid)
            run = weyl_bisection(sigma, 0.01, grid, 1e-3, 1e-6)
            assert run.verdict == "inconclusive"
            assert (len(calls), run.n_evals) == (1, n_evals)

    def test_first_pass_zero_refutes_in_one_call(self):
        """|lam - 1/2| on 257 points: 1/2 is a point of the first pass, whose
        zero refutes before any interval is split."""
        sigma, calls = _calls_and_lambdas(lambda lams: np.abs(lams - 0.5))
        run = weyl_bisection(sigma, 1.0, np.linspace(0.0, 1.0, 257), 1e-3, 1e-6)
        assert (run.verdict, run.value, run.lambda_star) == ("refuted", 0.0, 0.5)
        assert (len(calls), run.n_evals) == (1, 17)

    def test_bound_keeps_intervals_settled_before_a_split(self):
        """Grid 0, 1/3, 2/3, 1 with L = 1: [0, 1/3] clears at once with bound
        0.1058, the true minimum there (a dip at 1/6); the two other
        intervals clear only after one split, with bounds of 0.1367 and
        more.  The certified bound must still cover [0, 1/3]."""
        def f(lams):
            dip = 0.2725 - (1 / 6 - np.abs(lams - 1 / 6))
            ramp = np.where(lams >= 0.4, 0.22,
                            0.2725 - 0.0525 * (lams - 1 / 3) / (0.4 - 1 / 3))
            return np.where(lams <= 1 / 3, dip, ramp)

        run = weyl_bisection(f, 1.0, np.linspace(0.0, 1.0, 4), 0.1, 1e-6)
        assert run.verdict == "certified"
        assert run.bound == pytest.approx(0.2725 - 1 / 6, abs=1e-12)
        assert f(np.linspace(0.0, 1.0, 100001)).min() >= run.bound

    def test_certified_bound_holds_between_points(self):
        grid = np.linspace(0.0, 1.0, 9)
        f = lambda lams: 0.01 + np.abs(np.sin(7.0 * lams))  # noqa: E731
        run = weyl_bisection(f, 7.0, grid, 1e-3, 1e-6)
        assert run.verdict == "certified"
        lams = np.linspace(0.0, 1.0, 100001)
        assert f(lams).min() >= run.bound > 1e-3

    @pytest.mark.parametrize("f, lipschitz, threshold, floor", BISECTION_CASES,
                             ids=CASE_IDS)
    def test_lazy_lambdas_are_full_grid_lambdas(self, f, lipschitz, threshold, floor):
        """Stride 16 on 161 points, where 29 midpoints of coarse intervals
        are not grid points: the run from the first pass evaluates fewer
        lambdas than the run from every grid point and, unless it certifies,
        returns the same result."""
        grid = np.linspace(0.0, 1.0, 161)
        lazy = weyl_bisection(f, lipschitz, grid, threshold, floor)
        full = full_grid_bisection(f, lipschitz, grid, threshold, floor)
        assert lazy.verdict == full.verdict
        assert lazy.n_evals < full.n_evals
        if full.verdict == "certified":
            assert lazy.bound <= full.bound
        else:
            assert (lazy.bound, lazy.value, lazy.lambda_star) == (
                full.bound, full.value, full.lambda_star)

    def test_cover_keeps_intervals_that_cleared_first(self):
        """The minimum, 0.101 at lam = 1/32, sits inside [0, 1/16], which
        clears on the first pass; the intervals refined later bound sigma
        only above 0.128.  The certified bound must still cover [0, 1/16]."""
        def f(lams):
            dip = 0.1635 - 2.0 * (1 / 32 - np.abs(lams - 1 / 32))
            return np.where(lams <= 1 / 16, dip,
                            np.maximum(0.16, 0.1635 - 2.0 * (lams - 1 / 16)))

        run = weyl_bisection(f, 2.0, np.linspace(0.0, 1.0, 257), 0.1, 1e-6)
        assert run.verdict == "certified"
        assert f(np.linspace(0.0, 1.0, 100001)).min() >= run.bound - 1e-12


class TestSecantProbe:
    def test_v_refutes_at_its_zero_in_six_calls(self):
        """|lam - 0.3|: the steeper secant through the grid points next to
        the zero lies on one branch of the V, so one probe hits the zero;
        halving alone takes 15 calls."""
        sigma, calls = _calls_and_lambdas(lambda lams: np.abs(lams - 0.3))
        run = weyl_bisection(sigma, 1.0, np.linspace(0.0, 1.0, 257), 1e-3, 1e-6)
        assert run.verdict == "refuted"
        assert abs(run.lambda_star - 0.3) <= 1e-12
        assert len(calls) <= 6

    def test_curved_asymmetric_zero(self):
        """|sin 7(lam - 0.3141)| (1 + lam), zeros at 0.3141 + j pi / 7: the
        secants are not exact, yet the run refutes next to a zero in at most
        8 calls (18 by halving alone)."""
        def f(lams):
            return np.abs(np.sin(7.0 * (lams - 0.3141))) * (1.0 + lams)

        sigma, calls = _calls_and_lambdas(f)
        run = weyl_bisection(sigma, 15.0, np.linspace(0.0, 1.0, 257), 1e-3, 1e-6)
        assert run.verdict == "refuted" and run.value < 1e-6
        zeros = 0.3141 + np.arange(2) * np.pi / 7.0
        # |f'| >= 7 near a zero
        assert np.min(np.abs(run.lambda_star - zeros)) <= run.value / 7.0 + 1e-15
        assert len(calls) <= 8

    @pytest.mark.parametrize("f, lipschitz, threshold, floor, n_grid, fires", [
        (*BISECTION_CASES[0], 9, False),
        (*BISECTION_CASES[1], 257, True),
        (lambda lams: 0.01 + np.abs(np.sin(7.0 * (lams - 0.3141))),
         7.0, 1e-3, 1e-6, 9, True),
    ], ids=["certified", "near-floor", "certified-interior"])
    def test_probe_moves_no_bound(self, monkeypatch, f, lipschitz, threshold,
                                  floor, n_grid, fires):
        """The probe never enters the cover: verdict and bound are those of
        the run without probes, also where probes were evaluated."""
        args = (f, lipschitz, np.linspace(0.0, 1.0, n_grid), threshold, floor)
        run = weyl_bisection(*args)
        monkeypatch.setattr(observability, "_secant_probe", lambda *a: None)
        plain = weyl_bisection(*args)
        assert (run.verdict, run.bound) == (plain.verdict, plain.bound)
        assert (run.n_evals > plain.n_evals) == fires

    def test_probe_stays_inside_its_bracket(self):
        """At lam = 1/2 the secants have slope 0.01 and value 0.06, so their
        zeros lie 6 away, outside [0, 1]: no probe is evaluated there."""
        def f(lams):
            dist = np.abs(lams - 0.5)
            return 0.06 + 0.01 * dist + 50.0 * np.maximum(0.0, dist - 0.02)

        sigma, calls = _calls_and_lambdas(f)
        run = weyl_bisection(sigma, 50.0, np.linspace(0.0, 1.0, 257), 1e-3, 1e-6)
        assert run.verdict == "certified"
        lams = np.concatenate(calls)
        assert len(calls) > 5  # the run split below grid resolution
        assert lams.min() >= 0.0 and lams.max() <= 1.0


class TestCrosscheck:
    def test_damped_rotation_agrees(self):
        rep = hurwitz_observability_crosscheck(np.array([[-1.0, -1.0], [1.0, -1.0]]))
        assert rep.hurwitz and rep.observable and rep.agree

    def test_skew_agrees_as_non_hurwitz(self):
        B = np.array([[0.0, 1.0], [-1.0, 0.0]])
        rep = hurwitz_observability_crosscheck(B)
        assert not rep.hurwitz and not rep.observable and rep.agree
        assert rep.marginal

    def test_refuses_positive_symmetric_part(self):
        B = np.array([[0.5, 1.0], [-1.0, -1.0]])
        with pytest.raises(ValueError, match=r"^B\^T \+ B is not negative semidefinite$"):
            hurwitz_observability_crosscheck(B)

    def test_empty_matrix_agrees(self):
        rep = hurwitz_observability_crosscheck(np.zeros((0, 0)))
        assert rep.hurwitz and rep.observable and rep.agree and rep.k == 0

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
