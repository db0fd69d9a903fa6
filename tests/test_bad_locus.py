from dataclasses import replace

import numpy as np
import pytest

from guas_cert import (
    block_form,
    common_kernel,
    in_F,
    in_G,
    kpetit_classify,
    lambda_of,
    normalize,
    scan_G,
    sweep_lambda,
    sweep_scale,
    wedge,
)
from guas_cert.bad_locus import NODES, _fit_operator, in_F_dual, in_N, kernel_vector
from guas_cert.decomposition import BlockFamily
from guas_cert.errors import InNullSpace, NotInF
from guas_cert.gallery import kdeux, torus

from conftest import kdeux_blocks, skew


def k1_blocks(c0, c1):
    return BlockFamily(
        A0=np.zeros((1, 1)), A1=np.zeros((1, 1)),
        C0=np.array([[c0]]), C1=np.array([[c1]]),
    )


def no_output_blocks(k):
    """k' = 0: C_lam is empty, so (C_lam, A_lam) is unobservable at every lam
    and N = ker C0 ∩ ker C1 is all of K."""
    rng = np.random.default_rng(k)
    return BlockFamily(A0=skew(rng, k), A1=skew(rng, k),
                       C0=np.zeros((0, k)), C1=np.zeros((0, k)))


def shared_C_blocks():
    """C0 = C1: the opposed-colinear cone collapses onto ker C."""
    C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return BlockFamily(
        A0=skew(np.random.default_rng(1), 3),
        A1=skew(np.random.default_rng(2), 3),
        C0=C, C1=C,
    )


class TestWedge:
    def test_2d_is_cross_determinant(self):
        u, v = np.array([1.0, 2.0]), np.array([3.0, 5.0])
        np.testing.assert_allclose(wedge(u, v), [u[0] * v[1] - u[1] * v[0]])

    def test_alternating(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        np.testing.assert_allclose(wedge(u, v), -wedge(v, u), atol=1e-14)
        np.testing.assert_allclose(wedge(u, u), 0.0, atol=1e-14)

    def test_bilinear(self):
        rng = np.random.default_rng(6)
        u, v, w = rng.standard_normal((3, 4))
        np.testing.assert_allclose(
            wedge(u + 2.0 * v, w), wedge(u, w) + 2.0 * wedge(v, w), atol=1e-12
        )

    def test_colinear_iff_zero(self):
        u = np.array([1.0, -2.0, 3.0])
        assert np.linalg.norm(wedge(u, -4.0 * u)) < 1e-14
        assert np.linalg.norm(wedge(u, u + np.array([0.0, 1.0, 0.0]))) > 0.5


class TestConeMembership:
    def test_kdeux_cone_is_opposite_quadrants(self):
        blocks = kdeux_blocks(1.0, 1.0)
        assert in_F(blocks, np.array([1.0, -2.0]))
        assert in_F(blocks, np.array([-0.5, 3.0]))
        assert not in_F(blocks, np.array([1.0, 2.0]))
        assert not in_F(blocks, np.array([-1.0, -1.0]))

    def test_axes_belong_to_cone(self):
        blocks = kdeux_blocks(1.0, 1.0)
        assert in_F(blocks, np.array([1.0, 0.0]))
        assert in_F(blocks, np.array([0.0, 1.0]))

    def test_origin_of_outputs_is_in_N(self):
        blocks = shared_C_blocks()
        x = np.array([0.0, 0.0, 1.0])
        assert in_N(blocks, x)
        assert in_F(blocks, x)  # N is contained in the closed cone

    def test_dual_characterization_agrees_at_random(self):
        """<C0 x, C1 x> + ||C0 x|| ||C1 x|| = 0 iff colinear-opposed: the two
        membership tests must never disagree on generic points."""
        rng = np.random.default_rng(123)
        for blocks in (kdeux_blocks(1.0, 1.0), kdeux_blocks(2.0, -3.0),
                       shared_C_blocks()):
            X = rng.standard_normal((10_000, blocks.k))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            np.testing.assert_array_equal(in_F(blocks, X), in_F_dual(blocks, X))


class TestLambdaOf:
    def test_closed_form_on_kdeux(self):
        blocks = kdeux_blocks(1.0, 1.0)
        # lambda(x) = x1 / (x1 - x2) on the opposed cone
        for x1, x2 in [(1.0, -1.0), (2.0, -0.5), (1.0, 0.0), (0.0, -3.0)]:
            x = np.array([x1, x2])
            assert lambda_of(blocks, x) == pytest.approx(
                x1 / (x1 - x2), abs=1e-12
            )

    def test_kills_combined_output(self):
        # in_G reports lambda_of(x) as its lam on F \ N (TestBatch checks
        # the two agree), so one batched call covers the 1000 points
        rng = np.random.default_rng(77)
        blocks = kdeux_blocks(3.0, -1.0)
        X = []
        for _ in range(1000):
            x = np.array([rng.uniform(0.1, 2.0), -rng.uniform(0.1, 2.0)])
            X.append(-x if rng.random() < 0.5 else x)
        X = np.array(X)
        lam = in_G(blocks, X)[2]
        assert np.all((0.0 <= lam) & (lam <= 1.0))
        outputs = blocks.C(lam[:, None, None]) @ X[:, :, None]
        assert np.linalg.norm(outputs[:, :, 0], axis=1).max() < 1e-9

    def test_rejects_points_outside_cone(self):
        blocks = kdeux_blocks(1.0, 1.0)
        with pytest.raises(NotInF):
            lambda_of(blocks, np.array([1.0, 1.0]))

    def test_rejects_null_points(self):
        blocks = shared_C_blocks()
        with pytest.raises(InNullSpace):
            lambda_of(blocks, np.array([0.0, 0.0, 1.0]))


class TestInG:
    def test_kdeux_tangency_on_diagonal_rays(self):
        """For equal and opposite outputs the tangency expression vanishes on
        the ray x1 = -x2 when the two rotation rates are equal."""
        blocks = kdeux_blocks(1.0, 1.0)
        x = np.array([1.0, -1.0]) / np.sqrt(2.0)
        ok, residual, lam = in_G(blocks, x)
        assert ok and residual < 1e-12
        assert lam == pytest.approx(0.5)

    def test_single_output_tangency_is_vacuous(self):
        # for one-dimensional outputs colinearity is automatic and the wedge
        # expression vanishes identically on the cone
        blocks = kdeux_blocks(1.0, 2.0)
        ok, residual, _ = in_G(blocks, np.array([2.0, -0.5]) / np.sqrt(4.25))
        assert ok and residual == 0.0

    def test_generic_cone_point_not_tangent(self):
        # C1 = -diag(1, 2): the opposed cone reduces to the coordinate axes,
        # and at x = e1 the tangency residual works out to exactly 1
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        blocks = BlockFamily(
            A0=A, A1=A, C0=np.eye(2), C1=-np.diag([1.0, 2.0]),
        )
        e1 = np.array([1.0, 0.0])
        assert in_F(blocks, e1)
        assert not in_F(blocks, np.array([1.0, 1.0]) / np.sqrt(2.0))
        ok, residual, lam = in_G(blocks, e1)
        assert not ok
        assert residual == pytest.approx(1.0, rel=1e-12)
        assert lam == pytest.approx(0.5)

    def test_point_outside_cone_is_not_in_G(self):
        blocks = kdeux_blocks(1.0, 1.0)
        ok, residual, lam = in_G(blocks, np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert not ok and np.isnan(residual) and lam is None

    @pytest.mark.parametrize("k_prime", [1, 2])
    def test_points_near_a_null_line_are_members(self, k_prime):
        """Every wedge term of g has a factor C_i x, so g is zero on
        N = ker C0 ∩ ker C1 at every lambda.  Unit points 1e-13 to 1e-9 off
        a null line, with ||A|| and ||C|| up to 100, that in_N and in_F
        accept are members of G at lam 0, however rounding leaves g."""
        rng = np.random.default_rng([30, k_prime])
        accepted = 0
        for a, c in [(1.0, 1.0), (100.0, 1.0), (1.0, 100.0), (100.0, 100.0)]:
            n = unit(rng.standard_normal(3))
            off_n = np.eye(3) - np.outer(n, n)
            C0, C1 = (rng.standard_normal((k_prime, 3)) @ off_n for _ in range(2))
            A0, A1 = skew(rng, 3), skew(rng, 3)
            blocks = BlockFamily(
                A0=a * A0 / np.linalg.norm(A0, 2), A1=a * A1 / np.linalg.norm(A1, 2),
                C0=c * C0 / np.linalg.norm(C0, 2), C1=c * C1 / np.linalg.norm(C1, 2),
            )
            offsets = np.logspace(-13, -9, 9)[:, None, None]
            X = unit(n + offsets * unit(rng.standard_normal((9, 20, 3)))).reshape(-1, 3)
            X = np.vstack([X, -X])
            on_N = in_N(blocks, X) & in_F(blocks, X)
            member, _, lam = in_G(blocks, X)
            assert np.all(member[on_N])
            assert np.all(lam[on_N] == 0.0)
            accepted += int(on_N.sum())
        assert accepted > 720  # over half of the 1,440 points are in N


def unit(X):
    X = np.asarray(X, float)
    return X / np.linalg.norm(X, axis=-1, keepdims=True)


def mixed_batches():
    """(blocks, points, tol) batches mixing points of N, points outside F,
    F \\ N points whose computed lambda leaves [0, 1] at a loose tol, the
    kdeux tangency ray and generic cone points."""
    rng = np.random.default_rng(31)
    shared = shared_C_blocks()
    near_e3 = unit([[0.05, 0.0, 1.0], [0.0, -0.05, 1.0], [0.03, 0.04, -1.0]])
    mixed = np.vstack([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], near_e3,
                       unit(rng.standard_normal((5, 3)))])
    # C1 = C0 / 50: the computed lam = 50 / 49 misses [0, 1] by more than the
    # loose tol while C_1 x stays small, so only lambda_of's range check
    # rejects the near-e3 points (for C1 = C0, lam is 0 / 0)
    scaled = replace(shared, C1=0.02 * shared.C0)
    kdeux = kdeux_blocks(1.0, 1.0)
    ray = unit([[1.0, -1.0], [-1.0, 1.0]])
    cone = unit(rng.uniform(0.1, 2.0, (6, 2)) * [1.0, -1.0])
    off_cone = unit(rng.uniform(0.1, 2.0, (4, 2)))
    frozen = frozen_k3_blocks()
    n = kernel_vector(frozen.C(np.linspace(0.0, 1.0, 7)[:, None, None]))
    return [
        (shared, mixed, 1e-9), (shared, mixed, 1e-2), (scaled, mixed, 1e-2),
        (kdeux, np.vstack([ray, cone, -cone, off_cone]), 1e-9),
        (frozen, np.vstack([unit(n), unit(rng.standard_normal((4, 3)))]), 1e-9),
    ]


class TestBatch:
    def test_rows_match_single_points(self):
        kinds = set()
        for blocks, X, tol in mixed_batches():
            oracles = (in_F, in_N, in_F_dual)
            F, N, dual = (oracle(blocks, X, tol) for oracle in oracles)
            member, residual, lam = in_G(blocks, X, tol)
            for i, x in enumerate(X):
                assert (F[i], N[i], dual[i]) == tuple(
                    oracle(blocks, x, tol) for oracle in oracles)
                m, r, l = in_G(blocks, x, tol)
                assert member[i] == m
                np.testing.assert_allclose(residual[i], r, rtol=1e-12, atol=1e-15)
                assert np.isnan(lam[i]) == (l is None)
                if l is not None:
                    assert lam[i] == pytest.approx(l, rel=1e-12, abs=1e-15)
                if F[i] and not N[i]:
                    # the batched lam is lambda_of's answer, NaN where it raises
                    if l is None:
                        with pytest.raises(NotInF):
                            lambda_of(blocks, x, tol)
                        kinds.add("lambda rejected")
                    else:
                        assert lambda_of(blocks, x, tol) == lam[i]
                        kinds.add("tangent" if m else "cone")
                else:
                    kinds.add("N" if N[i] else "outside F")
        assert kinds == {"N", "outside F", "lambda rejected", "tangent", "cone"}

    def test_batch_axes_are_kept(self):
        X = unit(np.random.default_rng(2).standard_normal((2, 3, 2)))
        blocks = kdeux_blocks(1.0, 1.0)
        assert in_F(blocks, X).shape == in_N(blocks, X).shape == (2, 3)
        assert all(a.shape == (2, 3) for a in in_G(blocks, X))
        flat = in_G(blocks, X.reshape(6, 2))
        for a, b in zip(in_G(blocks, X), flat):
            np.testing.assert_array_equal(a.reshape(6), b)


def frozen_k3_blocks():
    w = np.array([0.6953031944582878, -1.344214547285082,
                  -0.45761576104021817])
    A = np.array([[0.0, -w[2], w[1]],
                  [w[2], 0.0, -w[0]],
                  [-w[1], w[0], 0.0]])
    C0 = np.array([
        [-1.901222739800844, -1.289537739784976, -1.8417350377917323],
        [-0.23509113107468127, -1.2674464814437032, 0.2712643588217015],
    ])
    C1 = np.array([
        [0.15675108662422516, -0.18693094462995438, -2.516759710820513],
        [-0.5386928958466366, -0.04850094540107198, 0.11330898600330756],
    ])
    return BlockFamily(A0=A, A1=A, C0=C0, C1=C1)


def scan(blocks):
    return scan_G(blocks, sweep_scale(blocks))


def no_drift():
    """A0 = A1 = 0: the tangency residual vanishes on the whole curve."""
    rng = np.random.default_rng(3)
    Z = np.zeros((3, 3))
    return BlockFamily(Z, Z, rng.standard_normal((2, 3)), rng.standard_normal((2, 3)))


def rank_drop():
    """The second row of C_lam vanishes at lam = 1/1.7391, off the grid:
    ker C_lam is a plane there, while N = {0}."""
    rng = np.random.default_rng(5)
    C0 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    C1 = np.array([[0.0, 0.0, 1.0], [0.0, -0.7391, 0.0]])
    return BlockFamily(skew(rng, 3), skew(rng, 3), C0, C1)


def nontrivial_N():
    """k' = 1: e3 lies in ker C0 ∩ ker C1."""
    rng = np.random.default_rng(7)
    return BlockFamily(skew(rng, 3), skew(rng, 3),
                     np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]]))


def off_grid_k3():
    """k' = k = 3: C_lam is singular only at lam = 1/1.7391."""
    w = (0.3, -1.1, 0.8)
    A = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    return BlockFamily(A, A, np.eye(3), np.diag([-0.7391, 1.0, 1.0]))


class TestScanG:
    def test_equal_rates_kdeux_not_discrete(self):
        """Equal rotation rates leave whole arcs of tangency."""
        report = scan(kdeux_blocks(1.0, 1.0))
        assert report.verdict == "not_discrete"

    def test_shared_output_cone_empty(self):
        blocks = BlockFamily(
            A0=np.zeros((2, 2)), A1=np.array([[0.0, 1.0], [-1.0, 0.0]]),
            C0=np.eye(2), C1=np.eye(2) * 2.0,  # positively proportional outputs
        )
        report = scan(blocks)
        assert report.verdict == "discrete"
        assert report.n_hits == 0

    def test_frozen_k3_discrete_instance(self):
        """Regression: a 3-dimensional kernel whose tangency set is the two
        points ± n(lam) at the one root of the residual polynomial."""
        blocks = frozen_k3_blocks()
        report = scan(blocks)
        assert report.verdict == "discrete"
        assert report.rule == "curve" and report.degree == 5
        assert len(report.roots) == 1
        assert report.roots[0] == pytest.approx(0.8107, abs=1e-3)
        assert report.n_hits == len(report.points) == 2
        for x in report.points:
            member, residual, lam = in_G(blocks, x)
            # A0 = A1, so g has degree 4 < 5: the root stays accurate to
            # rounding only if the fit's rounding-level top term is dropped
            assert member and residual < 1e-12
            assert lam == pytest.approx(report.roots[0], abs=1e-9)

    @pytest.mark.parametrize("make, verdict", [
        (no_drift, "not_discrete"),
        (rank_drop, "inconclusive"),
        (nontrivial_N, "inconclusive"),
        (off_grid_k3, "discrete"),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_decision_rules(self, make, verdict):
        report = scan(make())
        assert report.verdict == verdict
        if make is off_grid_k3:
            assert report.rule == "finite_F"

    def test_k1_discrete(self):
        report = scan(k1_blocks(1.0, 1.0))
        assert report.verdict == "discrete"
        assert report.note == "F ∩ S has at most two points"

    @pytest.mark.parametrize("k, note", [
        (2, "N = ker C0 ∩ ker C1 is nontrivial"),
        (3, "N = ker C0 ∩ ker C1 is nontrivial"),
        (4, "k = 4 > 3"),
    ])
    def test_no_output_blocks(self, k, note):
        """k' = 0: the sweep refutes at the first grid point, and scan_G takes
        N = K from the empty output stack, after the k > 3 gate."""
        blocks = no_output_blocks(k)
        scale = sweep_scale(blocks)
        obs = sweep_lambda(blocks, scale)
        assert obs.verdict == "fails_at" and obs.lambda_star == 0.0
        report = scan_G(blocks, scale)
        assert report.verdict == "inconclusive" and report.n_samples == 0
        assert report.note == note + ": discreteness of G undecided"

    def test_fit_needs_a_node_per_coefficient(self):
        """The fit operator recovers a polynomial of degree up to
        len(NODES) - 1 from its values at NODES, in the window variable
        that maps the nodes onto [-1, 1]; degree 11 would be
        underdetermined on the eleven nodes and is refused."""
        coef = np.random.default_rng(8).standard_normal(len(NODES))
        t = (2.0 * NODES - NODES[0] - NODES[-1]) / (NODES[-1] - NODES[0])
        for degree in (3, 5, len(NODES) - 1):
            values = np.polynomial.polynomial.polyval(t, coef[: degree + 1])
            np.testing.assert_allclose(_fit_operator(degree) @ values,
                                       coef[: degree + 1], rtol=0, atol=1e-10)
        with pytest.raises(ValueError, match="degree-11 fit needs 12 nodes, NODES has 11"):
            _fit_operator(11)

    def test_kernel_vector_bits_are_per_column_minors(self):
        """One batched det over the k minors gives the bits of one det per
        deleted column, for every k the curve rule could meet."""
        rng = np.random.default_rng(9)
        for k in range(1, 6):
            C = rng.standard_normal((11, k - 1, k))
            minors = [(-1.0) ** i * np.linalg.det(np.delete(C, i, axis=-1))
                      for i in range(k)]
            np.testing.assert_array_equal(kernel_vector(C), np.stack(minors, axis=-1))
            n = kernel_vector(C[0])
            np.testing.assert_allclose(C[0] @ n, 0.0, atol=1e-12 * (1.0 + np.abs(n).max()))

    def test_torus_scan_does_not_crash_near_cone_boundary(self):
        npair = normalize(torus())
        blocks = block_form(npair, common_kernel(npair))
        report = scan_G(blocks, sweep_scale(blocks))
        # k = 4 > 3: no decision is taken
        assert report.verdict == "inconclusive"
        assert report.n_samples == 0


class TestKPetit:
    """kpetit_classify only labels the mechanism; the k <= 2 verdict itself is
    the sweep's, so each test states both."""

    def test_trivial_case(self):
        blocks = kdeux_blocks(1.0, 1.0)
        assert sweep_lambda(blocks, sweep_scale(blocks)).verdict == "observable_for_all_lambda"
        assert kpetit_classify(blocks) == "distinct_kernels_common_rotation_direction"

    def test_opposite_rates_flagged(self):
        blocks = kdeux_blocks(1.0, -1.0)
        assert sweep_lambda(blocks, sweep_scale(blocks)).verdict == "fails_at"
        assert kpetit_classify(blocks) == "A_lambda vanishes for some lambda in [0,1]"

    def test_equal_output_kernels(self):
        """C0 = C1 = [1, 0]: both outputs vanish on one line of K."""
        blocks = replace(kdeux_blocks(1.0, 2.0), C1=np.array([[1.0, 0.0]]))
        assert sweep_lambda(blocks, sweep_scale(blocks)).verdict == "observable_for_all_lambda"
        assert kpetit_classify(blocks) == "equal_output_kernels"

    def test_k1_always_decidable(self):
        blocks = k1_blocks(1.0, 1.0)
        assert sweep_lambda(blocks, sweep_scale(blocks)).verdict == "observable_for_all_lambda"
        assert kpetit_classify(blocks) == "no lambda kills C_lambda e1"

    def test_k1_output_killed(self):
        """C0 = 1, C1 = -1: lam = 1/2 kills the output on K."""
        blocks = k1_blocks(1.0, -1.0)
        assert sweep_lambda(blocks, sweep_scale(blocks)).verdict == "fails_at"
        assert kpetit_classify(blocks) == "some lambda in [0,1] kills the output on K"

    def test_k0_is_trivial(self):
        blocks = BlockFamily(
            A0=np.zeros((0, 0)), A1=np.zeros((0, 0)),
            C0=np.zeros((1, 0)), C1=np.zeros((1, 0)),
        )
        assert kpetit_classify(blocks) == "trivial"

    def test_rejects_k3(self):
        from guas_cert.errors import DimensionTooLarge

        rng = np.random.default_rng(0)
        blocks = BlockFamily(
            A0=skew(rng, 3), A1=skew(rng, 3),
            C0=rng.standard_normal((2, 3)), C1=rng.standard_normal((2, 3)),
        )
        with pytest.raises(DimensionTooLarge):
            kpetit_classify(blocks)
