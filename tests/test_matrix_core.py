import numpy as np
import pytest

from guas_cert import (
    MatrixPair,
    check_weak_lyapunov,
    convex_combination,
    is_hurwitz,
    normalize,
    strict_lyapunov_2x2,
    symmetric_part,
)
from guas_cert.errors import (
    DimensionMismatch,
    LambdaOutOfRange,
    NoCommonWeakLyapunov,
    NonFiniteInput,
    NotPositiveDefinite,
)
from guas_cert.gallery import mason

S2 = np.sqrt(2.0)


class TestSymmetricPart:
    def test_rotation_damped(self):
        B = np.array([[-1.0, -1.0], [1.0, -1.0]])
        np.testing.assert_allclose(symmetric_part(B), -2.0 * np.eye(2))

    def test_zero(self):
        np.testing.assert_array_equal(symmetric_part(np.zeros((3, 3))), 0.0)

    def test_skew_gives_zero(self):
        B = np.array([[0.0, 2.0, -1.0], [-2.0, 0.0, 3.0], [1.0, -3.0, 0.0]])
        np.testing.assert_allclose(symmetric_part(B), 0.0, atol=1e-15)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        S = symmetric_part(rng.standard_normal((5, 5)))
        np.testing.assert_array_equal(S, S.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            symmetric_part(np.ones((2, 3)))


class TestCheckWeakLyapunov:
    def test_mason_pair_holds_with_zero_determinant(self):
        pair = mason()
        v0, v1 = check_weak_lyapunov(pair)
        assert v0.holds and v1.holds
        for B in (pair.B0, pair.B1):
            M = B.T @ pair.P + pair.P @ B
            assert abs(np.linalg.det(M)) < 1e-9
        M0 = pair.B0.T @ pair.P + pair.P @ pair.B0
        np.testing.assert_allclose(
            M0,
            [[-2.0, 2.0 + 2.0 * S2], [2.0 + 2.0 * S2, -2.0 * (3.0 + 2.0 * S2)]],
            atol=1e-12,
        )

    def test_strict_negative_case(self):
        pair = MatrixPair(-np.eye(2), -np.eye(2))
        v0, v1 = check_weak_lyapunov(pair, np.eye(2))
        assert v0.holds and v1.holds
        assert v0.max_eigenvalue == pytest.approx(-2.0)

    def test_positive_scalar_fails_with_witness(self):
        pair = MatrixPair([[1.0]], [[-1.0]])
        v0, _ = check_weak_lyapunov(pair, [[1.0]])
        assert not v0.holds
        X = v0.witness
        S = 2.0 * np.array([[1.0]])
        assert X @ S @ X > 0

    def test_rejects_indefinite_P(self):
        pair = MatrixPair(-np.eye(2), -np.eye(2))
        with pytest.raises(NotPositiveDefinite):
            check_weak_lyapunov(pair, np.diag([1.0, -1.0]))


class TestNormalize:
    def test_identity_P_is_noop(self):
        pair = MatrixPair(-np.eye(2), [[-1.0, -1.0], [1.0, -1.0]])
        npair = normalize(pair, np.eye(2))
        np.testing.assert_allclose(npair.B0n, pair.B0)
        np.testing.assert_allclose(npair.B1n, pair.B1)

    @pytest.mark.parametrize("given_P", [False, True])
    def test_P_validated_once(self, monkeypatch, given_P):
        import guas_cert.matrix_core as matrix_core

        pair = mason()
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        original = matrix_core._check_spd
        monkeypatch.setattr(matrix_core, "_check_spd", counted)
        normalize(pair, pair.P if given_P else None)
        assert len(calls) == 1

    def test_mason_kernels_become_transverse(self):
        npair = normalize(mason())
        stacked = np.vstack([npair.S0, npair.S1])
        s = np.linalg.svd(stacked, compute_uv=False)
        assert s[-1] > 1e-6  # trivial intersection

    def test_spectrum_preserved(self):
        pair = mason()
        npair = normalize(pair)
        eig = np.sort_complex(np.linalg.eigvals(npair.B0n))
        np.testing.assert_allclose(eig, [-1.0 - 1.0j, -1.0 + 1.0j], atol=1e-12)

    def test_spectrum_preserved_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = rng.standard_normal((4, 4))
            B = M - (np.linalg.eigvalsh(M + M.T)[-1] / 2 + 0.3) * np.eye(4)
            Q = rng.standard_normal((4, 4))
            P = Q @ Q.T + 0.5 * np.eye(4)
            # make (B, P) weak-Lyapunov compatible by working backwards
            Pl = np.linalg.cholesky(P)
            Bp = np.linalg.inv(Pl.T) @ B @ Pl.T
            pair = MatrixPair(Bp, Bp, P)
            npair = normalize(pair)
            np.testing.assert_allclose(
                np.sort_complex(np.linalg.eigvals(npair.B0n)),
                np.sort_complex(np.linalg.eigvals(Bp)),
                atol=1e-8,
            )

    def test_normalized_forms_nonpositive_on_random_directions(self):
        npair = normalize(mason())
        rng = np.random.default_rng(11)
        X = rng.standard_normal((1000, 2))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        for S in (npair.S0, npair.S1):
            tol = 1e-9 * (1.0 + np.linalg.norm(S, "fro"))
            assert np.max(np.einsum("ij,jk,ik->i", X, S, X)) <= tol

    def test_rejects_incompatible_P(self):
        pair = MatrixPair([[1.0]], [[-1.0]])
        with pytest.raises(NoCommonWeakLyapunov):
            normalize(pair, [[1.0]])


    def test_rejects_non_finite_entries(self):
        B0 = -np.eye(2)
        B0[0, 1] = np.nan
        pair = MatrixPair(B0, -np.eye(2))  # built, refused on use
        with pytest.raises(NonFiniteInput):
            normalize(pair)
        with pytest.raises(NonFiniteInput):
            normalize(MatrixPair(-np.eye(2), -np.eye(2)), np.diag([1.0, np.inf]))
        with pytest.raises(NonFiniteInput):
            MatrixPair(-np.eye(2), -np.eye(2), [[np.nan, 0.0], [0.0, 1.0]])


class TestIsHurwitz:
    def test_minus_identity(self):
        res = is_hurwitz(-np.eye(3))
        assert res.hurwitz and res.abscissa == pytest.approx(-1.0)
        assert not res.marginal

    def test_rotation_is_marginal(self):
        res = is_hurwitz([[0.0, 1.0], [-1.0, 0.0]])
        assert not res.hurwitz
        assert res.abscissa == pytest.approx(0.0, abs=1e-12)
        assert res.marginal

    def test_damped_rotation(self):
        res = is_hurwitz([[-1.0, -1.0], [1.0, -1.0]])
        assert res.hurwitz and res.abscissa == pytest.approx(-1.0)


class TestConvexCombination:
    def test_endpoints(self):
        npair = normalize(mason())
        np.testing.assert_array_equal(convex_combination(npair, 0.0), npair.B0n)
        np.testing.assert_array_equal(convex_combination(npair, 1.0), npair.B1n)

    def test_scalar_average(self):
        npair = normalize(MatrixPair(-np.eye(2), -3.0 * np.eye(2)))
        np.testing.assert_allclose(convex_combination(npair, 0.5), -2.0 * np.eye(2))

    def test_out_of_range(self):
        npair = normalize(mason())
        with pytest.raises(LambdaOutOfRange):
            convex_combination(npair, 1.5)


class TestStrictLyapunov2x2:
    def test_mason_has_none_with_tangent_ellipses(self):
        res = strict_lyapunov_2x2(mason())
        assert not res.found
        v0 = sorted(res.vertex_ordinates[0])
        v1 = sorted(res.vertex_ordinates[1])
        np.testing.assert_allclose(v0, [3.0 - 2.0 * S2, 3.0 + 2.0 * S2], rtol=1e-8)
        np.testing.assert_allclose(v1, [3.0 + 2.0 * S2, 99.0 + 70.0 * S2], rtol=1e-8)

    def test_identical_contractions(self):
        res = strict_lyapunov_2x2(MatrixPair(-np.eye(2), -np.eye(2)))
        assert res.found
        _assert_strict(res, MatrixPair(-np.eye(2), -np.eye(2)))

    def test_mixed_pair_found(self):
        pair = MatrixPair(-np.eye(2), [[-1.0, -1.0], [1.0, -1.0]])
        res = strict_lyapunov_2x2(pair)
        assert res.found
        _assert_strict(res, pair)

    def test_recovers_known_strict_P(self):
        # build a pair that is strict exactly at P = [[1, q], [q, r]]
        q, r = 0.3, 1.7
        P = np.array([[1.0, q], [q, r]])
        L = np.linalg.cholesky(P)
        B = np.array([[-1.0, 2.0], [-2.0, -1.0]])
        Bp = np.linalg.inv(L.T) @ B @ L.T
        pair = MatrixPair(Bp, 2.0 * Bp)
        res = strict_lyapunov_2x2(pair)
        assert res.found
        _assert_strict(res, pair)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            strict_lyapunov_2x2(MatrixPair(-np.eye(3), -np.eye(3)))


def _assert_strict(res, pair):
    for B in (pair.B0, pair.B1):
        M = B.T @ res.P + res.P @ B
        assert np.linalg.eigvalsh(M)[-1] < -1e-9
